import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from ctqw import cli, graphs, spectra
from ctqw.walk import (
    as_distribution,
    average_distribution,
    bunkbed_instantaneous,
    class_amplitudes,
    class_probabilities,
    class_projections,
    evolve,
    exact_labels,
    instantaneous_distribution,
    phase_table,
)
from tests.conftest import _eigenvector_evolve, finite_time_average


def spec_of(g):
    return spectra.graph_eigensystem(g)


def test_evolve_k2_two_level_system():
    spec = spec_of(graphs.build_complete(2))
    for t in (0.0, 0.3, 1.7, math.pi):
        amp = evolve(spec, 0, t)
        assert np.allclose(amp, [math.cos(t), -1j * math.sin(t)], atol=1e-12)


def test_evolve_at_zero_is_basis_vector():
    for g in [graphs.build_cycle(7), graphs.build_path(5)]:
        spec = spec_of(g)
        amp = evolve(spec, 2, 0.0)
        expected = np.zeros(g.n, dtype=complex)
        expected[2] = 1.0
        assert np.allclose(amp, expected, atol=1e-12)


def test_evolve_rejects_bad_start():
    spec = spec_of(graphs.build_cycle(4))
    with pytest.raises(ValueError):
        evolve(spec, 4, 1.0)
    with pytest.raises(ValueError):
        evolve(spec, -1, 1.0)


def test_evolve_rejects_nan_time():
    spec = spec_of(graphs.build_cycle(4))
    with pytest.raises(RuntimeError, match="norm"):
        evolve(spec, 0, float("nan"))


def test_q3_quarter_pi_is_uniform_with_product_phases():
    spec = spec_of(graphs.build_hypercube(3))
    amp = evolve(spec, 0, math.pi / 4)
    assert np.allclose(np.abs(amp) ** 2, np.full(8, 1 / 8), atol=1e-12)
    # product form: cos^{3-w}(t) (-i sin t)^w at t = pi/4
    c = math.cos(math.pi / 4)
    for v in range(8):
        w = bin(v).count("1")
        expected = (c ** (3 - w)) * ((-1j * c) ** w)
        assert abs(amp[v] - expected) < 1e-12


def test_evolve_many_checks_every_row_for_unit_norm():
    spec = spec_of(graphs.build_cycle(6))
    amps = evolve(spec, 0, np.array([0.0, 0.4, 2.5]))
    for t, amp in zip((0.0, 0.4, 2.5), amps):
        assert np.allclose(amp, evolve(spec, 0, t), atol=1e-12)
    with pytest.raises(RuntimeError, match="at t = nan has norm nan"):
        evolve(spec, 0, np.array([0.4, float("nan"), 2.5]))
    # eigenvectors that are not unit vectors: the norm is off at every time
    inconsistent = spectra.Spectrum(spec.eigenvalues, 1.5 * spec.eigenvectors)
    with pytest.raises(RuntimeError, match="at t = 0.4 has norm"):
        evolve(inconsistent, 0, np.array([0.4, 2.5]))


def test_instantaneous_uniform_times():
    k4 = spec_of(graphs.build_complete(4))
    assert np.allclose(instantaneous_distribution(k4, 0, math.pi / 4), np.full(4, 0.25),
                       atol=1e-12)
    k3 = spec_of(graphs.build_complete(3))
    assert np.allclose(instantaneous_distribution(k3, 0, 2 * math.pi / 9), np.full(3, 1 / 3),
                       atol=1e-12)
    point = instantaneous_distribution(k3, 0, 0.0)
    assert np.allclose(point, [1, 0, 0], atol=1e-12)


def test_average_distribution_closed_values():
    k8 = spec_of(graphs.build_complete(8))
    pbar = average_distribution(k8, 0)
    assert abs(pbar[0] - 0.78125) < 1e-12
    assert np.max(np.abs(pbar[1:] - 0.03125)) < 1e-12

    c4 = spec_of(graphs.build_cycle(4))
    assert np.max(np.abs(average_distribution(c4, 0) - [3 / 8, 1 / 8, 3 / 8, 1 / 8])) < 1e-12

    p3 = spectra.path_eigensystem(3)
    pbar = average_distribution(p3, 0)
    assert abs(pbar[0] - 3 / 8) < 1e-12
    assert np.max(np.abs(pbar - [3 / 8, 1 / 4, 3 / 8])) < 1e-12


def test_average_requires_matching_partition():
    # the average reads its partition as degeneracy labels; labels of another
    # spectrum's size are refused by the class projections it runs through
    c4 = spec_of(graphs.build_cycle(4))
    alien = spectra.degeneracy_labels(spec_of(graphs.build_cycle(5)).eigenvalues, 1e-9)
    with pytest.raises(ValueError):
        class_projections(c4, 0, alien)


def test_average_reduces_to_diagonal_for_distinct_eigenvalues():
    spec = spectra.path_eigensystem(6)
    pbar = average_distribution(spec, 0)
    z = spec.eigenvectors
    direct = np.array([
        sum(abs(z[ell, j]) ** 2 * abs(z[0, j]) ** 2 for j in range(6)) for ell in range(6)
    ])
    assert np.max(np.abs(pbar - direct)) < 1e-12


def test_finite_time_average_whole_periods_k2():
    spec = spec_of(graphs.build_complete(2))
    for m in (1, 3, 10):
        fta = finite_time_average(spec, 0, 2 * math.pi * m)
        assert np.max(np.abs(fta - 0.5)) < 1e-12


def test_finite_time_average_converges_to_limit():
    c4 = spec_of(graphs.build_cycle(4))
    fta = finite_time_average(c4, 0, 1e4)
    assert np.max(np.abs(fta - [3 / 8, 1 / 8, 3 / 8, 1 / 8])) < 1e-3
    with pytest.raises(ValueError):
        finite_time_average(c4, 0, 0.0)


@pytest.mark.parametrize("T", [math.nan, math.inf, 0.0, -1.0])
def test_finite_time_average_rejects_non_positive_or_non_finite_windows(T):
    c4 = spec_of(graphs.build_cycle(4))
    with pytest.raises(ValueError, match="finite and positive"):
        finite_time_average(c4, 0, T)


def test_bunkbed_instantaneous_matches_generic_path():
    rng = np.random.default_rng(3)
    for base in [graphs.build_complete(2), graphs.build_cycle(5), graphs.build_path(4)]:
        base_spec = spec_of(base)
        bed_spec = spec_of(graphs.build_bunkbed(base))
        for t in rng.uniform(0, 2 * math.pi, size=8):
            fast = bunkbed_instantaneous(base_spec, t)
            generic = instantaneous_distribution(bed_spec, 0, t)
            assert np.max(np.abs(fast - generic)) < 1e-10


def test_bunkbed_instantaneous_values():
    k2 = spec_of(graphs.build_complete(2))
    assert np.allclose(bunkbed_instantaneous(k2, math.pi / 4), np.full(4, 0.25), atol=1e-12)
    assert np.allclose(bunkbed_instantaneous(k2, 0.0), [1, 0, 0, 0], atol=1e-12)
    c4 = spec_of(graphs.build_cycle(4))
    dist = bunkbed_instantaneous(c4, math.pi / 4)
    assert abs(dist[:4].sum() - 0.5) < 1e-12  # layer mass is cos^2(pi/4)


def test_distribution_clamp_and_errors():
    probs = np.array([1.0, 0.0, 0.0])
    assert np.array_equal(as_distribution(probs), probs)
    for negative in (-5e-13, -1e-8):  # every route passes sums of squares: no clamp
        with pytest.raises(RuntimeError, match="negative probability"):
            as_distribution(np.array([1.0, negative, -negative]))
    with pytest.raises(RuntimeError, match="sums to"):
        as_distribution(np.array([0.5, 0.4]))
    with pytest.raises(RuntimeError, match="sums to"):
        as_distribution(np.array([0.5, float("nan")]))


def test_shift_invariance_of_average():
    spec = spec_of(graphs.build_cycle(6))
    shifted = spectra.Spectrum(spec.eigenvalues + 3.7, spec.eigenvectors)
    a = average_distribution(spec, 0)
    b = average_distribution(shifted, 0)
    assert np.max(np.abs(a - b)) < 1e-10


def _dense_gnp(n, p, seed):
    rng = np.random.default_rng(seed)
    while True:
        upper = np.triu(rng.random((n, n)) < p, k=1)
        try:
            return graphs.from_adjacency((upper | upper.T).astype(np.uint8))
        except graphs.GraphValidationError:
            continue


_CLASS_ROUTE_CASES = {
    "C257": lambda: spec_of(graphs.build_cycle(257)),
    "Q9": lambda: spec_of(graphs.build_hypercube(9)),
    "K64": lambda: spec_of(graphs.build_complete(64)),
    "P20": lambda: spec_of(graphs.build_path(20)),
    "bunkbed-C6": lambda: spec_of(graphs.build_bunkbed(graphs.build_cycle(6))),
    "dense-G24": lambda: spectra.dense_eigensystem(_dense_gnp(24, 0.3, 5)),
    "scaled-Q4": lambda: spec_of(graphs.build_hypercube(4)).scaled(0.25),
}


@pytest.mark.parametrize("case", list(_CLASS_ROUTE_CASES))
def test_class_route_matches_per_eigenvector_reference(case):
    spec = _CLASS_ROUTE_CASES[case]()
    times = np.concatenate([[0.0, 1000.0], np.random.default_rng(8).uniform(0, 1000, 62)])
    want = _eigenvector_evolve(spec, 1, times)
    got = evolve(spec, 1, times)
    assert got.shape == want.shape == (64, spec.n)
    assert np.max(np.abs(got - want)) <= 1e-12
    for t in (0.0, 1000.0, float(times[5])):
        assert np.max(np.abs(evolve(spec, 1, t) - _eigenvector_evolve(spec, 1, t))) <= 1e-12


def test_evolution_never_merges_eigenvalues_one_ulp_apart():
    lam = np.array([1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 0.0), 0.5, 0.5, 0.5])
    assert exact_labels(lam).tolist() == [0, 1, 1, 2, 2, 2]
    # a real orthonormal basis: the two top eigenvalues stay separate classes
    q, _ = np.linalg.qr(np.random.default_rng(2).normal(size=(6, 6)))
    spec = spectra.Spectrum(lam, q)
    theta, columns, index, _ = class_projections(spec, 0, exact_labels(lam))
    assert theta.tolist() == [lam[0], lam[1], lam[3]]
    assert np.array_equal(columns[0, index], q[:, 0] * q[0, 0])
    t = 1e15  # far enough for the one-ulp gap to turn a phase
    assert np.max(np.abs(evolve(spec, 0, t) - _eigenvector_evolve(spec, 0, t))) <= 1e-9


def test_class_projections_reject_a_class_split_from_its_conjugate():
    spec = spec_of(graphs.build_cycle(4))
    # sorted C_4 spectrum: 2 (a=0), 0 (a=1), 0 (a=3), -2 (a=2)
    assert spec.eigenvalues.tolist() == [2.0, 0.0, 0.0, -2.0]
    lam = spec.eigenvalues.copy()
    lam[1] = np.nextafter(lam[1], 1.0)  # lambda_1 one ulp above lambda_{-1}
    nudged = spectra.Spectrum(lam, spec.eigenvectors)
    assert exact_labels(lam).tolist() == [0, 1, 2, 3]
    with pytest.raises(RuntimeError, match="imaginary residue"):
        class_projections(nudged, 0, exact_labels(lam))
    with pytest.raises(RuntimeError, match="imaginary residue"):
        evolve(nudged, 0, 1.0)


def test_class_projections_are_formed_once_per_spectrum_and_freed_with_it():
    spec = spec_of(graphs.build_cycle(8))
    labels = exact_labels(spec.eigenvalues)
    proj = class_projections(spec, 0, labels)
    assert class_projections(spec, 0, labels.copy()) is proj
    assert class_projections(spec, 0, labels.tolist()) is proj
    assert class_projections(spec, 1, labels) is not proj
    assert class_projections(spec.scaled(2.0), 0, labels) is not proj
    assert not any(part.flags.writeable for part in proj)  # shared by every caller
    columns = weakref.ref(proj.columns)
    del spec, proj
    gc.collect()
    assert columns() is None


def test_a_kept_projection_cannot_go_stale():
    # the projections are kept per spectrum, whose eigenvalues cannot change:
    # doubling them in place once returned the kept walk, 0.37 away from a
    # fresh spectrum's
    spec = spec_of(graphs.build_path(5))
    first = instantaneous_distribution(spec, 0, 1.0)
    with pytest.raises(ValueError, match="read-only"):
        spec.eigenvalues *= 2
    with pytest.raises(AttributeError):
        spec.eigenvalues = spec.eigenvalues * 2
    assert np.array_equal(instantaneous_distribution(spec, 0, 1.0), first)
    doubled = instantaneous_distribution(spec.scaled(2.0), 0, 1.0)
    assert np.array_equal(doubled, instantaneous_distribution(
        spectra.Spectrum(spec.eigenvalues * 2, spec.eigenvectors), 0, 1.0))
    assert np.abs(doubled - first).max() > 0.3


def test_class_projections_check_their_labels():
    spec = spec_of(graphs.build_cycle(5))
    for bad in ([0, 0, 1, 1], [1, 1, 2, 2, 3], [0, 2, 2, 3, 3], [0, 1, 0, 1, 2]):
        with pytest.raises(ValueError, match="labels"):
            class_projections(spec, 0, np.array(bad))
    with pytest.raises(ValueError, match="start"):
        class_projections(spec, 5, exact_labels(spec.eigenvalues))


def test_batched_times_match_single_time_calls():
    base = spec_of(graphs.build_cycle(7))
    bed = spec_of(graphs.build_bunkbed(graphs.build_cycle(7)))
    times = np.random.default_rng(4).uniform(0, 2 * math.pi, size=10)
    fast = bunkbed_instantaneous(base, times)
    generic = instantaneous_distribution(bed, 0, times)
    assert fast.shape == generic.shape == (10, 14)
    # one product over all times and a single-time product may round differently
    for row_fast, row_generic, t in zip(fast, generic, times):
        assert np.max(np.abs(row_fast - bunkbed_instantaneous(base, t))) <= 1e-15
        assert np.max(np.abs(row_generic - instantaneous_distribution(bed, 0, t))) <= 1e-15
    assert np.max(np.abs(fast - generic)) < 1e-10


def test_distribution_checks_every_row():
    good = np.array([[0.5, 0.5], [1.0, 0.0]])
    assert np.array_equal(as_distribution(good), good)
    with pytest.raises(RuntimeError, match="sums to"):
        as_distribution(np.array([[0.5, 0.5], [0.5, 0.4]]))
    with pytest.raises(RuntimeError, match="negative probability"):
        as_distribution(np.array([[0.5, 0.5], [1.0 + 5e-13, -5e-13]]))


def _reference_projections(spec, start, labels):
    """E_r e_start on every vertex by the eigenvector product (reference)."""
    z = spec.eigenvectors
    starts = np.flatnonzero(np.diff(labels, prepend=-1))
    return np.add.reduceat(z * z[start].conj(), starts, axis=1).T


def _z2_z4_z3_circulant():
    group = graphs.AbelianGroupSpec((2, 4, 3))
    gens = np.array([[1, 0, 0], [0, 1, 0], [0, 3, 0], [0, 0, 1], [0, 0, 2], [1, 1, 1], [1, 3, 2]])
    return graphs.build_abelian_circulant(graphs.Symbol.from_support(group, group.indices_of(gens)))


_REDUCED_ROUTE_CASES = {
    "C257": lambda: spec_of(graphs.build_cycle(257)),
    "Z2xZ4xZ3": lambda: spec_of(_z2_z4_z3_circulant()),
    "Q6": lambda: spec_of(graphs.build_hypercube(6)),
    "K64": lambda: spec_of(graphs.build_complete(64)),
    "scaled-C12": lambda: spec_of(graphs.build_cycle(12)).scaled(0.5),
    "P15": lambda: spec_of(graphs.build_path(15)),
    "bunkbed-C7": lambda: spec_of(graphs.build_bunkbed(graphs.build_cycle(7))),
    "dense-G24": lambda: spectra.dense_eigensystem(_dense_gnp(24, 0.3, 7)),
}


@pytest.mark.parametrize("start", [0, 5])
@pytest.mark.parametrize("case", list(_REDUCED_ROUTE_CASES))
def test_distinct_columns_match_the_per_eigenvector_reference(case, start):
    spec = _REDUCED_ROUTE_CASES[case]()
    assert (spec.characters is not None) == (case in ("C257", "Z2xZ4xZ3", "Q6", "K64", "scaled-C12"))
    labels = exact_labels(spec.eigenvalues)
    proj = class_projections(spec, start, labels)
    k = proj.columns.shape[1]
    # bitwise-distinct columns in order of first occurrence, counted per vertex
    assert len({col.tobytes() for col in proj.columns.T}) == k
    assert np.array_equal(np.bincount(proj.index, minlength=k), proj.counts)
    assert np.all(np.diff(np.unique(proj.index, return_index=True)[1]) > 0)
    times = np.concatenate([[0.0, 300.0], np.random.default_rng(9).uniform(0, 300, 30)])
    got_evolve = evolve(spec, start, times)
    got_average = average_distribution(spec, start)
    ref = _reference_projections(spec, start, labels)
    assert np.max(np.abs(ref.imag)) <= 1e-12
    assert np.max(np.abs(proj.columns[:, proj.index] - ref.real)) <= 1e-12
    assert np.max(np.abs(got_evolve - _eigenvector_evolve(spec, start, times))) <= 1e-12
    pbar = np.abs(_reference_projections(spec, start, spectra.degeneracy_labels(
        spec.eigenvalues, spectra.DEGENERACY_TOL))) ** 2
    assert np.max(np.abs(got_average - pbar.sum(axis=0))) <= 1e-12


@pytest.mark.parametrize("g, distinct", [
    (graphs.build_cycle(257), 129), (graphs.build_hypercube(10), 11), (graphs.build_complete(64), 33),
], ids=["C257", "Q10", "K64"])
def test_distinct_column_counts_under_exact_labels(g, distinct):
    # circulant columns pair as {x, -x} (Q_10's are the 11 Hamming weights):
    # C_257 has 1 + 128 distinct, K_64 1 + 31 + 1 (the self-inverse 32)
    spec = spec_of(g)
    proj = class_projections(spec, 0, exact_labels(spec.eigenvalues))
    assert proj.columns.shape[1] == proj.counts.size == distinct
    assert proj.counts.sum() == g.n


def test_average_and_scan_on_circulants_never_build_eigenvectors(monkeypatch, tmp_path):
    reads = []
    lazy = spectra.Spectrum.eigenvectors

    def counted(self):
        reads.append(self.n)
        return lazy.fget(self)

    monkeypatch.setattr(spectra.Spectrum, "eigenvectors", property(counted))
    out = str(tmp_path / "out.json")
    assert cli.main(["average", "--family", "hypercube", "--d", "10", "-o", out]) == 0
    assert cli.main(["scan", "--family", "cycle", "--n", "257", "-o", out]) == 0
    assert reads == []
    # the counter sees the routes that still read eigenvectors
    assert cli.main(["average", "--family", "path", "--n", "6", "-o", out]) == 0
    assert reads == [6]


def test_average_on_a_circulant_holds_no_n_by_n_table():
    spec = spec_of(graphs.build_hypercube(10))
    want = average_distribution(spec, 0)  # group tables are cached outside the measurement
    tracemalloc.start()
    try:
        got = average_distribution(spec, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == want.tobytes()
    # the 1024 x 1024 phase table alone is 8 MiB; its row blocks are 1 MiB
    assert peak < 4 * 2**20, peak


def _table_projections(spec, start, starts):
    """`Spectrum.class_projections` on a circulant, read from a cosine table
    as long as the largest unreduced phase, sum_k (n_k - 1)^2 L / n_k + 1
    entries."""
    group, chars = spec.characters
    coords = group.coordinates()
    offsets = (coords - coords[start]) % np.array(group.factors)
    L, x, a = spectra._phase_factors(group, offsets, coords[chars])
    bound = sum((f - 1) ** 2 * (L // f) for f in group.factors)
    cos = spectra._roots_of_unity(L).real[np.arange(bound + 1) % L]
    return (np.add.reduceat(cos[(x @ a).astype(np.intp)], starts, axis=1) / spec.n).T


@pytest.mark.parametrize("g", [graphs.build_cycle(1024), graphs.build_cycle(257),
                               _z2_z4_z3_circulant(), graphs.build_hypercube(6)],
                         ids=["C1024", "C257", "Z2xZ4xZ3", "Q6"])
def test_character_projections_reduce_the_phases_bit_for_bit(g):
    spec = spec_of(g)
    labels = exact_labels(spec.eigenvalues)
    starts = np.flatnonzero(np.diff(labels, prepend=-1))
    for start in (0, 5):
        want = np.ascontiguousarray(_table_projections(spec, start, starts))
        assert spec.class_projections(start, labels, starts).tobytes() == want.tobytes()


def test_character_projections_hold_no_table_quadratic_in_n():
    n = 1024
    spec = spec_of(graphs.build_cycle(n))
    labels = exact_labels(spec.eigenvalues)
    starts = np.flatnonzero(np.diff(labels, prepend=-1))
    spec.class_projections(0, labels, starts)  # group tables are cached outside the measurement
    tracemalloc.start()
    try:
        spec.class_projections(0, labels, starts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a cosine table of the unreduced phases alone, (n - 1)^2 + 1 float64
    assert peak < 8 * ((n - 1) ** 2 + 1), peak


@pytest.mark.parametrize("g", [graphs.build_cycle(257), graphs.build_complete(12),
                               graphs.build_hypercube(4), graphs.build_path(7),
                               graphs.build_bunkbed(graphs.build_cycle(5))],
                         ids=["C257", "K12", "Q4", "P7", "bunkbed_C5"])
def test_the_amplitude_product_is_the_walks_product_bit_for_bit(g):
    # the walk's product before the scans shared it: the phase table read as
    # a row of real and a row of imaginary parts per time, times the columns
    spec = spec_of(g)
    proj = class_projections(spec, 0, exact_labels(spec.eigenvalues))
    for times in (np.linspace(0.5, 900, 700), np.linspace(0.25, 40, 447), np.array([1.3])):
        table = phase_table(proj.theta, times)
        want = table.view(np.float64).T @ proj.columns
        re, im = want[0::2], want[1::2]
        probs = np.square(re)
        probs += np.square(im)
        amp = class_amplitudes(proj, table)
        assert amp.tobytes() == want.tobytes()
        assert class_probabilities(amp, proj, times).tobytes() == probs.tobytes()
        psi = evolve(spec, 0, times)
        assert psi.real.tobytes() == re[:, proj.index].tobytes()
        assert psi.imag.tobytes() == im[:, proj.index].tobytes()
        assert instantaneous_distribution(spec, 0, times).tobytes() == probs[:, proj.index].tobytes()


def test_closed_route_refuses_labels_that_split_a_from_minus_a():
    spec = spec_of(graphs.build_cycle(5))
    # sorted C_5 spectrum: 2 (a=0), then the pairs {1, 4} and {2, 3}
    assert spec.characters[1].tolist() == [0, 1, 4, 2, 3]
    with pytest.raises(RuntimeError, match="character 1 and its conjugate 4"):
        class_projections(spec, 0, np.arange(5))
    with pytest.raises(RuntimeError, match="character 2 and its conjugate 3"):
        class_projections(spec, 0, np.array([0, 1, 1, 2, 3]))
    lam = spec.eigenvalues.copy()
    lam[1] = np.nextafter(lam[1], 3.0)  # lambda_1 one ulp above lambda_4
    nudged = spectra.Spectrum(lam, spec.eigenvectors, spec.characters)
    with pytest.raises(RuntimeError, match="not closed under conjugation"):
        evolve(nudged, 0, 1.0)
