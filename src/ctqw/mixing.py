"""Mixing metrics, closed-form targets, time scans, and the verification
harness for the classical mixing statements this library checks.

Total variation follows the unhalved convention ||P - Q|| = sum |P - Q|;
the conventional halved distance is exactly half of every value reported
here.  The `verify_all` harness distinguishes "fail" (our closed form
disagrees with our oracle, i.e. a bug) from "discrepancy" (our verified
computation disagrees with a published claim); discrepancies are reported,
never masked, and do not affect the exit status.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import graphs, spectra, walk
from .graphs import Graph
from .spectra import Spectrum

SCAN_GRID = 4096
SCAN_T_MAX_CAP = 1e3
GOLDEN_WIDTH = 1e-10

ALL_CHECKS = (
    "complete_average",
    "abelian_spectral_gap",
    "cycle_average",
    "instantaneous_uniform",
    "hypercube_average",
    "bunkbed_layers",
    "path_classical",
    "oracle_agreement",
    "ensemble_expectations",
)


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    """Unhalved total variation sum |P(s) - Q(s)|."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError("distributions have different lengths")
    return float(np.abs(p - q).sum())


def uniform_target(n: int) -> np.ndarray:
    if n < 1:
        raise ValueError("n must be positive")
    return np.full(n, 1.0 / n)


def lazy_stationary(g: Graph) -> np.ndarray:
    """Stationary distribution of the lazy discrete walk: degree-proportional."""
    deg = g.degrees.astype(np.float64)
    return deg / deg.sum()


def average_uniform_deviation(g: Graph, tol: float = spectra.DEGENERACY_TOL) -> float:
    """||Pbar - U|| with the closed-form spectrum when one is available."""
    spec = spectra.graph_eigensystem(g)
    pbar = walk.average_distribution(spec, 0, tol=tol)
    return total_variation(pbar, uniform_target(g.n))


def average_classical_deviation(g: Graph, tol: float = spectra.DEGENERACY_TOL) -> float:
    """||Pbar - pi|| against the lazy-walk stationary distribution."""
    spec = spectra.graph_eigensystem(g)
    pbar = walk.average_distribution(spec, 0, tol=tol)
    return total_variation(pbar, lazy_stationary(g))


def default_scan_window(spec: Spectrum, tol: float = spectra.DEGENERACY_TOL) -> float:
    """Heuristic t_max = 2 pi n / tau', tau' the smallest nonzero eigenvalue gap."""
    lam = spec.eigenvalues
    gaps = lam[:-1] - lam[1:]
    nonzero = gaps[gaps > tol]
    if nonzero.size == 0:
        return 2.0 * math.pi
    return min(2.0 * math.pi * spec.n / float(nonzero.min()), SCAN_T_MAX_CAP)


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_minimum(f, a: float, b: float, width: float = GOLDEN_WIDTH):
    """Golden-section search on [a, b]; returns the best evaluated point."""
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    best_t, best_f = (c, fc) if fc <= fd else (d, fd)
    while b - a > width:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
            if fc < best_f:
                best_t, best_f = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
            if fd < best_f:
                best_t, best_f = d, fd
    return best_t, best_f


def instantaneous_mixing_scan(
    spec: Spectrum,
    start: int = 0,
    eps: float = math.inf,
    t_max: float | None = None,
    grid: int = SCAN_GRID,
) -> list[tuple[float, float]]:
    """Locate local minima of t -> ||P_t - U|| over (0, t_max].

    Evaluates on a uniform grid, refines each interior local minimum by
    golden-section search to a bracket width of 1e-10 in t, and returns the
    (time, deviation) pairs with deviation <= eps (all minima when eps is
    infinite), sorted by time.
    """
    if t_max is None:
        t_max = default_scan_window(spec)
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    if grid < 2:
        raise ValueError("grid must have at least 2 points")
    n = spec.n
    u = 1.0 / n
    ts = np.arange(1, grid + 1) * (t_max / grid)
    amps = walk.evolve_many(spec, start, ts)
    devs = np.abs((amps * amps.conj()).real - u).sum(axis=1)

    def deviation(t: float) -> float:
        amp = walk.evolve(spec, start, t)
        return float(np.abs((amp * amp.conj()).real - u).sum())

    minima: list[tuple[float, float]] = []
    for i in range(1, grid - 1):
        if devs[i] <= devs[i - 1] and devs[i] <= devs[i + 1]:
            t_best, f_best = _golden_minimum(deviation, float(ts[i - 1]), float(ts[i + 1]))
            minima.append((float(t_best), float(f_best)))
    # adjacent grid ties refine to the same minimum; merge them
    minima.sort()
    merged: list[tuple[float, float]] = []
    step = t_max / grid
    for t, f in minima:
        if merged and t - merged[-1][0] < 1.5 * step:
            if f < merged[-1][1]:
                merged[-1] = (t, f)
        else:
            merged.append((t, f))
    return [(t, f) for t, f in merged if f <= eps]


def cycle_fourier_bound(n: int, pbar: np.ndarray) -> float:
    """Upper bound (1/4) sum_{a != 0} |Pbar-hat(a)|^2 on ||Pbar - U|| for odd cycles.

    Rejects even n: the unique-pair step in the supporting argument needs
    2j = -a (mod n) to have a unique solution, which fails for even n.
    """
    if n % 2 == 0:
        raise ValueError("cycle Fourier bound is only supported for odd n")
    pbar = np.asarray(pbar, dtype=np.float64)
    if pbar.shape != (n,):
        raise ValueError("distribution length does not match n")
    ell = np.arange(n)
    hat = pbar @ np.exp(2j * np.pi * np.outer(ell, ell) / n)
    return float(0.25 * np.sum(np.abs(hat[1:]) ** 2))


def complete_graph_average(n: int) -> np.ndarray:
    """Closed-form average distribution on K_n from vertex 0."""
    if n < 2:
        raise ValueError("complete graph requires n >= 2")
    out = np.full(n, 2.0 / n**2)
    out[0] = 1.0 - 2.0 * (n - 1) / n**2
    return out


def path_start_average(n: int) -> float:
    """Closed-form Pbar(0) on the path P_n: the exact finite sine-power sum."""
    if n < 2:
        raise ValueError("path requires n >= 2")
    j = np.arange(1, n + 1)
    return float(4.0 / (n + 1) ** 2 * np.sum(np.sin(j * np.pi / (n + 1)) ** 4))


def bunkbed_layer_equality(base: Graph, tol: float = spectra.DEGENERACY_TOL) -> float:
    """max_l |Pbar(0,l) - Pbar(1,l)| on the assembled bunkbed.

    Averages the walk from (0, 0) with `graph_eigensystem` of the assembled
    graph, which routes a bunkbed to `bunkbed_eigensystem`, the same closed
    form the factorized route uses; it checks the averaging and degeneracy
    classes on 2n vertices, not the closed form.  The independent route is a
    dense spectrum of the assembled graph (criterion 6 compares against it).
    """
    bed = graphs.build_bunkbed(base)
    spec = spectra.graph_eigensystem(bed)
    pbar = walk.average_distribution(spec, 0, tol=tol)
    n = base.n
    return float(np.max(np.abs(pbar[:n] - pbar[n:])))


def bunkbed_resonance_difference(base_spec: Spectrum, tol: float = spectra.DEGENERACY_TOL) -> np.ndarray:
    """Predicted layer difference Pbar(0,.) - Pbar(1,.) from base resonances.

    Averaging cos(2t) e^{-it(lambda_j - lambda_k)} term by term leaves
    exactly the pairs with lambda_j - lambda_k = 2, so the layers differ by
    D(l) = Re sum over those pairs of c_j(l) conj(c_k(l)) with
    c_j(l) = <l|alpha_j><alpha_j|0>.  Zero iff no base eigenvalue pair
    differs by exactly 2 (with nonvanishing coefficients).
    """
    part = spectra.degeneracy_classes(base_spec, tol)
    lam = base_spec.eigenvalues
    coeff = base_spec.eigenvectors * base_spec.eigenvectors[0, :].conj()[None, :]
    class_sums = [coeff[:, cls].sum(axis=1) for cls in part.classes]
    class_vals = [float(np.mean(lam[cls])) for cls in part.classes]
    diff = np.zeros(base_spec.n, dtype=np.complex128)
    for j, vj in enumerate(class_vals):
        for k, vk in enumerate(class_vals):
            if abs(vj - vk - 2.0) <= tol:
                diff += class_sums[j] * class_sums[k].conj()
    return diff.real


@dataclass
class MixingReport:
    """Named theorem checks with measured values for one graph or one family."""

    descriptor: str
    deviation_uniform: float | None = None
    deviation_classical: float | None = None
    spectral_gap: float | None = None
    type: int | None = None
    instantaneous_times: list[tuple[float, float]] = field(default_factory=list)
    flags: dict[str, dict] = field(default_factory=dict)


def _flag(status: str, measured=None, expected=None, note: str | None = None) -> dict:
    out = {"status": status}
    if measured is not None:
        out["measured"] = measured
    if expected is not None:
        out["expected"] = expected
    if note:
        out["note"] = note
    return out


@dataclass
class VerifyConfig:
    """Size caps and selection for verify_all; defaults mirror the acceptance
    ranges except for the dense-oracle cap, which stays small for speed."""

    checks: tuple[str, ...] = ALL_CHECKS
    complete_max: int = 64
    cycle_max: int = 33
    path_max: int = 32
    hypercube_max_d: int = 6
    bunkbed_complete_max: int = 8
    bunkbed_cycle_max: int = 16
    bunkbed_path_max: int = 16
    bunkbed_hypercube_max_d: int = 3
    gap_zn_max: int = 12
    gap_symbols: int = 20
    gap_cube_max_d: int = 4
    oracle_max: int = 20
    ensemble_n: int = 7
    ensemble_trials: int = 10000
    seed: int = 7
    tol: float = spectra.DEGENERACY_TOL

    def capped(self, max_n: int) -> "VerifyConfig":
        """Apply a global vertex-count cap across families."""
        d_cap = max(int(math.log2(max_n)), 1) if max_n >= 2 else 1
        return replace(
            self,
            complete_max=min(self.complete_max, max_n),
            cycle_max=min(self.cycle_max, max_n),
            path_max=min(self.path_max, max_n),
            hypercube_max_d=min(self.hypercube_max_d, d_cap),
            bunkbed_complete_max=min(self.bunkbed_complete_max, max(max_n // 2, 2)),
            bunkbed_cycle_max=min(self.bunkbed_cycle_max, max(max_n // 2, 3)),
            bunkbed_path_max=min(self.bunkbed_path_max, max(max_n // 2, 2)),
            bunkbed_hypercube_max_d=min(self.bunkbed_hypercube_max_d, d_cap),
            gap_zn_max=min(self.gap_zn_max, max_n),
            gap_cube_max_d=min(self.gap_cube_max_d, d_cap),
            oracle_max=min(self.oracle_max, max_n),
        )


def _check_complete_average(cfg: VerifyConfig) -> list[MixingReport]:
    worst_pbar = worst_dev = 0.0
    for n in range(2, cfg.complete_max + 1):
        g = graphs.build_complete(n)
        spec = spectra.graph_eigensystem(g)
        pbar = walk.average_distribution(spec, 0, tol=cfg.tol)
        worst_pbar = max(worst_pbar, float(np.max(np.abs(pbar - complete_graph_average(n)))))
        dev = total_variation(pbar, uniform_target(n))
        expected = 2.0 * (1.0 - 1.0 / n) * (1.0 - 2.0 / n)
        worst_dev = max(worst_dev, abs(dev - expected))
    report = MixingReport(descriptor=f"complete K_2..K_{cfg.complete_max}")
    report.flags["average_closed_form"] = _flag(
        "pass" if worst_pbar <= 1e-12 else "fail", measured=worst_pbar, expected="<=1e-12"
    )
    report.flags["uniform_deviation_formula"] = _flag(
        "pass" if worst_dev <= 1e-12 else "fail",
        measured=worst_dev,
        expected="2(1-1/n)(1-2/n) to 1e-12",
    )
    return [report]


def _check_abelian_spectral_gap(cfg: VerifyConfig) -> list[MixingReport]:
    from .ensembles import sample_random_circulant

    failures = 0
    count = 0
    worst_dense = 0.0
    for n in range(3, cfg.gap_zn_max + 1):
        for i in range(cfg.gap_symbols):
            sym = sample_random_circulant(n, seed=(cfg.seed, n, i))
            g = graphs.build_abelian_circulant(sym)
            spec = spectra.abelian_circulant_eigensystem(sym)
            if spectra.spectral_gap(spec, cfg.tol) != 0.0:
                failures += 1
            dense = spectra.dense_eigensystem(g)
            worst_dense = max(worst_dense, float(np.min(np.abs(np.diff(dense.eigenvalues)))))
            count += 1
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((cfg.seed, 2))))
    for d in range(2, cfg.gap_cube_max_d + 1):
        group = graphs.AbelianGroupSpec((2,) * d)
        for _ in range(cfg.gap_symbols):
            sym = _random_cube_symbol(group, rng)
            spec = spectra.abelian_circulant_eigensystem(sym)
            if spectra.spectral_gap(spec, cfg.tol) != 0.0:
                failures += 1
            dense = spectra.dense_eigensystem(graphs.build_abelian_circulant(sym))
            worst_dense = max(worst_dense, float(np.min(np.abs(np.diff(dense.eigenvalues)))))
            count += 1
    report = MixingReport(descriptor=f"abelian circulants ({count} random symbols)")
    report.flags["zero_spectral_gap"] = _flag(
        "pass" if failures == 0 else "fail",
        measured=f"{failures} nonzero gaps",
        expected="gap exactly 0 for every symbol",
    )
    report.flags["dense_oracle_degenerate_pair"] = _flag(
        "pass" if worst_dense <= 1e-9 else "fail",
        measured=worst_dense,
        expected="min oracle gap <= 1e-9",
    )
    return [report]


def _random_cube_symbol(group: graphs.AbelianGroupSpec, rng) -> graphs.Symbol:
    n = group.order
    while True:
        vals = np.zeros(n, dtype=bool)
        vals[1:] = rng.integers(0, 2, size=n - 1).astype(bool)
        try:
            return graphs.Symbol(group, vals)
        except graphs.GraphValidationError:
            continue


def _check_cycle_average(cfg: VerifyConfig) -> list[MixingReport]:
    report = MixingReport(descriptor=f"cycles C_3..C_{cfg.cycle_max}")
    worst_odd = worst_bound = 0.0
    for n in range(3, cfg.cycle_max + 1, 2):
        g = graphs.build_cycle(n)
        spec = spectra.graph_eigensystem(g)
        pbar = walk.average_distribution(spec, 0, tol=cfg.tol)
        dev = total_variation(pbar, uniform_target(n))
        worst_odd = max(worst_odd, abs(dev - 2.0 * (n - 1) / n**2))
        worst_bound = max(worst_bound, abs(cycle_fourier_bound(n, pbar) - (n - 1) / (4.0 * n**2)))
    report.flags["odd_cycle_deviation"] = _flag(
        "pass" if worst_odd <= 1e-12 else "fail",
        measured=worst_odd,
        expected="2(n-1)/n^2 to 1e-12",
    )
    report.flags["odd_cycle_fourier_bound"] = _flag(
        "pass" if worst_bound <= 1e-12 else "fail",
        measured=worst_bound,
        expected="(n-1)/4n^2 to 1e-12",
    )
    for n, desk in ((4, 0.5), (6, 4.0 / 9.0)):
        if n > cfg.cycle_max:
            continue
        dev = average_uniform_deviation(graphs.build_cycle(n), cfg.tol)
        ok = abs(dev - desk) <= 1e-12
        report.flags[f"even_cycle_C{n}"] = _flag(
            "discrepancy" if ok else "fail",
            measured=dev,
            expected=desk,
            note="even cycles sit outside the odd-cycle statement; desk value confirmed",
        )
    return [report]


def _check_instantaneous_uniform(cfg: VerifyConfig) -> list[MixingReport]:
    reports = []
    for d in range(1, cfg.hypercube_max_d + 1):
        g = graphs.build_hypercube(d)
        spec = spectra.graph_eigensystem(g)
        minima = instantaneous_mixing_scan(spec, 0, eps=1e-9, t_max=math.pi, grid=SCAN_GRID)
        hit = [m for m in minima if abs(m[0] - math.pi / 4) <= 1e-6]
        norm_spec = spec.scaled(1.0 / d)
        norm_minima = instantaneous_mixing_scan(
            norm_spec, 0, eps=1e-9, t_max=d * math.pi, grid=SCAN_GRID
        )
        norm_hit = [m for m in norm_minima if abs(m[0] - d * math.pi / 4) <= 1e-6]
        rep = MixingReport(descriptor=f"hypercube Q_{d}", instantaneous_times=minima)
        rep.flags["uniform_at_pi_over_4"] = _flag(
            "pass" if hit else "fail",
            measured=minima[:3],
            expected="deviation <= 1e-9 at t = pi/4",
        )
        rep.flags["normalized_uniform_at_d_pi_over_4"] = _flag(
            "pass" if norm_hit else "fail",
            expected="deviation <= 1e-9 at t = d pi/4 under A/d",
        )
        reports.append(rep)
    for n, t_star in ((3, 2.0 * math.pi / 9.0), (4, math.pi / 4.0)):
        spec = spectra.graph_eigensystem(graphs.build_complete(n))
        minima = instantaneous_mixing_scan(spec, 0, eps=1e-9, t_max=math.pi, grid=SCAN_GRID)
        hit = [m for m in minima if abs(m[0] - t_star) <= 1e-6]
        rep = MixingReport(descriptor=f"complete K_{n}", instantaneous_times=minima)
        rep.flags["uniform_instant"] = _flag(
            "pass" if hit else "fail",
            measured=minima[:3],
            expected=f"deviation <= 1e-9 at t = {t_star:.6f}",
        )
        reports.append(rep)
    spec8 = spectra.graph_eigensystem(graphs.build_complete(8))
    minima8 = instantaneous_mixing_scan(spec8, 0, eps=0.1, t_max=4.0 * math.pi, grid=SCAN_GRID)
    rep8 = MixingReport(descriptor="complete K_8", instantaneous_times=minima8)
    rep8.flags["never_near_uniform"] = _flag(
        "pass" if not minima8 else "fail",
        measured=f"{len(minima8)} minima below 0.1",
        expected="no scan point with deviation <= 0.1 on (0, 4 pi]",
    )
    reports.append(rep8)
    return reports


def _check_hypercube_average(cfg: VerifyConfig) -> list[MixingReport]:
    reports = []
    for d in range(2, cfg.hypercube_max_d + 1):
        g = graphs.build_hypercube(d)
        dev = average_uniform_deviation(g, cfg.tol)
        rep = MixingReport(descriptor=f"hypercube Q_{d}", deviation_uniform=dev)
        rep.flags["no_average_uniform_mixing"] = _flag(
            "pass" if dev >= 0.1 else "fail", measured=dev, expected=">= 0.1"
        )
        reports.append(rep)
    return reports


def _bunkbed_bases(cfg: VerifyConfig) -> list[tuple[str, Graph]]:
    bases: list[tuple[str, Graph]] = []
    for n in range(2, cfg.bunkbed_complete_max + 1):
        bases.append((f"K_{n}", graphs.build_complete(n)))
    for n in range(3, cfg.bunkbed_cycle_max + 1):
        bases.append((f"C_{n}", graphs.build_cycle(n)))
    for n in range(2, cfg.bunkbed_path_max + 1):
        bases.append((f"P_{n}", graphs.build_path(n)))
    for d in range(1, cfg.bunkbed_hypercube_max_d + 1):
        bases.append((f"Q_{d}", graphs.build_hypercube(d)))
    return bases


def _check_bunkbed_layers(cfg: VerifyConfig) -> list[MixingReport]:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((cfg.seed, 6))))
    reports = []
    for name, base in _bunkbed_bases(cfg):
        base_spec = spectra.graph_eigensystem(base)
        bed_spec = spectra.graph_eigensystem(graphs.build_bunkbed(base))
        diff = bunkbed_layer_equality(base, cfg.tol)
        predicted = bunkbed_resonance_difference(base_spec, cfg.tol)
        resonant = bool(np.max(np.abs(predicted)) > 1e-12)
        rep = MixingReport(descriptor=f"bunkbed over {name}")
        if diff <= 1e-12:
            rep.flags["layer_equality"] = _flag("pass", measured=diff, expected="<= 1e-12")
        elif resonant and abs(diff - float(np.max(np.abs(predicted)))) <= 1e-12:
            rep.flags["layer_equality"] = _flag(
                "discrepancy",
                measured=diff,
                expected="0 claimed; resonance analysis predicts the measured value",
                note=(
                    "base spectrum has an eigenvalue pair differing by exactly 2; the"
                    " cos^2/sin^2 layer factors resonate with it and the layer averages"
                    " split, contradicting the layer-equality claim"
                ),
            )
        else:
            rep.flags["layer_equality"] = _flag("fail", measured=diff, expected="<= 1e-12")
        part = spectra.degeneracy_classes(bed_spec, cfg.tol)
        n = base.n
        off_half = 0.0
        for start in (0, n):
            pbar = walk.average_distribution(bed_spec, start, part)
            off_half = max(off_half, abs(pbar[:n].sum() - 0.5), abs(pbar[n:].sum() - 0.5))
        rep.flags["layer_mass_half"] = _flag(
            "pass" if off_half <= 1e-12 else "fail",
            measured=off_half,
            expected="1/2 of the average mass per layer to 1e-12, starts in either layer",
        )
        worst = 0.0
        for t in rng.uniform(0.0, 2.0 * math.pi, size=10):
            fast = walk.bunkbed_instantaneous(base_spec, t)
            generic = walk.instantaneous_distribution(bed_spec, 0, t)
            worst = max(worst, float(np.max(np.abs(fast - generic))))
        rep.flags["factorized_instantaneous"] = _flag(
            "pass" if worst <= 1e-10 else "fail", measured=worst, expected="<= 1e-10"
        )
        reports.append(rep)
    return reports


def _check_path_classical(cfg: VerifyConfig) -> list[MixingReport]:
    report = MixingReport(descriptor=f"paths P_2..P_{cfg.path_max}")
    p2 = path_start_average(2)
    report.flags["P2_matches_stationary"] = _flag(
        "pass" if abs(p2 - 0.5) <= 1e-12 else "fail", measured=p2, expected=0.5
    )
    worst = 0.0
    min_sep = math.inf
    direction_ok = True
    for n in range(3, cfg.path_max + 1):
        spec = spectra.path_eigensystem(n)
        pbar0 = float(walk.average_distribution(spec, 0, tol=cfg.tol)[0])
        worst = max(worst, abs(pbar0 - 3.0 / (2.0 * (n + 1))))
        pi0 = 1.0 / (2.0 * (n - 1))
        min_sep = min(min_sep, abs(pbar0 - pi0))
        if n > 5 and pbar0 <= pi0:
            direction_ok = False
    report.flags["start_average_closed_form"] = _flag(
        "pass" if worst <= 1e-12 else "fail", measured=worst, expected="3/(2(n+1)) to 1e-12"
    )
    report.flags["not_classical_mixing"] = _flag(
        "pass" if min_sep > 1e-3 else "fail",
        measured=min_sep,
        expected="|Pbar(0) - pi(0)| > 1e-3 for n >= 3",
    )
    report.flags["start_average_direction"] = _flag(
        "discrepancy" if direction_ok else "fail",
        measured="Pbar(0) > pi(0) for all n > 5",
        expected="claimed Pbar(0) < pi(0) for n > 5",
        note="the claimed inequality direction reverses; the non-mixing conclusion stands",
    )
    return [report]


def _check_oracle_agreement(cfg: VerifyConfig) -> list[MixingReport]:
    cap = cfg.oracle_max
    cases: list[tuple[str, Graph]] = []
    cases += [(f"C_{n}", graphs.build_cycle(n)) for n in range(3, cap + 1)]
    cases += [(f"K_{n}", graphs.build_complete(n)) for n in range(2, cap + 1)]
    cases += [(f"P_{n}", graphs.build_path(n)) for n in range(2, cap + 1)]
    cases += [
        (f"Q_{d}", graphs.build_hypercube(d))
        for d in range(1, cfg.hypercube_max_d + 1)
        if 2**d <= cap
    ]
    cases += [
        (f"bunkbed(C_{n})", graphs.build_bunkbed(graphs.build_cycle(n)))
        for n in range(3, cap // 2 + 1)
    ]
    worst = 0.0
    for _, g in cases:
        closed = spectra.graph_eigensystem(g, method="closed")
        dense = spectra.dense_eigensystem(g)
        worst = max(worst, float(np.max(np.abs(closed.eigenvalues - dense.eigenvalues))))
    report = MixingReport(descriptor=f"closed form vs Jacobi oracle ({len(cases)} graphs)")
    report.flags["eigenvalue_multisets"] = _flag(
        "pass" if worst <= 1e-9 else "fail", measured=worst, expected="<= 1e-9"
    )
    return [report]


def _check_ensemble_expectations(cfg: VerifyConfig) -> list[MixingReport]:
    from .ensembles import ensemble_stats, exhaustive_expectations

    n = cfg.ensemble_n
    stats = ensemble_stats(n, cfg.ensemble_trials, cfg.seed)
    exact = exhaustive_expectations(n)
    rep = MixingReport(descriptor=f"random circulant ensemble C({n}, 1/2)")
    # lambda_0 is the degree: each orbit {j, n-j} adds 2 (1 for j = n/2) with
    # probability 1/2, so E[lambda_0] = (n-1)/2 for odd and even n alike
    expected_lam0 = (n - 1) / 2
    z0 = abs(stats.mean_lambda0_unconditional - expected_lam0) / stats.se_lambda0_unconditional
    rep.flags["expected_lambda0"] = _flag(
        "pass" if z0 <= 3.0 else "fail",
        measured=stats.mean_lambda0_unconditional,
        expected=f"{expected_lam0:g} within 3 standard errors",
        note=f"connectivity rejection rate {stats.rejection_rate:.4f};"
        f" conditional mean {stats.mean_lambda0:.4f}"
        f" (exact conditional value {exact['mean_lambda0_connected']:.4f})",
    )
    zo = abs(stats.mean_lambda_other_unconditional + 0.5) / stats.se_lambda_other_unconditional
    rep.flags["expected_lambda_other"] = _flag(
        "pass" if zo <= 3.0 else "fail",
        measured=stats.mean_lambda_other_unconditional,
        expected="-0.5 within 3 standard errors",
    )
    return [rep]


_CHECK_FUNCS = {
    "complete_average": _check_complete_average,
    "abelian_spectral_gap": _check_abelian_spectral_gap,
    "cycle_average": _check_cycle_average,
    "instantaneous_uniform": _check_instantaneous_uniform,
    "hypercube_average": _check_hypercube_average,
    "bunkbed_layers": _check_bunkbed_layers,
    "path_classical": _check_path_classical,
    "oracle_agreement": _check_oracle_agreement,
    "ensemble_expectations": _check_ensemble_expectations,
}


def verify_all(config: VerifyConfig | None = None) -> list[MixingReport]:
    """Run the selected named checks; returns one report per graph or family.

    Raises on an empty selection; computational failures propagate, while
    recorded discrepancies only show up in the flags.
    """
    cfg = config or VerifyConfig()
    if not cfg.checks:
        raise ValueError("no checks selected")
    unknown = [c for c in cfg.checks if c not in _CHECK_FUNCS]
    if unknown:
        raise ValueError(f"unknown checks: {', '.join(unknown)}")
    reports: list[MixingReport] = []
    for name in cfg.checks:
        reports.extend(_CHECK_FUNCS[name](cfg))
    return reports


def collect_discrepancies(reports: list[MixingReport]) -> list[str]:
    out = []
    for rep in reports:
        for name, flag in rep.flags.items():
            if flag["status"] == "discrepancy":
                out.append(f"{rep.descriptor}: {name}")
    return out


def has_failures(reports: list[MixingReport]) -> bool:
    return any(f["status"] == "fail" for rep in reports for f in rep.flags.values())
