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
from dataclasses import dataclass, field

import numpy as np

from . import ensembles, graphs, spectra, walk
from .graphs import Graph
from .spectra import Spectrum

SCAN_GRID = 4096
SCAN_T_MAX_CAP = 1e3
GOLDEN_WIDTH = 1e-10
# The smallest `VerifyConfig.max_n`: the path check's Pbar(0) > pi(0)
# direction is claimed for n > 5, so a cap of 5 or less checks no case of it.
MIN_MAX_N = 6
# The fewest ensemble trials `verify` accepts.  For a correct sampler every
# draw gives the same lambda_0 with probability at most p_max^(T-1), and
# p_max <= 1/2 on every n >= 3: below 2e-9 at T = 30.  Above the floor a
# standard error of 0 therefore means a faulty sampler, and its flags fail.
MIN_ENSEMBLE_TRIALS = 30
# Random symbols per group in the spectral-gap check.
GAP_SYMBOLS = 20
# The vertex count of the C(n, 1/2) ensemble that `verify` samples.
ENSEMBLE_N = 7


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


def default_scan_window(spec: Spectrum, tol: float = spectra.DEGENERACY_TOL) -> float:
    """Heuristic t_max = 2 pi n / tau', tau' the smallest gap between degeneracy classes."""
    lam = spec.eigenvalues
    between = np.diff(spectra.degeneracy_labels(lam, tol)) > 0
    if not between.any():
        return 2.0 * math.pi
    gaps = lam[:-1] - lam[1:]
    return min(2.0 * math.pi * spec.n / float(gaps[between].min()), SCAN_T_MAX_CAP)


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_steps(width: float) -> list[float]:
    """The step of each golden-section probe in a bracket of `width`.

    A bracket shrinks from width u_0 = width by 1/phi per step, u_{j+1} =
    u_j / phi, and steps while u_j > GOLDEN_WIDTH.  Its first probe lies u_2
    right of its left end, the second u_3 right of the first, and the probe
    of step j u_{j+4} from the better of the two before it: u_2, u_3, ...
    """
    u = [width]
    while u[-1] > GOLDEN_WIDTH:
        u.append(u[-1] * _INVPHI)
    for _ in range(3):
        u.append(u[-1] * _INVPHI)
    return u[2:]


def _golden_minima(probe, keep, a: np.ndarray, width: float) -> tuple[np.ndarray, np.ndarray]:
    """Golden-section search on every bracket [a[k], a[k] + width] at once.

    All brackets follow the width schedule of `_golden_steps(width)`, so
    probe j of every bracket lies the same distance, its j-th step, from the
    kept point, the better of the bracket's two interior points (at first its
    left end): to its right if the kept point is the left one of the two,
    else to its left.
    `probe(j, times)` returns the deviations at the j-th probe `times` of all
    brackets, and `keep(better)` is then told in which brackets that probe
    became the kept point.  Returns each bracket's kept point and its
    deviation, the lowest of all its probes.
    """
    offset = np.zeros(a.size)
    f = np.full(a.size, np.inf)
    sign = np.ones(a.size)  # +1 while the next probe lies right of the kept point
    for j, u in enumerate(_golden_steps(width)):
        x = offset + sign * u
        fx = probe(j, a + x)
        # a tie keeps the left point, as a scalar search keeps [a, d] on fc <= fd
        better = fx < f
        np.less_equal(fx, f, out=better, where=sign < 0)
        keep(better)
        np.copyto(offset, x, where=better)
        np.copyto(f, fx, where=better)
        # a kept point that stays kept turns: the next probe lies on its other side
        np.negative(sign, out=sign, where=~better)
    return a + offset, f


def _scan_deviations(proj: walk.ClassProjections, times: np.ndarray) -> np.ndarray:
    """||P_t - U|| at each time, evaluated directly in blocks of
    `_stacked_rows` times."""
    block = _stacked_rows(proj)
    devs = np.empty(len(times))
    for lo in range(0, len(times), block):
        part = times[lo : lo + block]
        devs[lo : lo + block] = _deviations(proj, walk.phase_table(proj.theta, part), part)
    return devs


def _deviations(proj: walk.ClassProjections, table: np.ndarray, times: np.ndarray) -> np.ndarray:
    """||P_t - U|| at the `times` whose phases are the columns of `table`,
    from the probabilities of `walk.class_amplitudes`, overwritten here."""
    probs = walk.class_probabilities(walk.class_amplitudes(proj, table), proj, times)
    probs -= 1.0 / proj.counts.sum()
    return np.abs(probs, out=probs) @ proj.counts


def _stacked_rows(proj: walk.ClassProjections) -> int:
    """The most times evaluated at once: each complex phase table and the
    amplitudes then hold at most spectra.BLOCK_ENTRIES float64 entries."""
    return max(1, spectra.BLOCK_ENTRIES // (2 * max(proj.columns.shape)))


def _grid_tables(proj: walk.ClassProjections, step: float,
                 grid: int) -> tuple[np.ndarray, np.ndarray]:
    """The two phase tables from which every grid time's phases follow.

    Grid time (i + 1) step is written i = q P + p, with P = ceil(sqrt(grid)),
    or `_stacked_rows` if that is fewer: `coarse` holds the phases of the
    Q = ceil(grid / P) times q P step and `fine` those of the P times
    (p + 1) step, so the grid takes (P + Q) r sines and as many cosines,
    not grid r.
    """
    width = min(math.isqrt(grid - 1) + 1, _stacked_rows(proj))
    coarse = walk.phase_table(proj.theta, np.arange(0, grid, width) * step)
    fine = walk.phase_table(proj.theta, np.arange(1, width + 1) * step)
    return coarse, fine


def _grid_deviations(proj: walk.ClassProjections, step: float, coarse: np.ndarray,
                     fine: np.ndarray, grid: int) -> np.ndarray:
    """||P_t - U|| at the grid times (i + 1) step, i < grid, from the tables
    of `_grid_tables`: the phases of row q, its P times, are coarse[q] times
    fine, one complex product, and each block of whole rows is one product
    with the columns (`_deviations`).  The last row's times past the grid are
    evaluated too and dropped."""
    r, height, width = *coarse.shape, fine.shape[1]
    rows = _stacked_rows(proj) // width
    times = np.arange(1, height * width + 1) * step
    devs = np.empty(height * width)
    for q in range(0, height, rows):
        h = min(rows, height - q)
        lo, m = q * width, h * width
        table = (coarse[:, q : q + h, None] * fine[:, None]).reshape(r, m)
        devs[lo : lo + m] = _deviations(proj, table, times[lo : lo + m])
    return devs[:grid]


def _refined_minima(proj: walk.ClassProjections, lefts: np.ndarray, step: float,
                    coarse: np.ndarray, fine: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Golden-section minima of the deviation on the brackets [t, t + 2 step]
    left of the grid times t = (i + 1) step at the grid indices i in `lefts`.

    Each bracket stores the phases e^{-i theta t} of its kept point, at
    first its left end, the product of rows q and p of the grid's phase
    tables (`_grid_tables`, i = q P + p).  A probe a step u away is that
    vector times the phasor e^{-i theta u}, which all brackets share: one
    table of sines for the whole schedule instead of r sines per probe.  A
    probe to the left of the kept point uses the conjugate phasor; a bracket
    instead stores the conjugate of its vector while its next probe lies to
    the left, which gives the conjugate probe (the same deviation) from the
    same product.  Brackets are searched in chunks of `_stacked_rows`, so
    each stored table holds at most spectra.BLOCK_ENTRIES float64 entries.
    """
    width, chunk = 2.0 * step, _stacked_rows(proj)
    phasors = walk.phase_table(proj.theta, np.array(_golden_steps(width)))
    a = (lefts + 1) * step
    q, p = np.divmod(lefts, fine.shape[1])
    t_best, f_best = np.empty(a.size), np.empty(a.size)
    for lo in range(0, a.size, chunk):
        ends = a[lo : lo + chunk]
        kept = np.take(coarse, q[lo : lo + chunk], axis=1)
        kept *= np.take(fine, p[lo : lo + chunk], axis=1)
        table = np.empty_like(kept)

        def probe(j, times):
            np.multiply(kept, phasors[:, j, None], out=table)
            return _deviations(proj, table, times)

        def keep(better):
            # a bracket that keeps its probe stores it; one that does not
            # turns to probe the other side and stores its conjugate
            np.conjugate(kept, out=kept)
            np.putmask(kept, np.broadcast_to(better, kept.shape), table)

        t_best[lo : lo + chunk], f_best[lo : lo + chunk] = _golden_minima(probe, keep, ends, width)
    return t_best, f_best


def instantaneous_mixing_scan(
    spec: Spectrum,
    start: int = 0,
    eps: float = math.inf,
    t_max: float | None = None,
    grid: int = SCAN_GRID,
) -> list[tuple[float, float]]:
    """Locate local minima of t -> ||P_t - U|| over (0, t_max].

    The class projections of `start` are computed once; a direct evaluation
    (`_scan_deviations`) then costs r cosines, r sines and one real product
    per time over the k distinct columns, and each column's deviation
    counts once per vertex sharing it.  Evaluates a uniform grid and refines
    every interior local minimum by golden-section search on the bracket of
    its two grid neighbours, 2 t_max / grid wide, to a width of GOLDEN_WIDTH
    (1e-10) in t.  The grid's phases are products of two tables of about
    sqrt(grid) times each (`_grid_tables`), and each bracket's first phases
    are the product of the same two rows.  All brackets shrink on one width
    schedule, so a probe's phases are those of its bracket's kept point times
    a phasor shared by every bracket (`_refined_minima`): the scan takes r
    sines and r cosines per table row and per step, not per time or probe, and
    checks every time it evaluates for unit norm.  Adjacent grid minima that
    refine to one merge, and each reported time is then evaluated directly
    once more: every deviation returned is the direct one at its time.
    Returns the (time, deviation) pairs with deviation <= eps (all minima when
    eps is infinite), sorted by time.
    Where the deviation is smooth at a minimum, rounding flattens its
    bottom, so t is fixed only to about sqrt(machine epsilon / curvature)
    (about 3e-9 on K_8).  A t_max where floats lie further apart than
    GOLDEN_WIDTH (from 2^19) is refused, as are a NaN or negative eps and a
    grid that is not an integer of at least 2.
    """
    if t_max is None:
        t_max = default_scan_window(spec)
    if not 0 < t_max < math.inf:
        raise ValueError(f"t_max must be positive and finite, got {t_max!r}")
    if np.spacing(float(t_max)) > GOLDEN_WIDTH:
        raise ValueError(f"t_max {t_max!r} is too large: floats there lie further apart"
                         f" than the refinement width {GOLDEN_WIDTH:g}")
    if not isinstance(grid, (int, np.integer)) or grid < 2:
        raise ValueError(f"grid must be an integer of at least 2, got {grid!r}")
    if math.isnan(eps):
        raise ValueError("eps must not be NaN")
    if eps < 0:  # a deviation is never negative: no minimum would be reported
        raise ValueError(f"eps must be >= 0, got {eps!r}")
    proj = walk.class_projections(spec, start, walk.exact_labels(spec.eigenvalues))
    step = t_max / grid
    coarse, fine = _grid_tables(proj, step, grid)
    devs = _grid_deviations(proj, step, coarse, fine, grid)
    inner = devs[1:-1]
    lefts = np.flatnonzero((inner <= devs[:-2]) & (inner <= devs[2:]))  # left neighbours
    t_best, f_best = _refined_minima(proj, lefts, step, coarse, fine)
    minima = sorted(zip(t_best.tolist(), f_best.tolist()))
    # adjacent grid ties refine to the same minimum; merge them
    merged: list[tuple[float, float]] = []
    for t, f in minima:
        if merged and t - merged[-1][0] < 1.5 * step:
            if f < merged[-1][1]:
                merged[-1] = (t, f)
        else:
            merged.append((t, f))
    times = np.array([t for t, _ in merged])
    return [(t, f) for t, f in zip(times.tolist(), _scan_deviations(proj, times).tolist())
            if f <= eps]


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


def bunkbed_resonance_difference(base_spec: Spectrum, tol: float = spectra.DEGENERACY_TOL) -> np.ndarray:
    """Predicted layer difference Pbar(0,.) - Pbar(1,.) from base resonances.

    Averaging cos(2t) e^{-it(lambda_j - lambda_k)} term by term leaves
    exactly the class pairs with theta_j - theta_k = 2 (to tol), so the
    layers differ by D(l) = sum over those pairs of p_j(l) p_k(l) with
    p_j = E_j e_0 the real class projections of the base.  Zero iff no base
    eigenvalue pair differs by exactly 2 (with nonvanishing projections).
    """
    labels = spectra.degeneracy_labels(base_spec.eigenvalues, tol)
    theta, columns, index, _ = walk.class_projections(base_spec, 0, labels)
    resonant = np.abs(theta[:, None] - theta[None, :] - 2.0) <= tol
    return np.einsum("jk,jl,kl->l", resonant.astype(np.float64), columns, columns)[index]


@dataclass
class MixingReport:
    """Named theorem checks with measured values for one graph or one family."""

    descriptor: str
    deviation_uniform: float | None = None
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


def _check_complete_average(cfg: VerifyConfig) -> list[MixingReport]:
    worst_pbar = worst_dev = 0.0
    top = cfg.cap(64)
    for n in range(2, top + 1):
        g = graphs.build_complete(n)
        spec = spectra.graph_eigensystem(g)
        pbar = walk.average_distribution(spec, 0)
        worst_pbar = max(worst_pbar, float(np.max(np.abs(pbar - complete_graph_average(n)))))
        dev = total_variation(pbar, uniform_target(n))
        expected = 2.0 * (1.0 - 1.0 / n) * (1.0 - 2.0 / n)
        worst_dev = max(worst_dev, abs(dev - expected))
    report = MixingReport(descriptor=f"complete K_2..K_{top}")
    report.flags["average_closed_form"] = _flag(
        "pass" if worst_pbar <= 1e-12 else "fail", measured=worst_pbar, expected="<=1e-12"
    )
    report.flags["uniform_deviation_formula"] = _flag(
        "pass" if worst_dev <= 1e-12 else "fail",
        measured=worst_dev,
        expected="2(1-1/n)(1-2/n) to 1e-12",
    )
    return [report]


# One group's symbols in the spectral-gap check: (group, value rows, eigenvalue rows).
_GapBatch = tuple[graphs.AbelianGroupSpec, np.ndarray, np.ndarray]


def _gap_rows(cfg: VerifyConfig) -> list[_GapBatch]:
    """The random symbols of the spectral-gap check, one batch per group: on
    each Z_n the GAP_SYMBOLS symbols of the C(n, 1/2) ensemble at cfg.seed,
    then GAP_SYMBOLS on each (Z_2)^d."""
    batches = []
    for n in range(3, cfg.cap(12) + 1):
        group = graphs.AbelianGroupSpec((n,))
        rows = np.array([s.values for s in ensembles.random_circulants(n, GAP_SYMBOLS, cfg.seed)])
        batches.append((group, rows, spectra.circulant_eigenvalues(group, rows)))
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((cfg.seed, 2))))
    return batches + [_cube_rows(d, GAP_SYMBOLS, rng) for d in range(2, cfg.dim_cap(4) + 1)]


def _cube_rows(d: int, count: int, rng: np.random.Generator) -> _GapBatch:
    """A `_gap_rows` batch of `count` connected symbols on (Z_2)^d: a fair
    coin for each element but 0.  Each round draws the rows still needed at
    once and keeps, in draw order, those `graphs.generates` accepts: the
    symbols of one draw per attempt.  Every element is its own inverse, so
    each row is symmetric, and its eigenvalues are sums of +-1, exact."""
    group = graphs.AbelianGroupSpec((2,) * d)
    rows = np.zeros((0, group.order), dtype=bool)
    while len(rows) < count:
        values = np.zeros((count - len(rows), group.order), dtype=bool)
        values[:, 1:] = rng.integers(0, 2, size=(len(values), group.order - 1))
        rows = np.concatenate([rows, values[graphs.generates(group, values)]])
    return group, rows, spectra.circulant_eigenvalues(group, rows)


def _check_abelian_spectral_gap(cfg: VerifyConfig) -> list[MixingReport]:
    batches = _gap_rows(cfg)
    failures = sum(int(spectra._row_classes(group, lams, spectra.DEGENERACY_TOL)[1].sum())
                   for group, _, lams in batches)
    dense = spectra.dense_eigensystems([
        graphs.build_abelian_circulant(graphs.Symbol._proven(group, row))
        for group, rows, _ in batches for row in rows])
    # every cap has rows (Z_3..Z_6 at MIN_MAX_N), so the max has an argument
    worst_dense = max(float(np.min(np.abs(np.diff(d.eigenvalues)))) for d in dense)
    report = MixingReport(descriptor=f"abelian circulants ({len(dense)} random symbols)")
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


def _check_cycle_average(cfg: VerifyConfig) -> list[MixingReport]:
    top = cfg.cap(33)
    report = MixingReport(descriptor=f"cycles C_3..C_{top}")
    worst_odd = worst_bound = 0.0
    for n in range(3, top + 1, 2):
        g = graphs.build_cycle(n)
        spec = spectra.graph_eigensystem(g)
        pbar = walk.average_distribution(spec, 0)
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
        if n > top:
            continue
        dev = average_uniform_deviation(graphs.build_cycle(n))
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
    for d in range(1, cfg.dim_cap(6) + 1):
        spec = spectra.graph_eigensystem(graphs.build_hypercube(d))
        minima = instantaneous_mixing_scan(spec, 0, eps=1e-9, t_max=math.pi, grid=SCAN_GRID)
        hit = [m for m in minima if abs(m[0] - math.pi / 4) <= 1e-6]
        norm_minima = instantaneous_mixing_scan(spec.scaled(1.0 / d), 0, eps=1e-9,
                                                t_max=d * math.pi, grid=SCAN_GRID)
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
    if cfg.cap(8) < 8:
        return reports
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
    for d in range(2, cfg.dim_cap(6) + 1):
        dev = average_uniform_deviation(graphs.build_hypercube(d))
        rep = MixingReport(descriptor=f"hypercube Q_{d}", deviation_uniform=dev)
        rep.flags["no_average_uniform_mixing"] = _flag(
            "pass" if dev >= 0.1 else "fail", measured=dev, expected=">= 0.1")
        reports.append(rep)
    return reports


def _bunkbed_bases(cfg: VerifyConfig) -> list[tuple[str, Graph]]:
    # a bed has two vertices per base vertex
    return ([(f"K_{n}", graphs.build_complete(n)) for n in range(2, cfg.cap(8, per=2) + 1)]
            + [(f"C_{n}", graphs.build_cycle(n)) for n in range(3, cfg.cap(16, per=2) + 1)]
            + [(f"P_{n}", graphs.build_path(n)) for n in range(2, cfg.cap(16, per=2) + 1)]
            + [(f"Q_{d}", graphs.build_hypercube(d)) for d in range(1, cfg.dim_cap(3, per=2) + 1)])


def _check_bunkbed_layers(cfg: VerifyConfig) -> list[MixingReport]:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((cfg.seed, 6))))
    reports = []
    for name, base in _bunkbed_bases(cfg):
        base_spec = spectra.graph_eigensystem(base)
        bed_spec = spectra.graph_eigensystem(graphs.build_bunkbed(base))
        n = base.n
        pbars = [walk.average_distribution(bed_spec, start) for start in (0, n)]
        diff = float(np.max(np.abs(pbars[0][:n] - pbars[0][n:])))
        predicted = bunkbed_resonance_difference(base_spec)
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
        off_half = 0.0
        for pbar in pbars:
            off_half = max(off_half, abs(pbar[:n].sum() - 0.5), abs(pbar[n:].sum() - 0.5))
        rep.flags["layer_mass_half"] = _flag(
            "pass" if off_half <= 1e-12 else "fail",
            measured=off_half,
            expected="1/2 of the average mass per layer to 1e-12, starts in either layer",
        )
        times = rng.uniform(0.0, 2.0 * math.pi, size=10)
        fast = walk.bunkbed_instantaneous(base_spec, times)
        generic = walk.instantaneous_distribution(bed_spec, 0, times)
        worst = float(np.max(np.abs(fast - generic)))
        rep.flags["factorized_instantaneous"] = _flag(
            "pass" if worst <= 1e-10 else "fail", measured=worst, expected="<= 1e-10"
        )
        reports.append(rep)
    return reports


def _check_path_classical(cfg: VerifyConfig) -> list[MixingReport]:
    top = cfg.cap(32)
    report = MixingReport(descriptor=f"paths P_2..P_{top}")
    p2 = path_start_average(2)
    report.flags["P2_matches_stationary"] = _flag(
        "pass" if abs(p2 - 0.5) <= 1e-12 else "fail", measured=p2, expected=0.5
    )
    worst = 0.0
    min_sep = math.inf
    direction_ok = True
    for n in range(3, top + 1):
        spec = spectra.path_eigensystem(n)
        pbar0 = float(walk.average_distribution(spec, 0)[0])
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


def _oracle_cases(cfg: VerifyConfig) -> list[Graph]:
    """The closed-form families the oracle check compares, up to 20 vertices."""
    cap = cfg.cap(20)
    cases = [graphs.build_cycle(n) for n in range(3, cap + 1)]
    cases += [graphs.build_complete(n) for n in range(2, cap + 1)]
    cases += [graphs.build_path(n) for n in range(2, cap + 1)]
    cases += [graphs.build_hypercube(d) for d in range(1, cap.bit_length())]  # 2^d <= cap
    cases += [graphs.build_bunkbed(graphs.build_cycle(n)) for n in range(3, cap // 2 + 1)]
    return cases


def _check_oracle_agreement(cfg: VerifyConfig) -> list[MixingReport]:
    cases = _oracle_cases(cfg)
    dense = spectra.dense_eigensystems(cases)
    worst = max(
        (float(np.max(np.abs(spectra.graph_eigensystem(g, method="closed").eigenvalues
                             - d.eigenvalues))) for g, d in zip(cases, dense)),
        default=0.0,
    )
    report = MixingReport(descriptor=f"closed form vs Jacobi oracle ({len(cases)} graphs)")
    report.flags["eigenvalue_multisets"] = _flag(
        "pass" if worst <= 1e-9 else "fail", measured=worst, expected="<= 1e-9"
    )
    return [report]


_ZERO_SE_NOTE = "standard error 0: every draw gave the same value, so only an exact match passes"


def _check_ensemble_expectations(cfg: VerifyConfig) -> list[MixingReport]:
    n = ENSEMBLE_N
    stats = ensembles.ensemble_stats(n, cfg.ensemble_trials, cfg.seed)
    exact = ensembles.exhaustive_expectations(n)
    rep = MixingReport(descriptor=f"random circulant ensemble C({n}, 1/2)")
    # lambda_0 is the degree: each orbit {j, n-j} adds 2 (1 for j = n/2) with
    # probability 1/2, so E[lambda_0] = (n-1)/2 for odd and even n alike
    expected_lam0 = (n - 1) / 2
    se0, se_other = stats.se_lambda0_unconditional, stats.se_lambda_other_unconditional
    rep.flags["expected_lambda0"] = _flag(
        "pass" if abs(stats.mean_lambda0_unconditional - expected_lam0) <= 3.0 * se0 else "fail",
        measured=stats.mean_lambda0_unconditional,
        expected=f"{expected_lam0:g} within 3 standard errors",
        note=f"connectivity rejection rate {stats.rejection_rate:.4f};"
        f" conditional mean {stats.mean_lambda0:.4f}"
        f" (exact conditional value {exact['mean_lambda0_connected']:.4f})"
        + (f"; {_ZERO_SE_NOTE}" if se0 == 0 else ""),
    )
    rep.flags["expected_lambda_other"] = _flag(
        "pass" if abs(stats.mean_lambda_other_unconditional + 0.5) <= 3.0 * se_other else "fail",
        measured=stats.mean_lambda_other_unconditional,
        expected="-0.5 within 3 standard errors",
        note=_ZERO_SE_NOTE if se_other == 0 else None,
    )
    return [rep]


# Every named check of `verify`, in the order it runs them.
_CHECKS = {
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
ALL_CHECKS = tuple(_CHECKS)


@dataclass
class VerifyConfig:
    """Selection, seed and sizes for verify_all: the knobs `ctqw verify` sets.

    Each check loops over its acceptance range cut by one vertex-count cap
    `max_n` (`cap`, `dim_cap`); without a cap the ranges are the acceptance
    ranges, except the dense oracle's, which stays small for speed.  An
    empty or unknown selection is refused, as are a cap under MIN_MAX_N,
    since some check would then report over no input, and fewer than
    MIN_ENSEMBLE_TRIALS ensemble trials.
    """

    checks: tuple[str, ...] = ALL_CHECKS
    max_n: int | None = None
    ensemble_trials: int = 10000
    seed: int = 7

    def __post_init__(self):
        if not self.checks:
            raise ValueError("no checks selected")
        unknown = [c for c in self.checks if c not in _CHECKS]
        if unknown:
            raise ValueError(f"unknown checks: {', '.join(unknown)}")
        if type(self.ensemble_trials) is not int or type(self.max_n) not in (int, type(None)):
            raise ValueError("max_n and ensemble_trials must be ints, got"
                             f" {self.max_n!r} and {self.ensemble_trials!r}")
        if self.ensemble_trials < MIN_ENSEMBLE_TRIALS:
            raise ValueError(
                f"ensemble trials must be at least {MIN_ENSEMBLE_TRIALS}, where a correct"
                f" sampler gives a nonzero standard error; got {self.ensemble_trials}")
        if self.max_n is not None and self.max_n < MIN_MAX_N:
            raise ValueError(
                f"size cap must be at least {MIN_MAX_N}, where every check has a case;"
                f" got {self.max_n}")

    def cap(self, limit: int, per: int = 1) -> int:
        """The top of a size range whose acceptance range ends at `limit`,
        cut to max_n // per for graphs of `per` vertices per unit of size."""
        return limit if self.max_n is None else min(limit, self.max_n // per)

    def dim_cap(self, limit: int, per: int = 1) -> int:
        """The top hypercube dimension: at most `limit`, and per 2^d <= max_n
        for graphs of `per` vertices per hypercube vertex."""
        return self.cap(2**limit, per).bit_length() - 1


def verify_all(config: VerifyConfig | None = None) -> list[MixingReport]:
    """Run the selected named checks; returns one report per graph or family.

    Computational failures propagate, while recorded discrepancies only
    show up in the flags.
    """
    cfg = config or VerifyConfig()
    return [report for name in cfg.checks for report in _CHECKS[name](cfg)]


def collect_discrepancies(reports: list[MixingReport]) -> list[str]:
    out = []
    for rep in reports:
        for name, flag in rep.flags.items():
            if flag["status"] == "discrepancy":
                out.append(f"{rep.descriptor}: {name}")
    return out


def has_failures(reports: list[MixingReport]) -> bool:
    return any(f["status"] == "fail" for rep in reports for f in rep.flags.values())
