import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from ctqw import graphs, mixing, spectra, walk
from ctqw.mixing import (
    VerifyConfig,
    average_uniform_deviation,
    bunkbed_resonance_difference,
    complete_graph_average,
    cycle_fourier_bound,
    instantaneous_mixing_scan,
    lazy_stationary,
    path_start_average,
    total_variation,
    uniform_target,
    verify_all,
)
from tests.conftest import _eigenvector_evolve, bunkbed_layer_equality, finite_time_average


def test_total_variation_basics():
    p = np.array([0.5, 0.5])
    assert total_variation(p, p) == 0.0
    assert total_variation(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 2.0
    with pytest.raises(ValueError):
        total_variation(p, np.array([1.0, 0.0, 0.0]))


def test_k8_deviation_value():
    pbar = walk.average_distribution(spectra.graph_eigensystem(graphs.build_complete(8)), 0)
    assert abs(total_variation(pbar, uniform_target(8)) - 1.3125) < 1e-12


def test_targets():
    assert np.allclose(uniform_target(4), 0.25)
    assert np.allclose(lazy_stationary(graphs.build_path(5)), [1/8, 1/4, 1/4, 1/4, 1/8])
    assert np.allclose(lazy_stationary(graphs.build_complete(6)), 1/6)


def test_average_uniform_deviation_values():
    assert average_uniform_deviation(graphs.build_complete(2)) < 1e-12
    assert abs(average_uniform_deviation(graphs.build_cycle(5)) - 8 / 25) < 1e-12
    assert abs(average_uniform_deviation(graphs.build_cycle(4)) - 0.5) < 1e-12


def test_average_classical_deviation_values():
    # ||Pbar - pi|| as `ctqw average` reports it in "deviation_classical"
    def average_classical_deviation(g):
        pbar = walk.average_distribution(spectra.graph_eigensystem(g), 0)
        return total_variation(pbar, lazy_stationary(g))

    assert average_classical_deviation(graphs.build_complete(2)) < 1e-12
    assert abs(average_classical_deviation(graphs.build_path(3)) - 0.5) < 1e-12
    for n in (3, 5, 8):
        expected = 2 * (1 - 1 / n) * (1 - 2 / n)
        assert abs(average_classical_deviation(graphs.build_complete(n)) - expected) < 1e-12


def test_scan_finds_hypercube_time():
    spec = spectra.graph_eigensystem(graphs.build_hypercube(3))
    minima = instantaneous_mixing_scan(spec, 0, eps=1e-9, t_max=math.pi, grid=4096)
    assert any(abs(t - math.pi / 4) < 1e-6 for t, _ in minima)
    assert all(dev <= 1e-9 for _, dev in minima)


def test_scan_finds_k3_time():
    spec = spectra.graph_eigensystem(graphs.build_complete(3))
    minima = instantaneous_mixing_scan(spec, 0, eps=1e-9, t_max=math.pi, grid=4096)
    assert any(abs(t - 2 * math.pi / 9) < 1e-6 for t, _ in minima)


def test_scan_k8_finds_nothing_near_uniform():
    spec = spectra.graph_eigensystem(graphs.build_complete(8))
    assert instantaneous_mixing_scan(spec, 0, eps=0.1, t_max=4 * math.pi, grid=4096) == []


def test_scan_default_window_and_errors():
    spec = spectra.graph_eigensystem(graphs.build_cycle(5))
    minima = instantaneous_mixing_scan(spec, 0)
    assert minima, "unbounded eps returns all minima"
    with pytest.raises(ValueError):
        instantaneous_mixing_scan(spec, 0, t_max=-1.0)
    with pytest.raises(ValueError):
        instantaneous_mixing_scan(spec, 0, grid=1)


@pytest.mark.parametrize("kwargs, reason", [
    ({"eps": math.nan}, "eps"),
    # a deviation is never negative: -inf printed "eps": null yet kept no minimum
    ({"eps": -math.inf}, "eps"),
    ({"eps": -1e-9}, "eps"),
    ({"grid": 7.5, "t_max": 10.0}, "grid"),
    ({"grid": 64.0}, "grid"),
    ({"t_max": math.nan}, "t_max"),
    ({"t_max": math.inf}, "t_max"),
    # from 2^19 floats lie 1.16e-10 apart, more than GOLDEN_WIDTH
    ({"t_max": 2.0**19}, "t_max"),
    ({"t_max": 6e5}, "t_max"),
], ids=["eps-nan", "eps--inf", "eps-negative", "grid-7.5", "grid-float", "t_max-nan", "t_max-inf", "t_max-2^19",
        "t_max-6e5"])
def test_scan_refuses_bad_inputs_before_any_evaluation(monkeypatch, kwargs, reason):
    spec = spectra.graph_eigensystem(graphs.build_cycle(5))

    def evaluated(*args):
        raise AssertionError("the scan evaluated before refusing its input")

    monkeypatch.setattr(walk, "class_projections", evaluated)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=reason):
            instantaneous_mixing_scan(spec, 0, **kwargs)


def test_scan_accepts_the_largest_window_its_refinement_resolves():
    spec = spectra.graph_eigensystem(graphs.build_cycle(5))
    t_max = float(np.nextafter(2.0**19, 0.0))
    assert np.spacing(t_max) <= mixing.GOLDEN_WIDTH < np.spacing(2.0**19)
    minima = instantaneous_mixing_scan(spec, 0, t_max=t_max, grid=64)
    assert minima and all(0 < t <= t_max for t, _ in minima)


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_minimum(f, a, width):
    """Scalar golden-section search on [a, a + width], one evaluation per call
    (reference).  The bracket shrinks by 1/phi per step, u_{j+1} = u_j / phi
    from u_0 = width, while u_j > GOLDEN_WIDTH; the interior points c < d sit
    at offsets from a, and each new probe is a step u_{j+4} from the point kept."""
    stop = mixing.GOLDEN_WIDTH
    u = [width]
    while len(u) < 4 or u[-4] > stop:
        u.append(u[-1] * _INVPHI)
    xc = u[2]
    fc = f(a + xc)
    xd = xc + u[3]
    fd = f(a + xd)
    j = 0
    while u[j] > stop:
        if fc <= fd:  # the minimum lies in [a, d]: d <- c, probe a new c
            xd, fd = xc, fc
            xc = xc - u[j + 4]
            fc = f(a + xc)
        else:  # the minimum lies in [c, b]: c <- d, probe a new d
            xc, fc = xd, fd
            xd = xd + u[j + 4]
            fd = f(a + xd)
        j += 1
    return (a + xc, fc) if fc <= fd else (a + xd, fd)


def _reference_scan(spec, start=0, eps=math.inf, t_max=None, grid=mixing.SCAN_GRID):
    """The scan that refines one minimum at a time on the same width schedule,
    with per-eigenvector evolution at every probe (reference)."""
    if t_max is None:
        t_max = _reference_scan_window(spec)
    u = 1.0 / spec.n
    step = t_max / grid
    ts = np.arange(1, grid + 1) * step
    amps = _eigenvector_evolve(spec, start, ts)
    devs = np.abs((amps * amps.conj()).real - u).sum(axis=1)

    def deviation(t):
        amp = _eigenvector_evolve(spec, start, t)
        return float(np.abs((amp * amp.conj()).real - u).sum())

    minima = []
    for i in range(1, grid - 1):
        if devs[i] <= devs[i - 1] and devs[i] <= devs[i + 1]:
            t_best, f_best = _golden_minimum(deviation, float(ts[i - 1]), 2.0 * step)
            minima.append((float(t_best), float(f_best)))
    minima.sort()
    merged = []
    for t, f in minima:
        if merged and t - merged[-1][0] < 1.5 * step:
            if f < merged[-1][1]:
                merged[-1] = (t, f)
        else:
            merged.append((t, f))
    return [(t, f) for t, f in merged if f <= eps]


def _direct_deviations(spec, times, start=0):
    """The scan's direct evaluation at `times`, all in one call."""
    proj = walk.class_projections(spec, start, walk.exact_labels(spec.eigenvalues))
    return mixing._scan_deviations(proj, np.array(times))


def test_golden_minima_match_the_scalar_search_bitwise():
    # Exact IEEE arithmetic only, so both routes see the same values.  Bracket
    # k starts inside (k - 1/2, k + 1/2) and each shape has its minimum at
    # k + 0.03: a flat floor (1 + tiny rounds to 1, so fc == fd ties), a
    # smooth bowl and a kink.  Some brackets miss the minimum, and at the
    # last width, under GOLDEN_WIDTH, every bracket holds it and no step is
    # taken.
    rng = np.random.default_rng(11)
    k = np.arange(1, 311)
    shapes = [
        lambda x: 1.0 + x * x,
        lambda x: 0.25 + 3.0 * x * x,
        lambda x: 0.5 + 2.0 * abs(x),
    ]
    for width in (0.25, 0.07, 3e-9, 5e-11):
        if width < mixing.GOLDEN_WIDTH:
            a = k + 0.03 - rng.uniform(0.0, width, size=k.size)
        else:
            a = k + rng.uniform(-0.45, 0.2, size=k.size)
        for shape in shapes:
            probes = []

            def batched(j, ts, shape=shape):
                probes.append(ts.size)
                return shape(ts - np.round(ts) - 0.03)

            got_t, got_f = mixing._golden_minima(batched, lambda better: None, a, width)
            evaluated = 0
            for i in range(k.size):
                def scalar(t, shape=shape):
                    nonlocal evaluated
                    evaluated += 1
                    return shape(t - round(t) - 0.03)

                want = _golden_minimum(scalar, float(a[i]), width)
                assert (got_t[i], got_f[i]) == want, (width, i)
            assert sum(probes) == evaluated


@pytest.mark.parametrize("g", [
    graphs.build_cycle(257), graphs.build_hypercube(10), graphs.build_cycle(33),
    graphs.build_path(20),
], ids=["C257", "Q10", "C33", "P20"])
def test_every_phasor_probe_matches_the_direct_kernel(monkeypatch, g):
    spec = spectra.graph_eigensystem(g)
    search = mixing._golden_minima
    worst, probed = 0.0, 0

    def checked_search(probe, keep, a, width):
        def checked(j, times):
            nonlocal worst, probed
            f = probe(j, times)
            worst = max(worst, float(np.max(np.abs(f - _direct_deviations(spec, times)))))
            probed += times.size
            return f

        return search(checked, keep, a, width)

    monkeypatch.setattr(mixing, "_golden_minima", checked_search)
    minima = instantaneous_mixing_scan(spec, 0)
    assert len(minima) > 0 and probed >= len(minima) * 30
    assert worst <= 1e-12, worst


def test_scan_takes_its_sines_per_step_not_per_probe(monkeypatch):
    spec = spectra.graph_eigensystem(graphs.build_cycle(257))
    proj = walk.class_projections(spec, 0, walk.exact_labels(spec.eigenvalues))
    r = proj.theta.size
    grid, t_max = mixing.SCAN_GRID, mixing.default_scan_window(spec)
    steps = len(mixing._golden_steps(2.0 * t_max / grid))
    fine = math.isqrt(grid - 1) + 1  # ceil(sqrt(grid)) grid phases per row
    coarse = -(-grid // fine)  # and one per row
    assert (fine, coarse) == (64, 64)
    taken = {"sin": 0, "cos": 0}

    def counting(name):
        ufunc = getattr(np, name)

        def counted(x, *args, **kwargs):
            taken[name] += np.size(x)
            return ufunc(x, *args, **kwargs)

        return counted

    want = instantaneous_mixing_scan(spec, 0)
    for name in taken:
        monkeypatch.setattr(np, name, counting(name))
    got = instantaneous_mixing_scan(spec, 0)
    assert got == want and len(got) == 955
    # the batched scalar search took 50,989 probes of 129 sines each here, and
    # the direct grid 4096 times: now the grid's two tables, one phasor per
    # step and the last direct evaluation of each reported time
    bound = (fine + coarse + steps + len(got)) * r
    assert 0 < taken["sin"] <= bound and 0 < taken["cos"] <= bound, (taken, bound)


def _brackets(devs):
    inner = devs[1:-1]
    return np.flatnonzero((inner <= devs[:-2]) & (inner <= devs[2:]))


def _checked_grids(monkeypatch):
    """Make every scan compare its grid, evaluated from the two phase tables,
    with the direct kernel at the same times; returns the list it appends
    one entry per scan to: the largest difference, the argument-rounding
    bound 4 eps max|theta| t_max (each side's phases round arguments up to
    |theta t| once or twice) and whether the two give the same brackets."""
    grid_deviations, seen = mixing._grid_deviations, []

    def checked(proj, step, coarse, fine, grid):
        devs = grid_deviations(proj, step, coarse, fine, grid)
        direct = mixing._scan_deviations(proj, np.arange(1, grid + 1) * step)
        rounding = 4.0 * np.finfo(np.float64).eps * np.max(np.abs(proj.theta)) * grid * step
        seen.append((float(np.max(np.abs(devs - direct))), float(rounding),
                     np.array_equal(_brackets(devs), _brackets(direct))))
        return devs

    monkeypatch.setattr(mixing, "_grid_deviations", checked)
    return seen


@pytest.mark.parametrize("g, t_max", [
    (graphs.build_cycle(257), None), (graphs.build_cycle(33), None),
    (graphs.build_path(20), None), (graphs.build_hypercube(10), None),
    (graphs.build_complete(8), None), (graphs.build_complete(8), 4 * math.pi),
], ids=["C257", "C33", "P20", "Q10", "K8", "K8-4pi"])
def test_scan_grid_from_phase_tables_matches_the_direct_kernel(monkeypatch, g, t_max):
    seen = _checked_grids(monkeypatch)
    instantaneous_mixing_scan(spectra.graph_eigensystem(g), 0, t_max=t_max)
    ((worst, _, same),) = seen
    assert worst <= 1e-12 and same, seen


def test_scan_grids_of_verify_match_the_direct_kernel(monkeypatch):
    seen = _checked_grids(monkeypatch)
    reports = verify_all(VerifyConfig(checks=("instantaneous_uniform",)))
    # Q_1..Q_6 at pi and at d pi under A/d, K_3 and K_4 at pi, K_8 at 4 pi
    assert not mixing.has_failures(reports) and len(seen) == 15
    assert all(worst <= 1e-12 and same for worst, _, same in seen), seen


@pytest.mark.parametrize("grid", [2, 3, 1000, 2048, 4097])
def test_scan_grid_of_any_length_matches_the_direct_kernel(monkeypatch, grid):
    # P = ceil(sqrt(grid)) rarely divides the grid: the last row runs past it
    seen = _checked_grids(monkeypatch)
    minima = instantaneous_mixing_scan(spectra.graph_eigensystem(graphs.build_cycle(33)), 0,
                                       grid=grid)
    ((worst, _, same),) = seen
    assert worst <= 1e-12 and same, seen
    assert grid > 2 or minima == []  # two grid points have no interior one


def test_scan_grid_rows_shrink_to_fit_one_block(monkeypatch):
    # with room for 10 times per block, a row holds 10 grid times, not 64;
    # every stacked array still holds at most BLOCK_ENTRIES entries
    spec = spectra.graph_eigensystem(graphs.build_cycle(257))
    want = instantaneous_mixing_scan(spec, 0)
    monkeypatch.setattr(spectra, "BLOCK_ENTRIES", 2 * 129 * 10)
    amplitudes, widths = walk.class_amplitudes, []

    def checked(proj, table):
        widths.append(table.shape[1])
        amp = amplitudes(proj, table)
        assert 2 * table.size <= spectra.BLOCK_ENTRIES and amp.size <= spectra.BLOCK_ENTRIES
        return amp

    monkeypatch.setattr(walk, "class_amplitudes", checked)
    seen = _checked_grids(monkeypatch)
    got = instantaneous_mixing_scan(spec, 0)
    ((worst, _, same),) = seen
    assert worst <= 1e-12 and same, seen
    assert max(widths) == 10 and len(got) == len(want) == 955
    assert max(abs(t - w) for (t, _), (w, _) in zip(got, want)) <= mixing.GOLDEN_WIDTH


@pytest.mark.parametrize("g", [graphs.build_cycle(5), graphs.build_cycle(33),
                               graphs.build_hypercube(3), graphs.build_complete(8)],
                         ids=["C5", "C33", "Q3", "K8"])
@pytest.mark.parametrize("grid", [64, 4096])
def test_scan_grid_near_the_window_cap_stays_within_argument_rounding(monkeypatch, g, grid):
    # at t_max just under 2^19 the arguments theta t reach 10^6 and more, and
    # the direct phases themselves round them by up to |theta t| eps
    seen = _checked_grids(monkeypatch)
    t_max = float(np.nextafter(2.0**19, 0.0))
    assert instantaneous_mixing_scan(spectra.graph_eigensystem(g), 0, t_max=t_max, grid=grid)
    ((worst, rounding, _),) = seen
    assert worst <= rounding, seen


@pytest.mark.parametrize("g, t_max, eps", [
    (graphs.build_cycle(33), None, math.inf),
    (graphs.build_path(20), None, math.inf),
    (graphs.build_hypercube(3), None, math.inf),
    (graphs.build_hypercube(3), math.pi, 1e-9),
], ids=["C33", "P20", "Q3", "Q3-pi"])
def test_batched_refinement_matches_scalar_reference(g, t_max, eps):
    spec = spectra.graph_eigensystem(g)
    got = instantaneous_mixing_scan(spec, 0, eps=eps, t_max=t_max)
    want = _reference_scan(spec, 0, eps=eps, t_max=t_max)
    assert len(got) == len(want) > 0
    # these minima sit at kinks of the deviation, where a comparison of two
    # probes is decided above rounding noise until the last steps: the phasor
    # products round differently from the reference, which can move a final
    # point, but by less than the last bracket (4 of 829 on C_33)
    assert max(abs(t - w) for (t, _), (w, _) in zip(got, want)) <= mixing.GOLDEN_WIDTH
    u = 1.0 / spec.n
    amps = _eigenvector_evolve(spec, 0, np.array([t for t, _ in got]))
    reference = np.abs((amps * amps.conj()).real - u).sum(axis=1)
    assert max(abs(f - w) for (_, f), w in zip(got, reference)) <= 1e-12
    if math.isinf(eps):
        # every minimum is reported: the last direct evaluation was of exactly these times
        direct = _direct_deviations(spec, [t for t, _ in got])
        assert [f for _, f in got] == direct.tolist()


@pytest.mark.parametrize("t_max", [None, 4 * math.pi], ids=["default", "4pi"])
def test_batched_refinement_matches_scalar_reference_on_k8(t_max):
    # On K_8 the deviation is (42 + 14 cos 8t) / 32, smooth at its minima
    # t = pi/8 + k pi/4 (curvature 28): within about 3e-9 of a minimum it is
    # flat to one ulp, so which probe wins is decided by rounding and the two
    # evaluation orders may stop at different points of that flat bottom.
    spec = spectra.graph_eigensystem(graphs.build_complete(8))
    got = instantaneous_mixing_scan(spec, 0, t_max=t_max)
    want = _reference_scan(spec, 0, t_max=t_max)
    assert len(got) == len(want) > 0
    for (t, f), (tw, fw) in zip(got, want):
        assert abs(t - tw) <= 2e-8 and abs(f - fw) <= 1e-12
        assert abs((t - math.pi / 8) / (math.pi / 4) - round((t - math.pi / 8) / (math.pi / 4))) < 1e-7


def _reference_scan_window(spec, tol=spectra.DEGENERACY_TOL):
    lam = spec.eigenvalues
    gaps = lam[:-1] - lam[1:]
    nonzero = gaps[gaps > tol]
    if nonzero.size == 0:
        return 2.0 * math.pi
    return min(2.0 * math.pi * spec.n / float(nonzero.min()), mixing.SCAN_T_MAX_CAP)


def test_default_scan_window_uses_the_shared_degeneracy_cut():
    for g in (graphs.build_cycle(257), graphs.build_hypercube(3), graphs.build_complete(8),
              graphs.build_path(20), graphs.build_complete(2)):
        spec = spectra.graph_eigensystem(g)
        assert mixing.default_scan_window(spec) == _reference_scan_window(spec)
        assert mixing.default_scan_window(spec, 1e-3) == _reference_scan_window(spec, 1e-3)
    spec = spectra.graph_eigensystem(graphs.build_cycle(5))
    for tol in (math.nan, 0.0, -1.0, math.inf):
        with pytest.raises(ValueError, match="tol"):
            mixing.default_scan_window(spec, tol)


def test_scan_scale_invariance():
    spec = spectra.graph_eigensystem(graphs.build_hypercube(2))
    base = instantaneous_mixing_scan(spec, 0, t_max=math.pi, grid=2048)
    c = 2.5
    scaled = instantaneous_mixing_scan(spec.scaled(c), 0, t_max=math.pi / c, grid=2048)
    assert len(base) == len(scaled)
    for (t1, d1), (t2, d2) in zip(base, scaled):
        assert abs(t1 / c - t2) < 1e-8
        assert abs(d1 - d2) < 1e-9


def test_cycle_fourier_bound_values():
    for n, expected in ((3, 2 / 36), (5, 0.04), (9, 8 / 324)):
        pbar = walk.average_distribution(spectra.graph_eigensystem(graphs.build_cycle(n)), 0)
        assert abs(cycle_fourier_bound(n, pbar) - expected) < 1e-12


def test_cycle_fourier_bound_rejects_even():
    pbar = walk.average_distribution(spectra.graph_eigensystem(graphs.build_cycle(4)), 0)
    with pytest.raises(ValueError, match="odd"):
        cycle_fourier_bound(4, pbar)


def test_complete_graph_average_closed_form():
    assert np.allclose(complete_graph_average(2), [0.5, 0.5], atol=1e-15)
    pbar = complete_graph_average(8)
    assert pbar[0] == 1 - 14 / 64 and pbar[1] == 2 / 64
    spec_pbar = walk.average_distribution(spectra.graph_eigensystem(graphs.build_complete(8)), 0)
    assert np.max(np.abs(pbar - spec_pbar)) < 1e-12


def test_path_start_average_values():
    assert abs(path_start_average(2) - 0.5) < 1e-12
    assert abs(path_start_average(3) - 3 / 8) < 1e-12
    for n in (4, 9, 17):
        assert abs(path_start_average(n) - 3 / (2 * (n + 1))) < 1e-12


def test_bunkbed_layer_equality_clean_bases():
    assert bunkbed_layer_equality(graphs.build_complete(2 + 1)) < 1e-12
    assert bunkbed_layer_equality(graphs.build_cycle(5)) < 1e-12
    assert bunkbed_layer_equality(graphs.build_path(4)) < 1e-12


def test_bunkbed_layer_split_matches_resonance_analysis():
    # A base eigenvalue pair differing by exactly 2 resonates with the
    # inter-layer coupling; the measured layer split must equal the
    # term-by-term average of cos(2t) e^{-it(lambda_j - lambda_k)}.
    for base in [graphs.build_complete(2), graphs.build_cycle(4), graphs.build_path(5)]:
        base_spec = spectra.graph_eigensystem(base)
        predicted = bunkbed_resonance_difference(base_spec)
        measured = bunkbed_layer_equality(base)
        assert abs(measured - np.max(np.abs(predicted))) < 1e-12
        assert measured > 1e-3  # genuinely split, not rounding noise

    # and the split is confirmed by the finite-time oracle, independent of
    # the degeneracy-partition machinery
    bed = graphs.build_bunkbed(graphs.build_complete(2))
    spec = spectra.dense_eigensystem(bed)
    fta = finite_time_average(spec, 0, 2e4)
    assert np.max(np.abs(fta - [3 / 8, 1 / 8, 1 / 8, 3 / 8])) < 1e-3


def test_average_argmax_is_start_vertex():
    # the walk keeps memory of where it started: the start vertex attains
    # the maximum average probability (ties allowed, e.g. cube antipodes)
    for g in [graphs.build_complete(3), graphs.build_complete(9),
              graphs.build_hypercube(2), graphs.build_hypercube(4)]:
        pbar = walk.average_distribution(spectra.graph_eigensystem(g), 0)
        assert pbar[0] >= np.max(pbar) - 1e-12


def test_verify_requires_checks():
    with pytest.raises(ValueError, match="no checks selected"):
        verify_all(VerifyConfig(checks=()))
    with pytest.raises(ValueError, match="unknown"):
        verify_all(VerifyConfig(checks=("bogus",)))


def test_a_verify_config_cannot_change():
    cfg = VerifyConfig(checks=["complete_average"], max_n=8)
    with pytest.raises(AttributeError):
        cfg.max_n = 2  # under MIN_MAX_N, which verify_all died on
    assert cfg.checks == ("complete_average",)  # a tuple, not the caller's list
    with pytest.raises(ValueError, match="size cap"):
        VerifyConfig(max_n=2)


def test_verify_subset_and_flags():
    cfg = VerifyConfig(checks=("complete_average", "path_classical"), max_n=8)
    reports = verify_all(cfg)
    assert len(reports) == 2
    flags = reports[0].flags
    assert flags["average_closed_form"]["status"] == "pass"
    assert flags["uniform_deviation_formula"]["status"] == "pass"
    path_flags = reports[1].flags
    assert path_flags["start_average_direction"]["status"] == "discrepancy"
    assert not mixing.has_failures(reports)
    assert mixing.collect_discrepancies(reports) == [
        "paths P_2..P_8: start_average_direction"
    ]


def test_verify_bunkbed_flags_resonances_as_discrepancies():
    cfg = VerifyConfig(checks=("bunkbed_layers",), max_n=8)
    reports = verify_all(cfg)
    by_name = {r.descriptor: r.flags["layer_equality"]["status"] for r in reports}
    assert by_name["bunkbed over K_2"] == "discrepancy"
    assert by_name["bunkbed over C_4"] == "discrepancy"
    assert by_name["bunkbed over Q_1"] == "discrepancy"
    assert by_name["bunkbed over K_3"] == "pass"
    assert by_name["bunkbed over C_3"] == "pass"
    assert by_name["bunkbed over P_3"] == "pass"
    assert not mixing.has_failures(reports)


def test_verify_bunkbed_layers_carry_half_the_mass():
    reports = verify_all(VerifyConfig(checks=("bunkbed_layers",)))
    assert len(reports) == 39
    for rep in reports:
        assert rep.flags["layer_mass_half"]["status"] == "pass", rep.descriptor
        assert rep.flags["layer_mass_half"]["measured"] <= 1e-12


def test_verify_layer_equality_matches_the_assembled_bed():
    reports = verify_all(VerifyConfig(checks=("bunkbed_layers",)))
    bases = mixing._bunkbed_bases(VerifyConfig())
    assert [r.descriptor for r in reports] == [f"bunkbed over {name}" for name, _ in bases]
    for rep, (_, base) in zip(reports, bases):
        assert rep.flags["layer_equality"]["measured"] == bunkbed_layer_equality(base)


def test_verify_ensemble_expectation_holds_for_even_n(monkeypatch):
    # E[lambda_0] = (n-1)/2 for every n, not floor(n/2)
    monkeypatch.setattr(mixing, "ENSEMBLE_N", 8)
    cfg = VerifyConfig(checks=("ensemble_expectations",), ensemble_trials=4000)
    (report,) = verify_all(cfg)
    assert report.flags["expected_lambda0"]["status"] == "pass"
    assert report.flags["expected_lambda0"]["expected"].startswith("3.5 ")
    assert not mixing.has_failures([report])


def test_cap_cuts_each_acceptance_range_and_keeps_other_fields():
    fields = dict(checks=("cycle_average",), ensemble_trials=30, seed=5)
    capped = VerifyConfig(max_n=8, **fields)
    assert [capped.cap(limit) for limit in (64, 33, 32, 12, 20)] == [8] * 5
    assert [capped.cap(limit, per=2) for limit in (8, 16)] == [4, 4]
    assert [capped.dim_cap(limit) for limit in (6, 4, 3)] == [3, 3, 3]
    assert [capped.dim_cap(limit, per=2) for limit in (6, 3, 1)] == [2, 2, 1]
    for name, value in fields.items():
        assert getattr(capped, name) == value
    uncapped = VerifyConfig()
    assert [uncapped.cap(limit) for limit in (64, 33, 32, 12, 20)] == [64, 33, 32, 12, 20]
    assert [uncapped.cap(limit, per=2) for limit in (8, 16)] == [8, 16]
    assert [uncapped.dim_cap(limit) for limit in (6, 4, 3)] == [6, 4, 3]
    # the hypercube cap is the largest d with 2^d <= max_n
    for max_n, d in ((6, 2), (7, 2), (8, 3), (15, 3), (16, 4), (63, 5), (64, 6), (10**6, 6)):
        assert VerifyConfig(max_n=max_n).dim_cap(6) == d


@pytest.mark.parametrize("max_n", [6, 7, 8])
def test_no_complete_or_bunkbed_report_exceeds_the_cap(max_n):
    # at 6, K_8 (instantaneous_uniform's fixed scan) and the 8-vertex bed
    # over Q_2 (Q_d capped by the base's 2^d vertices) were reported
    checks = ("instantaneous_uniform", "bunkbed_layers")
    sizes = {}
    for rep in verify_all(VerifyConfig(checks=checks, max_n=max_n)):
        kind, _, graph = rep.descriptor.rpartition(" ")
        family, size = graph.split("_")
        vertices = 2 ** int(size) if family == "Q" else int(size)
        if kind in ("complete", "bunkbed over"):
            sizes[rep.descriptor] = vertices * (2 if kind == "bunkbed over" else 1)
    assert max(sizes.values()) == max_n - max_n % 2, sizes
    assert ("complete K_8" in sizes) == ("bunkbed over Q_2" in sizes) == (max_n == 8)


def test_verify_config_fields_are_the_four_verify_sets():
    assert [f.name for f in dataclasses.fields(VerifyConfig)] == [
        "checks", "max_n", "ensemble_trials", "seed"]
    for name in ("complete_max", "cycle_max", "path_max", "hypercube_max_d",
                 "bunkbed_complete_max", "bunkbed_cycle_max", "bunkbed_path_max",
                 "bunkbed_hypercube_max_d", "gap_zn_max", "gap_cube_max_d", "oracle_max"):
        assert not hasattr(VerifyConfig(), name)


def test_capped_refuses_a_cap_under_which_a_check_has_no_case():
    # at 6 the path check's n > 5 direction has its first case, P_6
    capped = VerifyConfig(checks=("path_classical",), max_n=mixing.MIN_MAX_N)
    (report,) = verify_all(capped)
    assert report.flags["start_average_direction"]["status"] == "discrepancy"
    for cap in (5, 4, 2, 1, 0, -3):
        with pytest.raises(ValueError, match="at least 6"):
            VerifyConfig(max_n=cap)


@pytest.mark.parametrize("value", [8.5, 8.0, True, "8"], ids=["8.5", "8.0", "True", "str"])
@pytest.mark.parametrize("name", ["max_n", "ensemble_trials"])
def test_sizes_that_are_not_ints_are_refused(name, value):
    # max_n=8.5 ended in a TypeError from a range inside a check
    with pytest.raises(ValueError, match="must be ints"):
        VerifyConfig(checks=("complete_average",), **{name: value})


def test_ensemble_trials_under_the_floor_are_refused():
    assert VerifyConfig(ensemble_trials=mixing.MIN_ENSEMBLE_TRIALS).ensemble_trials == 30
    for trials in (29, 2, 1, 0, -5):
        with pytest.raises(ValueError, match="at least 30"):
            VerifyConfig(ensemble_trials=trials)


def test_size_limits_are_not_settable_one_by_one():
    # a limit set alone ran checks over empty ranges (path_max=4, path_max=2,
    # hypercube_max_d=1); every range is now cut by max_n where a check loops
    for name in ("path_max", "hypercube_max_d", "complete_max"):
        with pytest.raises(TypeError):
            VerifyConfig(**{name: 4})


def test_check_table_holds_exactly_the_check_functions():
    # one table names each check once: its key is the name `verify` reports
    # and selects, and every `_check_*` function of the module is in it
    funcs = {name.removeprefix("_check_"): f for name, f in vars(mixing).items()
             if name.startswith("_check_") and callable(f)}
    assert {name: check.run for name, check in mixing._CHECKS.items()} == funcs
    assert mixing.ALL_CHECKS == tuple(mixing._CHECKS)
    assert VerifyConfig().checks == mixing.ALL_CHECKS


def _reference_cube_symbol(group, rng):
    """One Z_2^d gap symbol drawn one attempt at a time, each attempt
    checked by the full Symbol constructor (reference)."""
    while True:
        vals = np.zeros(group.order, dtype=bool)
        vals[1:] = rng.integers(0, 2, size=group.order - 1).astype(bool)
        try:
            return graphs.Symbol(group, vals)
        except graphs.GraphValidationError:
            continue


@pytest.mark.parametrize("seed", [7, 0, 1641411168, 938443845])
def test_cube_rows_are_the_draws_of_one_attempt_at_a_time(seed):
    def stream():
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 2))))

    got_rng, want_rng = stream(), stream()
    for d in (2, 3, 4):
        group = graphs.AbelianGroupSpec((2,) * d)
        got_group, rows, lams = mixing._cube_rows(d, mixing.GAP_SYMBOLS, got_rng)
        want = [_reference_cube_symbol(group, want_rng) for _ in range(mixing.GAP_SYMBOLS)]
        assert got_group == group
        assert rows.tolist() == [s.values.tolist() for s in want]
        for row, lam in zip(rows, lams):
            sym = graphs.Symbol(group, row.copy())  # the check the draw skips
            # the kept eigenvalue rows are the symbol's, in character order,
            # and exact sums of +-1
            spec = spectra.abelian_circulant_eigensystem(sym)
            assert np.array_equal(lam[spec.characters[1]], spec.eigenvalues)
            assert np.array_equal(lam, np.round(lam))
    # both consumed the same stream, so the next group's draws line up too
    assert got_rng.integers(0, 2**63) == want_rng.integers(0, 2**63)


@pytest.mark.parametrize("seed", [7, 1641411168, 938443845])
def test_batched_zero_gap_decisions_match_the_per_symbol_gap(seed):
    batches = mixing._gap_rows(VerifyConfig(seed=seed))
    assert [group.factors for group, _, _ in batches] == (
        [(n,) for n in range(3, 13)] + [(2,) * d for d in (2, 3, 4)])
    for group, rows, lams in batches:
        assert rows.shape == lams.shape == (mixing.GAP_SYMBOLS, group.order)
        # reference: each row's full symbol check, closed-form spectrum and gap
        specs = [spectra.abelian_circulant_eigensystem(graphs.Symbol(group, row.copy()))
                 for row in rows]
        assert spectra._row_classes(group, lams, spectra.DEGENERACY_TOL)[1].tolist() == [
            spectra.spectral_gap(spec) != 0.0 for spec in specs]
        for lam, spec in zip(lams, specs):  # the same eigenvalues, bit for bit
            assert np.array_equal(lam[spec.characters[1]], spec.eigenvalues)
    # rows in character order, not sorted, on Z_2 x Z_2, where every
    # character is its own conjugate: a row with every eigenvalue simple has
    # a nonzero gap, and a repeat or a pair within tol makes it zero
    rows = np.array([[0.5, 2.0, -1.0, 3.0], [-1.0, 2.0, -1.0, 0.0], [1.0, -1.0, 1.0 + 1e-12, 0.0]])
    assert spectra._row_classes(graphs.AbelianGroupSpec((2, 2)), rows, spectra.DEGENERACY_TOL)[
        1].tolist() == [True, False, False]


def test_gap_check_decides_each_group_in_one_batch(monkeypatch):
    calls = {"spectral_gap": 0, "abelian_circulant_eigensystem": 0, "degeneracy_labels": 0}
    for name in calls:
        def counted(*args, _fn=getattr(spectra, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(spectra, name, counted)
    (report,) = verify_all(VerifyConfig(checks=("abelian_spectral_gap",)))
    assert report.descriptor == "abelian circulants (260 random symbols)"
    assert report.flags["zero_spectral_gap"]["measured"] == "0 nonzero gaps"
    # no per-symbol spectrum or gap: one degeneracy cut per group (Z_3..Z_12, (Z_2)^2..4)
    assert calls == {"spectral_gap": 0, "abelian_circulant_eigensystem": 0, "degeneracy_labels": 13}


def test_verify_solves_every_oracle_graph_in_one_call(monkeypatch, jacobi_calls):
    cfg = VerifyConfig()
    gs = [graphs.build_abelian_circulant(graphs.Symbol._proven(group, row))
          for group, rows, _ in mixing._gap_rows(cfg) for row in rows] + mixing._oracle_cases(cfg)
    distinct = {(g.n, g.adjacency.tobytes()): g.n for g in gs}
    assert (len(gs), len(distinct)) == (328, 167)
    calls = {"dense_eigensystems": 0, "_gap_rows": 0}
    for module, name in ((spectra, "dense_eigensystems"), (mixing, "_gap_rows")):
        def counted(*args, _fn=getattr(module, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(module, name, counted)
    verify_all(cfg)
    assert calls == {"dense_eigensystems": 1, "_gap_rows": 1}
    # one stack per even size, which holds each distinct adjacency once
    evens = sorted({n + n % 2 for n in distinct.values()})
    assert sorted(shape[1:] for shape in jacobi_calls) == [(m, m) for m in evens]
    assert sum(shape[0] for shape in jacobi_calls) == len(distinct)
    verify_all(cfg)  # nothing is kept from one run for the next
    assert calls == {"dense_eigensystems": 2, "_gap_rows": 2}
    # a selection without an oracle check solves nothing
    verify_all(VerifyConfig(checks=("path_classical",)))
    assert calls["dense_eigensystems"] == 2


def test_bunkbed_check_forms_each_projection_once(monkeypatch):
    calls = {"walk": 0, "spectrum": 0}
    exact_walk, exact_spectrum = walk.class_projections, spectra.Spectrum.class_projections

    def asked(*args):
        calls["walk"] += 1
        return exact_walk(*args)

    def formed(self, *args):
        calls["spectrum"] += 1
        return exact_spectrum(self, *args)

    monkeypatch.setattr(walk, "class_projections", asked)
    monkeypatch.setattr(spectra.Spectrum, "class_projections", formed)
    verify_all(VerifyConfig(checks=("bunkbed_layers",)))
    # five per base on 39 bases; on 67 of the 78 beds from (0, 0) and bases
    # from 0, the exact labels of a walk and the tolerance labels of an
    # average coincide, and the second asks for the first's projections
    assert calls == {"walk": 195, "spectrum": 128}


def test_gap_check_refuses_a_one_ulp_split_between_a_and_minus_a(monkeypatch, capsys):
    # the cut that decides the gaps refuses an asymmetric row; this used to
    # count it as a nonzero gap and report the flag as "fail"
    from ctqw.cli import main

    real = spectra.circulant_eigenvalues

    def split(group, values):
        lams = real(group, values)
        if group.factors == (5,):
            lams[3, 2] = np.nextafter(lams[3, 2], -np.inf)  # lambda_2 one ulp below lambda_3
        return lams

    monkeypatch.setattr(spectra, "circulant_eigenvalues", split)
    with pytest.raises(RuntimeError, match="lambda_2 != lambda_3 .*nonzero spectral gap"):
        verify_all(VerifyConfig(checks=("abelian_spectral_gap",)))
    assert main(["verify", "--checks", "abelian_spectral_gap"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("computational failure: lambda_2 != lambda_3")


def _all_columns(proj):
    """The class projections with every vertex its own column: the scan then
    evaluates all n columns, as it did before columns were merged (reference)."""
    columns = proj.columns[:, proj.index]
    n = columns.shape[1]
    return walk.ClassProjections(proj.theta, columns, np.arange(n), np.ones(n, dtype=np.int64))


def test_scan_on_distinct_columns_matches_the_full_column_scan(monkeypatch):
    spec = spectra.graph_eigensystem(graphs.build_cycle(257))
    reduced = walk.class_projections(spec, 0, walk.exact_labels(spec.eigenvalues))
    assert reduced.columns.shape == (129, 129)
    got = instantaneous_mixing_scan(spec, 0)
    exact = walk.class_projections
    monkeypatch.setattr(walk, "class_projections", lambda *a: _all_columns(exact(*a)))
    want = instantaneous_mixing_scan(spec, 0)
    assert len(got) == len(want) == 955
    assert [t for t, _ in got] == [t for t, _ in want]
    assert max(abs(f - w) for (_, f), (_, w) in zip(got, want)) <= 1e-14


def test_scan_evaluates_its_times_in_blocks():
    spec = spectra.graph_eigensystem(graphs.build_cycle(257))
    tracemalloc.start()
    try:
        minima = instantaneous_mixing_scan(spec, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(minima) == 955
    # one array over the 4096-point grid and 129 columns is 4 MiB; a block
    # of 1016 times holds 1 MiB per array
    assert peak < 8 * 2**20, peak
