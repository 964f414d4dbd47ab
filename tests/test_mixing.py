import math

import numpy as np
import pytest

from ctqw import graphs, mixing, spectra, walk
from ctqw.mixing import (
    VerifyConfig,
    average_classical_deviation,
    average_uniform_deviation,
    bunkbed_layer_equality,
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
    fta = walk.finite_time_average(spec, 0, 2e4)
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


def test_verify_subset_and_flags():
    cfg = VerifyConfig(checks=("complete_average", "path_classical"), complete_max=8, path_max=8)
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
    cfg = VerifyConfig(
        checks=("bunkbed_layers",),
        bunkbed_complete_max=3,
        bunkbed_cycle_max=4,
        bunkbed_path_max=3,
        bunkbed_hypercube_max_d=1,
    )
    reports = verify_all(cfg)
    by_name = {r.descriptor: r.flags["layer_equality"]["status"] for r in reports}
    assert by_name["bunkbed over K_2"] == "discrepancy"
    assert by_name["bunkbed over C_4"] == "discrepancy"
    assert by_name["bunkbed over Q_1"] == "discrepancy"
    assert by_name["bunkbed over K_3"] == "pass"
    assert by_name["bunkbed over C_3"] == "pass"
    assert by_name["bunkbed over P_3"] == "pass"
    assert not mixing.has_failures(reports)


def test_verify_ensemble_expectation_holds_for_even_n():
    # E[lambda_0] = (n-1)/2 for every n, not floor(n/2)
    cfg = VerifyConfig(checks=("ensemble_expectations",), ensemble_n=8, ensemble_trials=4000)
    (report,) = verify_all(cfg)
    assert report.flags["expected_lambda0"]["status"] == "pass"
    assert report.flags["expected_lambda0"]["expected"].startswith("3.5 ")
    assert not mixing.has_failures([report])


def test_capped_caps_sizes_and_keeps_other_fields():
    cfg = VerifyConfig(checks=("cycle_average",), gap_symbols=3, ensemble_n=9,
                       ensemble_trials=11, seed=5, tol=1e-8)
    capped = cfg.capped(8)
    assert (capped.complete_max, capped.cycle_max, capped.path_max) == (8, 8, 8)
    assert (capped.hypercube_max_d, capped.gap_cube_max_d, capped.bunkbed_hypercube_max_d) == (3, 3, 3)
    assert (capped.bunkbed_complete_max, capped.bunkbed_cycle_max, capped.bunkbed_path_max) == (4, 4, 4)
    assert (capped.gap_zn_max, capped.oracle_max) == (8, 8)
    for name in ("checks", "gap_symbols", "ensemble_n", "ensemble_trials", "seed", "tol"):
        assert getattr(capped, name) == getattr(cfg, name)
