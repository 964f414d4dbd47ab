import math

import numpy as np
import pytest

from ctqw import graphs, spectra
from ctqw.walk import (
    as_distribution,
    average_distribution,
    bunkbed_instantaneous,
    evolve,
    finite_time_average,
    instantaneous_distribution,
)


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
    c4 = spec_of(graphs.build_cycle(4))
    alien = spectra.degeneracy_classes(spec_of(graphs.build_cycle(5)))
    with pytest.raises(ValueError):
        average_distribution(c4, 0, alien)


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
    probs = as_distribution(np.array([1.0, -5e-13, 5e-13]))
    assert probs[1] == 0.0
    with pytest.raises(RuntimeError, match="clamp budget"):
        as_distribution(np.array([1.0, -1e-8, 1e-8]))
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
