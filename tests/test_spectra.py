import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ctqw import ensembles, graphs, mixing, spectra, walk
from ctqw.graphs import AbelianGroupSpec, GraphValidationError, Symbol
from ctqw.spectra import (
    CharacterTable,
    _roots_of_unity,
    abelian_circulant_eigensystem,
    bunkbed_eigensystem,
    character_phases,
    circulant_eigenvalues,
    class_circulant_eigenvalues,
    degeneracy_classes,
    dense_eigensystem,
    graph_eigensystem,
    path_eigensystem,
    spectral_gap,
    spectrum_type,
)
from tests.conftest import full_table_character_projections, negate_index, scalar_jacobi
from tests.golden import render

SQRT2 = math.sqrt(2.0)
# The dense route (LAPACK `eigh`) vs the LAPACK-free reference
# (`scalar_jacobi`): sorted eigenvalues agree to EIGENVALUE_BOUND *
# (1 + ||A||_F).  The reference stops once its off-diagonal norm is below
# 1e-12 * (1 + ||A||_F); measured agreement is within 1.3e-15 of that scale
# on verify's matrices and 1.7e-15 on the random 0/1 graphs below.
EIGENVALUE_BOUND = 1e-14


def _assert_matches_reference(adjacency, spec):
    """Sorted eigenvalues within the bound of the scalar reference,
    eigen-residual <= 1e-9 and orthonormality error <= 1e-10."""
    a = np.asarray(adjacency, dtype=np.float64)
    ref, _ = scalar_jacobi(a)
    bound = EIGENVALUE_BOUND * (1.0 + np.linalg.norm(a))
    assert np.max(np.abs(spec.eigenvalues - np.sort(ref)[::-1])) <= bound
    vec, lam = spec.eigenvectors, spec.eigenvalues
    assert np.max(np.abs(a @ vec - vec * lam)) <= spectra.RESIDUAL_TOL
    assert np.max(np.abs(vec.conj().T @ vec - np.eye(len(a)))) <= spectra.ORTHONORMALITY_TOL


def _random_01_stack(rng, count, n):
    upper = np.triu(rng.random((count, n, n)) < 0.5, 1)
    return (upper | upper.swapaxes(1, 2)).astype(np.float64)


def test_k2_eigenvalues():
    spec = abelian_circulant_eigensystem(Symbol.from_support(AbelianGroupSpec((2,)), [1]))
    assert spec.eigenvalues.tolist() == [1.0, -1.0]


def test_c8_eigenvalue_multiset():
    spec = abelian_circulant_eigensystem(Symbol.from_support(AbelianGroupSpec((8,)), [1, 7]))
    expected = sorted([2, SQRT2, SQRT2, 0, 0, -SQRT2, -SQRT2, -2], reverse=True)
    assert np.allclose(spec.eigenvalues, expected, atol=1e-12)


def test_cube_eigenvalues_by_weight():
    sym = Symbol.from_support(AbelianGroupSpec((2, 2, 2)), [1, 2, 4])
    spec = abelian_circulant_eigensystem(sym)
    assert sorted(spec.eigenvalues.tolist(), reverse=True) == [3, 1, 1, 1, -1, -1, -1, -3]
    # integer character sums must come out exact
    assert all(lam == round(lam) for lam in spec.eigenvalues)


def test_circulant_pairing_is_exact():
    rng = np.random.default_rng(3)
    for factors in [(n,) for n in range(3, 18)] + [(2, 4), (4, 4), (3, 6)]:
        group = AbelianGroupSpec(factors)
        L, phase = character_phases(group)
        roots = _roots_of_unity(L)
        assert np.array_equal(roots[L - np.arange(1, L)], roots[1:].conj())
        neg = [negate_index(group, a) for a in range(group.order)]
        symbols = 0
        while symbols < 10:
            vals = rng.integers(0, 2, size=group.order).astype(bool)
            vals[0] = False
            try:
                sym = Symbol(group, vals | vals[neg])
            except GraphValidationError:
                continue
            lams = circulant_eigenvalues(group, sym.values[None, :])[0]
            assert np.array_equal(lams, lams[neg]), factors  # lambda_a == lambda_{-a} bitwise
            symbols += 1


def test_ensemble_route_eigenvalues_match_closed_form():
    for n in range(3, 41):
        symbols = ensembles.random_circulants(n, 8, n)
        rows = circulant_eigenvalues(AbelianGroupSpec((n,)), np.array([sym.values for sym in symbols]))
        for row, sym in zip(rows, symbols):
            spec = abelian_circulant_eigensystem(sym)
            assert np.array_equal(np.sort(row)[::-1], spec.eigenvalues), n


def _loop_eigenvalues(group, values):
    """`circulant_eigenvalues` one support element x at a time, in increasing
    x, each phase row added in place to the rows that hold x (reference)."""
    held = np.flatnonzero(values.any(axis=0))
    coords = group.coordinates()
    L, xw, aw = spectra._phase_factors(group, coords[held], coords)
    cos = _roots_of_unity(L).real
    lams = np.zeros((len(values), group.order))
    for x, row in zip(held, spectra._mod(xw @ aw, L)):
        np.add(lams, cos[row], out=lams, where=values[:, x, None])
    return lams


def test_single_symbol_eigenvalues_are_the_loop_bit_for_bit():
    rng = np.random.default_rng(277)
    groups = [(n,) for n in range(2, 80)] + [(2,) * d for d in range(1, 11)] + [(257,), (365,), (1024,)]
    symbols = []
    for factors in groups:
        group = AbelianGroupSpec(factors)
        for _ in range(3):
            values = rng.random(group.order) < rng.uniform(0.05, 0.95)
            values |= values[group.negation]  # symmetric
            values[0] = False
            symbols.append((group, values))
    for factors in groups[-4:]:  # the complete graph: every element but 0
        group = AbelianGroupSpec(factors)
        symbols.append((group, np.arange(group.order) > 0))
    assert len(symbols) == 277
    for group, values in symbols:
        got = circulant_eigenvalues(group, values[None])
        assert got.shape == (1, group.order)
        assert got.tobytes() == _loop_eigenvalues(group, values[None]).tobytes(), group.factors


def _full_row_cut(lams, tol):
    """Reference for `spectra._row_classes`: every character of each row
    sorted stably and cut by `degeneracy_labels`, with no use of the
    pairing a <-> -a."""
    order = np.argsort(-lams, axis=1, kind="stable")
    cut = spectra.degeneracy_labels(np.take_along_axis(lams, order, axis=1), tol)
    labels = np.empty_like(cut)
    np.put_along_axis(labels, order, cut, axis=1)
    return labels, cut[:, -1] == lams.shape[1] - 1


@pytest.mark.parametrize("factors", [(4, 6), (3, 3), (2, 4), (2, 2, 2, 2), (9,), (12,)],
                         ids=lambda f: "x".join(f"Z{k}" for k in f))
def test_row_classes_cut_on_pair_representatives_is_the_full_row_cut(factors):
    group = AbelianGroupSpec(factors)
    neg = group.negation
    rng = np.random.default_rng(sum(factors))
    values = rng.integers(0, 2, size=(200, group.order)).astype(bool)
    values |= values[:, neg]  # symmetric symbols
    values[:, 0] = False
    noise = rng.normal(size=(200, group.order))
    rows = np.concatenate([circulant_eigenvalues(group, values),
                           noise + noise[:, neg]])  # symmetric bit for bit, all values distinct
    for tol in (spectra.DEGENERACY_TOL, 0.3):
        labels, nonzero = spectra._row_classes(group, rows, tol)
        want_labels, want_nonzero = _full_row_cut(rows, tol)
        assert labels.dtype == want_labels.dtype and np.array_equal(labels, want_labels)
        assert np.array_equal(nonzero, want_nonzero)
        if tol == spectra.DEGENERACY_TOL:
            # only where every element is its own inverse can a spectrum be simple
            assert nonzero.any() == (factors == (2, 2, 2, 2))


@pytest.mark.parametrize("factors", [(4, 6), (9,)], ids=["Z4xZ6", "Z9"])
def test_row_classes_refuse_a_one_ulp_split_between_a_and_minus_a(factors):
    group = AbelianGroupSpec(factors)
    values = np.zeros((2, group.order), dtype=bool)
    values[:, [1, group.negation[1]]] = True
    lams = circulant_eigenvalues(group, values)
    spectra._row_classes(group, lams, spectra.DEGENERACY_TOL)
    lams[1, 1] = np.nextafter(lams[1, 1], np.inf)  # lambda_1 one ulp above lambda_{-1}
    with pytest.raises(RuntimeError, match=r"lambda_1 != lambda_\d+ .*nonzero spectral gap"):
        spectra._row_classes(group, lams, spectra.DEGENERACY_TOL)


@pytest.mark.parametrize("g", [graphs.build_cycle(8), graphs.build_hypercube(3)],
                         ids=["C8", "Q3"])
def test_spectrum_invariants(g):
    spec = graph_eigensystem(g)
    spectra.check_spectrum(spec, g.adjacency)


def test_path_eigensystem_values():
    assert np.allclose(path_eigensystem(2).eigenvalues, [1, -1], atol=1e-12)
    assert np.allclose(path_eigensystem(3).eigenvalues, [SQRT2, 0, -SQRT2], atol=1e-12)
    spec4 = path_eigensystem(4)
    assert abs(spectral_gap(spec4) - 1.0) < 1e-12  # golden-ratio spacing
    spectra.check_spectrum(spec4, graphs.build_path(4).adjacency.astype(float))


def test_bunkbed_eigensystem_multisets():
    k2 = graph_eigensystem(graphs.build_complete(2))
    assert sorted(bunkbed_eigensystem(k2).eigenvalues.tolist(), reverse=True) == [2, 0, 0, -2]
    c4 = graph_eigensystem(graphs.build_cycle(4))
    assert sorted(bunkbed_eigensystem(c4).eigenvalues.tolist(), reverse=True) == [
        3, 1, 1, 1, -1, -1, -1, -3]
    k3 = graph_eigensystem(graphs.build_complete(3))
    prism = bunkbed_eigensystem(k3)
    assert np.allclose(prism.eigenvalues, [3, 1, 0, 0, -2, -2], atol=1e-12)
    spectra.check_spectrum(prism, graphs.build_bunkbed(graphs.build_complete(3)).adjacency)


def test_dense_oracle_against_closed_forms():
    for g in [graphs.build_complete(2), graphs.build_cycle(8), graphs.build_path(5)]:
        closed = graph_eigensystem(g, method="closed")
        dense = dense_eigensystem(g)
        assert np.max(np.abs(closed.eigenvalues - dense.eigenvalues)) < 1e-9
        spectra.check_spectrum(dense, g.adjacency)


def test_complete_bipartite_spectrum_via_oracle():
    spec = dense_eigensystem(graphs.build_complete_bipartite(3))
    assert np.allclose(spec.eigenvalues, [3, 0, 0, 0, 0, -3], atol=1e-9)


def test_the_reference_matches_eigh_on_random_symmetric_matrices():
    # general symmetric matrices, not only the 0/1 adjacencies of graphs
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(2, 30))
        m = rng.normal(size=(n, n))
        m = m + m.T
        lam, vec = scalar_jacobi(m)
        assert np.max(np.abs(np.sort(lam) - np.linalg.eigvalsh(m))) < 1e-10
        assert np.max(np.abs(vec.T @ vec - np.eye(n))) < 1e-10
        assert np.max(np.abs(m @ vec - vec * lam)) < 1e-9


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_the_reference_keeps_pivots_below_the_skip_threshold(n):
    # an all-ones off-diagonal with one pair shrunk to 0.9 * thresh / n: the
    # pair is skipped while it is that small, but its value still counts, so
    # the eigenvalues match eigh to rounding, far below the first-order
    # shift (up to about 1e-12 here) that dropping it would cause
    base = np.ones((n, n)) - np.eye(n) + np.diag(np.arange(n) * 0.37)
    for p in range(n - 1):
        for q in range(p + 1, n):
            a = base.copy()
            thresh = 1e-12 * (1.0 + np.linalg.norm(base))
            a[p, q] = a[q, p] = 0.9 * thresh / n
            lam, _ = scalar_jacobi(a)
            assert np.max(np.abs(np.sort(lam) - np.linalg.eigvalsh(a))) <= 2e-14, (p, q)


def test_the_reference_leaves_a_diagonal_matrix_alone():
    diag = np.diag([3.0, -1.0, 0.5, 2.0, 0.0])
    lam, vec = scalar_jacobi(diag, max_sweeps=0)  # converged before any sweep
    assert np.array_equal(lam, np.diag(diag))
    assert np.array_equal(vec, np.eye(5))


def test_the_reference_raises_past_its_sweep_cap():
    # a reference that stopped early would pass off unconverged values
    a = _random_01_stack(np.random.default_rng(2), 1, 16)[0]
    with pytest.raises(AssertionError, match="did not converge in 2 sweeps; off-diagonal norm"):
        scalar_jacobi(a, max_sweeps=2)


def _gap_graphs(cfg):
    """The circulants of the spectral-gap check, in the order it builds them."""
    return [graphs.build_abelian_circulant(graphs.Symbol._proven(group, row))
            for group, rows, _ in mixing._gap_rows(cfg) for row in rows]


def _random_graphs(rng, count, n):
    """`count` connected graphs on n vertices, from random 0/1 stacks."""
    out = []
    while len(out) < count:
        for a in _random_01_stack(rng, count - len(out), n):
            try:
                out.append(graphs.from_adjacency(a.astype(np.uint8)))
            except GraphValidationError:
                continue
    return out


def test_dense_eigensystems_match_the_reference_on_verify_matrices():
    cfg = mixing.VerifyConfig()
    gs = _gap_graphs(cfg)
    gs += mixing._oracle_cases(cfg)
    assert len(gs) == 328
    for g, spec in zip(gs, spectra.dense_eigensystems(gs)):
        _assert_matches_reference(g.adjacency, spec)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64, 65])
def test_dense_eigensystems_match_the_reference_on_random_01_stacks(n):
    gs = _random_graphs(np.random.default_rng(n), 6, n)
    for g, spec in zip(gs, spectra.dense_eigensystems(gs)):
        _assert_matches_reference(g.adjacency, spec)


@pytest.mark.parametrize("n", [96, 128])
def test_dense_eigensystems_match_the_reference_on_large_random_graphs(n):
    gs = _random_graphs(np.random.default_rng(n), 2, n)
    for g, spec in zip(gs, spectra.dense_eigensystems(gs)):
        _assert_matches_reference(g.adjacency, spec)


@pytest.mark.parametrize("g", [
    graphs.build_cycle(97),
    graphs.build_complete(40),
    graphs.build_hypercube(7),
    graphs.build_path(100),
    graphs.build_bunkbed(graphs.build_cycle(30)),
    graphs.build_abelian_circulant(Symbol.from_support(AbelianGroupSpec((4, 6)), [1, 5, 6, 18])),
], ids=["C97", "K40", "Q7", "P100", "bunkbed-C30", "Z4xZ6"])
def test_dense_eigensystems_match_the_closed_forms_past_verify_orders(g):
    # verify's oracle stops at order 20; past it the closed forms and eigh
    # still agree to its 1e-9 bound, class by class
    closed = graph_eigensystem(g, method="closed")
    dense = dense_eigensystem(g)
    spectra.check_spectrum(dense, g.adjacency)
    assert np.max(np.abs(closed.eigenvalues - dense.eigenvalues)) <= 1e-9
    assert (degeneracy_classes(dense).multiplicities
            == degeneracy_classes(closed).multiplicities)


@pytest.mark.parametrize("matrix", [
    np.zeros(3),
    np.zeros((2, 3)),
    np.zeros((2, 3, 3)),
    np.array([[0, 1], [0, 0]]),
    np.array([[0.0, 1.0], [1.0 + 1e-9, 0.0]]),
    np.array([[0.0, np.nan], [np.nan, 0.0]]),
    np.array([[np.inf, 0.0], [0.0, 1.0]]),
    np.array([[1, 1], [1, 0]]),
], ids=["1d", "non-square", "stack", "asymmetric", "nearly-symmetric", "nan", "inf",
        "self-loop"])
def test_the_dense_route_sees_only_checked_adjacencies(matrix, eigh_calls):
    # dense_eigensystems takes graphs, and a graph checks its adjacency where
    # it is made: no malformed matrix reaches eigh
    with pytest.raises(GraphValidationError):
        spectra.dense_eigensystems([graphs.from_adjacency(matrix)])
    assert eigh_calls == []


def test_dense_eigensystems_repeat_bit_for_bit_across_openblas_thread_counts():
    script = ("import sys, numpy as np\n"
              "from ctqw import graphs, spectra\n"
              "upper = np.triu(np.random.default_rng(65).random((2, 65, 65)) < 0.5, 1)\n"
              "gs = [graphs.from_adjacency(a) for a in (upper | upper.swapaxes(1, 2)).astype(np.uint8)]\n"
              "for s in spectra.dense_eigensystems(gs):\n"
              "    sys.stdout.write(s.eigenvalues.tobytes().hex() + s.eigenvectors.tobytes().hex())\n")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    out = [subprocess.run([sys.executable, "-c", script], capture_output=True, timeout=120,
                          env={**env, "OPENBLAS_NUM_THREADS": threads}, check=True).stdout
           for threads in ("1", "2")]
    assert out[0] and out[0] == out[1]


def test_stack_members_are_their_single_solves():
    # a graph's spectrum does not depend on the graphs that share its stack:
    # each member is the bits of `eigh` on its matrix alone, sorted
    rng = np.random.default_rng(12)
    gs = _random_graphs(rng, 2, 128) + _random_graphs(rng, 1, 127)
    for g, spec in zip(gs, spectra.dense_eigensystems(gs)):
        lam, vec = np.linalg.eigh(g.adjacency.astype(np.float64))
        order = spectra._descending(lam)
        assert spec.eigenvalues.tobytes() == lam[order].tobytes()
        assert spec.eigenvectors.tobytes() == vec[:, order].astype(np.complex128).tobytes()


def test_dense_routes_refuse_a_working_set_over_the_budget(monkeypatch):
    import tracemalloc

    n = 400
    g = graphs.from_adjacency(graphs.build_cycle(n).adjacency)  # no closed form: the eigh route
    need = spectra.DENSE_ARRAYS * 8 * n * n
    monkeypatch.setattr(spectra, "DENSE_BUDGET", need - 1)
    for route in (graph_eigensystem, dense_eigensystem):
        tracemalloc.start()
        with pytest.raises(ValueError, match=f"n = {n} refused: .* {need} bytes"):
            route(g)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 8 * n * n  # refused before one float64 n x n array
    monkeypatch.setattr(spectra, "DENSE_BUDGET", need)
    spectra.check_spectrum(graph_eigensystem(g), g.adjacency)


def test_dense_budget_is_computed_from_the_orders_alone():
    # 10^6 vertices would need 128 TB: refused by arithmetic, never allocated
    with pytest.raises(ValueError, match="n = 1000000 refused: .* 128000000000000 bytes"):
        spectra._check_dense_budget([10**6])
    largest = math.isqrt(spectra.DENSE_BUDGET // (8 * spectra.DENSE_ARRAYS))
    spectra._check_dense_budget([largest])
    with pytest.raises(ValueError, match=f"n = {largest + 1} refused"):
        spectra._check_dense_budget([largest + 1])
    with pytest.raises(ValueError, match=f"n = {largest} refused"):
        spectra._check_dense_budget([largest, 100])  # the working sets of one call add up


def test_every_dense_route_is_one_stacked_eigh(eigh_calls):
    custom = graphs.from_adjacency(_random_01_stack(np.random.default_rng(11), 1, 12)[0])
    production = [custom, graphs.build_complete_bipartite(4), graphs.build_bunkbed(custom)]
    dense = [spectra.dense_eigensystem(g) for g in production]
    # "dense" forces the same eigh route, also where a closed form exists
    cycle = graphs.build_cycle(12)
    for g, want in [*zip(production, dense), (cycle, graph_eigensystem(cycle))]:
        for method in ("auto", "dense"):
            spec = graph_eigensystem(g, method=method)
            spectra.check_spectrum(spec, g.adjacency)
            assert np.max(np.abs(spec.eigenvalues - want.eigenvalues)) <= 1e-12
    assert graph_eigensystem(cycle, method="dense").characters is None
    for g, want in zip(production[:2], dense):  # no closed form: "auto" is eigh, bit for bit
        for spec in (graph_eigensystem(g), graph_eigensystem(g, method="dense")):
            assert spec.eigenvalues.tobytes() == want.eigenvalues.tobytes()
            assert spec.eigenvectors.tobytes() == want.eigenvectors.tobytes()
    eigh_calls.clear()
    spectra.dense_eigensystems(production[:2])
    assert eigh_calls == [(1, 12, 12), (1, 8, 8)]


def test_lapack_failure_is_a_computational_failure(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(spectra.np.linalg, "eigh", fail)
    with pytest.raises(RuntimeError, match="LAPACK eigh failed"):
        graph_eigensystem(graphs.build_complete_bipartite(3))


def test_dense_eigensystems_groups_by_size_and_keeps_order():
    gs = [graphs.build_cycle(5), graphs.build_path(4), graphs.build_cycle(4),
          graphs.build_complete(5), graphs.build_hypercube(2)]
    specs = spectra.dense_eigensystems(gs)
    assert [s.n for s in specs] == [5, 4, 4, 5, 4]
    for g, spec in zip(gs, specs):
        closed = graph_eigensystem(g, method="closed")
        assert np.max(np.abs(spec.eigenvalues - closed.eigenvalues)) <= 1e-12
        single = dense_eigensystem(g)
        assert np.array_equal(single.eigenvalues, spec.eigenvalues)
        assert np.array_equal(single.eigenvectors, spec.eigenvectors)
    assert spectra.dense_eigensystems([]) == []


def test_dense_eigensystems_checks_every_result(monkeypatch):
    exact = np.linalg.eigh

    def off_by_one_vector(a):
        lam, vec = exact(a)
        vec[-1, :, 0] *= 1.0 + 1e-6  # last member, first eigenvector
        return lam, vec

    monkeypatch.setattr(np.linalg, "eigh", off_by_one_vector)
    with pytest.raises(RuntimeError, match="orthonormal"):
        spectra.dense_eigensystems([graphs.build_cycle(6), graphs.build_path(6)])


def test_dense_eigensystems_solve_one_stack_per_order(eigh_calls):
    cfg = mixing.VerifyConfig()
    gs = _gap_graphs(cfg)
    gs += mixing._oracle_cases(cfg)
    assert len(gs) == 328
    specs = spectra.dense_eigensystems(gs)
    orders = sorted({g.n for g in gs})
    assert sorted(shape[1:] for shape in eigh_calls) == [(n, n) for n in orders]
    assert sum(shape[0] for shape in eigh_calls) == len(gs)
    for g, spec in zip(gs, specs):
        alone = dense_eigensystem(g)
        assert spec.eigenvalues.tobytes() == alone.eigenvalues.tobytes(), g.n
        assert spec.eigenvectors.tobytes() == alone.eigenvectors.tobytes(), g.n


def test_check_spectrum_refuses_nan():
    g = graphs.build_cycle(5)
    spec = dense_eigensystem(g)
    vecs = spec.eigenvectors.copy()
    vecs[2, 1] = np.nan
    with pytest.raises(RuntimeError, match="orthonormal"):
        spectra.check_spectrum(spectra.Spectrum(spec.eigenvalues, vecs), g.adjacency)
    lam = spec.eigenvalues.copy()
    lam[3] = np.nan
    with pytest.raises(ValueError, match="finite"):  # refused where the spectrum is made
        spectra.Spectrum(lam, spec.eigenvectors)
    with pytest.raises(RuntimeError, match="residual"):  # and by the check of a dense route
        spectra._check_eigensystems(g.adjacency[None], lam[None], spec.eigenvectors[None])


@pytest.mark.parametrize("factor", [float("nan"), math.inf, -math.inf])
def test_a_spectrum_refuses_non_finite_eigenvalues_where_it_is_made(factor):
    # a NaN factor passed the positivity test, and its spectrum gave a "valid"
    # average [1, 2e-33, ...] and a 2 pi scan window
    spec = graph_eigensystem(graphs.build_cycle(5))
    with pytest.raises(ValueError):
        spec.scaled(factor)
    with pytest.raises(ValueError, match="finite"):
        spectra.Spectrum(spec.eigenvalues * factor, spec.eigenvectors)


def test_a_spectrum_cannot_change_through_the_base_of_a_view():
    spec = dense_eigensystem(graphs.build_cycle(5))
    big = np.zeros((5, 8), dtype=np.complex128)
    big[:, :5] = spec.eigenvectors
    held = spectra.Spectrum(spec.eigenvalues, big[:, :5])
    big[0, 0] = 7.0
    assert np.array_equal(held.eigenvectors, spec.eigenvectors)
    assert big.flags.writeable  # the caller's array is left as it was
    # every route's spectrum owns its eigenvectors: none paid a copy, and
    # none can change through an array left behind
    for g in (graphs.build_cycle(6), graphs.build_path(5), graphs.build_complete_bipartite(3),
              graphs.build_bunkbed(graphs.build_cycle(4))):
        for s in (graph_eigensystem(g), graph_eigensystem(g, method="dense"), dense_eigensystem(g)):
            assert s.eigenvectors.flags.owndata and not s.eigenvectors.flags.writeable
    for s in spectra.dense_eigensystems([graphs.build_cycle(5), graphs.build_cycle(6)]):
        assert s.eigenvectors.flags.owndata


def test_a_spectrum_and_a_character_table_cannot_change(s3_table):
    spec = graph_eigensystem(graphs.build_cycle(8))
    for array in (spec.eigenvalues, spec.eigenvectors, spec.characters[1], s3_table.chars):
        with pytest.raises(ValueError, match="read-only"):
            array[1] = 5.0
    with pytest.raises(AttributeError):
        spec.eigenvalues = spec.eigenvalues * 2
    with pytest.raises(AttributeError):
        s3_table.chars = s3_table.chars.copy()
    # the S_3 table's transposition class function keeps its eigenvalues 3, -3, 0
    assert class_circulant_eigenvalues(s3_table, [0, 1, 0]) == [(3.0, 1), (0.0, 4), (-3.0, 1)]
    chars = s3_table.chars.copy()
    table = CharacterTable([1, 3, 2], [1, 1, 2], chars)
    chars[1, 1] = 5.0  # the caller's array: the table holds its own copy
    assert table.chars[1, 1] == -1.0


def _closed_symbol(factors, seed):
    """A random inverse-closed symbol on Z_n1 x ... x Z_nk that holds every unit."""
    group = AbelianGroupSpec(factors)
    values = np.random.default_rng(seed).random(group.order) < 0.3
    values[np.cumprod((1, *factors[:0:-1]))] = True  # the units, last factor first
    values |= values[group.negation]
    values[0] = False
    return Symbol(group, values)


@pytest.mark.parametrize("build", [
    lambda: graphs.build_hypercube(10),
    lambda: graphs.build_abelian_circulant(_closed_symbol((3, 4, 5), 3)),
    lambda: graphs.build_cycle(257),
    # 131 rows a block, 7.6 blocks
    lambda: graphs.build_cycle(1000),
], ids=["Q10", "Z3xZ4xZ5", "C257", "C1000"])
def test_blocked_character_projections_are_the_full_table_bitwise(build):
    g = build()
    spec = graph_eigensystem(g)
    for labels in (walk.exact_labels(spec.eigenvalues),
                   spectra.degeneracy_labels(spec.eigenvalues, spectra.DEGENERACY_TOL)):
        starts = np.flatnonzero(np.diff(labels, prepend=-1))
        for start in (0, 1, g.n - 1):
            got = spec.class_projections(start, labels, starts)
            want = full_table_character_projections(spec, start, starts)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), start


def test_degeneracy_classes_and_tolerance():
    c4 = graph_eigensystem(graphs.build_cycle(4))
    part = degeneracy_classes(c4, 1e-9)
    assert part.classes == [[0], [1, 2], [3]]
    p4 = path_eigensystem(4)
    assert degeneracy_classes(p4).multiplicities == [1, 1, 1, 1]
    k8 = graph_eigensystem(graphs.build_complete(8))
    assert sorted(degeneracy_classes(k8).multiplicities) == [1, 7]
    with pytest.raises(ValueError):
        degeneracy_classes(c4, 0.0)


def test_degeneracy_stable_under_halving_tol():
    for g in [graphs.build_cycle(12), graphs.build_complete(9), graphs.build_hypercube(4),
              graphs.build_path(7)]:
        spec = graph_eigensystem(g)
        a = degeneracy_classes(spec, 1e-9).classes
        b = degeneracy_classes(spec, 5e-10).classes
        assert a == b


def test_spectral_gap_values():
    assert spectral_gap(graph_eigensystem(graphs.build_complete(2))) == 2.0
    for n in (3, 6, 11):
        assert spectral_gap(graph_eigensystem(graphs.build_cycle(n))) == 0.0
    assert abs(spectral_gap(path_eigensystem(4)) - 1.0) < 1e-12


def test_spectrum_type_values():
    for n in (2, 5, 8):
        assert spectrum_type(graph_eigensystem(graphs.build_complete(n))) == 2
    for n in (4, 7, 10):
        assert spectrum_type(graph_eigensystem(graphs.build_cycle(n))) == 1 + n // 2
    for n in (2, 5, 9):
        assert spectrum_type(path_eigensystem(n)) == n


def test_spectrum_type_is_public_api():
    # no caller in the package: kept for library users, from the package root too
    import ctqw

    assert ctqw.spectrum_type is spectrum_type
    spec = graph_eigensystem(graphs.build_hypercube(4))
    labels = spectra.degeneracy_labels(spec.eigenvalues, 1e-9)
    assert spectrum_type(spec) == spectra.degeneracy_summary(spec.eigenvalues, labels)["type"] == 5


def test_hadamard_circulants_have_zero_gap():
    rng = np.random.default_rng(11)
    for d in (2, 3, 4):
        group = AbelianGroupSpec((2,) * d)
        n = group.order
        for _ in range(25):
            vals = np.zeros(n, dtype=bool)
            vals[1:] = rng.integers(0, 2, size=n - 1).astype(bool)
            try:
                sym = Symbol(group, vals)
            except GraphValidationError:
                continue
            assert spectral_gap(abelian_circulant_eigensystem(sym)) == 0.0


def test_class_circulant_s3_transpositions(s3_table):
    pairs = class_circulant_eigenvalues(s3_table, [0, 1, 0])
    assert sorted(pairs, key=lambda t: -t[0]) == [(3.0, 1), (0.0, 4), (-3.0, 1)]
    assert sum(m for _, m in pairs) == 6


def test_class_circulant_z2():
    table = CharacterTable([1, 1], [1, 1], np.array([[1, 1], [1, -1]], dtype=complex))
    assert class_circulant_eigenvalues(table, [0, 1]) == [(1.0, 1), (-1.0, 1)]


def test_class_circulant_rejections(s3_table):
    with pytest.raises(GraphValidationError, match="identity"):
        class_circulant_eigenvalues(s3_table, [1, 1, 0])
    with pytest.raises(GraphValidationError, match="disconnected"):
        class_circulant_eigenvalues(s3_table, [0, 0, 0])


def test_character_table_validation():
    with pytest.raises(ValueError, match="orthogonality"):
        CharacterTable([1, 3, 2], [1, 1, 2],
                       np.array([[1, 1, 1], [1, -1, 1], [2, 1, -1]], dtype=complex))
    with pytest.raises(ValueError, match="order"):
        CharacterTable([1, 2], [1, 2], np.array([[1, 1], [2, -1]], dtype=complex))


S3_CHARS = [[[1, 0], [1, 0], [1, 0]], [[1, 0], [-1, 0], [1, 0]], [[2, 0], [0, 0], [-1, 0]]]


@pytest.mark.parametrize("sizes, dims", [
    ([1, 3.9, 2.5], [1, 1, 2]),
    ([1, "3", 2], [1, 1, 2]),
    ([1, 3, 2], [1, 1, 2.7]),
    ([1, 3, 2], [1, 1, "2"]),
    ([True, 3, 2], [1, 1, 2]),
    ([1, 3, float("nan")], [1, 1, 2]),
    ([[1, 3, 2]], [1, 1, 2]),
], ids=["fractional-sizes", "string-size", "fractional-dim", "string-dim", "bool-size",
        "nan-size", "nested-sizes"])
def test_character_table_entries_are_checked_before_the_int_cast(s3_table, sizes, dims):
    with pytest.raises(ValueError, match="must be a list of integers"):
        CharacterTable(sizes, dims, s3_table.chars)
    if not any(isinstance(x, float) and math.isnan(x) for x in sizes):
        doc = {"class_sizes": sizes, "dims": dims, "chars": S3_CHARS}
        with pytest.raises(ValueError, match="must be a list of integers"):
            CharacterTable.from_json(json.dumps(doc))


@pytest.mark.parametrize("chars", [
    [[[True, 0], [1, 0]], [[1, 0], [-1, False]]],  # loaded as Z_2 before the check
    [[[1, 0], [1, 0]], [[1, 0], ["-1", 0]]],
    [[[1, 0], [1, None]], [[1, 0], [-1, 0]]],
], ids=["bools", "string", "null"])
def test_character_values_are_checked_before_the_complex_cast(chars):
    doc = {"class_sizes": [1, 1], "dims": [1, 1], "chars": chars}
    with pytest.raises(ValueError, match="real numbers"):
        CharacterTable.from_json(json.dumps(doc))
    doc["chars"] = [[[1, 0], [1, 0]], [[1.0, 0], [-1, 0.0]]]
    assert CharacterTable.from_json(json.dumps(doc)).order == 2


def test_exact_integer_character_table_entries_of_any_numeric_type_load(s3_table):
    for sizes, dims in [([1.0, 3.0, 2.0], [1, 1, 2]), (np.array([1, 3, 2], dtype=np.uint8),
                                                      np.array([1.0, 1.0, 2.0]))]:
        table = CharacterTable(sizes, dims, s3_table.chars)
        assert table.class_sizes == (1, 3, 2) and table.dims == (1, 1, 2)
        assert all(type(x) is int for x in table.class_sizes + table.dims)
    with pytest.raises(ValueError, match="identity class"):
        CharacterTable([], [], np.zeros((0, 0)))


def test_character_table_json_round_trip(s3_table):
    doc = {
        "class_sizes": [1, 3, 2],
        "dims": [1, 1, 2],
        "chars": [[[1, 0], [1, 0], [1, 0]], [[1, 0], [-1, 0], [1, 0]], [[2, 0], [0, 0], [-1, 0]]],
    }
    table = CharacterTable.from_json(json.dumps(doc))
    assert np.allclose(table.chars, s3_table.chars)
    with pytest.raises(ValueError, match="malformed"):
        CharacterTable.from_json(json.dumps({"dims": [1]}))


def test_sorting_is_descending_with_stable_ties():
    spec = graph_eigensystem(graphs.build_hypercube(4))
    assert np.all(np.diff(spec.eigenvalues) <= 1e-12)


def test_spectrum_json():
    import json

    argv = ["spectrum", "--family", "cycle", "--n", "4"]
    doc = json.loads(render(argv))
    assert doc["schema"] == "ctqw/1"
    assert doc["eigenvalues"][0] == 2.0
    assert doc["spectral_gap"] == 0.0
    assert doc["type"] == 3
    assert "eigenvectors" not in doc
    doc2 = json.loads(render([*argv, "--eigenvectors"]))
    assert len(doc2["eigenvectors"]) == 4


def _eager_circulant(sym):
    """The eigensystem built in full, as the closed form did before its
    eigenvectors became lazy: the whole phase table, then one sort."""
    L, phase = character_phases(sym.group)
    lam = circulant_eigenvalues(sym.group, sym.values[None, :])[0]
    vecs = _roots_of_unity(L)[phase]
    vecs /= math.sqrt(sym.group.order)
    order = np.lexsort((np.arange(len(lam)), -lam))
    return lam[order], vecs[:, order]


def _lazy_cases():
    z4z6 = AbelianGroupSpec((4, 6))
    yield graphs.build_cycle(12).symbol
    yield Symbol.from_support(z4z6, [1, 5, 6, 18])
    yield graphs.build_hypercube(4).symbol
    for n in range(3, 41):
        yield ensembles.random_circulants(n, 1, 12)[0]


def test_lazy_circulant_eigensystem_is_bitwise_the_eager_one():
    for sym in _lazy_cases():
        spec = abelian_circulant_eigensystem(sym)
        lam, vecs = _eager_circulant(sym)
        assert np.array_equal(spec.eigenvalues, lam), sym.group.factors
        assert np.array_equal(spec.eigenvectors, vecs), sym.group.factors
        scaled = spec.scaled(0.5)
        assert scaled.eigenvectors is spec.eigenvectors


def test_closed_forms_build_eigenvectors_only_when_read(monkeypatch):
    calls = []
    phases = spectra.character_phases

    def counted(group):
        calls.append(group.factors)
        return phases(group)

    monkeypatch.setattr(spectra, "character_phases", counted)
    cube = graph_eigensystem(graphs.build_hypercube(3))
    scaled = cube.scaled(1.0 / 3.0)
    bed = graph_eigensystem(graphs.build_bunkbed(graphs.build_cycle(5)))
    assert calls == []
    assert np.array_equal(scaled.eigenvectors, cube.eigenvectors)
    assert calls == [(2, 2, 2)]  # built once, shared by the scaled spectrum
    vecs = bed.eigenvectors
    assert calls == [(2, 2, 2), (5,)]
    assert vecs is bed.eigenvectors
    spectra.check_spectrum(bed, graphs.build_bunkbed(graphs.build_cycle(5)).adjacency)

    path = path_eigensystem(7)
    j = np.arange(1, 8)
    eager = math.sqrt(2.0 / 8) * np.sin(np.outer(j, j) * (math.pi / 8))
    order = np.lexsort((np.arange(7), -2.0 * np.cos(j * math.pi / 8)))
    assert np.array_equal(path.eigenvectors, eager[:, order].astype(np.complex128))
