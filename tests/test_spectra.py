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
    JacobiConvergenceError,
    _roots_of_unity,
    abelian_circulant_eigensystem,
    bunkbed_eigensystem,
    character_phases,
    circulant_eigenvalues,
    class_circulant_eigenvalues,
    degeneracy_classes,
    dense_eigensystem,
    graph_eigensystem,
    jacobi_eigensystem,
    path_eigensystem,
    spectral_gap,
    spectrum_type,
)
from tests.conftest import full_table_character_projections, negate_index
from tests.golden import render

SQRT2 = math.sqrt(2.0)
# Stacked kernel vs the scalar reference: sorted eigenvalues agree to
# EIGENVALUE_BOUND * (1 + ||A||_F).  Both stop once the off-diagonal norm is
# below 1e-12 * (1 + ||A||_F); measured agreement is within 8.4e-16 of that
# scale on verify's matrices, 1.4e-15 on random 0/1 matrices up to n = 32
# and 2.1e-15 on the stacks of orders 33, 64 and 65 below; against LAPACK
# eigh it is 1.3e-15 on the random stacks of orders 96 and 128.
EIGENVALUE_BOUND = 1e-14


def _scalar_jacobi(matrix, max_sweeps=64):
    """The cyclic-by-row Jacobi routine the package used before the stacked
    round-robin kernel, kept as the reference: one (p, q) rotation at a time."""
    a = np.array(matrix, dtype=np.float64)
    n = a.shape[0]
    v = np.eye(n)
    if n == 1:
        return np.diag(a).copy(), v
    thresh = 1e-12 * (1.0 + np.linalg.norm(a))
    skip = thresh / n

    def off_norm(m):
        stripped = m.copy()
        np.fill_diagonal(stripped, 0.0)
        return float(np.linalg.norm(stripped))

    for _ in range(max_sweeps):
        if off_norm(a) < thresh:
            return np.diag(a).copy(), v
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= skip:
                    continue
                app, aqq = a[p, p], a[q, q]
                theta = (aqq - app) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                a[p, :] = a[:, p]
                a[q, :] = a[:, q]
                a[p, p] = app - t * apq
                a[q, q] = aqq + t * apq
                a[p, q] = a[q, p] = 0.0
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    if off_norm(a) < thresh:
        return np.diag(a).copy(), v
    raise JacobiConvergenceError(off_norm(a), max_sweeps)


def _assert_matches_reference(stack, eigenvalues, eigenvectors):
    """Each member: sorted eigenvalues within the bound of the scalar
    reference, eigen-residual <= 1e-9 and orthonormality error <= 1e-10."""
    n = stack.shape[-1]
    for a, lam, vec in zip(stack, eigenvalues, eigenvectors):
        ref, _ = _scalar_jacobi(a)
        bound = EIGENVALUE_BOUND * (1.0 + np.linalg.norm(a))
        assert np.max(np.abs(np.sort(lam) - np.sort(ref))) <= bound
        assert np.max(np.abs(a @ vec - vec * lam)) <= spectra.RESIDUAL_TOL
        assert np.max(np.abs(vec.T @ vec - np.eye(n))) <= spectra.ORTHONORMALITY_TOL


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


def test_jacobi_against_numpy_on_random_symmetric():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(2, 30))
        m = rng.normal(size=(n, n))
        m = m + m.T
        lam, vec = jacobi_eigensystem(m)
        assert np.max(np.abs(np.sort(lam) - np.linalg.eigvalsh(m))) < 1e-10
        assert np.max(np.abs(vec.T @ vec - np.eye(n))) < 1e-10
        assert np.max(np.abs(m @ vec - vec * lam)) < 1e-9


def test_jacobi_rejects_asymmetric():
    with pytest.raises(ValueError):
        jacobi_eigensystem(np.array([[0.0, 1.0], [0.5, 0.0]]))


def _gap_graphs(cfg):
    """The circulants of the spectral-gap check, in the order it builds them."""
    return [graphs.build_abelian_circulant(graphs.Symbol._proven(group, row))
            for group, rows, _ in mixing._gap_rows(cfg) for row in rows]


def test_stacked_jacobi_matches_reference_on_verify_matrices():
    cfg = mixing.VerifyConfig()
    gs = _gap_graphs(cfg)
    gs += mixing._oracle_cases(cfg)
    assert len(gs) == 328
    for n in sorted({g.n for g in gs}):
        stack = np.stack([g.adjacency for g in gs if g.n == n]).astype(np.float64)
        _assert_matches_reference(stack, *jacobi_eigensystem(stack))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64, 65])
def test_stacked_jacobi_matches_reference_on_random_01_stacks(n):
    stack = _random_01_stack(np.random.default_rng(n), 6, n)
    eigenvalues, eigenvectors = jacobi_eigensystem(stack)
    assert eigenvalues.shape == (6, n) and eigenvectors.shape == (6, n, n)
    _assert_matches_reference(stack, eigenvalues, eigenvectors)
    lam, vec = jacobi_eigensystem(stack[0])  # a 2-D input keeps 2-D shapes
    assert lam.shape == (n,) and vec.shape == (n, n)


@pytest.mark.parametrize("n", [96, 128])
def test_jacobi_matches_lapack_on_large_random_01_stacks(n):
    # the scalar reference is too slow at these orders, so eigh is the second solver
    stack = _random_01_stack(np.random.default_rng(n), 2, n)
    eigenvalues, eigenvectors = jacobi_eigensystem(stack)
    for a, lam, vec in zip(stack, eigenvalues, eigenvectors):
        bound = EIGENVALUE_BOUND * (1.0 + np.linalg.norm(a))
        assert np.max(np.abs(np.sort(lam) - np.linalg.eigvalsh(a))) <= bound
        assert np.max(np.abs(a @ vec - vec * lam)) <= spectra.RESIDUAL_TOL
        assert np.max(np.abs(vec.T @ vec - np.eye(n))) <= spectra.ORTHONORMALITY_TOL


def test_jacobi_repeats_bit_for_bit_across_openblas_thread_counts():
    # the one ring runs element-wise numpy only: no BLAS thread count moves a bit
    script = ("import sys, numpy as np\n"
              "from ctqw.spectra import jacobi_eigensystem\n"
              "upper = np.triu(np.random.default_rng(65).random((2, 65, 65)) < 0.5, 1)\n"
              "lam, vec = jacobi_eigensystem((upper | upper.swapaxes(1, 2)).astype(float))\n"
              "sys.stdout.write(lam.tobytes().hex() + vec.tobytes().hex())\n")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    out = [subprocess.run([sys.executable, "-c", script], capture_output=True, timeout=120,
                          env={**env, "OPENBLAS_NUM_THREADS": threads}, check=True).stdout
           for threads in ("1", "2")]
    assert out[0] and out[0] == out[1]


def test_jacobi_leaves_a_diagonal_matrix_alone():
    diag = np.diag([3.0, -1.0, 0.5, 2.0, 0.0])
    lam, vec = jacobi_eigensystem(diag, max_sweeps=0)  # converged before any sweep
    assert np.array_equal(lam, np.diag(diag))
    assert np.array_equal(vec, np.eye(5))
    stack = np.stack([diag, _random_01_stack(np.random.default_rng(0), 1, 5)[0]])
    lam, vec = jacobi_eigensystem(stack)
    assert np.array_equal(lam[0], np.diag(diag)) and np.array_equal(vec[0], np.eye(5))


def _sweeps_needed(a):
    for cap in range(65):
        try:
            jacobi_eigensystem(a, max_sweeps=cap)
            return cap
        except JacobiConvergenceError:
            continue
    raise AssertionError("no convergence within 64 sweeps")


def test_stack_members_converge_after_different_sweep_counts():
    n = 10
    spread = np.diag(np.arange(n, dtype=np.float64))
    one_pair = spread.copy()
    one_pair[2, 7] = one_pair[7, 2] = 1.0  # a single rotation finishes it
    noise = _random_01_stack(np.random.default_rng(4), 1, n)[0]
    stack = np.stack([spread, one_pair, spread + 1e-3 * noise, spread + 1e-2 * noise, noise])
    needed = [_sweeps_needed(a) for a in stack]
    assert needed[:2] == [0, 1] and len(set(needed)) == len(needed)  # 0, 1, 2, 3, 5
    eigenvalues, eigenvectors = jacobi_eigensystem(stack)
    _assert_matches_reference(stack, eigenvalues, eigenvectors)
    for a, lam, vec in zip(stack, eigenvalues, eigenvectors):
        alone_lam, alone_vec = jacobi_eigensystem(a)
        assert np.allclose(lam, alone_lam, rtol=0, atol=1e-13)
        assert np.allclose(vec, alone_vec, rtol=0, atol=1e-13)
    with pytest.raises(JacobiConvergenceError):
        jacobi_eigensystem(stack, max_sweeps=max(needed) - 1)


def test_stack_members_are_their_single_solves():
    stack = _random_01_stack(np.random.default_rng(12), 3, 128)
    stack[2, 127] = stack[2, :, 127] = 0.0  # order 127, zero-padded to 128
    eigenvalues, eigenvectors = jacobi_eigensystem(stack, sizes=[128, 128, 127])
    for a, n, lam, vec in zip(stack, (128, 128, 127), eigenvalues, eigenvectors):
        alone_lam, alone_vec = jacobi_eigensystem(a[:n, :n])
        assert np.array_equal(lam[:n], alone_lam) and np.array_equal(vec[:n, :n], alone_vec)
    assert eigenvalues[2, 127] == 0.0 and np.array_equal(eigenvectors[2, :, 127], np.eye(128)[127])


def test_jacobi_sweep_cap_raises():
    stack = _random_01_stack(np.random.default_rng(2), 3, 16)
    with pytest.raises(JacobiConvergenceError) as info:
        jacobi_eigensystem(stack, max_sweeps=2)
    assert info.value.sweeps == 2 and info.value.off_norm > 0.0
    with pytest.raises(JacobiConvergenceError):
        jacobi_eigensystem(stack[0], max_sweeps=2)


def test_jacobi_sweep_cap_raises_on_an_odd_order():
    stack = _random_01_stack(np.random.default_rng(3), 2, 65)  # padded to a ring of 66
    with pytest.raises(JacobiConvergenceError) as info:
        jacobi_eigensystem(stack, max_sweeps=3)
    assert info.value.sweeps == 3 and info.value.off_norm > 0.0


@pytest.mark.parametrize("matrix", [
    np.zeros(3),
    np.zeros((2, 3)),
    np.zeros((2, 3, 4)),
    np.zeros((1, 2, 2, 2)),
    np.array([[0.0, 1.0], [0.5, 0.0]]),
    np.stack([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])]),
    np.array([[0.0, np.nan], [np.nan, 0.0]]),
    np.array([[np.inf, 0.0], [0.0, 1.0]]),
], ids=["1d", "non-square", "non-square-stack", "4d", "asymmetric", "asymmetric-member",
        "nan", "inf"])
def test_jacobi_rejects_bad_input(matrix):
    with pytest.raises(ValueError):
        jacobi_eigensystem(matrix)


def test_jacobi_reads_the_upper_triangle_of_a_nearly_symmetric_matrix():
    # accepted as symmetric (relative mismatch 1e-9 < the 1e-5 allowed), then
    # solved as the exactly symmetric matrix of its upper triangle
    upper = _random_01_stack(np.random.default_rng(7), 3, 9)
    nearly = upper.copy()
    lower = np.tril_indices(9, -1)
    nearly[:, lower[0], lower[1]] *= 1.0 + 1e-9
    for got, want in zip(jacobi_eigensystem(nearly), jacobi_eigensystem(upper)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_jacobi_keeps_pivots_below_the_skip_threshold(n):
    # an all-ones off-diagonal with one pair shrunk to 0.9 * thresh / n: the
    # pair is skipped while it is that small, but its value still counts, so
    # the eigenvalues match an independent solver to rounding, far below
    # the first-order shift (up to about 1e-12 here) that dropping it would cause
    base = np.ones((n, n)) - np.eye(n) + np.diag(np.arange(n) * 0.37)
    for p in range(n - 1):
        for q in range(p + 1, n):
            a = base.copy()
            thresh = 1e-12 * (1.0 + np.linalg.norm(base))
            a[p, q] = a[q, p] = 0.9 * thresh / n
            lam, vec = jacobi_eigensystem(a)
            exact = np.linalg.eigvalsh(a)
            assert np.max(np.abs(np.sort(lam) - exact)) <= 2e-14, (p, q)
            ref, _ = _scalar_jacobi(a)
            assert np.max(np.abs(np.sort(ref) - exact)) <= 2e-14, (p, q)


def test_ring_slots_meet_every_pair_once_and_return_to_the_start():
    for n in range(2, 41):
        m = n + n % 2
        start, perm = spectra._ring_slots(m)
        slots, met = start, []
        for r in range(m - 1):
            # the Brent-Luk ring: index 0 fixed, 1..m-1 one place on per round,
            # position i against position m-1-i
            order = [0] + [1 + (r + k) % (m - 1) for k in range(m - 1)]
            want = {frozenset((order[i], order[m - 1 - i])) for i in range(m // 2)}
            pairs = [frozenset(p) for p in slots.reshape(-1, 2).tolist()]
            assert set(pairs) == want, (m, r)
            met += pairs
            slots = slots[perm]
        assert len(met) == len(set(met)) == m * (m - 1) // 2, m
        assert np.array_equal(slots, start), m


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


def test_production_dense_routes_use_lapack_and_the_oracle_stays_jacobi(jacobi_calls):
    custom = graphs.from_adjacency(_random_01_stack(np.random.default_rng(11), 1, 12)[0])
    production = [custom, graphs.build_complete_bipartite(4), graphs.build_bunkbed(custom)]
    oracle = [spectra.dense_eigensystem(g) for g in production]
    jacobi_calls.clear()
    # "dense" forces the same eigh route, also where a closed form exists
    cycle = graphs.build_cycle(12)
    for g, want in [*zip(production, oracle), (cycle, graph_eigensystem(cycle))]:
        for method in ("auto", "dense"):
            spec = graph_eigensystem(g, method=method)
            spectra.check_spectrum(spec, g.adjacency)
            assert np.max(np.abs(spec.eigenvalues - want.eigenvalues)) <= 1e-12
    assert graph_eigensystem(cycle, method="dense").characters is None
    for g in production[:2]:  # no closed form: "auto" is eigh too, bit for bit
        auto, forced = graph_eigensystem(g), graph_eigensystem(g, method="dense")
        assert forced.eigenvalues.tobytes() == auto.eigenvalues.tobytes()
        assert forced.eigenvectors.tobytes() == auto.eigenvectors.tobytes()
    assert jacobi_calls == []
    spectra.dense_eigensystems(production[:2])
    assert jacobi_calls == [(1, 12, 12), (1, 8, 8)]


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
    exact = spectra.jacobi_eigensystem

    def off_by_one_vector(matrix, max_sweeps=64, sizes=None):
        lam, vec = exact(matrix, max_sweeps, sizes)
        vec[-1, :, 0] *= 1.0 + 1e-6  # last member, first eigenvector
        return lam, vec

    monkeypatch.setattr(spectra, "jacobi_eigensystem", off_by_one_vector)
    with pytest.raises(RuntimeError, match="orthonormal"):
        spectra.dense_eigensystems([graphs.build_cycle(6), graphs.build_path(6)])


def test_dense_eigensystems_solve_one_stack_per_even_size(jacobi_calls):
    # an odd n joins the n + 1 stack with a zero dummy index: the same index
    # the solver pads it with alone, and its pairs still skip below thresh / n
    cfg = mixing.VerifyConfig()
    gs = _gap_graphs(cfg)
    gs += mixing._oracle_cases(cfg)
    assert len(gs) == 328
    specs = spectra.dense_eigensystems(gs)
    evens = sorted({g.n + g.n % 2 for g in gs})
    assert sorted(shape[1:] for shape in jacobi_calls) == [(m, m) for m in evens]
    assert sum(shape[0] for shape in jacobi_calls) == len(gs)
    for g, spec in zip(gs, specs):
        alone = dense_eigensystem(g)
        lam, vec = jacobi_eigensystem(g.adjacency)  # unpadded: an odd n is padded inside
        order = spectra._descending(lam)
        for want in (alone, spectra.Spectrum(lam[order], vec[:, order])):
            assert spec.eigenvalues.tobytes() == want.eigenvalues.tobytes(), g.n
            assert spec.eigenvectors.tobytes() == want.eigenvectors.tobytes(), g.n


def test_jacobi_sizes_must_match_zero_padding():
    stack = np.zeros((2, 4, 4))
    stack[:, :3, :3] = graphs.build_cycle(3).adjacency
    lam, vec = jacobi_eigensystem(stack, sizes=[3, 3])
    assert np.array_equal(lam[:, 3], [0.0, 0.0])
    assert np.array_equal(vec[:, :, 3], [np.eye(4)[3]] * 2)
    assert np.allclose(np.sort(lam[:, :3]), [[-1.0, -1.0, 2.0]] * 2, rtol=0, atol=1e-12)
    for sizes in ([3], [3, 5], [0, 3], [3.0, 3.0], [2, 3]):  # [2, 3]: a nonzero entry past size 2
        with pytest.raises(ValueError):
            jacobi_eigensystem(stack, sizes=sizes)


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


def test_jacobi_convergence_error_reports_off_norm():
    err = JacobiConvergenceError(1e-3, 64)
    assert "1.000e-03" in str(err)


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
