import math

import numpy as np
import pytest

from ctqw import ensembles, graphs, spectra
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

SQRT2 = math.sqrt(2.0)


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
        neg = [group.negate_index(a) for a in range(group.order)]
        symbols = 0
        while symbols < 10:
            vals = rng.integers(0, 2, size=group.order).astype(bool)
            vals[0] = False
            try:
                sym = Symbol(group, vals | vals[neg])
            except GraphValidationError:
                continue
            lams = circulant_eigenvalues(sym.values[None, :], phase, L)[0]
            assert np.array_equal(lams, lams[neg]), factors  # lambda_a == lambda_{-a} bitwise
            symbols += 1


def test_ensemble_route_eigenvalues_match_closed_form():
    for n in range(3, 41):
        _, phase = character_phases(AbelianGroupSpec((n,)))
        entropy = np.random.SeedSequence(n).entropy
        bits, accepted = ensembles._draw_block(n, entropy, range(8))
        vals = ensembles._symbol_values(bits[accepted], n)
        rows = circulant_eigenvalues(vals, phase, n)
        for row, v in zip(rows, vals):
            spec = abelian_circulant_eigensystem(Symbol(AbelianGroupSpec((n,)), v))
            assert np.array_equal(np.sort(row)[::-1], spec.eigenvalues), n


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


def test_character_table_json_round_trip(s3_table):
    import json

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

    spec = graph_eigensystem(graphs.build_cycle(4))
    doc = json.loads(spectra.spectrum_to_json(spec))
    assert doc["schema"] == "ctqw/1"
    assert doc["eigenvalues"][0] == 2.0
    assert doc["spectral_gap"] == 0.0
    assert doc["type"] == 3
    assert "eigenvectors" not in doc
    doc2 = json.loads(spectra.spectrum_to_json(spec, include_eigenvectors=True))
    assert len(doc2["eigenvectors"]) == 4
