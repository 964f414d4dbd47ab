import json
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ctqw.graphs import (
    AbelianGroupSpec,
    GraphValidationError,
    Symbol,
    build_abelian_circulant,
    build_bunkbed,
    build_complete,
    build_complete_bipartite,
    build_cycle,
    build_hypercube,
    build_path,
    from_adjacency,
    graph_from_json,
    graph_to_json,
)
from ctqw import graphs
from ctqw.ensembles import random_circulants
from ctqw.graphs import SCHEMA, _check_adjacency, _connected
from ctqw.spectra import _roots_of_unity
from tests.conftest import add_index, element_of, index_of, negate_index


def all_builders_small():
    return [
        build_cycle(5),
        build_complete(4),
        build_path(6),
        build_hypercube(3),
        build_complete_bipartite(3),
        build_bunkbed(build_cycle(4)),
    ]


def test_cycle_rows():
    g = build_cycle(4)
    assert g.adjacency[0].tolist() == [0, 1, 0, 1]
    assert np.all(g.degrees == 2)


def test_cycle_3_is_complete_3():
    assert np.array_equal(build_cycle(3).adjacency, build_complete(3).adjacency)


def test_cycle_rejects_degenerate():
    with pytest.raises(GraphValidationError, match="degenerate cycle"):
        build_cycle(2)


def test_complete_small():
    assert build_complete(2).adjacency.tolist() == [[0, 1], [1, 0]]
    g = build_complete(4)
    assert g.n == 4 and np.all(g.degrees == 3)
    with pytest.raises(GraphValidationError):
        build_complete(1)


def test_path_degrees():
    assert np.array_equal(build_path(2).adjacency, build_complete(2).adjacency)
    assert build_path(3).degrees.tolist() == [1, 2, 1]
    g = build_path(5)
    assert g.degrees.tolist() == [1, 2, 2, 2, 1]
    with pytest.raises(GraphValidationError):
        build_path(1)


def test_hypercube():
    assert np.array_equal(build_hypercube(1).adjacency, build_complete(2).adjacency)
    # Q2 = C4 after mapping its binary order (00, 01, 10, 11) onto the ring
    perm = [0, 1, 3, 2]
    relabeled = build_hypercube(2).adjacency[np.ix_(perm, perm)]
    assert np.array_equal(relabeled, build_cycle(4).adjacency)
    g = build_hypercube(3)
    assert g.n == 8 and np.all(g.degrees == 3)
    assert g.labels[5] == "101"
    with pytest.raises(GraphValidationError):
        build_hypercube(0)


def test_complete_bipartite():
    assert np.array_equal(build_complete_bipartite(1).adjacency, build_complete(2).adjacency)
    assert np.all(build_complete_bipartite(2).degrees == 2)
    g = build_complete_bipartite(3)
    assert g.n == 6 and np.all(g.degrees == 3)
    assert g.adjacency[0, 1] == 0 and g.adjacency[0, 3] == 1


def test_circulant_matches_named_families():
    z8 = AbelianGroupSpec((8,))
    assert np.array_equal(
        build_abelian_circulant(Symbol.from_support(z8, [1, 7])).adjacency,
        build_cycle(8).adjacency,
    )
    assert np.array_equal(
        build_abelian_circulant(Symbol.from_support(z8, range(1, 8))).adjacency,
        build_complete(8).adjacency,
    )
    z2cubed = AbelianGroupSpec((2, 2, 2))
    assert np.array_equal(
        build_abelian_circulant(Symbol.from_support(z2cubed, [1, 2, 4])).adjacency,
        build_hypercube(3).adjacency,
    )


@pytest.mark.parametrize("n", range(3, 33))
def test_circulant_equals_cycle_entrywise(n):
    sym = Symbol.from_support(AbelianGroupSpec((n,)), [1, n - 1])
    assert np.array_equal(build_abelian_circulant(sym).adjacency, build_cycle(n).adjacency)


def test_symbol_invariants_enforced():
    z6 = AbelianGroupSpec((6,))
    with pytest.raises(GraphValidationError, match="identity"):
        Symbol.from_support(z6, [0, 1, 5])
    with pytest.raises(GraphValidationError, match="symmetric"):
        Symbol(z6, np.array([0, 1, 0, 0, 0, 0], dtype=bool))
    with pytest.raises(GraphValidationError, match="empty"):
        Symbol.from_support(z6, [])
    with pytest.raises(GraphValidationError, match="generate"):
        Symbol.from_support(z6, [2, 4])
    with pytest.raises(GraphValidationError, match="generate"):
        Symbol.from_support(AbelianGroupSpec((4,)), [2])


@pytest.mark.parametrize("factors, support, bad", [
    ((5,), [1, 7], 7),
    ((3,), [1, 5], 5),
    ((2, 4), [-1, 1], -1),  # would wrap to index 7
])
def test_symbol_indices_out_of_range_are_rejected(factors, support, bad):
    with pytest.raises(GraphValidationError, match=f"symbol index {bad} is out of range"):
        Symbol.from_support(AbelianGroupSpec(factors), support)


def test_symbol_support_forms():
    z8 = AbelianGroupSpec((8,))
    expected = [1, 7]
    for support in ([1, 7], {7, 1}, (1, 7, 1), np.array([7, 1]), range(1, 8, 6)):
        assert list(Symbol.from_support(z8, support).support) == expected
    for support in ([1.0, 7.0], ["1", "7"], [[1, 7]]):
        with pytest.raises(GraphValidationError, match="integer indices"):
            Symbol.from_support(z8, support)


def test_group_tables_are_cached_and_read_only():
    group = AbelianGroupSpec((2, 4, 3))
    coords = group.coordinates()
    assert coords is AbelianGroupSpec((2, 4, 3)).coordinates()
    for table in (coords, group.negation, _roots_of_unity(12)):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1
    assert _roots_of_unity(12) is _roots_of_unity(12)
    assert np.array_equal(group.negation,
                          [negate_index(group, x) for x in range(group.order)])


def test_group_encoding():
    g = AbelianGroupSpec((2, 3))
    assert g.order == 6
    assert index_of(g, (0, 0)) == 0
    assert index_of(g, (1, 2)) == 5
    assert element_of(g, 4) == (1, 1)
    assert negate_index(g, index_of(g, (1, 1))) == index_of(g, (1, 2))
    with pytest.raises(GraphValidationError):
        AbelianGroupSpec((1, 3))


@pytest.mark.parametrize("factors", [(2.5, 3), (4.9,), ("4",), (True, 3), (np.True_, 3)])
def test_group_factors_are_checked_before_the_int_cast(factors):
    # the cast would make (2.5, 3) Z_2 x Z_3 and (4.9,) Z_4
    with pytest.raises(GraphValidationError, match="group factors must be a list of integers"):
        AbelianGroupSpec(factors)


def all_bases_up_to_16():
    bases = [build_complete(n) for n in range(2, 17)]
    bases += [build_cycle(n) for n in range(3, 17)]
    bases += [build_path(n) for n in range(2, 17)]
    bases += [build_hypercube(d) for d in (1, 2, 3, 4)]
    bases += [build_complete_bipartite(n) for n in range(1, 9)]
    return bases


def test_bunkbed_matches_tensor_assembly():
    x2 = np.array([[0, 1], [1, 0]])
    for base in all_bases_up_to_16():
        bed = build_bunkbed(base)
        expected = np.kron(np.eye(2), base.adjacency) + np.kron(x2, np.eye(base.n))
        assert np.array_equal(bed.adjacency, expected.astype(np.uint8))


def test_bunkbed_of_k2_is_c4():
    bed = build_bunkbed(build_complete(2))
    perm = [0, 1, 3, 2]  # relabel layer-major order onto the 4-cycle
    relabeled = bed.adjacency[np.ix_(perm, perm)]
    assert np.array_equal(relabeled, build_cycle(4).adjacency)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_bunkbed_of_hypercube_is_next_hypercube(d):
    bed = build_bunkbed(build_hypercube(d))
    cube = build_hypercube(d + 1)
    # layer-major indexing coincides with the binary indexing when the new
    # coordinate is most significant, so the relabeling is the identity
    assert np.array_equal(bed.adjacency, cube.adjacency)


@pytest.mark.parametrize("g", all_builders_small(), ids=lambda g: g.family)
def test_builder_outputs_validate(g):
    a = g.adjacency
    assert np.array_equal(a, a.T)
    assert np.all(np.diag(a) == 0)
    # validate() returns at once on a graph checked by structure; run the
    # full pass it stands for
    _check_adjacency(a)
    assert g.validate() is g


def test_custom_adjacency_validation():
    with pytest.raises(GraphValidationError, match="symmetric"):
        from_adjacency([[0, 1], [0, 0]])
    with pytest.raises(GraphValidationError, match="diagonal"):
        from_adjacency([[1, 1], [1, 0]])
    with pytest.raises(GraphValidationError, match="connected"):
        from_adjacency(np.zeros((3, 3), dtype=int))
    with pytest.raises(GraphValidationError, match="0 or 1"):
        from_adjacency([[0, 2], [2, 0]])
    for tiny in ([[0]], np.zeros((0, 0), dtype=np.uint8)):
        with pytest.raises(GraphValidationError, match="at least 2 vertices"):
            from_adjacency(tiny)


@pytest.mark.parametrize("n", [5, 100, 2048])
def test_a_single_asymmetric_entry_is_refused(n):
    # the check reads the reverse of every edge; on small and large graphs and
    # at Q_11's size, one edge without its reverse is refused, whether it lies
    # above or below the diagonal
    path = build_path(n).adjacency
    for r, c in ((0, n - 1), (n - 1, 0), (1, 3)):
        a = path.copy()
        a[r, c] = 1
        with pytest.raises(GraphValidationError, match="symmetric"):
            from_adjacency(a)
        a[c, r] = 1
        from_adjacency(a)  # with its reverse the edge is accepted


@pytest.mark.parametrize("dtype", [np.int8, np.bool_, np.int64, np.float64, object])
def test_asymmetry_is_refused_in_any_adjacency_dtype(dtype):
    # the builders' uint8 is read as bool in place; another dtype, set after
    # construction, takes the comparison route.  A custom graph: a path-family
    # graph with the mended edge would be C_6 and fail the path-label check
    g = from_adjacency(build_path(6).adjacency)
    a = g.adjacency.astype(dtype)
    a[0, 5] = 1
    g.adjacency = a
    with pytest.raises(GraphValidationError, match="symmetric"):
        g.validate()
    a[5, 0] = 1
    g.validate()


def _reference_connected(adjacency):
    seen, stack = {0}, [0]
    while stack:
        for w in np.flatnonzero(adjacency[stack.pop()]):
            if int(w) not in seen:
                seen.add(int(w))
                stack.append(int(w))
    return len(seen) == len(adjacency)


@pytest.mark.parametrize("n", [1, 2, 3, 17, 64, 65, 100])
def test_connectivity_matches_per_vertex_reference(n):
    # paths (diameter n - 1, one BFS level per vertex), a path cut in two, and
    # random graphs around the connectivity threshold
    path = build_path(n).adjacency if n > 1 else np.zeros((1, 1), dtype=np.uint8)
    assert _connected(path)
    if n > 2:
        cut = path.copy()
        cut[n // 2, n // 2 - 1] = cut[n // 2 - 1, n // 2] = 0
        assert not _connected(cut)
    rng = np.random.default_rng(n)
    verdicts = set()
    for _ in range(30):
        upper = np.triu(rng.random((n, n)) < rng.uniform(0.3, 2.5) * np.log(n) / n, 1)
        a = (upper | upper.T).astype(np.uint8)
        verdicts.add(_connected(a))
        assert _connected(a) == _reference_connected(a)
    assert n < 3 or verdicts == {True, False}


@pytest.mark.parametrize("entry", [257, 1.5, -255, 1 + 1j, float("nan")])
def test_adjacency_entries_are_checked_before_the_uint8_cast(entry):
    # 257, 1.5 and -255 all cast to uint8 1 and would pass as K_2
    with pytest.raises(GraphValidationError, match="0 or 1"):
        from_adjacency([[0, entry], [entry, 0]])


@pytest.mark.parametrize("matrix", [
    [[0.0, 1.0], [1.0, 0.0]],
    [[False, True], [True, False]],
    np.array([[0, 1], [1, 0]], dtype=object),
])
def test_exact_zero_one_entries_of_any_numeric_type_are_accepted(matrix):
    g = from_adjacency(matrix)
    assert g.adjacency.dtype == np.uint8 and g.adjacency.tolist() == [[0, 1], [1, 0]]


def test_json_round_trip_preserves_structure():
    for g in [build_cycle(6), build_hypercube(2), build_bunkbed(build_path(3))]:
        doc = graph_to_json(g)
        back = graph_from_json(doc)
        assert np.array_equal(back.adjacency, g.adjacency)
        assert back.family == g.family
        assert graph_to_json(back) == doc


def test_json_symbol_metadata_round_trip():
    g = build_cycle(8)
    back = graph_from_json(graph_to_json(g))
    assert back.symbol is not None
    assert list(back.symbol.support) == [1, 7]
    bed = build_bunkbed(build_cycle(4))
    back = graph_from_json(graph_to_json(bed))
    assert back.base is not None and back.base.symbol is not None


def _graph_to_json_reference(g):
    """The per-entry writer `graph_to_json` replaced, kept as the reference:
    one `str(int(x))` per adjacency entry."""
    doc = {
        "schema": SCHEMA,
        "n": g.n,
        "family": g.family,
        "adjacency_rows": ["".join(str(int(x)) for x in row) for row in g.adjacency],
    }
    if g.labels is not None:
        doc["labels"] = g.labels
    if g.symbol is not None:
        doc["group_factors"] = list(g.symbol.group.factors)
        doc["symbol_support"] = [int(x) for x in g.symbol.support]
    if g.base is not None:
        doc["base"] = json.loads(_graph_to_json_reference(g.base))
    return json.dumps(doc, indent=2)


@pytest.mark.parametrize("g", [build_cycle(9), build_hypercube(4), build_complete_bipartite(3),
                               build_bunkbed(build_cycle(5))], ids=["C9", "Q4", "K33", "bunkbed-C5"])
def test_graph_to_json_is_byte_identical_to_the_per_entry_writer(g):
    assert graph_to_json(g) == _graph_to_json_reference(g)


def test_json_rejects_malformed():
    with pytest.raises(GraphValidationError):
        graph_from_json(json.dumps({"n": 2, "adjacency_rows": ["01"]}))
    with pytest.raises(GraphValidationError):
        graph_from_json(json.dumps({"n": 2, "adjacency_rows": ["0x", "10"]}))


def _c3_doc(**changes):
    """The graph-file document of C_3, with the keys in `changes` set."""
    doc = json.loads(graph_to_json(build_cycle(3)))
    doc.update(changes)
    return doc


@pytest.mark.parametrize("doc, match", [
    ([1, 2], "must be objects"),
    ("x", "must be objects"),
    (_c3_doc(base=5), "must be objects"),
    (_c3_doc(base=None), "must be objects"),
    (_c3_doc(symbol_support=5), "symbol support"),
    (_c3_doc(group_factors=3), "group factors"),
    (_c3_doc(symbol_support=[True, 2]), "symbol support"),  # read as [1, 2]: K_3
    (_c3_doc(labels=5), "labels"),
    (_c3_doc(labels=["a"]), "labels"),
    (_c3_doc(labels=[1, 2, 3]), "labels"),
    (_c3_doc(family=7), "family"),
], ids=["list", "string", "base-5", "base-null", "support-5", "factors-3", "support-bool",
        "labels-5", "labels-short", "labels-ints", "family-7"])
def test_json_of_the_wrong_shape_is_refused(doc, match):
    # these ended in AttributeError or TypeError, or were cast or echoed unchecked
    with pytest.raises(GraphValidationError, match=match):
        graph_from_json(json.dumps(doc))
    assert graph_from_json(json.dumps(_c3_doc(labels=["a", "b", "c"]))).labels == ["a", "b", "c"]


@pytest.mark.parametrize("rows", [
    ["0\u0661\u0661", "\u066101", "\u0661\u06610"],  # Arabic-Indic digit one
    [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
    ["01\ud800", "101", "110"],  # lone surrogate, which utf-8 cannot encode
    ["0 1", "101", "110"],
    ["011", "10", "1101"],
    ["011", "101", "110", "000"],
    "011101110",
])
def test_json_rows_must_be_n_strings_of_zero_one(rows):
    # each of these used to load as K_3 or fail past the parser
    with pytest.raises(GraphValidationError, match="adjacency_rows"):
        graph_from_json(json.dumps({"n": 3, "adjacency_rows": rows}))
    assert graph_from_json(json.dumps({"n": 3, "adjacency_rows": ["011", "101", "110"]})).n == 3


@pytest.mark.parametrize("values", [
    [0, 2, 0.5, 7],  # used to pass as support [1, 2, 3]
    [0, 1, 2, 1],
    [0, 1, -1, 1],
    [0, 1, float("nan"), 1],
    ["0", "1", "0", "1"],
])
def test_symbol_values_are_checked_before_the_bool_cast(values):
    with pytest.raises(GraphValidationError, match="0 or 1"):
        Symbol(AbelianGroupSpec((4,)), values)


@pytest.mark.parametrize("values", [
    [0, 1, 0, 1],
    [0.0, 1.0, 0.0, 1.0],
    [False, True, False, True],
    np.array([0, 1, 0, 1], dtype=np.uint8),
    np.array([0, 1, 0, 1], dtype=object),
])
def test_exact_zero_one_symbol_values_are_accepted(values):
    sym = Symbol(AbelianGroupSpec((4,)), values)
    assert sym.values.dtype == bool and list(sym.support) == [1, 3]


# Per-element group arithmetic the graph builders used before they were
# vectorized, kept as references.


def _reference_coordinates(group):
    coords = np.empty((group.order, len(group.factors)), dtype=np.int64)
    for i in range(group.order):
        coords[i] = element_of(group, i)
    return coords


def _reference_difference_table(group):
    coords = _reference_coordinates(group)
    diff = np.zeros((group.order, group.order), dtype=np.int64)
    for j, f in enumerate(group.factors):
        col = coords[:, j]
        diff = diff * f + (col[:, None] - col[None, :]) % f
    return diff


def _reference_generates_group(group, support):
    seen = {0}
    frontier = [0]
    gens = [int(x) for x in support]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = add_index(group, cur, g)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return len(seen) == group.order


def _reference_asymmetry(group, values):
    for x in np.flatnonzero(values):
        if not values[negate_index(group, int(x))]:
            return f"symbol is not symmetric: f({x}) = 1 but f(-{x}) = 0"
    return None


REFERENCE_GROUPS = (
    [(n,) for n in range(2, 41)]
    + [(2,) * d for d in range(1, 9)]
    + [(4, 6), (3, 5, 7), (2, 3, 4)]
)


@pytest.mark.parametrize("factors", REFERENCE_GROUPS, ids=lambda f: "x".join(map(str, f)))
def test_group_arithmetic_matches_per_element_reference(factors):
    group = AbelianGroupSpec(factors)
    coords = group.coordinates()
    assert coords.dtype == np.int64
    assert np.array_equal(coords, _reference_coordinates(group))
    table = _reference_difference_table(group)
    assert np.array_equal(group.difference_table(), table)
    neg = np.array([negate_index(group, x) for x in range(group.order)])
    rng = np.random.default_rng(sum(factors) * 100 + len(factors))
    verdicts = set()
    for _ in range(12):
        # sparse and dense random symmetric symbols, generating or not
        vals = rng.random(group.order) < rng.uniform(0.0, 0.6)
        vals[0] = False
        vals |= vals[neg]
        support = np.flatnonzero(vals)
        if support.size == 0:
            continue
        generates = _reference_generates_group(group, support)
        verdicts.add(generates)
        if not generates:
            with pytest.raises(GraphValidationError, match="does not generate"):
                Symbol(group, vals)
            continue
        g = build_abelian_circulant(Symbol(group, vals))
        assert np.array_equal(g.adjacency, vals[table].astype(np.uint8))
        # keep one element of each pair {x, -x} with x != -x: every kept x
        # is offending, and the message names the smallest
        one_sided = vals & ~(np.arange(group.order) > neg)
        if not np.array_equal(one_sided, vals):
            message = _reference_asymmetry(group, one_sided)
            with pytest.raises(GraphValidationError) as exc:
                Symbol(group, one_sided)
            assert str(exc.value) == message
    assert True in verdicts


@pytest.mark.parametrize("factors, support", [
    *(((n,), [2, n - 2]) for n in range(6, 41, 2)),
    ((4,), [2]),
    ((2, 4), [2, 6]),  # {(0,2), (1,2)} generates the subgroup Z_2 x 2Z_4
    ((2, 4), [4]),
    ((2, 4), [2, 4, 6]),
], ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else "-".join(map(str, v)))
def test_non_generating_supports_are_rejected(factors, support):
    group = AbelianGroupSpec(factors)
    assert not _reference_generates_group(group, support)
    with pytest.raises(GraphValidationError, match="does not generate"):
        Symbol.from_support(group, support)


@pytest.mark.parametrize("factors, support", [
    *(((n,), [2, n - 2]) for n in range(5, 22)),  # generates iff n is odd
    ((12,), [1, 2, 10, 11]),  # 2 and 10 already lie in <1>
    ((12,), [3, 4, 8, 9]),  # <3> has index 3; 4 enlarges it to Z_12
    ((12,), [4, 6, 8]),  # <4> + <6> = <2>, index 2
    ((2, 4), [1, 2, 6, 7]),  # 2 lies in <(0,1)>; 7 lies in <(0,1), (1,2)>
    ((2, 4), [3, 4, 5]),  # (0,1) gives Z_4; (1,0) doubles it; the rest lie inside
    ((2, 2, 2), [1, 2, 3]),  # 3 = 1 + 2 lies in H: never reaches the first factor
    ((3, 5, 7), [1, 7, 14, 34, 71, 104]),
    ((4, 6), [6, 18, 4, 20]),
])
def test_chosen_supports_match_per_element_bfs(factors, support):
    group = AbelianGroupSpec(factors)
    vals = np.zeros(group.order, dtype=bool)
    vals[support] = True
    vals |= vals[group.negation]
    generates = _reference_generates_group(group, np.flatnonzero(vals))
    if generates:
        assert np.array_equal(Symbol(group, vals).values, vals)
    else:
        with pytest.raises(GraphValidationError, match="does not generate"):
            Symbol(group, vals)


@st.composite
def groups_and_symmetric_supports(draw):
    factors = tuple(draw(st.lists(st.integers(2, 7), min_size=1, max_size=3)))
    group = AbelianGroupSpec(factors)
    vals = np.array(draw(st.lists(st.booleans(), min_size=group.order, max_size=group.order)))
    vals[0] = False
    return group, vals | vals[group.negation]


@settings(max_examples=60, deadline=None)
@given(groups_and_symmetric_supports())
def test_generation_check_matches_per_element_bfs(case):
    group, vals = case
    support = np.flatnonzero(vals)
    assume(support.size)
    if _reference_generates_group(group, support):
        Symbol(group, vals)
    else:
        with pytest.raises(GraphValidationError, match="does not generate"):
            Symbol(group, vals)


# `graphs.generates`, the one generation rule, against the per-element BFS.

EXHAUSTIVE_GROUPS = [(n,) for n in range(2, 13)] + [(2, 2), (2, 4), (2, 6), (3, 3), (2, 2, 2),
                                                     (2, 2, 3)]


def _assert_rule_matches_reference(group, rows):
    """The rule on a batch of 0/1 rows over every element equals the BFS per
    row, and one call per row equals the batch."""
    got = graphs.generates(group, rows)
    assert got.dtype == bool and got.shape == (len(rows),)
    want = [_reference_generates_group(group, np.flatnonzero(row)) for row in rows]
    assert got.tolist() == want, group.factors
    assert [graphs.generates(group, row[None])[0] for row in rows] == want
    return got


@pytest.mark.parametrize("factors", EXHAUSTIVE_GROUPS, ids=lambda f: "x".join(map(str, f)))
def test_generation_rule_matches_per_element_bfs_on_every_support(factors):
    group = AbelianGroupSpec(factors)
    n = group.order
    rows = (np.arange(2**n)[:, None] >> np.arange(n)) & 1 == 1
    got = _assert_rule_matches_reference(group, rows)
    assert got.any() and not got.all()


@pytest.mark.parametrize("factors", [(4, 4), (2, 2, 2, 2), (3, 6)], ids=lambda f: "x".join(map(str, f)))
def test_generation_rule_matches_per_element_bfs_on_seeded_supports(factors):
    group = AbelianGroupSpec(factors)
    rng = np.random.default_rng(sum(factors))
    # densities from one or two elements to most of the group
    density = rng.uniform(0.5, 8, size=(400, 1)) / group.order
    rows = rng.random((400, group.order)) < density
    got = _assert_rule_matches_reference(group, rows)
    assert got.any() and not got.all()


@pytest.mark.parametrize("n, p", [(5, 5), (7, 7), (9, 3), (25, 5), (27, 3), (16, 2), (12, 2), (12, 3)],
                         ids=lambda v: str(v))
def test_generation_rule_on_one_prime_refuses_rows_of_multiples_of_it(n, p):
    # on a factor with one prime p, a row generates the Z_p quotient only if
    # it chooses a non-multiple of p; rows of multiples alone never do
    group = AbelianGroupSpec((n,))
    rng = np.random.default_rng(n * p)
    rows = rng.random((200, n)) < rng.uniform(0.5, 6, size=(200, 1)) / n
    rows[:100, np.arange(n) % p != 0] = False  # only multiples of p, or nothing
    got = _assert_rule_matches_reference(group, rows)
    assert not got[:100].any() and got[100:].any()


def test_generation_rule_reads_columns_through_the_given_elements():
    group = AbelianGroupSpec((4, 6))
    elements = np.array([6, 1, 18, 9, 12, 2])  # (1,0) (0,1) (3,0) (1,3) (2,0) (0,2)
    rows = np.array([[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0], [0, 0, 0, 1, 1, 1],
                     [0, 1, 0, 0, 1, 0], [0, 0, 0, 0, 0, 0]], dtype=bool)
    want = [_reference_generates_group(group, elements[row]) for row in rows]
    assert want == [True, False, False, False, False]
    assert graphs.generates(group, rows, elements).tolist() == want
    assert graphs.generates(group, rows[:, :0], elements[:0]).tolist() == [False] * 5


def _timed_symbol(group, support):
    start = time.perf_counter()
    try:
        return Symbol.from_support(group, support)
    finally:
        assert time.perf_counter() - start < 1.0


def test_generation_rule_on_large_groups():
    cube = AbelianGroupSpec((2,) * 16)
    _timed_symbol(cube, [1 << j for j in range(16)])
    vals = np.random.default_rng(16).random(cube.order) < 0.3
    vals[0] = False
    assert 19000 < vals.sum() < 20000
    _timed_symbol(cube, np.flatnonzero(vals))
    # the nonzero elements of even weight: a hyperplane of (Z_2)^16
    even = [x for x in range(1, cube.order) if bin(x).count("1") % 2 == 0]
    with pytest.raises(GraphValidationError, match="^symbol support does not generate the group$"):
        _timed_symbol(cube, even)
    _timed_symbol(AbelianGroupSpec((1000003,)), [1, 1000002])


def test_validating_a_symbol_builds_no_table_of_the_group(monkeypatch):
    # the checks read the support's coordinates from the place values alone:
    # no |G| x k coordinate table and no negation table, on (Z_2)^16 and Z_1000003
    def no_tables(factors):
        raise AssertionError(f"built the tables of {factors}")

    monkeypatch.setattr(graphs, "_group_tables", no_tables)
    cube = AbelianGroupSpec((2,) * 16)
    Symbol.from_support(cube, [1 << j for j in range(16)])
    Symbol.from_support(AbelianGroupSpec((1000003,)), [1, 1000002])
    Symbol.from_support(AbelianGroupSpec((4, 6)), [1, 5, 6, 7, 18, 23])
    # every refusal keeps its message
    for group, support, message in (
            (cube, [0, 1], r"^symbol has f\(identity\) = 1 \(self-loop\)$"),
            (AbelianGroupSpec((8,)), [1, 3, 7], r"^symbol is not symmetric: f\(3\) = 1 but f\(-3\) = 0$"),
            (cube, [], r"^symbol is empty \(graph has no edges\)$"),
            (cube, [1 << j for j in range(15)], r"^symbol support does not generate the group$")):
        with pytest.raises(GraphValidationError, match=message):
            Symbol.from_support(group, support)


@settings(max_examples=60, deadline=None)
@given(groups_and_symmetric_supports())
def test_one_gather_adjacency_matches_difference_table_layout(case):
    group, vals = case
    # add +-e_j for every factor so the symbol always generates the group
    for j in range(len(group.factors)):
        unit = [0] * len(group.factors)
        unit[j] = 1
        vals[index_of(group, tuple(unit))] = True
    vals |= vals[group.negation]
    g = build_abelian_circulant(Symbol(group, vals))
    table = _reference_difference_table(group)
    assert np.array_equal(g.adjacency, vals[table].astype(np.uint8))


# Graphs built from checked structure skip the adjacency pass and form their
# adjacency on first read; these tie each such route to the full check.


def _random_valid_symbols(factors, count, seed):
    """`count` random symbols on the group that pass the full `Symbol` check."""
    group = AbelianGroupSpec(factors)
    rng = np.random.default_rng(seed)
    symbols = []
    while len(symbols) < count:
        vals = rng.random(group.order) < rng.uniform(0.1, 0.7)
        vals[0] = False
        try:
            symbols.append(Symbol(group, vals | vals[group.negation]))
        except GraphValidationError:
            continue
    return symbols


def _structured_cases():
    """(graph, its adjacency from an independent reference construction)."""
    cases = []
    for n in (3, 4, 9, 16):
        idx = np.arange(n)
        cases.append((build_cycle(n), np.isin((idx[:, None] - idx) % n, (1, n - 1)).astype(np.uint8)))
    for n in (2, 5, 12):
        cases.append((build_complete(n), 1 - np.eye(n, dtype=np.uint8)))
    for n in (2, 3, 10):
        idx = np.arange(n)
        cases.append((build_path(n), (np.abs(idx[:, None] - idx) == 1).astype(np.uint8)))
    for d in (1, 3, 5):
        v = np.arange(2**d)
        hamming_one = np.vectorize(lambda x: bin(x).count("1") == 1)(v[:, None] ^ v)
        cases.append((build_hypercube(d), hamming_one.astype(np.uint8)))
    for n in (1, 2, 5):
        parts = np.arange(2 * n) < n
        cases.append((build_complete_bipartite(n), (parts[:, None] != parts).astype(np.uint8)))
    for factors, seed in (((7,), 1), ((12,), 2), ((2, 2, 2), 3), ((2,) * 4, 4), ((3, 4, 5), 5)):
        for sym in _random_valid_symbols(factors, 3, seed):
            cases.append((build_abelian_circulant(sym), _symbol_reference(sym)))
    x2 = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    beds = [(build_bunkbed(g), np.kron(np.eye(2, dtype=np.uint8), a) + np.kron(x2, np.eye(len(a))))
            for g, a in cases]
    return cases + beds


def _symbol_reference(sym):
    return sym.values[_reference_difference_table(sym.group)].astype(np.uint8)


@pytest.mark.parametrize("case", _structured_cases(),
                         ids=lambda c: f"{c[0].family}-{c[0].n}")
def test_structured_graphs_form_the_eager_adjacency_and_pass_the_full_check(case):
    g, expected = case
    assert g.n == len(expected)
    assert np.array_equal(g.degrees, expected.sum(axis=1))
    assert np.array_equal(g.adjacency, expected) and g.adjacency.dtype == np.uint8
    _check_adjacency(g.adjacency)  # the pass the construction skipped
    if g.symbol is not None:
        g.symbol.validate()  # and the closure a builder's symbol skipped


@pytest.mark.parametrize("n", [3, 4, 5, 7, 8, 12, 30, 97])
def test_every_sampled_symbol_passes_the_full_symbol_check(n):
    for sym in random_circulants(n, 200, n):
        Symbol(sym.group, sym.values.copy())  # the check `random_circulants` skips
        assert np.array_equal(sym.values, sym.values[sym.group.negation])
        _check_adjacency(build_abelian_circulant(sym).adjacency)  # and its graph's


def test_builder_labels_are_formed_on_first_read():
    assert build_hypercube(3).labels == ["000", "001", "010", "011", "100", "101", "110", "111"]
    assert build_bunkbed(build_path(2)).labels == ["(0,0)", "(0,1)", "(1,0)", "(1,1)"]
    assert build_cycle(4).labels is None


@pytest.mark.parametrize("g", [build_cycle(6), build_path(5), build_bunkbed(build_hypercube(2)),
                               from_adjacency([[0, 1], [1, 0]])], ids=lambda g: g.family)
def test_a_checked_adjacency_is_read_only(g):
    with pytest.raises(ValueError, match="read-only"):
        g.adjacency[0, 1] = 0
    g.validate()  # no pass runs, and nothing moved
    assert g.adjacency[0, 1] == 1


def test_from_adjacency_takes_a_private_copy():
    a = build_path(4).adjacency.copy()
    g = from_adjacency(a)
    a[0, 1] = a[1, 0] = 0  # the caller's array stays writable, and the graph unchanged
    assert g.adjacency[0, 1] == 1


def test_reassigning_the_adjacency_rearms_the_check():
    # a custom graph: C_5's symbol would refuse the mended P_5 adjacency
    g = from_adjacency(build_cycle(5).adjacency)
    cut = g.adjacency.copy()
    cut[0, 1] = cut[1, 0] = cut[2, 3] = cut[3, 2] = 0
    g.adjacency = cut
    with pytest.raises(GraphValidationError, match="connected"):
        g.validate()
    cut[2, 3] = cut[3, 2] = 1  # the graph holds the assigned array: one cut mends it
    g.validate()
    with pytest.raises(ValueError, match="read-only"):
        g.adjacency[0, 1] = 1
    cut[0, 4] = 1  # freezing the graph's view leaves the caller's array writable


def test_closed_form_routes_neither_check_nor_form_built_graphs(monkeypatch, tmp_path):
    calls = {"pass": 0, "generates": 0, "circulant": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(graphs, "_check_adjacency", counted("pass", graphs._check_adjacency))
    monkeypatch.setattr(graphs, "generates", counted("generates", graphs.generates))
    monkeypatch.setattr(graphs, "_circulant_adjacency",
                        counted("circulant", graphs._circulant_adjacency))
    from ctqw.cli import main

    for argv in (["spectrum", "--family", "hypercube", "--d", "9", "--format", "table"],
                 ["average", "--family", "hypercube", "--d", "8", "--normalize"],
                 ["scan", "--family", "cycle", "--n", "33"],
                 ["walk", "--family", "complete", "--n", "12", "--t", "1.5"],
                 ["average", "--family", "bunkbed", "--base-family", "cycle", "--base-n", "6"],
                 ["spectrum", "--family", "path", "--n", "40"],
                 ["verify", "--checks", "complete_average,cycle_average,hypercube_average"]):
        assert main([*argv, "-o", str(tmp_path / "out")]) == 0
    assert calls == {"pass": 0, "generates": 0, "circulant": 0}
    assert main(["build", "--family", "cycle", "--n", "5", "-o", str(tmp_path / "g.json")]) == 0
    assert calls["circulant"] == 1  # a route that reads it forms it
    g = graph_from_json((tmp_path / "g.json").read_text())
    assert calls == {"pass": 1, "generates": 1, "circulant": 2}  # a file gets every check
    g.validate()
    assert calls["pass"] == 1



def test_structure_labels_that_do_not_match_the_adjacency_are_refused():
    # each label selects a closed form: C_4's symbol on P_4 gave [2, 0, 0, -2],
    # family "path" on K_3 gave P_3's spectrum, and a bunkbed base of K_2 on
    # K_4 gave the 4-cycle's; graph_eigensystem now checks before any route
    from ctqw import spectra

    k3 = build_complete(3).adjacency
    unchecked = [graphs.Graph(build_path(4).adjacency, symbol=build_cycle(4).symbol),
                 graphs.Graph(k3, family="path"),
                 graphs.Graph(build_complete(4).adjacency, family="bunkbed", base=build_complete(2)),
                 graphs.Graph(k3, family=7), graphs.Graph(k3, labels=[1, 2, 3]),
                 graphs.Graph(k3, labels=["a", "b"]), graphs.Graph(k3, labels="abc")]
    # degrees are the row sums until the labels are checked: P_4's, not C_4's
    assert unchecked[0].degrees.tolist() == [1, 2, 2, 1]
    assert unchecked[2].degrees.tolist() == [3, 3, 3, 3]
    for g in unchecked:
        for method in ("auto", "dense"):
            with pytest.raises(GraphValidationError):
                spectra.graph_eigensystem(g, method=method)
    for kwargs in ({"family": "path"}, {"family": 7, "labels": [1]}, {"labels": [1, 2, 3]}):
        with pytest.raises(GraphValidationError):
            from_adjacency(k3, **kwargs)
    # matching labels pass, and a builder's graph is not checked again
    g = graphs.Graph(build_path(4).adjacency, family="path", labels=["a", "b", "c", "d"])
    assert np.allclose(spectra.graph_eigensystem(g).eigenvalues,
                       2 * np.cos(np.arange(1, 5) * np.pi / 5))
    assert graphs.Graph(build_cycle(4).adjacency, symbol=build_cycle(4).symbol).validate()


def test_prime_factors_are_the_distinct_primes_of_n():
    for n in range(1, 2000):
        primes = graphs._prime_factors(n)
        assert list(primes) == sorted(set(primes))
        assert all(all(p % q for q in range(2, p)) for p in primes)
        rest = n
        for p in primes:
            assert rest % p == 0
            while rest % p == 0:
                rest //= p
        assert rest == 1, n
