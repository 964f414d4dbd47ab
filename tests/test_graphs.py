import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ctqw.graphs import (
    SQUARING_MAX_N,
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
from ctqw.graphs import SCHEMA, _connected
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
    g.validate()


def test_custom_adjacency_validation():
    with pytest.raises(GraphValidationError, match="symmetric"):
        from_adjacency([[0, 1], [0, 0]])
    with pytest.raises(GraphValidationError, match="diagonal"):
        from_adjacency([[1, 1], [1, 0]])
    with pytest.raises(GraphValidationError, match="connected"):
        from_adjacency(np.zeros((3, 3), dtype=int))
    with pytest.raises(GraphValidationError, match="0 or 1"):
        from_adjacency([[0, 2], [2, 0]])


def _reference_connected(adjacency):
    seen, stack = {0}, [0]
    while stack:
        for w in np.flatnonzero(adjacency[stack.pop()]):
            if int(w) not in seen:
                seen.add(int(w))
                stack.append(int(w))
    return len(seen) == len(adjacency)


@pytest.mark.parametrize("n", [1, 2, 3, 17, SQUARING_MAX_N, SQUARING_MAX_N + 1, 100])
def test_connectivity_matches_per_vertex_reference(n):
    # both sides of the squaring / BFS switch: paths (diameter n - 1), a path
    # cut in two, and random graphs around the connectivity threshold
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
def test_subgroup_closure_matches_per_element_bfs(factors, support):
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
