"""Property-based checks of the structural invariants."""

import json
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ctqw import graphs, mixing, spectra, walk
from ctqw.cli import main
from tests.conftest import random_connected_graph, scalar_jacobi


@st.composite
def distributions(draw, max_len=12):
    n = draw(st.integers(min_value=1, max_value=max_len))
    weights = draw(
        st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=n, max_size=n)
    )
    arr = np.asarray(weights)
    return arr / arr.sum()


@given(distributions(), distributions())
def test_tv_symmetry_and_range(p, q):
    if len(p) != len(q):
        return
    d = mixing.total_variation(p, q)
    assert d == mixing.total_variation(q, p)
    assert -1e-15 <= d <= 2.0 + 1e-12


@given(distributions())
def test_tv_identity_of_indiscernibles(p):
    assert mixing.total_variation(p, p) <= 1e-12


@given(st.data())
def test_tv_triangle_inequality(data):
    n = data.draw(st.integers(min_value=1, max_value=10))
    def dist():
        w = np.asarray(data.draw(
            st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=n, max_size=n)))
        return w / w.sum()
    p, q, r = dist(), dist(), dist()
    assert mixing.total_variation(p, r) <= (
        mixing.total_variation(p, q) + mixing.total_variation(q, r) + 1e-12
    )


@given(st.integers(min_value=3, max_value=16), st.integers(min_value=0, max_value=2**15))
@settings(max_examples=60, deadline=None)
def test_random_circulant_gap_is_zero(n, seed):
    from ctqw.ensembles import random_circulants

    (sym,) = random_circulants(n, 1, seed)
    spec = spectra.abelian_circulant_eigensystem(sym)
    assert spectra.spectral_gap(spec) == 0.0


@given(st.integers(min_value=0, max_value=2**31), st.floats(min_value=0.0, max_value=50.0))
@settings(max_examples=40, deadline=None)
def test_unitarity_on_random_graphs(seed, t):
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    g = random_connected_graph(rng, n_min=3, n_max=10)
    spec = spectra.dense_eigensystem(g)
    amp = walk.evolve(spec, 0, t)
    assert abs(np.linalg.norm(amp) - 1.0) <= 1e-10
    probs = walk.instantaneous_distribution(spec, 0, t)
    assert abs(probs.sum() - 1.0) <= 1e-10


@given(st.integers(min_value=3, max_value=14), st.integers(min_value=0, max_value=2**15))
@settings(max_examples=40, deadline=None)
def test_circulant_average_is_symmetric_under_negation(n, seed):
    from ctqw.ensembles import random_circulants

    (sym,) = random_circulants(n, 1, seed)
    spec = spectra.abelian_circulant_eigensystem(sym)
    pbar = walk.average_distribution(spec, 0)
    for ell in range(n):
        assert abs(pbar[ell] - pbar[(-ell) % n]) <= 1e-10


@given(st.integers(min_value=2, max_value=8))
def test_builders_always_validate(n):
    for g in (graphs.build_complete(n), graphs.build_path(n),
              graphs.build_cycle(max(n, 3)), graphs.build_complete_bipartite(n)):
        graphs._check_adjacency(g.adjacency)  # the pass `Graph(...)` runs and they skip
        g.validate()


@given(st.integers(min_value=0, max_value=2**31))
@settings(max_examples=30, deadline=None)
def test_graph_file_spectra_agree_with_the_jacobi_oracle(seed):
    # the CLI's spectrum and average of one random graph file (LAPACK eigh)
    # against the LAPACK-free reference's spectrum and the average over it
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    g = random_connected_graph(rng, n_min=2, n_max=25)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(graphs.graph_to_json(g))
        docs = []
        for command in ("spectrum", "average"):
            out = os.path.join(tmp, "out.json")
            assert main([command, "--graph-file", path, "-o", out]) == 0
            with open(out, encoding="utf-8") as fh:
                docs.append(json.load(fh))
    production, average = docs
    lam, vec = scalar_jacobi(g.adjacency)
    order = np.argsort(-lam, kind="stable")
    oracle = spectra.Spectrum(lam[order], vec[:, order])
    assert np.max(np.abs(np.subtract(production["eigenvalues"], oracle.eigenvalues))) <= 1e-9
    want = spectra.degeneracy_summary(oracle.eigenvalues,
                                      spectra.degeneracy_labels(oracle.eigenvalues, 1e-9))
    assert production["multiplicities"] == want["multiplicities"]
    assert np.max(np.abs(np.subtract(average["probabilities"],
                                     walk.average_distribution(oracle, 0)))) <= 1e-9


def _file_docs():
    """`ctqw/1` documents of built graphs, each with the metadata that routes
    it to a closed form: a symbol (cycle, hypercube, a circulant on
    Z_3 x Z_4), the path family, or a bunkbed base."""
    z34 = graphs.AbelianGroupSpec((3, 4))
    circulant = graphs.build_abelian_circulant(graphs.Symbol.from_support(z34, [1, 3, 4, 8]))
    built = [graphs.build_cycle(7), graphs.build_hypercube(3), graphs.build_path(6),
             graphs.build_bunkbed(graphs.build_cycle(4)), circulant]
    return [json.loads(graphs.graph_to_json(g)) for g in built]


FILE_DOCS = _file_docs()
PERTURBATIONS = ("flip_pair", "flip_one_side", "set_diagonal", "disconnect",
                 "symbol_support", "base")


def _flip(rows: list[str], r: int, c: int) -> None:
    row = list(rows[r])
    row[c] = "1" if row[c] == "0" else "0"
    rows[r] = "".join(row)


@st.composite
def perturbed_graph_files(draw):
    """A built graph's document with one perturbation of its adjacency or of
    the metadata that selects its closed form."""
    doc = json.loads(json.dumps(draw(st.sampled_from(FILE_DOCS))))
    rows, n = doc["adjacency_rows"], doc["n"]
    vertex = st.integers(min_value=0, max_value=n - 1)
    kind = draw(st.sampled_from(PERTURBATIONS))
    if kind == "flip_pair":  # an edge added or removed, both directions
        r, c = draw(vertex), draw(vertex)
        _flip(rows, r, c)
        if r != c:
            _flip(rows, c, r)
    elif kind == "flip_one_side":
        r, c = draw(vertex), draw(vertex)
        _flip(rows, r, c)
    elif kind == "set_diagonal":
        v = draw(vertex)
        rows[v] = rows[v][:v] + "1" + rows[v][v + 1:]
    elif kind == "disconnect":  # every edge of one vertex removed
        v = draw(vertex)
        doc["adjacency_rows"] = [("0" * n if r == v else row[:v] + "0" + row[v + 1:])
                                 for r, row in enumerate(rows)]
    elif kind == "symbol_support" and "symbol_support" in doc:
        # x and -x toggled together, so the edited symbol is often valid
        group = graphs.AbelianGroupSpec(tuple(doc["group_factors"]))
        x = draw(st.integers(0, group.order - 1))
        doc["symbol_support"] = sorted(set(doc["symbol_support"])
                                       ^ {x, int(group.negation[x])})
    elif kind == "base" and "base" in doc:
        base = doc["base"]
        r, c = draw(st.integers(0, base["n"] - 1)), draw(st.integers(0, base["n"] - 1))
        _flip(base["adjacency_rows"], r, c)
        if r != c:
            _flip(base["adjacency_rows"], c, r)
    return json.dumps(doc)


@given(perturbed_graph_files())
@settings(max_examples=150, deadline=None)
def test_perturbed_graph_files_are_refused_or_agree_with_the_oracle(text):
    # graph files keep the full check: whatever a file claims, its spectrum
    # either comes from a route that agrees with the dense oracle on the
    # adjacency it holds, or the file is refused
    try:
        g = graphs.graph_from_json(text)
    except graphs.GraphValidationError:
        return
    closed = spectra.graph_eigensystem(g).eigenvalues
    oracle = spectra.dense_eigensystem(g).eigenvalues
    assert np.max(np.abs(closed - oracle)) <= 1e-9


_BUILT = [graphs.build_cycle(6), graphs.build_complete(4), graphs.build_path(5),
          graphs.build_hypercube(2), graphs.build_bunkbed(graphs.build_path(3)),
          graphs.build_complete_bipartite(3)]


@st.composite
def api_graph_arguments(draw):
    """`Graph` arguments as a library caller may pass them: a built graph's
    adjacency or a random connected one of the same size, any family and
    labels, and a symbol and a base taken from the built graphs or none."""
    built = draw(st.sampled_from(_BUILT))
    n = built.n
    adjacency = built.adjacency
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        adjacency = random_connected_graph(rng, n_min=n, n_max=n + 1).adjacency
    family = draw(st.one_of(st.sampled_from([built.family, "path", "bunkbed", "custom"]),
                            st.text(max_size=4), st.integers()))
    labels = draw(st.one_of(st.none(), st.lists(st.text(max_size=3), min_size=n, max_size=n),
                            st.lists(st.integers(), min_size=n, max_size=n),
                            st.lists(st.text(max_size=3), max_size=n + 1)))
    symbol = draw(st.sampled_from([None, *(g.symbol for g in _BUILT if g.symbol is not None)]))
    base = draw(st.sampled_from([None, *(g.base for g in _BUILT if g.base is not None),
                                 graphs.build_complete(2)]))
    return adjacency, family, labels, symbol, base


@given(api_graph_arguments())
@settings(max_examples=200, deadline=None)
def test_every_graph_the_api_accepts_round_trips_through_json(args):
    adjacency, family, labels, symbol, base = args
    try:
        g = graphs.Graph(adjacency, family=family, labels=labels, symbol=symbol, base=base)
    except graphs.GraphValidationError:
        return
    text = graphs.graph_to_json(g)
    h = graphs.graph_from_json(text)
    assert graphs.graph_to_json(h) == text
    assert np.array_equal(h.adjacency, g.adjacency) and (h.family, h.labels) == (family, labels)
    # the route its structure selects agrees with the dense oracle on its adjacency
    routed = spectra.graph_eigensystem(g).eigenvalues
    assert np.max(np.abs(routed - spectra.dense_eigensystem(g).eigenvalues)) <= 1e-9
