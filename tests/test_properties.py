"""Property-based checks of the structural invariants."""

import json
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ctqw import graphs, mixing, spectra, walk
from ctqw.cli import main
from tests.conftest import random_connected_graph


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
        g.validate()


@given(st.integers(min_value=0, max_value=2**31))
@settings(max_examples=30, deadline=None)
def test_graph_file_spectra_agree_with_the_jacobi_oracle(seed):
    # production (LAPACK) and --dense (Jacobi) spectra of one random graph file,
    # and the production average against the average over the Jacobi spectrum
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    g = random_connected_graph(rng, n_min=2, n_max=25)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(graphs.graph_to_json(g))
        docs = []
        for argv in (["spectrum"], ["spectrum", "--dense"], ["average"]):
            out = os.path.join(tmp, "out.json")
            assert main([*argv, "--graph-file", path, "-o", out]) == 0
            with open(out, encoding="utf-8") as fh:
                docs.append(json.load(fh))
    production, dense, average = docs
    assert np.max(np.abs(np.subtract(production["eigenvalues"], dense["eigenvalues"]))) <= 1e-9
    assert production["multiplicities"] == dense["multiplicities"]
    oracle = walk.average_distribution(spectra.graph_eigensystem(g, method="dense"), 0)
    assert np.max(np.abs(np.subtract(average["probabilities"], oracle))) <= 1e-9
