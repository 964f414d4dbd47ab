import numpy as np
import pytest

from ctqw import graphs, spectra


def random_connected_graph(rng, n_min=4, n_max=13):
    """Erdos-Renyi draw, rejected until connected."""
    while True:
        n = int(rng.integers(n_min, n_max))
        p = rng.uniform(0.3, 0.7)
        a = (rng.random((n, n)) < p).astype(np.uint8)
        a = np.triu(a, 1)
        a = a + a.T
        try:
            return graphs.from_adjacency(a)
        except graphs.GraphValidationError:
            continue


def _eigenvector_evolve(spec, start, t):
    """Per-eigenvector evolution, the reference the class route of `walk` is
    checked against: sum_j <l|z_j> e^{-i lambda_j t} <z_j|start>.

    A scalar t gives one amplitude vector (a matrix-vector product); an array
    gives one row per time (one product over all times).  Every row must
    have unit norm to 1e-10.
    """
    weights = spec.eigenvectors[start, :].conj()
    if np.ndim(t) == 0:
        amps = (spec.eigenvectors @ (np.exp(-1j * spec.eigenvalues * t) * weights))[None]
    else:
        phases = np.exp(-1j * np.outer(t, spec.eigenvalues))
        amps = (phases * weights) @ spec.eigenvectors.T
    norms = np.linalg.norm(amps, axis=1)
    assert np.all(np.abs(norms - 1.0) <= 1e-10), norms
    return amps[0] if np.ndim(t) == 0 else amps


# Per-element arithmetic in Z_n1 x ... x Z_nk under the mixed-radix encoding
# of `graphs.AbelianGroupSpec` (first factor most significant), the reference
# the vectorized group tables are checked against.


def element_of(group, index: int) -> tuple[int, ...]:
    coords = []
    for f in reversed(group.factors):
        coords.append(index % f)
        index //= f
    return tuple(reversed(coords))


def index_of(group, element: tuple[int, ...]) -> int:
    if len(element) != len(group.factors):
        raise graphs.GraphValidationError("element length does not match factor count")
    idx = 0
    for x, f in zip(element, group.factors):
        idx = idx * f + (int(x) % f)
    return idx


def negate_index(group, index: int) -> int:
    return index_of(group, tuple(-x for x in element_of(group, index)))


def add_index(group, a: int, b: int) -> int:
    ea, eb = element_of(group, a), element_of(group, b)
    return index_of(group, tuple(x + y for x, y in zip(ea, eb)))


@pytest.fixture
def jacobi_calls(monkeypatch):
    """Shapes of the matrices passed to `spectra.jacobi_eigensystem`, which
    still runs; appended to on every call for the rest of the test."""
    calls = []
    exact = spectra.jacobi_eigensystem

    def counting(matrix, max_sweeps=64):
        calls.append(np.shape(matrix))
        return exact(matrix, max_sweeps)

    monkeypatch.setattr(spectra, "jacobi_eigensystem", counting)
    return calls


@pytest.fixture
def s3_table():
    """Character table of S3: classes (e, transpositions, 3-cycles)."""
    chars = np.array(
        [
            [1, 1, 1],
            [1, -1, 1],
            [2, 0, -1],
        ],
        dtype=np.complex128,
    )
    return spectra.CharacterTable(class_sizes=[1, 3, 2], dims=[1, 1, 2], chars=chars)
