import math
import os

import numpy as np
import pytest
from hypothesis import settings

from ctqw import graphs, spectra, walk

# CI runs draw the same examples every time, and a failure prints the blob
# that replays it locally (`@reproduce_failure`).
settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


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


def finite_time_average(spec, start, T, tol=spectra.DEGENERACY_TOL):
    """Exact value of (1/T) integral_0^T P_t dt via per-term analytic integrals,
    the convergence oracle for `walk.average_distribution`.

    Pairs inside one degeneracy class get weight exactly 1; a pair with gap
    delta gets (1 - e^{-i delta T}) / (i delta T).
    """
    if not (math.isfinite(T) and T > 0):
        raise ValueError(f"averaging window T must be finite and positive, got {T!r}")
    if not 0 <= start < spec.n:
        raise ValueError(f"start vertex {start} out of range [0, {spec.n})")
    lam = spec.eigenvalues
    delta = lam[:, None] - lam[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        weights = (1.0 - np.exp(-1j * delta * T)) / (1j * delta * T)
    class_id = np.empty(spec.n, dtype=np.int64)
    for c, cls in enumerate(spectra.degeneracy_classes(spec, tol).classes):
        class_id[cls] = c
    weights[class_id[:, None] == class_id[None, :]] = 1.0
    coeff = spec.eigenvectors * spec.eigenvectors[start].conj()
    probs = np.einsum("lj,jk,lk->l", coeff, weights, coeff.conj())
    return walk.as_distribution(probs.real)


def bunkbed_layer_equality(base, tol=spectra.DEGENERACY_TOL):
    """max_l |Pbar(0,l) - Pbar(1,l)| on the assembled bunkbed, from (0, 0).

    `graph_eigensystem` routes the assembled graph to `bunkbed_eigensystem`,
    the closed form the factorized route uses, so this checks the averaging
    and degeneracy classes on 2n vertices, not the closed form; a dense
    spectrum of the assembled graph is the independent route.
    """
    spec = spectra.graph_eigensystem(graphs.build_bunkbed(base))
    pbar = walk.average_distribution(spec, 0, tol)
    n = base.n
    return float(np.max(np.abs(pbar[:n] - pbar[n:])))


def full_table_character_projections(spec, start, starts):
    """`Spectrum.class_projections` on a circulant, from the whole n x n character table
    at once, the reference its row blocks are checked against."""
    group, chars = spec.characters
    L, phase = spectra.character_phases(group)
    coords = group.coordinates()
    offsets = group.indices_of((coords - coords[start]) % np.array(group.factors))
    table = spectra._roots_of_unity(L).real[phase[offsets][:, chars]]
    return (np.add.reduceat(table, starts, axis=1) / spec.n).T


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


def scalar_jacobi(matrix, max_sweeps=64):
    """Cyclic-by-row Jacobi rotations, one (p, q) pair at a time, on a real
    symmetric matrix: the LAPACK-free reference the dense route (`eigh`) is
    checked against.  Returns (eigenvalues, eigenvector columns), unsorted;
    it stops once the off-diagonal norm is below 1e-12 * (1 + ||A||_F)."""
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
    raise AssertionError(f"reference Jacobi did not converge in {max_sweeps} sweeps;"
                         f" off-diagonal norm {off_norm(a):.3e}")


@pytest.fixture
def eigh_calls(monkeypatch):
    """Shapes of the arrays passed to `np.linalg.eigh`, which still runs;
    appended to on every call for the rest of the test."""
    calls = []
    exact = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return exact(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
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
