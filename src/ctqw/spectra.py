"""Eigensystems by closed form where one exists, LAPACK `eigh` for the other
production graphs, a round-robin Jacobi oracle behind `--dense` and `verify`,
and the degeneracy structure all of them feed into walk averaging.

Eigenvalues are always sorted descending with ties broken by ascending
pre-sort index, so output is reproducible from run to run.  The dense routes'
last bits depend on the platform: numpy may fuse the Jacobi kernel's complex
multiply, and `eigh` depends on the BLAS build.
Circulant eigenvalues are read from one conjugate-symmetric table of roots
of unity, summed in a fixed order, which makes the symmetry degeneracy
lambda_a == lambda_{-a} exact in floating point rather than approximate.
Closed-form routes build their eigenvectors only when `Spectrum.eigenvectors`
is first read, so spectra, types and gaps never pay for the n x n table.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .graphs import AbelianGroupSpec, Graph, GraphValidationError, Symbol

DEGENERACY_TOL = 1e-9
ORTHONORMALITY_TOL = 1e-10
RESIDUAL_TOL = 1e-9


class JacobiConvergenceError(RuntimeError):
    """Dense eigensolver failed to reach its off-diagonal threshold."""

    def __init__(self, off_norm: float, sweeps: int):
        self.off_norm = off_norm
        self.sweeps = sweeps
        super().__init__(
            f"Jacobi sweep cap reached ({sweeps} sweeps); "
            f"off-diagonal Frobenius norm {off_norm:.3e}"
        )


class Spectrum:
    """Eigenvalues (descending) with paired orthonormal eigenvector columns.

    A closed-form route may pass a zero-argument builder in place of the
    eigenvector array; it runs on the first read of `eigenvectors` and its
    result is kept, so callers that need only eigenvalues never build them.
    """

    def __init__(self, eigenvalues, eigenvectors):
        self.eigenvalues = np.asarray(eigenvalues, dtype=np.float64)
        self._build = eigenvectors if callable(eigenvectors) else None
        self._eigenvectors = None if self._build else np.asarray(eigenvectors, dtype=np.complex128)

    @property
    def eigenvectors(self) -> np.ndarray:
        if self._eigenvectors is None:
            self._eigenvectors = np.asarray(self._build(), dtype=np.complex128)
            self._build = None
        return self._eigenvectors

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    def scaled(self, factor: float) -> "Spectrum":
        """Spectrum of factor * A; eigenvectors and ordering are unchanged."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        vectors = self._eigenvectors if self._build is None else (lambda: self.eigenvectors)
        return Spectrum(self.eigenvalues * factor, vectors)


@dataclass
class DegeneracyPartition:
    """Partition of eigenvalue indices into equality classes."""

    classes: list[list[int]]

    @property
    def n(self) -> int:
        return sum(len(c) for c in self.classes)

    @property
    def multiplicities(self) -> list[int]:
        return [len(c) for c in self.classes]


@dataclass
class CharacterTable:
    """Character table of a finite group: one row per irreducible.

    The first class is the identity class, so chars[:, 0] must equal dims.
    """

    class_sizes: list[int]
    dims: list[int]
    chars: np.ndarray

    def __post_init__(self):
        self.class_sizes = _exact_integers(self.class_sizes, "class sizes")
        self.dims = _exact_integers(self.dims, "dims")
        self.chars = np.asarray(self.chars, dtype=np.complex128)
        self.validate()

    @property
    def order(self) -> int:
        return sum(self.class_sizes)

    def validate(self) -> None:
        h = len(self.class_sizes)
        if len(self.dims) != h or self.chars.shape != (h, h):
            raise ValueError("character table shape mismatch")
        if not h or self.class_sizes[0] != 1:
            raise ValueError("first class must be the identity class (size 1)")
        if sum(d * d for d in self.dims) != self.order:
            raise ValueError("sum of squared dimensions must equal the group order")
        if not np.allclose(self.chars[:, 0].real, self.dims, atol=1e-9) or np.any(
            np.abs(self.chars[:, 0].imag) > 1e-9
        ):
            raise ValueError("identity-class column must equal the dimensions")
        sizes = np.asarray(self.class_sizes, dtype=np.float64)
        gram = (self.chars * sizes) @ self.chars.conj().T
        if not np.allclose(gram, self.order * np.eye(h), atol=1e-9):
            raise ValueError("character rows fail orthogonality")

    @classmethod
    def from_json(cls, text: str) -> "CharacterTable":
        doc = json.loads(text)
        try:
            chars = np.array(
                [[complex(re, im) for re, im in row] for row in doc["chars"]]
            )
            return cls(doc["class_sizes"], doc["dims"], chars)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed character table JSON: {exc}") from None


def _exact_integers(values, name: str) -> list[int]:
    """`values` as ints, refused unless every entry is exactly an integer; checked
    before the cast, which would turn 3.9 into 3, "3" into 3 and true into 1."""
    a = np.asarray(values)
    if (a.ndim != 1 or a.dtype.kind not in "iuf" or any(isinstance(x, bool) for x in values)
            or not np.all(np.isfinite(a) & (a == np.round(a)))):
        raise ValueError(f"character table {name} must be a list of integers")
    return [int(x) for x in a]


def _descending(eigenvalues: np.ndarray) -> np.ndarray:
    """The sort order: descending, ties by ascending original index."""
    return np.lexsort((np.arange(len(eigenvalues)), -eigenvalues))


def _sorted_spectrum(eigenvalues: np.ndarray, eigenvectors) -> Spectrum:
    """Sort descending, ties by ascending original index; `eigenvectors` is an
    array or a builder of one, whose columns are then sorted when it runs."""
    order = _descending(eigenvalues)
    if callable(eigenvectors):
        return Spectrum(eigenvalues[order], lambda: eigenvectors()[:, order])
    return Spectrum(eigenvalues[order], eigenvectors[:, order])


@functools.lru_cache(maxsize=64)
def _roots_of_unity(L: int) -> np.ndarray:
    """The L-th roots e^{2 pi i k / L}: root[L - k] == conj(root[k]) bitwise,
    with exact values at quarter turns.  Built once per L and read-only.

    Conjugate symmetry makes lambda_a == lambda_{-a} exact; quarter-turn
    exactness keeps integer character sums integral for groups with a Z_2 or
    Z_4 factor (exact zero spectral gaps, C_4 printing 0.0).
    """
    theta = 2.0 * np.pi * np.arange(L // 2 + 1) / L
    half = np.cos(theta) + 1j * np.sin(theta)
    for num, val in ((0, 1.0), (1, 1j), (2, -1.0)):
        if (num * L) % 4 == 0:
            half[num * L // 4] = val
    roots = np.concatenate([half, half[1 : (L + 1) // 2][::-1].conj()])
    roots.flags.writeable = False
    return roots


def character_phases(group: AbelianGroupSpec) -> tuple[int, np.ndarray]:
    """(L, phase) with chi_a(x) = root_L[phase[x, a]], L the lcm of the factors.

    Together with `_roots_of_unity(L)` this is the character table of the group.
    """
    return _phase_rows(group, slice(None))


def _phase_rows(group: AbelianGroupSpec, rows) -> tuple[int, np.ndarray]:
    """(L, phase[rows]): the rows of the `character_phases` table at elements `rows`."""
    L = math.lcm(*group.factors)
    coords = group.coordinates()
    # phase[x, a] = sum_j a_j x_j L / n_j (mod L)
    weights = np.array([L // f for f in group.factors], dtype=np.int64)
    return L, ((coords[rows] * weights) @ coords.T) % L


def circulant_eigenvalues(values: np.ndarray, phase: np.ndarray, L: int) -> np.ndarray:
    """lambda_a = sum_{x in S} Re root_L[phase[x, a]] for each row of symbol values.

    Rows are 0/1 symbol values, one column per row of `phase` (the group, or
    only the support); x runs in increasing order, so a symmetric symbol
    gives lambda_a == lambda_{-a} bitwise.
    """
    cos = _roots_of_unity(L).real
    lams = np.zeros((len(values), phase.shape[1]))
    for x in np.flatnonzero(values.any(axis=0)):
        lams += values[:, x, None] * cos[phase[x]]
    return lams


def abelian_circulant_eigensystem(sym: Symbol) -> Spectrum:
    """Closed-form eigensystem of the circulant defined by `sym`.

    Eigenvalue for character a: sum over the symbol support of Re chi_a(x),
    read from the |S| support rows of the phase table.  Eigenvector entries
    chi_a(x) / sqrt(|G|) need the whole n x n table and are built on first read.
    """
    group = sym.group
    support = np.flatnonzero(sym.values)
    L, support_phase = _phase_rows(group, support)
    eigenvalues = circulant_eigenvalues(sym.values[None, support], support_phase, L)[0]
    order = _descending(eigenvalues)

    def eigenvectors() -> np.ndarray:
        phase = character_phases(group)[1][:, order]  # column j holds chi_{order[j]}
        return (_roots_of_unity(L) / math.sqrt(group.order))[phase]

    return Spectrum(eigenvalues[order], eigenvectors)


def class_circulant_eigenvalues(
    table: CharacterTable, f_by_class: list[int]
) -> list[tuple[float, int]]:
    """Eigenvalues with multiplicities for a class-function circulant.

    Returns one (lambda_j, d_j^2) entry per irreducible, sorted descending.
    Eigenvectors are out of scope here; use the dense oracle for them.
    """
    f = np.asarray(f_by_class, dtype=np.float64)
    if f.shape != (len(table.class_sizes),):
        raise ValueError("class function length does not match class count")
    if not np.isin(f, (0, 1)).all():
        raise ValueError("class function values must be 0 or 1")
    if f[0] != 0:
        raise GraphValidationError("class function must vanish on the identity class")
    if not f.any():
        raise GraphValidationError("class function is zero everywhere (disconnected)")
    sizes = np.asarray(table.class_sizes, dtype=np.float64)
    lams = (table.chars.conj() * (sizes * f)).sum(axis=1) / np.asarray(table.dims)
    if np.any(np.abs(lams.imag) > 1e-9):
        raise ValueError("class circulant eigenvalues came out non-real")
    out = [(float(l.real), d * d) for l, d in zip(lams, table.dims)]
    out.sort(key=lambda t: -t[0])
    return out


def path_eigensystem(n: int) -> Spectrum:
    """Spectrum of the path P_n: 2 cos((j+1) pi / (n+1)) with sine eigenvectors."""
    if n < 2:
        raise GraphValidationError("path requires n >= 2")
    j = np.arange(1, n + 1)
    eigenvalues = 2.0 * np.cos(j * np.pi / (n + 1))

    def eigenvectors() -> np.ndarray:
        grid = np.outer(j, j) * (np.pi / (n + 1))
        return np.sqrt(2.0 / (n + 1)) * np.sin(grid)  # vecs[l, j-1]

    return _sorted_spectrum(eigenvalues, eigenvectors)


def bunkbed_eigensystem(base_spec: Spectrum) -> Spectrum:
    """Spectrum of a bunkbed from its base: lambda_j +- 1 with (|0> +- |1>)/sqrt(2)
    tensor factors, built (with the base's eigenvectors) on first read.
    lambda_j + 1 may collide with lambda_k - 1, so degeneracy is decided
    downstream from the sorted values.
    """
    eigenvalues = np.concatenate([base_spec.eigenvalues + 1.0, base_spec.eigenvalues - 1.0])

    def eigenvectors() -> np.ndarray:
        base = base_spec.eigenvectors
        plus = np.vstack([base, base]) / math.sqrt(2)
        minus = np.vstack([base, -base]) / math.sqrt(2)
        return np.hstack([plus, minus])

    return _sorted_spectrum(eigenvalues, eigenvectors)


def _ring_slots(m: int) -> tuple[np.ndarray, np.ndarray]:
    """(start, perm): the slot layout of a round-robin sweep over an even m.

    Index 0 stays put while 1..m-1 rotate one place per round, and position i
    plays position m-1-i (Brent-Luk; Golub & Van Loan section 8.5), so each
    round holds m/2 disjoint pairs and a sweep meets every pair once.  Slots
    2j and 2j+1 hold positions j and m-1-j, so a round's pairs sit in
    adjacent slots.  `start[s]` is the index in slot s at the first round, and
    slot s of the next round holds what slot perm[s] held; after m - 1 rounds
    the slots are back at `start`.
    """
    j = np.arange(m // 2)
    start = np.empty(m, dtype=np.intp)
    start[0::2], start[1::2] = j, m - 1 - j
    slot_of = np.argsort(start)
    moved = np.where(start == 0, 0, start % (m - 1) + 1)  # the position one place on
    return start, slot_of[moved]


def _off_norms(a: np.ndarray) -> np.ndarray:
    # computed from the off-diagonal entries directly; the algebraic
    # shortcut ||m||^2 - ||diag||^2 cancels catastrophically near zero
    stripped = a.copy()
    diag = np.arange(a.shape[-1])
    stripped[:, diag, diag] = 0.0
    return np.sqrt(np.einsum("bij,bij->b", stripped, stripped))


def jacobi_eigensystem(
    matrix: np.ndarray, max_sweeps: int = 64
) -> tuple[np.ndarray, np.ndarray]:
    """Round-robin Jacobi rotations on a real symmetric matrix or a stack of them.

    `matrix` is (n, n) or (B, n, n); its upper triangle is used.  Each step
    rotates the n/2 disjoint pairs of one round of every unconverged matrix at
    once; a pair with |a_pq| <= thresh / n is left untouched.  Each matrix
    converges when its off-diagonal Frobenius norm drops below
    thresh = 1e-12 * (1 + ||A||_F) and then leaves the stack;
    JacobiConvergenceError is raised past the sweep cap.
    Returns (eigenvalues, eigenvector columns), unsorted, shaped (n,), (n, n)
    or (B, n), (B, n, n) like the input.
    """
    a = np.array(matrix, dtype=np.float64)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError("matrix must be square")
    if not np.isfinite(a).all():
        raise ValueError("matrix must be finite")
    if not np.allclose(a, a.swapaxes(-1, -2), atol=0.0):
        raise ValueError("matrix must be symmetric")
    a = np.triu(a) + np.triu(a, 1).swapaxes(-1, -2)  # exactly symmetric from here on
    single = a.ndim == 2
    if single:
        a = a[None]
    n = a.shape[-1]
    eigenvalues = np.diagonal(a, axis1=1, axis2=2).copy()
    eigenvectors = np.broadcast_to(np.eye(n), a.shape).copy()
    if n > 1 and len(a):
        _round_robin_sweeps(a, max_sweeps, eigenvalues, eigenvectors)
    if single:
        return eigenvalues[0], eigenvectors[0]
    return eigenvalues, eigenvectors


def _round_robin_sweeps(
    a: np.ndarray, max_sweeps: int, eigenvalues: np.ndarray, eigenvectors: np.ndarray
) -> None:
    """Diagonalize the (B, n, n) stack `a`, writing each matrix's results into
    row b of `eigenvalues` and `eigenvectors` as it converges.

    The matrices live in slot order (`_ring_slots`), so the pairs of a round
    are the column pairs (2j, 2j + 1).  Viewed as complex, such a pair is one
    number, and multiplying it by c_j + i s_j gives (c a_p - s a_q) +
    i (s a_p + c a_q), the rotated pair: A J is one multiply, and J^T (A J)
    is a transposed copy and a second one.  One flat gather then moves the
    result to the next round's slots, reading only its upper triangle, so
    every round starts from an exactly symmetric matrix.
    """
    n = a.shape[-1]
    thresh = 1e-12 * (1.0 + np.linalg.norm(a, axis=(1, 2)))
    skip = (thresh / n)[:, None]  # elements this small cannot lift the off norm above thresh
    m = n + n % 2
    if m > n:  # a zero dummy index: its pair always has a_pq = 0, so it sits the round out
        a = np.pad(a, ((0, 0), (0, 1), (0, 1)))
    start, perm = _ring_slots(m)
    unslot = np.argsort(start)[:n]  # the slot of each index at every sweep boundary
    # a[b, s, t] = A[b, start[s], start[t]] at each sweep boundary, and column
    # s of v[b] is the eigenvector of slot s
    a = a.reshape(len(a), m * m).take((start[:, None] * m + start).ravel(), axis=1)
    a = a.reshape(-1, m, m)
    v = np.broadcast_to(np.eye(m)[:, start], a.shape).copy()
    gather = (np.minimum.outer(perm, perm) * m + np.maximum.outer(perm, perm)).ravel()
    at_pp = np.arange(0, m * m, 2 * (m + 1))  # flat positions of (2j, 2j)
    at_pq = at_pp + 1
    fix = np.concatenate([at_pp, at_pp + m + 1, at_pq])  # a_pp, a_qq, a_pq
    active = np.arange(len(a))
    for sweep in range(max_sweeps + 1):
        off = _off_norms(a)
        done = off < thresh
        if done.any():
            eigenvalues[active[done]] = np.diagonal(a[done], axis1=1, axis2=2)[:, unslot]
            eigenvectors[active[done]] = v[done][:, :n, unslot]
            keep = ~done
            if not keep.any():
                return
            a, v, off, active, thresh, skip = (
                x[keep] for x in (a, v, off, active, thresh, skip))
        if sweep == max_sweeps:
            raise JacobiConvergenceError(float(off.max()), max_sweeps)
        b = len(a)
        flat, a_c, v_c = a.reshape(b, m * m), a.view(np.complex128), v.view(np.complex128)
        work, v_next = np.empty_like(a), np.empty_like(v)
        work_flat, work_c = work.reshape(b, m * m), work.view(np.complex128)
        cs = np.empty((b, 1, m // 2), dtype=np.complex128)
        for _ in range(m - 1):
            d = a.diagonal(axis1=1, axis2=2)
            app, aqq = d[:, 0::2], d[:, 1::2]
            apq = flat[:, at_pq]
            rot = np.abs(apq) > skip
            theta = (aqq - app) / np.where(rot, 2.0 * apq, 1.0)
            t = np.copysign(rot / (np.abs(theta) + np.hypot(theta, 1.0)), theta)
            c = 1.0 / np.sqrt(t * t + 1.0)
            cs.real[:, 0] = c
            np.multiply(t, c, out=cs.imag[:, 0])
            # the pairs themselves: a_pp - t a_pq, a_qq + t a_pq, and a_pq
            # zeroed only where a rotation took place
            shift = t * apq
            pinned = np.concatenate([app - shift, aqq + shift, np.where(rot, 0.0, apq)], axis=1)
            np.multiply(a_c, cs, out=a_c)
            np.copyto(work, a.swapaxes(1, 2))
            np.multiply(work_c, cs, out=work_c)
            work_flat[:, fix] = pinned
            work_flat.take(gather, axis=1, out=flat, mode="clip")
            np.multiply(v_c, cs, out=v_c)
            v.take(perm, axis=2, out=v_next, mode="clip")
            v, v_next = v_next, v
            v_c = v.view(np.complex128)


def dense_eigensystems(graphs: list[Graph]) -> list[Spectrum]:
    """Independent oracle for many graphs: one stacked Jacobi call per vertex
    count, every result checked for orthonormality and eigen-residual."""
    by_n: dict[int, list[int]] = {}
    for i, g in enumerate(graphs):
        g.validate()
        by_n.setdefault(g.n, []).append(i)
    out: list = [None] * len(graphs)
    for ids in by_n.values():
        adjacency = np.stack([graphs[i].adjacency for i in ids]).astype(np.float64)
        eigenvalues, vecs = jacobi_eigensystem(adjacency)
        for i, adj, lam, vec in zip(ids, adjacency, eigenvalues, vecs):
            spec = _sorted_spectrum(lam, vec.astype(np.complex128))
            check_spectrum(spec, adj)
            out[i] = spec
    return out


def dense_eigensystem(g: Graph) -> Spectrum:
    """Independent oracle: full eigensystem of the adjacency via round-robin Jacobi."""
    return dense_eigensystems([g])[0]


def _lapack_eigensystem(g: Graph) -> Spectrum:
    """Production dense route: LAPACK `eigh`, sorted and checked like the oracle.

    A LAPACK failure is a computational failure (RuntimeError), not bad input.
    """
    g.validate()
    adjacency = g.adjacency.astype(np.float64)
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(adjacency)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"LAPACK eigh failed: {exc}") from None
    spec = _sorted_spectrum(eigenvalues, eigenvectors)
    check_spectrum(spec, adjacency)
    return spec


def graph_eigensystem(g: Graph, method: str = "auto") -> Spectrum:
    """Eigensystem of a graph, closed form when available.

    method: "auto" picks the closed form keyed by construction metadata and
    falls back to LAPACK `eigh`; "closed" errors when no closed form exists;
    "dense" forces the Jacobi oracle.
    """
    if method not in ("auto", "closed", "dense"):
        raise ValueError(f"unknown method {method!r}")
    if method == "dense":
        return dense_eigensystem(g)
    if g.symbol is not None:
        return abelian_circulant_eigensystem(g.symbol)
    if g.family == "path":
        return path_eigensystem(g.n)
    if g.family == "bunkbed" and g.base is not None:
        return bunkbed_eigensystem(graph_eigensystem(g.base, method="auto"))
    if method == "closed":
        raise ValueError(f"no closed-form eigensystem for family {g.family!r}")
    return _lapack_eigensystem(g)


def degeneracy_labels(desc: np.ndarray, tol: float) -> np.ndarray:
    """Class label of each entry of rows sorted descending, numbered from 0.

    A new class starts wherever the gap to the previous entry exceeds tol;
    this is the one place degeneracy is decided.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"degeneracy tol must be finite and > 0, got {tol}")
    labels = np.zeros(desc.shape, dtype=np.int64)
    np.cumsum(desc[..., :-1] - desc[..., 1:] > tol, axis=-1, out=labels[..., 1:])
    return labels


def degeneracy_classes(spec: Spectrum, tol: float = DEGENERACY_TOL) -> DegeneracyPartition:
    """Cluster the (descending) eigenvalues where adjacent gaps are <= tol."""
    labels = degeneracy_labels(spec.eigenvalues, tol)
    bounds = [0, *(np.flatnonzero(np.diff(labels)) + 1).tolist(), spec.n]
    indices = list(range(spec.n))
    return DegeneracyPartition([indices[a:b] for a, b in zip(bounds, bounds[1:])])


def spectral_gap(spec: Spectrum, tol: float = DEGENERACY_TOL) -> float:
    """min_{j != k} |lambda_j - lambda_k|; exactly 0 when any class repeats."""
    part = degeneracy_classes(spec, tol)
    if any(len(c) > 1 for c in part.classes):
        return 0.0
    lam = spec.eigenvalues
    if len(lam) < 2:
        return math.inf
    return float(np.min(lam[:-1] - lam[1:]))


def spectrum_type(spec: Spectrum, tol: float = DEGENERACY_TOL) -> int:
    """Number of distinct eigenvalues (degeneracy classes)."""
    return len(degeneracy_classes(spec, tol).classes)


def check_spectrum(spec: Spectrum, adjacency: np.ndarray) -> None:
    """Assert orthonormality and eigen-residual invariants; raises on failure."""
    z = spec.eigenvectors
    gram = z.conj().T @ z
    if np.max(np.abs(gram - np.eye(spec.n))) > ORTHONORMALITY_TOL:
        raise RuntimeError("eigenvectors are not orthonormal to 1e-10")
    resid = adjacency.astype(np.float64) @ z - z * spec.eigenvalues
    if np.max(np.abs(resid)) > RESIDUAL_TOL:
        raise RuntimeError("eigen-residual exceeds 1e-9")


def spectrum_to_json(
    spec: Spectrum,
    tol: float = DEGENERACY_TOL,
    include_eigenvectors: bool = False,
    extra: dict | None = None,
) -> str:
    part = degeneracy_classes(spec, tol)
    doc: dict = {
        "schema": "ctqw/1",
        "n": spec.n,
        "eigenvalues": [float(x) for x in spec.eigenvalues],
        "multiplicities": part.multiplicities,
        "degeneracy_classes": part.classes,
        "spectral_gap": spectral_gap(spec, tol),
        "type": len(part.classes),
    }
    if include_eigenvectors:
        doc["eigenvectors"] = [
            [[float(z.real), float(z.imag)] for z in spec.eigenvectors[:, j]]
            for j in range(spec.n)
        ]
    if extra:
        doc.update(extra)
    return json.dumps(doc, indent=2)
