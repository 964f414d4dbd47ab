"""Eigensystems by closed form where one exists, a cyclic-Jacobi dense oracle
otherwise, and the degeneracy structure both feed into walk averaging.

Eigenvalues are always sorted descending with ties broken by ascending
pre-sort index, so output is reproducible across runs and platforms.
Circulant eigenvalues are read from one conjugate-symmetric table of roots
of unity, summed in a fixed order, which makes the symmetry degeneracy
lambda_a == lambda_{-a} exact in floating point rather than approximate.
"""

from __future__ import annotations

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


@dataclass
class Spectrum:
    """Eigenvalues (descending) with paired orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=np.float64)
        self.eigenvectors = np.asarray(self.eigenvectors, dtype=np.complex128)

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    def scaled(self, factor: float) -> "Spectrum":
        """Spectrum of factor * A; eigenvectors and ordering are unchanged."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return Spectrum(self.eigenvalues * factor, self.eigenvectors)


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
        self.class_sizes = [int(s) for s in self.class_sizes]
        self.dims = [int(d) for d in self.dims]
        self.chars = np.asarray(self.chars, dtype=np.complex128)
        self.validate()

    @property
    def order(self) -> int:
        return sum(self.class_sizes)

    def validate(self) -> None:
        h = len(self.class_sizes)
        if len(self.dims) != h or self.chars.shape != (h, h):
            raise ValueError("character table shape mismatch")
        if self.class_sizes[0] != 1:
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


def _sorted_spectrum(eigenvalues: np.ndarray, eigenvectors: np.ndarray) -> Spectrum:
    """Sort descending, ties by ascending original index."""
    order = np.lexsort((np.arange(len(eigenvalues)), -eigenvalues))
    return Spectrum(eigenvalues[order], eigenvectors[:, order])


def _roots_of_unity(L: int) -> np.ndarray:
    """The L-th roots e^{2 pi i k / L}: root[L - k] == conj(root[k]) bitwise,
    with exact values at quarter turns.

    Conjugate symmetry makes lambda_a == lambda_{-a} exact; quarter-turn
    exactness keeps integer character sums integral for groups with a Z_2 or
    Z_4 factor (exact zero spectral gaps, C_4 printing 0.0).
    """
    theta = 2.0 * np.pi * np.arange(L // 2 + 1) / L
    half = np.cos(theta) + 1j * np.sin(theta)
    for num, val in ((0, 1.0), (1, 1j), (2, -1.0)):
        if (num * L) % 4 == 0:
            half[num * L // 4] = val
    return np.concatenate([half, half[1 : (L + 1) // 2][::-1].conj()])


def character_phases(group: AbelianGroupSpec) -> tuple[int, np.ndarray]:
    """(L, phase) with chi_a(x) = root_L[phase[x, a]], L the lcm of the factors.

    Together with `_roots_of_unity(L)` this is the character table of the group.
    """
    L = math.lcm(*group.factors)
    coords = group.coordinates()
    # phase[x, a] = sum_j a_j x_j L / n_j (mod L)
    weights = np.array([L // f for f in group.factors], dtype=np.int64)
    return L, ((coords * weights) @ coords.T) % L


def circulant_eigenvalues(values: np.ndarray, phase: np.ndarray, L: int) -> np.ndarray:
    """lambda_a = sum_{x in S} Re root_L[phase[x, a]] for each row of symbol values.

    Rows are 0/1 symbol values on the group; x runs in increasing order, so
    a symmetric symbol gives lambda_a == lambda_{-a} bitwise.
    """
    cos = _roots_of_unity(L).real
    lams = np.zeros(values.shape)
    for x in np.flatnonzero(values.any(axis=0)):
        lams += values[:, x, None] * cos[phase[x]]
    return lams


def abelian_circulant_eigensystem(sym: Symbol) -> Spectrum:
    """Closed-form eigensystem of the circulant defined by `sym`.

    Eigenvalue for character a: sum over the symbol support of Re chi_a(x);
    eigenvector entries chi_a(x) / sqrt(|G|).
    """
    L, phase = character_phases(sym.group)
    eigenvalues = circulant_eigenvalues(sym.values[None, :], phase, L)[0]
    eigenvectors = _roots_of_unity(L)[phase]  # column a holds chi_a(x)
    del phase  # free the n x n phase table before the sorted copy is made
    eigenvectors /= math.sqrt(sym.group.order)
    return _sorted_spectrum(eigenvalues, eigenvectors)


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
    grid = np.outer(j, j) * (np.pi / (n + 1))
    vecs = np.sqrt(2.0 / (n + 1)) * np.sin(grid)  # vecs[l, j-1]
    return _sorted_spectrum(eigenvalues, vecs.astype(np.complex128))


def bunkbed_eigensystem(base_spec: Spectrum) -> Spectrum:
    """Spectrum of a bunkbed from its base: lambda_j +- 1 with (|0> +- |1>)/sqrt(2)
    tensor factors.  lambda_j + 1 may collide with lambda_k - 1, so degeneracy
    is decided downstream from the sorted values.
    """
    n = base_spec.n
    eigenvalues = np.concatenate([base_spec.eigenvalues + 1.0, base_spec.eigenvalues - 1.0])
    plus = np.vstack([base_spec.eigenvectors, base_spec.eigenvectors]) / math.sqrt(2)
    minus = np.vstack([base_spec.eigenvectors, -base_spec.eigenvectors]) / math.sqrt(2)
    eigenvectors = np.hstack([plus, minus])
    return _sorted_spectrum(eigenvalues, eigenvectors)


def jacobi_eigensystem(
    matrix: np.ndarray, max_sweeps: int = 64
) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi rotations on a real symmetric matrix.

    Converges when the off-diagonal Frobenius norm drops below
    1e-12 * (1 + ||A||_F); raises JacobiConvergenceError past the sweep cap.
    Returns (eigenvalues, eigenvector columns), unsorted.
    """
    a = np.array(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.allclose(a, a.T, atol=0.0):
        raise ValueError("matrix must be symmetric")
    n = a.shape[0]
    v = np.eye(n)
    if n == 1:
        return np.diag(a).copy(), v
    thresh = 1e-12 * (1.0 + np.linalg.norm(a))
    skip = thresh / n  # elements this small cannot lift the off norm above thresh

    def off_norm(m: np.ndarray) -> float:
        # computed from the off-diagonal entries directly; the algebraic
        # shortcut ||m||^2 - ||diag||^2 cancels catastrophically near zero
        stripped = m.copy()
        np.fill_diagonal(stripped, 0.0)
        return float(np.linalg.norm(stripped))

    for _ in range(max_sweeps):
        off = off_norm(a)
        if off < thresh:
            eigenvalues = np.diag(a).copy()
            return eigenvalues, v
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
    off = off_norm(a)
    if off < thresh:
        return np.diag(a).copy(), v
    raise JacobiConvergenceError(off, max_sweeps)


def dense_eigensystem(g: Graph) -> Spectrum:
    """Independent oracle: full eigensystem of the adjacency via cyclic Jacobi."""
    g.validate()
    eigenvalues, vecs = jacobi_eigensystem(g.adjacency.astype(np.float64))
    return _sorted_spectrum(eigenvalues, vecs.astype(np.complex128))


def graph_eigensystem(g: Graph, method: str = "auto") -> Spectrum:
    """Eigensystem of a graph, closed form when available.

    method: "auto" picks the closed form keyed by construction metadata and
    falls back to the dense oracle; "closed" errors when no closed form
    exists; "dense" forces the oracle.
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
    return dense_eigensystem(g)


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
