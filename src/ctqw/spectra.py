"""Eigensystems by closed form where one exists, LAPACK `eigh` for every
other production route (`--dense` included), a round-robin Jacobi oracle
that calls no LAPACK for `verify`, and the degeneracy structure all of them
feed into walk averaging.

Eigenvalues are always sorted descending with ties broken by ascending
pre-sort index, so output is reproducible from run to run.  The dense routes'
last bits depend on the platform: `eigh` on the BLAS build and thread count;
Jacobi, which sweeps one Brent-Luk ring with element-wise numpy and no BLAS,
only on whether numpy fuses its complex multiply.  Both dense routes refuse a
working set over DENSE_BUDGET bytes before allocating it.
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

from .graphs import AbelianGroupSpec, Graph, GraphValidationError, Symbol, _frozen, exact_integers

DEGENERACY_TOL = 1e-9
ORTHONORMALITY_TOL = 1e-10
RESIDUAL_TOL = 1e-9
IMAG_RESIDUE_TOL = 1e-10
# Closed-form walks build their n-wide tables (class projection phases, scan
# amplitudes) in blocks of at most this many entries: 1 MiB of float64.
BLOCK_ENTRIES = 2**17
# The dense routes refuse a float working set above DENSE_BUDGET bytes
# before allocating any of it: DENSE_ARRAYS float64 n x n arrays per matrix
# of order n (the measured peak is about 11 for `eigh` at n = 128..400, and
# 10.1 and 9.4 for Jacobi's one ring at n = 128 and 200, sort and checks
# included).
DENSE_BUDGET = 2**32
DENSE_ARRAYS = 16


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

    Checked when made, unchangeable after: a read-only copy of finite
    eigenvalues, the eigenvector array made read-only in place (copied first
    when it does not own its data, `_frozen`), no assignment.
    A closed-form route may pass a zero-argument builder in place of the
    eigenvector array; it runs on the first read of `eigenvectors` and its
    result is kept, so callers that need only eigenvalues never build them.
    On a G-circulant `characters` is (group, a): eigenvalue j belongs to the
    character chi_{a[j]}, so class projections need no eigenvectors
    (`class_projections`); it is None on every other route.
    `walk.class_projections` keeps each projection it forms from a spectrum
    in the spectrum's `_projections`, so it is formed once, and freed with it.
    """

    def __init__(self, eigenvalues, eigenvectors, characters=None):
        values = _frozen(np.array(eigenvalues, dtype=np.float64))
        if not np.isfinite(values).all():
            raise ValueError("eigenvalues must be finite")
        if not callable(eigenvectors):
            eigenvectors = _frozen(np.asarray(eigenvectors, dtype=np.complex128))
        chars = None if characters is None else (characters[0], _frozen(characters[1]))
        self.__dict__.update(eigenvalues=values, n=len(values), _eigenvectors=eigenvectors,
                             characters=chars, _projections={})

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name!r}: a Spectrum is checked when made and cannot change")

    @property
    def eigenvectors(self) -> np.ndarray:
        if callable(self._eigenvectors):
            built = np.asarray(self._eigenvectors(), dtype=np.complex128)
            self.__dict__["_eigenvectors"] = _frozen(built)
        return self._eigenvectors

    def scaled(self, factor: float) -> "Spectrum":
        """Spectrum of factor * A; eigenvectors and ordering are unchanged."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return Spectrum(self.eigenvalues * factor, lambda: self.eigenvectors, self.characters)

    def class_projections(self, start: int, labels: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """Rows E_r e_start, shape (r, n), of the eigenvalue classes `labels`,
        which begin at `starts`; real, as a class not closed under conjugation
        raises.  By default they are the eigenvector product, refused over an
        imaginary residue of IMAG_RESIDUE_TOL.  On a G-circulant every class
        must hold -a with a, checked exactly on the labels, and the rows come
        from the characters alone:

            E_r(l, s) = n^-1 sum_{a in class r} Re root_L[phase(l - s, a)]

        The sum runs in eigenvalue order over the conjugate-symmetric root
        table, so columns whose offsets l - s are negatives of each other
        come out bitwise equal.  The phase table is built in blocks of
        vertex rows, at most BLOCK_ENTRIES entries each, reduced mod L and
        read from the L roots, and each block is reduced into its rows of
        the result; the phases are exact integers, so the blocking changes
        no bit."""
        if self.characters is None:
            z = self.eigenvectors
            full = np.add.reduceat(z * z[start].conj(), starts, axis=1).T
            residue = np.max(np.abs(full.imag))
            if not (residue <= IMAG_RESIDUE_TOL):
                raise RuntimeError(
                    f"class projections have imaginary residue {residue:.3e} > {IMAG_RESIDUE_TOL:g};"
                    " an eigenvalue class is not closed under conjugation")
            return full.real
        group, chars = self.characters
        by_char = np.empty_like(labels)
        by_char[chars] = labels  # the class of each character
        split = np.flatnonzero(by_char != by_char[group.negation])
        if split.size:
            c = split[0]
            raise RuntimeError(f"character {c} and its conjugate {group.negation[c]} lie in different"
                               " classes; an eigenvalue class is not closed under conjugation")
        coords = group.coordinates()
        offsets = (coords - coords[start]) % np.array(group.factors)  # coordinates of l - start
        L, x, a = _phase_factors(group, offsets, coords[chars])
        cos = _roots_of_unity(L).real
        proj = np.empty((self.n, len(starts)))
        rows = max(1, BLOCK_ENTRIES // self.n)
        for lo in range(0, self.n, rows):
            raw = x[lo : lo + rows] @ a
            cos.take(_mod(raw, L), out=raw, mode="clip")  # in range: unbuffered
            np.add.reduceat(raw, starts, axis=1, out=proj[lo : lo + rows])
        proj /= self.n
        return proj.T


@dataclass
class DegeneracyPartition:
    """Partition of eigenvalue indices into equality classes."""

    classes: list[list[int]]

    @property
    def multiplicities(self) -> list[int]:
        return [len(c) for c in self.classes]


@dataclass(frozen=True)
class CharacterTable:
    """Character table of a finite group: one row per irreducible.

    The first class is the identity class, so chars[:, 0] must equal dims.
    Checked when made, and kept as tuples and a read-only copy of chars.
    """

    class_sizes: tuple[int, ...]
    dims: tuple[int, ...]
    chars: np.ndarray

    def __post_init__(self):
        self.__dict__.update(class_sizes=exact_integers(self.class_sizes, "character table class sizes"),
                             dims=exact_integers(self.dims, "character table dims"),
                             chars=_frozen(np.array(self.chars, dtype=np.complex128)))
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
                [[complex(_real(re), _real(im)) for re, im in row] for row in doc["chars"]]
            )
            return cls(doc["class_sizes"], doc["dims"], chars)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed character table JSON: {exc}") from None


def _real(x):
    """`x` itself when it is a real number; checked before `complex()`, which
    would read true as 1 and false as 0."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError(f"character table values must be real numbers, got {x!r}")
    return x


def _descending(eigenvalues: np.ndarray) -> np.ndarray:
    """The sort order along the last axis: descending, ties by ascending
    original index."""
    return np.argsort(-eigenvalues, axis=-1, kind="stable")


def _sorted_spectrum(eigenvalues: np.ndarray, eigenvectors) -> Spectrum:
    """Sort descending, ties by ascending original index; `eigenvectors` is an
    array or a builder of one, whose columns are then sorted when it runs.
    `np.take` gives the bits of `a[:, order]` in an array that owns them,
    where fancy indexing keeps a writable base."""
    order = _descending(eigenvalues)
    if callable(eigenvectors):
        return Spectrum(eigenvalues[order], lambda: np.take(eigenvectors(), order, axis=1))
    return Spectrum(eigenvalues[order], np.take(eigenvectors, order, axis=1))


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
    return _frozen(np.concatenate([half, half[1 : (L + 1) // 2][::-1].conj()]))


def character_phases(group: AbelianGroupSpec) -> tuple[int, np.ndarray]:
    """(L, phase) with chi_a(x) = root_L[phase[x, a]], L the lcm of the factors.

    Together with `_roots_of_unity(L)` this is the character table of the group.
    """
    coords = group.coordinates()
    L, x, a = _phase_factors(group, coords, coords)
    return L, _mod(x @ a, L)


def _mod(raw: np.ndarray, L: int) -> np.ndarray:
    """raw mod L as integers, for phases `raw` from the product of
    `_phase_factors`, which it overwrites: exact, as raw / L rounds below the
    next integer while raw + L < 2^53 (np.fmod takes about ten times as long)."""
    index = raw.astype(np.intp)
    raw /= L
    np.floor(raw, out=raw)
    raw *= L
    np.subtract(index, raw, out=index, casting="unsafe")
    return index


def _phase_factors(
    group: AbelianGroupSpec, x: np.ndarray, a: np.ndarray
) -> tuple[int, np.ndarray, np.ndarray]:
    """(L, xw, aw) with (xw @ aw)[i, j] = sum_k x_ik a_jk L / n_k, the phase of
    chi_{a_j}(x_i) before its reduction mod L, for rows of element coordinates
    x and a; any rows of xw give the same rows of the product.

    The float product is exact: its entries are integers below L n
    (sum_k (n_k - 1)^2 L / n_k < L sum_k n_k <= L n), far under 2^53.
    """
    L = math.lcm(*group.factors)
    weights = L // np.array(group.factors)
    return L, (x * weights).astype(np.float64), a.T.astype(np.float64)


def circulant_eigenvalues(group: AbelianGroupSpec, values: np.ndarray) -> np.ndarray:
    """lambda_a = sum_{x in S} Re chi_a(x) for each row of 0/1 symbol values
    on `group`, in character order.

    Only the phase rows of the elements some row holds are formed.  x runs
    in increasing order, so a symmetric symbol gives lambda_a == lambda_{-a}
    bitwise.  Each phase row is added in place to the rows that hold x only:
    adding the +-0.0 of a row without x would change no bit, as a sum that
    starts at +0.0 is never -0.0.  A single row holds every x, so its phase
    rows are summed in one reduction over x, row by row in the same order.
    """
    held = np.flatnonzero(values.any(axis=0))
    coords = group.coordinates()
    L, xw, aw = _phase_factors(group, coords[held], coords)
    cos = _roots_of_unity(L).real
    if len(values) == 1:
        return np.add.reduce(cos[_mod(xw @ aw, L)], axis=0, keepdims=True)
    lams = np.zeros((len(values), group.order))
    for x, row in zip(held, _mod(xw @ aw, L)):
        np.add(lams, cos[row], out=lams, where=values[:, x, None])
    return lams


def abelian_circulant_eigensystem(sym: Symbol) -> Spectrum:
    """Closed-form eigensystem of the circulant defined by `sym`: eigenvalues
    from the |S| support rows of the phase table (`circulant_eigenvalues`);
    eigenvector entries chi_a(x) / sqrt(|G|) need the whole n x n table and
    are built on first read."""
    eigenvalues = circulant_eigenvalues(sym.group, sym.values[None])[0]
    order = _descending(eigenvalues)

    def eigenvectors() -> np.ndarray:
        L, phase = character_phases(sym.group)  # column j below holds chi_{order[j]}
        return (_roots_of_unity(L) / math.sqrt(sym.group.order))[phase[:, order]]

    return Spectrum(eigenvalues[order], eigenvectors, (sym.group, order))


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
    matrix: np.ndarray, max_sweeps: int = 64, sizes=None
) -> tuple[np.ndarray, np.ndarray]:
    """Round-robin Jacobi rotations on a real symmetric matrix or a stack of them.

    `matrix` is (n, n) or (B, n, n); its upper triangle is used.  Each step
    rotates the n/2 disjoint pairs of one round of every unconverged matrix at
    once (`_round_robin_sweeps`); a pair with |a_pq| <= thresh / n is left
    untouched.  Each matrix converges when its off-diagonal Frobenius norm
    drops below thresh = 1e-12 * (1 + ||A||_F) and then leaves the stack;
    JacobiConvergenceError is raised past the sweep cap.
    `sizes` holds the order of each matrix of a stack that is zero-padded to
    n: matrix b is its leading sizes[b] x sizes[b] block, and its pairs are
    skipped below thresh / sizes[b].  A zero index never rotates, so each one
    comes back as the eigenpair (0, e_k) at its own index k >= sizes[b].
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
    if sizes is None:
        sizes = np.full(len(a), n)
    else:
        sizes = np.asarray(sizes)
        if (sizes.shape != (len(a),) or sizes.dtype.kind not in "iu"
                or np.any((sizes < 1) | (sizes > n))):
            raise ValueError(f"sizes must hold one order in 1..{n} per matrix")
        # the rows past each size; a is symmetric, so they cover the columns too
        if a[np.arange(n) >= sizes[:, None]].any():
            raise ValueError("entries past a matrix's size must be zero")
    eigenvalues = np.diagonal(a, axis1=1, axis2=2).copy()
    eigenvectors = np.broadcast_to(np.eye(n), a.shape).copy()
    if n > 1 and len(a):
        _round_robin_sweeps(a, max_sweeps, sizes, eigenvalues, eigenvectors)
    if single:
        return eigenvalues[0], eigenvectors[0]
    return eigenvalues, eigenvectors


def _round_robin_sweeps(
    a: np.ndarray, max_sweeps: int, sizes: np.ndarray, eigenvalues: np.ndarray,
    eigenvectors: np.ndarray
) -> None:
    """Diagonalize the (B, n, n) stack `a`, whose matrix b has order sizes[b],
    writing each matrix's results into row b of `eigenvalues` and
    `eigenvectors` as it converges.

    An odd n is padded with one zero index to an even m.  The matrices live
    in the slot order of one ring over all m indices (`_ring_slots`), and a
    sweep is its m - 1 rounds (`_rotate`), which leave them in that order.
    """
    n = a.shape[-1]
    thresh = 1e-12 * (1.0 + np.linalg.norm(a, axis=(1, 2)))
    skip = (thresh / sizes)[:, None]  # elements this small cannot lift the off norm above thresh
    m = n + n % 2
    if m > n:  # a zero index: its pairs always have a_pq = 0, so they sit every round out
        a = np.pad(a, ((0, 0), (0, 1), (0, 1)))
    order, ring = _ring_slots(m)
    unslot = np.argsort(order)[:n]  # the slot of each index at every sweep boundary
    # a[b, s, t] = A[b, order[s], order[t]] at each sweep boundary, and column
    # s of v[b] is the eigenvector of slot s
    a = a.reshape(len(a), m * m).take((order[:, None] * m + order).ravel(), axis=1)
    a = a.reshape(-1, m, m)
    v = np.broadcast_to(np.eye(m)[:, order], a.shape).copy()
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
        v = _rotate(a, v, skip, ring)


def _rotate(a: np.ndarray, v: np.ndarray, skip: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """One sweep, the g - 1 Jacobi rounds of a ring, on the (S, g, g) stack
    `a`, whose pairs sit in slots (2j, 2j + 1); after each round slot s takes
    what slot perm[s] held.  The columns of `v` (S, g, g) get the same
    rotations and moves.  Only element-wise numpy runs here, no BLAS.  `a` is
    updated in place; returns the rotated `v` (in one of two buffers).

    Viewed as complex, a column pair is one number, and multiplying it by
    c_j + i s_j gives (c a_p - s a_q) + i (s a_p + c a_q), the rotated pair:
    A J is one multiply, and J^T (A J) is a transposed copy and a second one.
    One flat gather then moves the result to the next round's slots, reading
    only its upper triangle, so every round starts from an exactly symmetric
    matrix.  The pivots a_pp, a_qq, a_pq come in with one `take`, and the
    rotation is computed from them in reused buffers.
    """
    S, g = a.shape[0], a.shape[-1]
    h = g // 2
    flat, a_c, v_c = a.reshape(S, g * g), a.view(np.complex128), v.view(np.complex128)
    work, v_next = np.empty_like(a), np.empty_like(v)
    work_flat, work_c = work.reshape(S, g * g), work.view(np.complex128)
    gather = (np.minimum.outer(perm, perm) * g + np.maximum.outer(perm, perm)).ravel()
    at_pp = np.arange(0, g * g, 2 * (g + 1))  # flat positions of (2j, 2j)
    fix = np.concatenate([at_pp, at_pp + g + 1, at_pp + 1])
    pivots = np.empty((S, 3 * h))
    app, aqq, apq = pivots[:, :h], pivots[:, h : 2 * h], pivots[:, 2 * h :]
    theta, t, x = np.empty((3, S, h))
    rot = np.empty((S, h), dtype=bool)
    cs = np.empty((S, 1, h), dtype=np.complex128)
    c, s = cs.real[:, 0], cs.imag[:, 0]
    for _ in range(g - 1):
        flat.take(fix, axis=1, out=pivots, mode="clip")
        np.greater(np.abs(apq, out=x), skip, out=rot)
        # theta = (a_qq - a_pp) / (2 a_pq), over 1 where the pair is skipped
        x.fill(1.0)
        np.multiply(apq, 2.0, out=x, where=rot)
        np.divide(np.subtract(aqq, app, out=theta), x, out=theta)
        # t = sign(theta) / (|theta| + hypot(theta, 1)), a signed 0 where skipped
        np.add(np.abs(theta, out=x), np.hypot(theta, 1.0, out=t), out=x)
        np.copysign(np.divide(rot, x, out=x), theta, out=t)
        np.sqrt(np.add(np.multiply(t, t, out=x), 1.0, out=x), out=x)
        np.divide(1.0, x, out=c)
        np.multiply(t, c, out=s)
        # the pairs themselves: a_pp - t a_pq, a_qq + t a_pq, and a_pq
        # zeroed only where a rotation took place
        np.multiply(t, apq, out=x)
        np.subtract(app, x, out=app)
        np.add(aqq, x, out=aqq)
        np.copyto(apq, 0.0, where=rot)
        np.multiply(a_c, cs, out=a_c)
        np.copyto(work, a.swapaxes(1, 2))
        np.multiply(work_c, cs, out=work_c)
        work_flat[:, fix] = pivots
        work_flat.take(gather, axis=1, out=flat, mode="clip")
        np.multiply(v_c, cs, out=v_c)
        v.take(perm, axis=2, out=v_next, mode="clip")
        v, v_next = v_next, v
        v_c = v.view(np.complex128)
    return v


def dense_eigensystems(graphs: list[Graph]) -> list[Spectrum]:
    """Independent oracle for many graphs: one stacked Jacobi call per even
    size m, where a graph with odd n joins the (n + 1)-vertex graphs with a
    zero dummy index (the one the solver pads it with alone).  Each stack of
    one vertex count is sorted, and checked for orthonormality and
    eigen-residual, at once."""
    by_m: dict[int, list[int]] = {}
    for i, g in enumerate(graphs):
        by_m.setdefault(g.n + g.n % 2, []).append(i)
    _check_dense_budget([g.n for g in graphs])
    out: list = [None] * len(graphs)
    for m, ids in by_m.items():
        sizes = np.array([graphs[i].n for i in ids])
        adjacency = np.zeros((len(ids), m, m))
        for b, i in enumerate(ids):
            adjacency[b, : sizes[b], : sizes[b]] = graphs[i].adjacency
        eigenvalues, vecs = jacobi_eigensystem(adjacency, sizes=sizes)
        for n in sorted(set(sizes.tolist())):
            sel = np.flatnonzero(sizes == n)
            lam = eigenvalues[sel, :n]
            order = _descending(lam)
            lam = np.take_along_axis(lam, order, axis=1)
            vec = np.take_along_axis(vecs[sel, :n, :n], order[:, None, :], axis=2)
            _check_eigensystems(adjacency[sel, :n, :n], lam, vec)
            for b, values, vectors in zip(sel, lam, vec):
                out[ids[b]] = Spectrum(values, vectors.astype(np.complex128))  # its own array
    return out


def dense_eigensystem(g: Graph) -> Spectrum:
    """Independent oracle: full eigensystem of the adjacency via round-robin Jacobi."""
    return dense_eigensystems([g])[0]


def _lapack_eigensystem(g: Graph) -> Spectrum:
    """The one production dense route: LAPACK `eigh`, sorted and checked like
    the oracle.

    A LAPACK failure is a computational failure (RuntimeError), not bad input.
    """
    _check_dense_budget([g.n])
    adjacency = g.adjacency.astype(np.float64)
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(adjacency)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"LAPACK eigh failed: {exc}") from None
    spec = _sorted_spectrum(eigenvalues, eigenvectors)
    check_spectrum(spec, adjacency)
    return spec


def _check_dense_budget(orders: list[int]) -> None:
    """Refuse (ValueError) dense solves of matrices of these orders whose
    float working set would pass DENSE_BUDGET; computed from the orders
    alone, so nothing is allocated to find out."""
    need = sum(DENSE_ARRAYS * 8 * n * n for n in orders)
    if need > DENSE_BUDGET:
        raise ValueError(
            f"dense eigensystem of n = {max(orders)} refused: its working set is about "
            f"{need} bytes, over the {DENSE_BUDGET}-byte budget"
        )


def graph_eigensystem(g: Graph, method: str = "auto") -> Spectrum:
    """Eigensystem of a graph, closed form when available.

    method: "auto" picks the closed form that the graph's checked structure
    selects and falls back to LAPACK `eigh`; "closed" errors when no closed
    form exists; "dense" forces `eigh`.  The Jacobi oracle, which calls no
    LAPACK, is `dense_eigensystem`.
    """
    if method not in ("auto", "closed", "dense"):
        raise ValueError(f"unknown method {method!r}")
    if method == "dense":
        return _lapack_eigensystem(g)
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


def _row_classes(group: AbelianGroupSpec, lams: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The degeneracy cut of rows of circulant eigenvalues on `group` in
    character order (`circulant_eigenvalues`): each row's class labels,
    numbered in descending order, and whether its gap is nonzero (every
    class a single eigenvalue).  A row must show lambda_a == lambda_{-a} bit
    for bit, as a symmetric symbol's does, or it raises; it is then cut
    (`degeneracy_labels`, sorted stably) on the smaller of each pair {a, -a}
    alone, which moves no gap across tol, and -a takes a's label."""
    a, neg = np.arange(group.order), group.negation
    reps = a <= neg
    split = np.flatnonzero((lams[:, ~reps] != lams[:, neg[~reps]]).any(axis=0))
    if split.size:
        x = a[~reps][split[0]]
        raise RuntimeError(f"lambda_{neg[x]} != lambda_{x} on a symmetric symbol of"
                           f" {group.factors}: a circulant with nonzero spectral gap")
    # lams[:, reps] is formed twice, so that no copy of it outlives the sort
    order = _descending(lams[:, reps])
    cut = degeneracy_labels(np.take_along_axis(lams[:, reps], order, axis=1), tol)
    labels = np.empty_like(cut)
    np.put_along_axis(labels, order, cut, axis=1)
    column = (np.cumsum(reps) - 1)[np.minimum(a, neg)]  # the column of each character's pair
    return np.take(labels, column, axis=1), cut[:, -1] == group.order - 1


def degeneracy_summary(desc: np.ndarray, labels: np.ndarray) -> dict:
    """The "multiplicities", "degeneracy_classes", "spectral_gap" and "type"
    of descending eigenvalues, all from one array of their class labels
    (`degeneracy_labels`).  The gap is min_{j != k} |lambda_j - lambda_k|,
    exactly 0 when any class repeats."""
    n = len(desc)
    bounds = [0, *(np.flatnonzero(np.diff(labels)) + 1).tolist(), n]
    indices = list(range(n))
    classes = [indices[a:b] for a, b in zip(bounds, bounds[1:])]
    if len(classes) < n:
        gap = 0.0
    elif n < 2:
        gap = math.inf
    else:
        gap = float(np.min(desc[:-1] - desc[1:]))
    return {"multiplicities": [len(c) for c in classes], "degeneracy_classes": classes,
            "spectral_gap": gap, "type": len(classes)}


def _summary(spec: Spectrum, tol: float) -> dict:
    return degeneracy_summary(spec.eigenvalues, degeneracy_labels(spec.eigenvalues, tol))


def degeneracy_classes(spec: Spectrum, tol: float = DEGENERACY_TOL) -> DegeneracyPartition:
    """Cluster the (descending) eigenvalues where adjacent gaps are <= tol."""
    return DegeneracyPartition(_summary(spec, tol)["degeneracy_classes"])


def spectral_gap(spec: Spectrum, tol: float = DEGENERACY_TOL) -> float:
    """min_{j != k} |lambda_j - lambda_k|; exactly 0 when any class repeats."""
    return _summary(spec, tol)["spectral_gap"]


def spectrum_type(spec: Spectrum, tol: float = DEGENERACY_TOL) -> int:
    """Number of distinct eigenvalues (degeneracy classes).

    Public API kept on purpose for library callers: nothing in `ctqw`
    calls it, because the CLI reads the type with the gap and classes from
    one `degeneracy_summary`; `from ctqw import spectrum_type` works."""
    return _summary(spec, tol)["type"]


def check_spectrum(spec: Spectrum, adjacency: np.ndarray) -> None:
    """Assert orthonormality and eigen-residual invariants; raises on failure,
    NaN included."""
    _check_eigensystems(np.asarray(adjacency)[None], spec.eigenvalues[None],
                        spec.eigenvectors[None])


def _check_eigensystems(
    adjacency: np.ndarray, eigenvalues: np.ndarray, eigenvectors: np.ndarray
) -> None:
    """`check_spectrum` on a stack: (B, n, n) adjacencies, (B, n) eigenvalues
    and (B, n, n) eigenvector columns."""
    z = eigenvectors
    with np.errstate(all="ignore"):  # NaN and inf fail the comparisons below
        gram = z.conj().swapaxes(1, 2) @ z
        if not np.max(np.abs(gram - np.eye(z.shape[-1]))) <= ORTHONORMALITY_TOL:
            raise RuntimeError("eigenvectors are not orthonormal to 1e-10")
        resid = adjacency.astype(np.float64) @ z - z * eigenvalues[:, None, :]
        if not np.max(np.abs(resid)) <= RESIDUAL_TOL:
            raise RuntimeError("eigen-residual exceeds 1e-9")
