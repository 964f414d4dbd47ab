"""Continuous-time quantum walk evolution and its limiting averages.

The Hamiltonian is the raw adjacency matrix (hbar = 1), written as
A = sum_r theta_r E_r over its eigenvalue classes (Godsil, "Average mixing of
continuous quantum walks", JCTA 120, 2013).  Evolution and the limiting
average from a start vertex s read one real r x n matrix whose columns are
(E_r e_s)(l) over the classes r (`class_projections`): amplitudes are
sum_r e^{-i theta_r t} E_r e_s, and the limiting average is sum_r (E_r e_s)^2.
Each spectral route supplies it (`Spectrum.class_projections`).  Vertices
with bitwise-equal columns (an equitable partition: the Hamming weights on
Q_d, the pairs {s + x, s - x} on a circulant) are evaluated once, and full
vectors are gathered back only where one is output.
Every phase comes from one complex table e^{-i theta t} with one column per
time (`phase_table`).  Walks and scans form amplitudes in one place, one real
product of that table with the columns (`class_amplitudes`), and square them
and check their norm in one place (`class_probabilities`).
Evolution merges only bitwise-equal eigenvalues (`exact_labels`), so no
tolerance enters psi(t); the average uses the degeneracy partition, never
quadrature.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .graphs import _frozen
from .spectra import (
    DEGENERACY_TOL,
    Spectrum,
    degeneracy_classes,  # unused here: ctqwbench/test_bench.py reads ctqw.walk.degeneracy_classes
    degeneracy_labels,
)

UNIT_NORM_TOL = 1e-10
DISTRIBUTION_SUM_TOL = 1e-10


def as_distribution(raw: np.ndarray) -> np.ndarray:
    """Enforce distribution invariants on every row of a stack of
    distributions (the last axis): no negative entry, and a sum of 1 to
    DISTRIBUTION_SUM_TOL (NaN fails).  Every route here passes sums of
    squares, so a negative entry signals a bug and raises."""
    probs = np.asarray(raw, dtype=np.float64)
    if (probs < 0).any():
        raise RuntimeError(f"negative probability {probs.min()!r}")
    total = probs.sum(axis=-1)
    bad = ~(np.abs(total - 1.0) <= DISTRIBUTION_SUM_TOL)
    if bad.any():
        raise RuntimeError(f"distribution sums to {total[bad].flat[0]!r}, not 1")
    return probs


def exact_labels(eigenvalues: np.ndarray) -> np.ndarray:
    """Class labels for evolution: adjacent descending eigenvalues share a
    class only when they are bitwise equal.

    A merge at a tolerance would move psi(t) by up to tol * t.
    """
    labels = np.zeros(len(eigenvalues), dtype=np.int64)
    np.cumsum(eigenvalues[:-1] != eigenvalues[1:], out=labels[1:])
    return labels


class ClassProjections(NamedTuple):
    """The r x n matrix of class projections, stored by distinct column.

    theta[r] is the eigenvalue of class r; columns[:, index[l]] is the column
    of vertex l, (E_r e_start)(l) over r; counts[c] vertices share column c.
    Columns are bitwise distinct and kept in order of first occurrence.
    """

    theta: np.ndarray
    columns: np.ndarray
    index: np.ndarray
    counts: np.ndarray


def class_projections(spec: Spectrum, start: int, labels: np.ndarray) -> ClassProjections:
    """Each class's eigenvalue theta_r (its first member) and the projections
    E_r e_start, by distinct column.

    `labels` numbers the classes of the descending eigenvalues from 0 in
    order, as `exact_labels` and `spectra.degeneracy_labels` do.  E_r is real
    for a real symmetric A; `Spectrum.class_projections` forms it by the
    spectrum's route and raises on a class not closed under conjugation.
    Each (start, labels) is formed once per spectrum, which keeps it: a
    second call returns the first's arrays, which are read-only.
    """
    if not 0 <= start < spec.n:
        raise ValueError(f"start vertex {start} out of range [0, {spec.n})")
    steps = np.diff(labels, prepend=-1)
    if np.shape(labels) != (spec.n,) or not ((steps == 0) | (steps == 1)).all():
        raise ValueError("labels must number the classes of the sorted eigenvalues from 0, in order")
    key = (start, np.asarray(labels, dtype=np.int64).tobytes())
    if key in spec._projections:
        return spec._projections[key]
    starts = np.flatnonzero(steps)
    proj = spec.class_projections(start, labels, starts)
    # one key per vertex: the bytes of its column
    rows = np.ascontiguousarray(proj.T)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, inverse, counts = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True)
    order = np.argsort(first)  # distinct columns in order of first occurrence
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    parts = (spec.eigenvalues[starts], np.ascontiguousarray(proj[:, first[order]]),
             rank[inverse.ravel()], counts[order])
    out = spec._projections[key] = ClassProjections(*map(_frozen, parts))
    return out


def phase_table(theta: np.ndarray, times: np.ndarray) -> np.ndarray:
    """The phases e^{-i theta_r t}, complex, shape (len(theta), len(times)):
    one column per time."""
    phases = np.multiply.outer(theta, times)
    table = np.empty(phases.shape, dtype=np.complex128)
    np.cos(phases, out=table.real)
    np.sin(phases, out=table.imag)
    np.negative(table.imag, out=table.imag)
    return table


def class_amplitudes(proj: ClassProjections, table: np.ndarray) -> np.ndarray:
    """The amplitudes sum_r e^{-i theta_r t} E_r e_start on the distinct
    columns, from a phase table (r, m) as `phase_table` lays it out: shape
    (2 m, k), a row of real and a row of imaginary parts per time.  A table
    of the conjugate phases gives the conjugate amplitudes.  One real product
    of the table, read as interleaved real and imaginary parts, with the
    columns.  The transposed product, columns.T @ table, is the same sum but
    not always the same bits: on C_257 at 447 times it moved by a rounding
    unit between one and two OpenBLAS 0.3.31 threads, where this one did
    not."""
    return table.view(np.float64).T @ proj.columns


def class_probabilities(amp: np.ndarray, proj: ClassProjections, times: np.ndarray) -> np.ndarray:
    """|amplitude|^2 on the distinct columns, shape (m, k), one row per time,
    from `class_amplitudes` at the m `times`, which it squares in place;
    raises unless the amplitudes at every time have unit norm over all n
    vertices to UNIT_NORM_TOL."""
    np.square(amp, out=amp)
    probs = amp[0::2] + amp[1::2]
    norms = np.sqrt(probs @ proj.counts)
    off = np.abs(norms - 1.0)
    if not off.max(initial=0.0) <= UNIT_NORM_TOL:  # NaN fails
        k = np.flatnonzero(~(off <= UNIT_NORM_TOL))[0]
        raise RuntimeError(f"evolved amplitude at t = {float(times[k])!r} has norm"
                           f" {float(norms[k])!r}; spectrum is inconsistent")
    return probs


def _walk(spec: Spectrum, start: int, t, amplitudes: bool, distribution: bool) -> tuple:
    """The amplitudes (`evolve`) and the distribution (`instantaneous_distribution`)
    of a walk started at `start`, each only when asked for (else None), from
    one `class_amplitudes` product; gathered to all n vertices and shaped
    t.shape + (n,) for a scalar or an array of times."""
    times = np.asarray(t, dtype=np.float64).reshape(-1)
    proj = class_projections(spec, start, exact_labels(spec.eigenvalues))
    amp = class_amplitudes(proj, phase_table(proj.theta, times))

    def gather(part: np.ndarray) -> np.ndarray:
        return part[:, proj.index].reshape(np.shape(t) + (spec.n,))

    psi = gather(amp[0::2]) + 1j * gather(amp[1::2]) if amplitudes else None  # before the squaring
    probs = class_probabilities(amp, proj, times)
    return psi, as_distribution(gather(probs)) if distribution else None


def evolve(spec: Spectrum, start: int, t) -> np.ndarray:
    """Amplitudes psi(t) = sum_r e^{-i theta_r t} E_r e_start of a walk started
    at `start`, shaped t.shape + (n,) for a scalar or an array of times; every
    amplitude vector is checked for unit norm."""
    return _walk(spec, start, t, amplitudes=True, distribution=False)[0]


def instantaneous_distribution(spec: Spectrum, start: int, t) -> np.ndarray:
    """Born-rule distribution |<l|psi(t)>|^2; one row per time when t is an array."""
    return _walk(spec, start, t, amplitudes=False, distribution=True)[1]


def average_distribution(
    spec: Spectrum, start: int, tol: float = DEGENERACY_TOL, *, labels: np.ndarray | None = None
) -> np.ndarray:
    """Limiting time-average distribution, exact from the degeneracy partition at `tol`.

    Only index pairs within one degeneracy class survive the Cesaro limit;
    class r contributes (E_r e_start)^2, the squared projection of |start>
    onto its eigenspace.  A caller that has already cut the eigenvalues
    passes their `degeneracy_labels` as `labels` in place of `tol`.
    """
    if labels is None:
        labels = degeneracy_labels(spec.eigenvalues, tol)
    proj = class_projections(spec, start, labels)
    return as_distribution((proj.columns * proj.columns).sum(axis=0)[proj.index])


def bunkbed_instantaneous(base_spec: Spectrum, t) -> np.ndarray:
    """Distribution over (layer, base vertex) for a bunkbed walk from (0, 0);
    one row per time when t is an array.

    Uses the factorized form: layer prefactors (cos^2 t, sin^2 t) times the
    base walk distribution.  Independent of the generic path through the
    assembled bunkbed adjacency, which it must agree with to 1e-10.
    """
    times = np.asarray(t, dtype=np.float64)
    base = instantaneous_distribution(base_spec, 0, times)
    c2 = (np.cos(times) ** 2)[..., None]
    return as_distribution(np.concatenate([c2 * base, (1.0 - c2) * base], axis=-1))
