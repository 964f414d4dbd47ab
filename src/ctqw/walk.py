"""Continuous-time quantum walk evolution and its limiting averages.

The Hamiltonian is the raw adjacency matrix (hbar = 1), written as
A = sum_r theta_r E_r over its eigenvalue classes (Godsil, "Average mixing of
continuous quantum walks", JCTA 120, 2013).  Evolution and the limiting
average from a start vertex s read one real r x n matrix whose rows are E_r e_s
(`class_projections`): amplitudes are sum_r e^{-i theta_r t} E_r e_s, and the
limiting average is sum_r (E_r e_s)^2.  Evolution merges only bitwise-equal
eigenvalues (`exact_labels`), so no tolerance enters psi(t); the average uses
the degeneracy partition, never quadrature.  `finite_time_average` is the
independent convergence oracle and integrates each eigenpair term analytically.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from .spectra import (
    DEGENERACY_TOL,
    DegeneracyPartition,
    Spectrum,
    degeneracy_classes,
    degeneracy_labels,
)

log = logging.getLogger(__name__)

UNIT_NORM_TOL = 1e-10
DISTRIBUTION_SUM_TOL = 1e-10
CLAMP_FLOOR = -1e-12
CLAMP_BUDGET = 1e-9
IMAG_RESIDUE_TOL = 1e-10


def as_distribution(raw: np.ndarray) -> np.ndarray:
    """Clamp tiny negative residue to 0 and enforce distribution invariants,
    on every row of a stack of distributions (the last axis).

    Residue beyond the floating-cancellation budget signals a real bug and
    raises instead of being hidden.
    """
    probs = np.asarray(raw, dtype=np.float64)
    below = probs < 0
    if below.any():
        negative = -np.where(below, probs, 0.0).sum(axis=-1)
        if np.any(probs < CLAMP_FLOOR) or np.any(negative > CLAMP_BUDGET):
            raise RuntimeError(
                f"negative probability mass {negative.max():.3e} exceeds the clamp budget"
            )
        log.debug("clamped %.3e of negative probability residue", negative.sum())
        probs = np.where(below, 0.0, probs)
    total = probs.sum(axis=-1)
    bad = ~(np.abs(total - 1.0) <= DISTRIBUTION_SUM_TOL)
    if bad.any():
        raise RuntimeError(f"distribution sums to {total[bad].flat[0]!r}, not 1")
    return probs


def _check_start(spec: Spectrum, start: int) -> None:
    if not 0 <= start < spec.n:
        raise ValueError(f"start vertex {start} out of range [0, {spec.n})")


def exact_labels(eigenvalues: np.ndarray) -> np.ndarray:
    """Class labels for evolution: adjacent descending eigenvalues share a
    class only when they are bitwise equal.

    A merge at a tolerance would move psi(t) by up to tol * t.
    """
    labels = np.zeros(len(eigenvalues), dtype=np.int64)
    np.cumsum(eigenvalues[:-1] != eigenvalues[1:], out=labels[1:])
    return labels


def class_projections(
    spec: Spectrum, start: int, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(theta, proj): each class's eigenvalue theta_r (its first member) and
    the rows proj[r] = E_r e_start, shape (r, n).

    `labels` numbers the classes of the descending eigenvalues from 0 in
    order, as `exact_labels` and `spectra.degeneracy_labels` do.  E_r is real
    for a real symmetric A (on a circulant every class is closed under
    a -> -a); an imaginary residue above IMAG_RESIDUE_TOL raises.
    """
    _check_start(spec, start)
    steps = np.diff(labels, prepend=-1)
    if np.shape(labels) != (spec.n,) or not np.isin(steps, (0, 1)).all():
        raise ValueError("labels must number the classes of the sorted eigenvalues from 0, in order")
    starts = np.flatnonzero(steps)
    z = spec.eigenvectors
    proj = np.add.reduceat(z * z[start].conj(), starts, axis=1).T
    residue = np.max(np.abs(proj.imag))
    if not (residue <= IMAG_RESIDUE_TOL):
        raise RuntimeError(
            f"class projections have imaginary residue {residue:.3e} > {IMAG_RESIDUE_TOL:g};"
            " an eigenvalue class is not closed under conjugation"
        )
    return spec.eigenvalues[starts], np.ascontiguousarray(proj.real)


def class_amplitudes(
    theta: np.ndarray, proj: np.ndarray, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of the amplitudes sum_r e^{-i theta_r t} proj[r]
    at each time, shape (len(times), n) each; every row is checked for unit norm."""
    times = np.asarray(times, dtype=np.float64)
    phases = np.outer(times, theta)
    im = np.sin(phases) @ proj
    np.negative(im, out=im)
    re = np.cos(phases, out=phases) @ proj
    norms = np.sqrt(np.einsum("ij,ij->i", re, re) + np.einsum("ij,ij->i", im, im))
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= UNIT_NORM_TOL))
    if bad.size:
        k = bad[0]
        raise RuntimeError(
            f"evolved amplitude at t = {float(times[k])!r} has norm {float(norms[k])!r};"
            " spectrum is inconsistent"
        )
    return re, im


def evolve_many(spec: Spectrum, start: int, times: np.ndarray) -> np.ndarray:
    """Amplitudes at many times at once, shape (len(times), n); every row is
    checked for unit norm."""
    proj = class_projections(spec, start, exact_labels(spec.eigenvalues))
    re, im = class_amplitudes(*proj, times)
    return re + 1j * im


def evolve(spec: Spectrum, start: int, t: float) -> np.ndarray:
    """Amplitude vector at time t for a walk started at `start`:
    psi(t) = sum_r e^{-i theta_r t} E_r e_start."""
    return evolve_many(spec, start, np.array([t], dtype=np.float64))[0]


def instantaneous_distribution(spec: Spectrum, start: int, t) -> np.ndarray:
    """Born-rule distribution |<l|psi(t)>|^2; one row per time when t is an array."""
    times = np.asarray(t, dtype=np.float64)
    proj = class_projections(spec, start, exact_labels(spec.eigenvalues))
    re, im = class_amplitudes(*proj, times.reshape(-1))
    return as_distribution((re * re + im * im).reshape(times.shape + (spec.n,)))


def _partition_labels(part: DegeneracyPartition, n: int) -> np.ndarray:
    if part.n != n:
        raise ValueError("degeneracy partition does not match the spectrum size")
    flat = [i for cls in part.classes for i in cls]
    if flat != list(range(n)):
        raise ValueError("degeneracy classes must be runs of the sorted eigenvalues, in order")
    return np.repeat(np.arange(len(part.classes)), part.multiplicities)


def average_distribution(
    spec: Spectrum,
    start: int,
    part: DegeneracyPartition | None = None,
    tol: float = DEGENERACY_TOL,
) -> np.ndarray:
    """Limiting time-average distribution, exact from the degeneracy partition.

    Only index pairs within one degeneracy class survive the Cesaro limit;
    class r contributes (E_r e_start)^2, the squared projection of |start>
    onto its eigenspace.
    """
    if part is None:
        labels = degeneracy_labels(spec.eigenvalues, tol)
    else:
        labels = _partition_labels(part, spec.n)
    _, proj = class_projections(spec, start, labels)
    return as_distribution((proj * proj).sum(axis=0))


def finite_time_average(
    spec: Spectrum,
    start: int,
    T: float,
    part: DegeneracyPartition | None = None,
    tol: float = DEGENERACY_TOL,
) -> np.ndarray:
    """Exact value of (1/T) integral_0^T P_t dt via per-term analytic integrals.

    Pairs inside one degeneracy class get weight exactly 1; a pair with gap
    delta gets (1 - e^{-i delta T}) / (i delta T).  Serves as the
    convergence oracle for `average_distribution`.
    """
    if not (math.isfinite(T) and T > 0):
        raise ValueError(f"averaging window T must be finite and positive, got {T!r}")
    _check_start(spec, start)
    if part is None:
        part = degeneracy_classes(spec, tol)
    if part.n != spec.n:
        raise ValueError("degeneracy partition does not match the spectrum size")
    lam = spec.eigenvalues
    delta = lam[:, None] - lam[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        weights = (1.0 - np.exp(-1j * delta * T)) / (1j * delta * T)
    class_id = np.empty(spec.n, dtype=np.int64)
    for c, cls in enumerate(part.classes):
        class_id[cls] = c
    same = class_id[:, None] == class_id[None, :]
    weights[same] = 1.0
    coeff = spec.eigenvectors * spec.eigenvectors[start].conj()
    probs = np.einsum("lj,jk,lk->l", coeff, weights, coeff.conj())
    return as_distribution(probs.real)


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
