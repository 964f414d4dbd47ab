"""Continuous-time quantum walk evolution and its limiting averages.

The Hamiltonian is the raw adjacency matrix (hbar = 1).  The limiting
average distribution is evaluated exactly from the degeneracy partition,
never by quadrature; `finite_time_average` exists as an independent
convergence oracle and integrates each eigenpair term analytically.
"""

from __future__ import annotations

import logging

import numpy as np

from .spectra import DEGENERACY_TOL, DegeneracyPartition, Spectrum, degeneracy_classes

log = logging.getLogger(__name__)

UNIT_NORM_TOL = 1e-10
DISTRIBUTION_SUM_TOL = 1e-10
CLAMP_FLOOR = -1e-12
CLAMP_BUDGET = 1e-9
IMAG_RESIDUE_TOL = 1e-10


def as_distribution(raw: np.ndarray) -> np.ndarray:
    """Clamp tiny negative residue to 0 and enforce distribution invariants.

    Residue beyond the floating-cancellation budget signals a real bug and
    raises instead of being hidden.
    """
    probs = np.asarray(raw, dtype=np.float64)
    negative = probs[probs < 0]
    if negative.size:
        if np.any(negative < CLAMP_FLOOR) or -negative.sum() > CLAMP_BUDGET:
            raise RuntimeError(
                f"negative probability mass {-negative.sum():.3e} exceeds the clamp budget"
            )
        log.debug("clamped %.3e of negative probability residue", -negative.sum())
        probs = np.where(probs < 0, 0.0, probs)
    total = probs.sum()
    if not (abs(total - 1.0) <= DISTRIBUTION_SUM_TOL):
        raise RuntimeError(f"distribution sums to {total!r}, not 1")
    return probs


def _start_weights(spec: Spectrum, start: int) -> np.ndarray:
    if not 0 <= start < spec.n:
        raise ValueError(f"start vertex {start} out of range [0, {spec.n})")
    return spec.eigenvectors[start, :].conj()


def evolve(spec: Spectrum, start: int, t: float) -> np.ndarray:
    """Amplitude vector at time t for a walk started at `start`.

    entries[l] = sum_j <l|z_j> e^{-i lambda_j t} <z_j|start>.
    """
    weights = _start_weights(spec, start)
    amp = spec.eigenvectors @ (np.exp(-1j * spec.eigenvalues * t) * weights)
    norm = np.linalg.norm(amp)
    if not (abs(norm - 1.0) <= UNIT_NORM_TOL):
        raise RuntimeError(f"evolved amplitude has norm {norm!r}; spectrum is inconsistent")
    return amp


def evolve_many(spec: Spectrum, start: int, times: np.ndarray) -> np.ndarray:
    """Amplitudes at many times at once, shape (len(times), n); every row is
    checked for unit norm as in `evolve`."""
    weights = _start_weights(spec, start)
    times = np.asarray(times, dtype=np.float64)
    phases = np.exp(-1j * np.outer(times, spec.eigenvalues))
    amps = (phases * weights) @ spec.eigenvectors.T
    norms = np.linalg.norm(amps, axis=1)
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= UNIT_NORM_TOL))
    if bad.size:
        k = bad[0]
        raise RuntimeError(
            f"evolved amplitude at t = {float(times[k])!r} has norm {float(norms[k])!r};"
            " spectrum is inconsistent"
        )
    return amps


def instantaneous_distribution(spec: Spectrum, start: int, t: float) -> np.ndarray:
    """Born-rule distribution |<l|psi(t)>|^2."""
    amp = evolve(spec, start, t)
    return as_distribution((amp * amp.conj()).real)


def average_distribution(
    spec: Spectrum,
    start: int,
    part: DegeneracyPartition | None = None,
    tol: float = DEGENERACY_TOL,
) -> np.ndarray:
    """Limiting time-average distribution, exact from the degeneracy partition.

    Only index pairs within one degeneracy class survive the Cesaro limit;
    each class contributes |projection of |start> onto the eigenspace|^2.
    """
    if part is None:
        part = degeneracy_classes(spec, tol)
    if part.n != spec.n:
        raise ValueError("degeneracy partition does not match the spectrum size")
    weights = _start_weights(spec, start)
    probs = np.zeros(spec.n, dtype=np.complex128)
    for cls in part.classes:
        proj = spec.eigenvectors[:, cls] @ weights[cls]
        probs += proj * proj.conj()
    if np.max(np.abs(probs.imag)) > IMAG_RESIDUE_TOL:
        raise RuntimeError("imaginary residue in the average distribution exceeds 1e-10")
    return as_distribution(probs.real)


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
    if T <= 0:
        raise ValueError("averaging window T must be positive")
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
    coeff = spec.eigenvectors * _start_weights(spec, start)[None, :]
    probs = np.einsum("lj,jk,lk->l", coeff, weights, coeff.conj())
    return as_distribution(probs.real)


def bunkbed_instantaneous(base_spec: Spectrum, t: float) -> np.ndarray:
    """Distribution over (layer, base vertex) for a bunkbed walk from (0, 0).

    Uses the factorized form: layer prefactors (cos^2 t, sin^2 t) times the
    base walk distribution.  Independent of the generic path through the
    assembled bunkbed adjacency, which it must agree with to 1e-10.
    """
    base = instantaneous_distribution(base_spec, 0, t)
    c2 = np.cos(t) ** 2
    return as_distribution(np.concatenate([c2 * base, (1.0 - c2) * base]))
