"""Random circulant sampling C(n, 1/2) and ensemble statistics.

Reproducibility contract: the generator is PCG64 and trial i draws from the
substream SeedSequence(entropy=seed, spawn_key=(i,)), so results are
identical bit for bit across platforms.  Only the coin draws run one trial
at a time; spectra, degeneracy classes and averages run on blocks of
BLOCK_SIZE trials with loops in a fixed order (no BLAS), and statistics
aggregate in trial-then-draw order.

The model draws the connection coins unconditionally, but downstream walk
machinery needs connected graphs, so disconnected draws are rejected and
redrawn inside the same substream.  Both views are reported: statistics
over accepted samples (conditioned on connectivity) and over all draws
(the unconditioned ensemble the expectation formulas refer to).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .graphs import AbelianGroupSpec, Symbol
from .spectra import DEGENERACY_TOL

MAX_RESAMPLE_ATTEMPTS = 1000
BLOCK_SIZE = 4096


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")


def _symmetric_cosine_table(n: int) -> np.ndarray:
    """cos(2 pi k / n) with cos(2 pi (n-k)/n) copied from cos(2 pi k / n).

    The copy makes the symmetry eigenvalue identity lambda_a == lambda_{-a}
    exact in floating point for every sampled symbol.
    """
    table = np.cos(2.0 * np.pi * np.arange(n) / n)
    for k in range(1, n // 2 + 1):
        table[n - k] = table[k]
    if n % 2 == 0:
        table[n // 2] = -1.0
    table[0] = 1.0
    return table


def _symbol_values(bits: np.ndarray, n: int) -> np.ndarray:
    """Rows of coins on the orbits {j, n-j}, j = 1..n//2, as symbol values on Z_n."""
    m = n // 2
    vals = np.zeros((len(bits), n), dtype=bool)
    vals[:, 1 : m + 1] = bits
    vals[:, n - m :][:, ::-1] |= bits
    return vals


def _connected(bits: np.ndarray, n: int) -> np.ndarray:
    """Per row: the support generates Z_n, i.e. the gcd of its orbits with n is 1."""
    orbit_gcd = np.gcd(np.arange(1, n // 2 + 1), n)
    return np.gcd.reduce(np.where(bits, orbit_gcd, n), axis=1) == 1


def _eigenvalues(vals: np.ndarray, cos_table: np.ndarray) -> np.ndarray:
    """lambda_a = sum_{x in S} cos(2 pi x a / n) per row, summed over x in increasing order."""
    n = vals.shape[1]
    lams = np.zeros(vals.shape)
    for x in range(1, n):
        lams += vals[:, x, None] * cos_table[(x * np.arange(n)) % n]
    return lams


def _class_labels(lams: np.ndarray, tol: float) -> np.ndarray:
    """Degeneracy class of each eigenvalue, numbered in descending order.

    Each row is sorted stably and cut where the gap exceeds tol.  A row with
    no degenerate pair contradicts the zero spectral gap and raises.
    """
    order = np.argsort(-lams, axis=1, kind="stable")
    desc = np.take_along_axis(lams, order, axis=1)
    sorted_labels = np.zeros(lams.shape, dtype=np.int64)
    np.cumsum(desc[:, :-1] - desc[:, 1:] > tol, axis=1, out=sorted_labels[:, 1:])
    if np.any(sorted_labels[:, -1] == lams.shape[1] - 1):
        raise RuntimeError("sampled circulant with nonzero spectral gap")
    labels = np.empty_like(sorted_labels)
    np.put_along_axis(labels, order, sorted_labels, axis=1)
    return labels


def _uniform_deviation(labels: np.ndarray, cos_table: np.ndarray) -> np.ndarray:
    """sum_l |Pbar(l) - 1/n| per row, Pbar being row 0 of the average mixing matrix.

    Pbar(l) = n^-2 sum_d c(d) cos(2 pi d l / n) with c(d) = #{a : a ~ a - d},
    the diagonal-shift form of sum_r E_r o conj(E_r) for a circulant (Godsil,
    "Average mixing of continuous quantum walks", JCTA 2013).
    """
    n = labels.shape[1]
    pbar = np.zeros(labels.shape)
    for d in range(n):
        c = (labels == np.roll(labels, d, axis=1)).sum(axis=1)
        pbar += c[:, None] * cos_table[(d * np.arange(n)) % n]
    return np.abs(pbar / (n * n) - 1.0 / n).sum(axis=1)


def _histogram(types: np.ndarray) -> dict[int, int]:
    keys, counts = np.unique(types, return_counts=True)
    return {int(k): int(c) for k, c in zip(keys, counts)}


def sample_random_circulant(n: int, seed) -> Symbol:
    """Sample a connected symbol of C(n, 1/2); resamples disconnected draws.

    `seed` may be an int, a tuple of ints, or a numpy SeedSequence.
    """
    if n < 3:
        raise ValueError("random circulants require n >= 3")
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    rng = np.random.Generator(np.random.PCG64(ss))
    for _ in range(MAX_RESAMPLE_ATTEMPTS):
        bits = rng.integers(0, 2, size=(1, n // 2)).astype(bool)
        if _connected(bits, n)[0]:
            return Symbol(AbelianGroupSpec((n,)), _symbol_values(bits, n)[0])
    raise RuntimeError(
        f"no connected symbol after {MAX_RESAMPLE_ATTEMPTS} draws (n={n})"
    )


def _draw_block(n: int, entropy, trials: range) -> tuple[np.ndarray, np.ndarray]:
    """Orbit coins of every draw of the given trials, and which draws were accepted.

    Rows come in trial-then-draw order.  Trial i redraws from its own
    substream until connected; its generator is dropped once it is accepted.
    """
    pending = {
        i: np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy, spawn_key=(i,))))
        for i in trials
    }
    owners, rows, accepted = [], [], []
    for _ in range(MAX_RESAMPLE_ATTEMPTS):
        bits = np.array([rng.integers(0, 2, size=n // 2) for rng in pending.values()], dtype=bool)
        ok = _connected(bits, n)
        owners.append(list(pending))
        rows.append(bits)
        accepted.append(ok)
        pending = {i: rng for (i, rng), done in zip(pending.items(), ok) if not done}
        if not pending:
            order = np.argsort(np.concatenate(owners), kind="stable")
            return np.concatenate(rows)[order], np.concatenate(accepted)[order]
    raise RuntimeError(f"no connected symbol after {MAX_RESAMPLE_ATTEMPTS} draws (n={n})")


@dataclass
class EnsembleStats:
    """Aggregates of a seeded C(n, 1/2) run.

    mean_lambda0 / mean_lambda_other are over accepted (connected) samples;
    the *_unconditional fields average over every draw including rejected
    ones and estimate the unconditioned ensemble expectations.
    """

    n: int
    trials: int
    seed: int
    rejections: int
    total_draws: int
    rejection_rate: float
    mean_lambda0: float
    var_lambda0: float
    mean_lambda_other: float
    var_lambda_other: float
    mean_lambda0_unconditional: float
    se_lambda0_unconditional: float
    mean_lambda_other_unconditional: float
    se_lambda_other_unconditional: float
    type_histogram: dict[int, int] = field(default_factory=dict)
    deviation_quantiles: dict[str, float] = field(default_factory=dict)

    def validate(self) -> "EnsembleStats":
        if sum(self.type_histogram.values()) != self.trials:
            raise RuntimeError("type histogram does not sum to the trial count")
        if any(not 2 <= t <= self.n for t in self.type_histogram):
            raise RuntimeError("graph type outside [2, n]")
        return self


def ensemble_stats(n: int, trials: int, seed: int, tol: float = DEGENERACY_TOL) -> EnsembleStats:
    """Seeded Monte Carlo over C(n, 1/2) with closed-form spectra, block by block."""
    if n < 3:
        raise ValueError("random circulants require n >= 3")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _check_tol(tol)
    cos_table = _symmetric_cosine_table(n)
    entropy = np.random.SeedSequence(seed).entropy
    blocks = []
    for start in range(0, trials, BLOCK_SIZE):
        bits, accepted = _draw_block(n, entropy, range(start, min(start + BLOCK_SIZE, trials)))
        lams = _eigenvalues(_symbol_values(bits, n), cos_table)
        labels = _class_labels(lams[accepted], tol)
        blocks.append((lams[:, 0], lams[:, 1:].mean(axis=1), accepted,
                       labels.max(axis=1) + 1, _uniform_deviation(labels, cos_table)))
    unc_lam0, unc_other, accepted, types, deviations = (np.concatenate(col) for col in zip(*blocks))
    accepted_lam0 = unc_lam0[accepted]
    accepted_other = unc_other[accepted]
    total = len(unc_lam0)
    q10, q50, q90 = np.quantile(deviations, [0.1, 0.5, 0.9])
    return EnsembleStats(
        n=n,
        trials=trials,
        seed=seed,
        rejections=total - trials,
        total_draws=total,
        rejection_rate=(total - trials) / total,
        mean_lambda0=float(accepted_lam0.mean()),
        var_lambda0=float(accepted_lam0.var()),
        mean_lambda_other=float(accepted_other.mean()),
        var_lambda_other=float(accepted_other.var()),
        mean_lambda0_unconditional=float(unc_lam0.mean()),
        se_lambda0_unconditional=float(unc_lam0.std() / math.sqrt(total)),
        mean_lambda_other_unconditional=float(unc_other.mean()),
        se_lambda_other_unconditional=float(unc_other.std() / math.sqrt(total)),
        type_histogram=_histogram(types),
        deviation_quantiles={"q10": float(q10), "q50": float(q50), "q90": float(q90)},
    ).validate()


def _all_symbol_bits(n: int) -> np.ndarray:
    """Orbit coins of every symmetric symbol on Z_n: 2^floor(n/2) rows in mask
    order, at most 1024, so the exhaustive routes fit in one block."""
    if not 3 <= n <= 20:
        raise ValueError("exhaustive enumeration is supported for 3 <= n <= 20")
    m = n // 2
    return (np.arange(2**m)[:, None] >> np.arange(m)) & 1 == 1


def type_spectrum_exhaustive(n: int, tol: float = DEGENERACY_TOL) -> dict[int, int]:
    """Exact type histogram over all connected symbols; oracle for the sampler."""
    bits = _all_symbol_bits(n)
    _check_tol(tol)
    bits = bits[_connected(bits, n)]
    lams = _eigenvalues(_symbol_values(bits, n), _symmetric_cosine_table(n))
    return _histogram(_class_labels(lams, tol).max(axis=1) + 1)


def exhaustive_expectations(n: int) -> dict[str, float]:
    """Exact ensemble expectations by enumerating all 2^floor(n/2) symbols."""
    bits = _all_symbol_bits(n)
    connected = _connected(bits, n)
    lams = _eigenvalues(_symbol_values(bits, n), _symmetric_cosine_table(n))
    lam0 = lams[:, 0]
    other = lams[:, 1:].mean(axis=1)
    return {
        "p_connected": int(connected.sum()) / len(connected),
        "mean_lambda0": float(np.mean(lam0)),
        "mean_lambda_other": float(np.mean(other)),
        "mean_lambda0_connected": float(np.mean(lam0[connected])),
        "mean_lambda_other_connected": float(np.mean(other[connected])),
    }


def stats_to_json(stats: EnsembleStats) -> str:
    doc = {"schema": "ctqw/1"}
    doc.update(
        {
            k: getattr(stats, k)
            for k in (
                "n",
                "trials",
                "seed",
                "rejections",
                "total_draws",
                "rejection_rate",
                "mean_lambda0",
                "var_lambda0",
                "mean_lambda_other",
                "var_lambda_other",
                "mean_lambda0_unconditional",
                "se_lambda0_unconditional",
                "mean_lambda_other_unconditional",
                "se_lambda_other_unconditional",
            )
        }
    )
    doc["type_histogram"] = {str(k): v for k, v in stats.type_histogram.items()}
    doc["deviation_quantiles"] = stats.deviation_quantiles
    return json.dumps(doc, indent=2)
