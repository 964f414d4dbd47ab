"""Random circulant sampling C(n, 1/2) and ensemble statistics.

Reproducibility contract: trial i draws its coins from the substream
SeedSequence(entropy=seed, spawn_key=(i,)) + PCG64 + Generator.integers(0, 2),
so results are identical bit for bit across platforms.  The substreams of a
block of BLOCK_SIZE trials are computed together: the seed hash, the 128-bit
LCG and the coin extraction run as uint64 numpy steps over the whole block,
bit-identical to numpy's per-trial objects, and every block redraws its
first trial through numpy's own Generator to check that.  A block keeps
only its packed coin rows and accepted flags, ceil(floor(n/2)/8) + 9 bytes
per draw with the index into the distinct symbols.  Spectra, degeneracy
classes and averages then run once per distinct symbol of the run (C(n, 1/2)
has only 2**floor(n/2)), in chunks of BLOCK_SIZE with loops in a fixed order
(no BLAS); each row's arithmetic is independent of its chunk, and the
results are gathered back so statistics aggregate in trial-then-draw order.
The one-word spawn key bounds a run at 2**32 trials.

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

from .graphs import SCHEMA, AbelianGroupSpec, Symbol
from .spectra import (
    DEGENERACY_TOL,
    _roots_of_unity,
    character_phases,
    circulant_eigenvalues,
    degeneracy_labels,
)

MAX_RESAMPLE_ATTEMPTS = 1000
BLOCK_SIZE = 4096
MAX_TRIALS = 2**32


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


def _class_labels(lams: np.ndarray, tol: float) -> np.ndarray:
    """Degeneracy class of each eigenvalue, numbered in descending order.

    Each row is sorted stably and cut by `degeneracy_labels`.  A row with
    no degenerate pair contradicts the zero spectral gap and raises.
    """
    order = np.argsort(-lams, axis=1, kind="stable")
    sorted_labels = degeneracy_labels(np.take_along_axis(lams, order, axis=1), tol)
    if np.any(sorted_labels[:, -1] == lams.shape[1] - 1):
        raise RuntimeError("sampled circulant with nonzero spectral gap")
    labels = np.empty_like(sorted_labels)
    np.put_along_axis(labels, order, sorted_labels, axis=1)
    return labels


def _uniform_deviation(labels: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """sum_l |Pbar(l) - 1/n| per row, Pbar being row 0 of the average mixing matrix.

    Pbar(l) = n^-2 sum_d c(d) cos(2 pi d l / n) with c(d) = #{a : a ~ a - d},
    the diagonal-shift form of sum_r E_r o conj(E_r) for a circulant (Godsil,
    "Average mixing of continuous quantum walks", JCTA 2013).
    """
    n = labels.shape[1]
    cos = _roots_of_unity(n).real
    pbar = np.zeros(labels.shape)
    for d in range(n):
        c = (labels == np.roll(labels, d, axis=1)).sum(axis=1)
        pbar += c[:, None] * cos[phase[d]]
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


# SeedSequence's hash constants and PCG64's 128-bit LCG multiplier as numpy
# defines them (bit_generator.pyx, pcg64.h).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT_HI, _PCG_MULT_LO = 2549297995355413924, 4865540595714422341
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4


def _hashmix(value: np.ndarray, hash_const: int, mult: int) -> tuple[np.ndarray, int]:
    """SeedSequence's hashmix on a uint32 array; the hash constant is a Python int."""
    next_const = hash_const * mult & _MASK32
    value = (value ^ np.uint32(hash_const)) * np.uint32(next_const)
    return value ^ value >> 16, next_const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return result ^ result >> 16


def _seed_words(entropy: int, keys: np.ndarray) -> list[np.ndarray]:
    """generate_state(4, uint64) of SeedSequence(entropy, spawn_key=(k,)) for
    every uint32 k: four uint64 arrays.

    The entropy words are padded to the pool size because a spawn key is
    present, so the key is always the last word hashed and the only one
    that differs between trials.
    """
    words = [np.array([entropy >> s & _MASK32], dtype=np.uint32)
             for s in range(0, max(entropy.bit_length(), 1), 32)]
    words += [np.zeros(1, dtype=np.uint32)] * (_POOL_SIZE - len(words)) + [keys]
    hash_const = _INIT_A
    pool = []
    for word in words[:_POOL_SIZE]:
        word, hash_const = _hashmix(word, hash_const, _MULT_A)
        pool.append(word)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                word, hash_const = _hashmix(pool[src], hash_const, _MULT_A)
                pool[dst] = _mix(pool[dst], word)
    for src in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            word, hash_const = _hashmix(src, hash_const, _MULT_A)
            pool[dst] = _mix(pool[dst], word)
    hash_const, state = _INIT_B, []
    for j in range(2 * _POOL_SIZE):
        word, hash_const = _hashmix(pool[j % _POOL_SIZE], hash_const, _MULT_B)
        state.append(word.astype(np.uint64))
    return [state[j] | state[j + 1] << 32 for j in range(0, len(state), 2)]


def _mulhi64(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of a * b for a uint64 array, from 32-bit limbs."""
    a0, a1 = a & _MASK32, a >> 32
    b0, b1 = np.uint64(b & _MASK32), np.uint64(b >> 32)
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _add128(hi, lo, add_hi, add_lo):
    lo = lo + add_lo
    return hi + add_hi + (lo < add_lo).astype(np.uint64), lo


def _lcg_step(hi, lo, inc_hi, inc_lo):
    """state * multiplier + inc mod 2**128, on (hi, lo) uint64 arrays."""
    mult_hi, mult_lo = np.uint64(_PCG_MULT_HI), np.uint64(_PCG_MULT_LO)
    new_hi = _mulhi64(lo, _PCG_MULT_LO) + hi * mult_lo + lo * mult_hi
    return _add128(new_hi, lo * mult_lo, inc_hi, inc_lo)


class _Substreams:
    """PCG64(SeedSequence(entropy, spawn_key=(k,))) for a vector of uint32
    keys k, advanced together as (hi, lo) uint64 arrays.

    Seeding follows numpy (O'Neill, HMC-CS-2014-0905): state = 0,
    inc = 2 seq + 1, step, state += seed, step.
    """

    def __init__(self, entropy: int, keys: np.ndarray):
        seed_hi, seed_lo, seq_hi, seq_lo = _seed_words(entropy, keys)
        self.inc = (seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1)
        self.state = _lcg_step(*_add128(*self.inc, seed_hi, seed_lo), *self.inc)
        self.spare = None  # coin of the 32-bit word the last call left buffered

    def coins(self, count: int) -> np.ndarray:
        """(keys, count) bool: the next Generator.integers(0, 2, size=count) of each stream.

        Each 64-bit XSL-RR output rotr(hi ^ lo, hi >> 58) is two 32-bit words,
        low half first, and a coin is bit 31 of its word: Lemire's bounded
        method (TOMACS 2019) never rejects at range 2.  A word left over is
        buffered for the next call, as numpy buffers it.
        """
        coins = [] if self.spare is None else [self.spare]
        while len(coins) < count:
            self.state = hi, lo = _lcg_step(*self.state, *self.inc)
            x, rot = hi ^ lo, hi >> 58
            out = x >> rot | x << (64 - rot & 63)
            coins += [out >> 31 & 1 == 1, out >> 63 == 1]
        self.spare = coins[count] if len(coins) > count else None
        return np.stack(coins[:count], axis=1)

    def keep(self, mask: np.ndarray) -> None:
        self.state = tuple(s[mask] for s in self.state)
        self.inc = tuple(s[mask] for s in self.inc)
        if self.spare is not None:
            self.spare = self.spare[mask]


def _check_stream(n: int, entropy: int, trial: int, bits: np.ndarray) -> None:
    """Redraw `trial`'s coin rows through numpy's own Generator; raise on any mismatch."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy, spawn_key=(trial,))))
    expected = np.array([rng.integers(0, 2, size=n // 2) for _ in bits], dtype=bool)
    if not np.array_equal(bits, expected):
        raise RuntimeError(f"vectorized PCG64 stream of trial {trial} differs from numpy's")


def _draw_block(n: int, entropy, trials: range) -> tuple[np.ndarray, np.ndarray]:
    """Orbit coins of every draw of the given trials, and which draws were accepted.

    Rows come in trial-then-draw order.  Trial i redraws from its own
    substream until connected; all substreams of the block advance together
    and trial i leaves them once it is accepted.  The first trial's rows are
    checked against numpy's Generator.
    """
    owner = np.arange(trials.start, trials.stop)
    streams = _Substreams(int(entropy), owner.astype(np.uint32))
    owners, rows, accepted = [], [], []
    for _ in range(MAX_RESAMPLE_ATTEMPTS):
        bits = streams.coins(n // 2)
        ok = _connected(bits, n)
        owners.append(owner)
        rows.append(bits)
        accepted.append(ok)
        owner = owner[~ok]
        streams.keep(~ok)
        if not owner.size:
            order = np.argsort(np.concatenate(owners), kind="stable")
            bits, ok = np.concatenate(rows)[order], np.concatenate(accepted)[order]
            _check_stream(n, entropy, trials.start, bits[: np.argmax(ok) + 1])
            return bits, ok
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


def _symbol_stats(bits: np.ndarray, accepted: np.ndarray, n: int, tol: float):
    """lambda_0, the mean of the other eigenvalues, the type and the deviation
    of each row of orbit coins, in chunks of BLOCK_SIZE rows.

    Types and deviations are computed for accepted rows only and are 0 on
    the others.  Every row's arithmetic is independent of the rows sharing
    its chunk, so results do not depend on how rows are grouped.
    """
    _, phase = character_phases(AbelianGroupSpec((n,)))
    lam0, other = np.empty(len(bits)), np.empty(len(bits))
    types, deviations = np.zeros(len(bits), dtype=np.int64), np.zeros(len(bits))
    for start in range(0, len(bits), BLOCK_SIZE):
        rows = slice(start, start + BLOCK_SIZE)
        lams = circulant_eigenvalues(_symbol_values(bits[rows], n), phase, n)
        lam0[rows], other[rows] = lams[:, 0], lams[:, 1:].mean(axis=1)
        ok = accepted[rows]
        labels = _class_labels(lams[ok], tol)
        kept = start + np.flatnonzero(ok)
        types[kept] = labels.max(axis=1) + 1
        deviations[kept] = _uniform_deviation(labels, phase)
    return lam0, other, types, deviations


def ensemble_stats(n: int, trials: int, seed: int, tol: float = DEGENERACY_TOL) -> EnsembleStats:
    """Seeded Monte Carlo over C(n, 1/2) with closed-form spectra.

    Draws run block by block and keep only their packed coin rows and
    accepted flags.  Spectra, classes and deviations then run once per
    distinct symbol of the run and are gathered back in trial-then-draw order.
    """
    if n < 3:
        raise ValueError("random circulants require n >= 3")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if trials > MAX_TRIALS:
        raise ValueError(f"trials must be <= 2**32 (one uint32 spawn key per trial), got {trials}")
    degeneracy_labels(np.zeros(1), tol)  # rejects a bad tol before any drawing
    entropy = np.random.SeedSequence(seed).entropy
    packed, accepted = [], []
    for start in range(0, trials, BLOCK_SIZE):
        bits, ok = _draw_block(n, entropy, range(start, min(start + BLOCK_SIZE, trials)))
        packed.append(np.packbits(bits, axis=1))
        accepted.append(ok)
    packed, accepted = np.concatenate(packed), np.concatenate(accepted)
    keys = packed.view(np.dtype(("S", packed.shape[1])))[:, 0]  # one fixed-width key per draw
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    inverse = inverse.reshape(-1)  # numpy 2.0.0 shaped it like the input
    # connectivity is a function of the symbol, so its first draw's flag holds for all
    distinct_bits = np.unpackbits(packed[first], axis=1, count=n // 2).astype(bool)
    lam0, other, types, deviations = _symbol_stats(distinct_bits, accepted[first], n, tol)
    unc_lam0, unc_other = lam0[inverse], other[inverse]
    accepted_symbol = inverse[accepted]
    types, deviations = types[accepted_symbol], deviations[accepted_symbol]
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
    bits = bits[_connected(bits, n)]
    _, phase = character_phases(AbelianGroupSpec((n,)))
    lams = circulant_eigenvalues(_symbol_values(bits, n), phase, n)
    return _histogram(_class_labels(lams, tol).max(axis=1) + 1)


def exhaustive_expectations(n: int) -> dict[str, float]:
    """Exact ensemble expectations by enumerating all 2^floor(n/2) symbols."""
    bits = _all_symbol_bits(n)
    connected = _connected(bits, n)
    _, phase = character_phases(AbelianGroupSpec((n,)))
    lams = circulant_eigenvalues(_symbol_values(bits, n), phase, n)
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
    doc = {"schema": SCHEMA}
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
