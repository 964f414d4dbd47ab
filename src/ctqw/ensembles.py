"""Random circulant sampling C(n, 1/2) and ensemble statistics.

Reproducibility contract: trial i draws its coins from the substream
SeedSequence(entropy=seed, spawn_key=(i,)) + PCG64 + Generator.integers(0, 2),
so results are identical bit for bit across platforms.  A run draws in one
stream of rounds.  Substreams are seeded _SEED_BATCH trials at a time: the
seed hash, the 128-bit LCG and the coin extraction run as uint64 numpy steps
over every pending trial, bit-identical to numpy's per-trial objects.  A
rejected trial keeps its generator state (and a coin it holds buffered) and
draws again in the next round, beside the next batch, so no round runs on a
few stragglers alone; after the last batch a few drain rounds finish the
trials still pending.  Trials 0, BLOCK_SIZE, 2 BLOCK_SIZE, ... are redrawn
through numpy's own Generator once accepted, to check the stream.  The
one-word spawn key bounds a run at 2**32 trials.

Every statistic is a function of the run table: the distinct rows of orbit
coins drawn and how often each was drawn.  Rounds are merged into it as
they are drawn, so a run holds the table, at most as many draws again, one
batch's round and the pending streams; the statistics then run over blocks
of table rows, each table of a block at most BLOCK_ENTRIES entries.  The
table has at most min(draws, 2**floor(n/2)) rows: it stops growing with the
trial count once the draws repeat symbols, and when 2**floor(n/2) is far
above the draw count nearly every draw is a new row.
Spectra run once per distinct symbol, and every connected one is cut into
degeneracy classes by `spectra._row_classes`, which checks its lambda_a and
lambda_{n-a} for the same bits.  Types and averages run once per distinct
partition of the characters into classes, with loops in a fixed order (no
BLAS).  The partitions repeat far more often than the symbols: the 4000
connected symbols of a 20000-trial run at n = 24 fall into about 200
partitions, and a 20000-trial run at n = 101 into one.  Means and
variances are exact sums rounded once and quantiles follow numpy's linear
rule on the cumulative counts, so no result depends on a summation order.
The exhaustive routes reduce the same table over every symbol, each
counted once.

The model draws the connection coins unconditionally, but downstream walk
machinery needs connected graphs, so disconnected draws are rejected and
redrawn inside the same substream.  Both views are reported: statistics
over accepted samples (conditioned on connectivity) and over all draws
(the unconditioned ensemble the expectation formulas refer to).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .graphs import AbelianGroupSpec, Symbol, generates
from .spectra import (
    BLOCK_ENTRIES,
    DEGENERACY_TOL,
    _roots_of_unity,
    _row_classes,
    character_phases,
    circulant_eigenvalues,
    degeneracy_labels,
)

MAX_RESAMPLE_ATTEMPTS = 1000
BLOCK_SIZE = 4096
MAX_TRIALS = 2**32
_SEED_BATCH = 2 * BLOCK_SIZE


def _symbol_values(bits: np.ndarray, n: int) -> np.ndarray:
    """Rows of coins on the orbits {j, n-j}, j = 1..n//2, as symbol values on Z_n."""
    m = n // 2
    vals = np.zeros((len(bits), n), dtype=bool)
    vals[:, 1 : m + 1] = bits
    vals[:, n - m :][:, ::-1] |= bits
    return vals


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


def _partition_keys(labels: np.ndarray) -> np.ndarray:
    """Each row's partition of the characters into classes as one fixed-width
    key: every character labelled with the smallest character of its class.

    The characters are written into their class's slot from the last to the
    first, so each slot ends holding its class's smallest character.
    """
    rows, n = labels.shape
    smallest = np.empty(labels.shape, dtype=np.min_scalar_type(n - 1))  # per row and class
    every_row = np.arange(rows)
    for a in range(n - 1, -1, -1):
        smallest[every_row, labels[:, a]] = a
    keys = np.take_along_axis(smallest, labels, axis=1)
    return keys.view(np.dtype((np.void, keys.itemsize * n))).ravel()


class _PartitionTable:
    """The type and `_uniform_deviation` of every distinct class partition
    of the characters seen so far in a run, sorted by `_partition_keys`.

    The deviation reads the labels only through labels == roll(labels, d),
    and a row's arithmetic does not depend on the rows sharing its batch, so
    every row of a partition gets the result of its first row in the run bit
    for bit.  The table grows by the partitions a block adds, so its size is
    bounded by the number of distinct partitions in the run.
    """

    def __init__(self, n: int):
        self.keys = _partition_keys(np.empty((0, n), dtype=np.int64))
        self.types, self.deviations = np.empty(0, dtype=np.int64), np.empty(0)

    def stats(self, labels: np.ndarray, phase: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per row of class labels: the type and the deviation, computed only
        for the partitions the table does not hold yet."""
        distinct, first, inverse = np.unique(
            _partition_keys(labels), return_index=True, return_inverse=True)
        slot = np.searchsorted(self.keys, distinct)
        new = slot == np.searchsorted(self.keys, distinct, side="right")
        rows = labels[first[new]]
        self.keys = np.insert(self.keys, slot[new], distinct[new])
        self.types = np.insert(self.types, slot[new], rows.max(axis=1) + 1)
        self.deviations = np.insert(self.deviations, slot[new], _uniform_deviation(rows, phase))
        at = np.searchsorted(self.keys, distinct)[inverse.ravel()]
        return self.types[at], self.deviations[at]


# SeedSequence's hash constants and PCG64's 128-bit LCG multiplier as numpy
# defines them (bit_generator.pyx, pcg64.h).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT_HI, _PCG_MULT_LO = 2549297995355413924, 4865540595714422341
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4


# The uint32 and uint64 steps below update their own temporaries in place: on
# arrays of a few thousand entries, allocating a new array per step costs about
# as much as the arithmetic.


def _hashmix(value: np.ndarray, hash_const: int, mult: int) -> tuple[np.ndarray, int]:
    """SeedSequence's hashmix on a uint32 array; the hash constant is a Python int."""
    next_const = hash_const * mult & _MASK32
    value = value ^ np.uint32(hash_const)
    value *= np.uint32(next_const)
    value ^= value >> 16
    return value, next_const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = y * np.uint32(_MIX_MULT_R)
    np.subtract(x * np.uint32(_MIX_MULT_L), result, out=result)
    result ^= result >> 16
    return result


@functools.lru_cache(maxsize=16)
def _entropy_pool(entropy: int) -> tuple[tuple[np.ndarray, ...], int]:
    """SeedSequence's pool and hash constant after every entropy word: the
    part of the seeding that all substreams of a run share, as read-only
    one-element uint32 arrays.

    The entropy words are padded to the pool size because a spawn key is
    present, so the key is always the last word hashed and the only one
    that differs between trials.
    """
    words = [np.array([entropy >> s & _MASK32], dtype=np.uint32)
             for s in range(0, max(entropy.bit_length(), 1), 32)]
    words += [np.zeros(1, dtype=np.uint32)] * (_POOL_SIZE - len(words))
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
        hash_const = _mix_in(pool, src, hash_const)
    for word in pool:
        word.flags.writeable = False
    return tuple(pool), hash_const


def _mix_in(pool: list[np.ndarray], src: np.ndarray, hash_const: int) -> int:
    """Hash `src` into every word of `pool` in place; returns the next hash constant."""
    for dst in range(_POOL_SIZE):
        word, hash_const = _hashmix(src, hash_const, _MULT_A)
        pool[dst] = _mix(pool[dst], word)
    return hash_const


def _seed_words(entropy: int, keys: np.ndarray) -> list[np.ndarray]:
    """generate_state(4, uint64) of SeedSequence(entropy, spawn_key=(k,)) for
    every uint32 k: four uint64 arrays."""
    shared, hash_const = _entropy_pool(entropy)
    pool = list(shared)
    _mix_in(pool, keys, hash_const)
    hash_const, state = _INIT_B, []
    for j in range(2 * _POOL_SIZE):
        word, hash_const = _hashmix(pool[j % _POOL_SIZE], hash_const, _MULT_B)
        state.append(word.astype(np.uint64))
    for j in range(0, len(state), 2):
        state[j + 1] <<= 32
        state[j + 1] |= state[j]
    return state[1::2]


def _mulhi64(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of a * b for a uint64 array, from 32-bit limbs."""
    a0, a1 = a & _MASK32, a >> 32
    b0, b1 = np.uint64(b & _MASK32), np.uint64(b >> 32)
    p01, p10 = a0 * b1, a1 * b0
    a0 *= b0  # a0 b0, then the sum of the middle column
    a0 >>= 32
    a0 += p01 & _MASK32
    a0 += p10 & _MASK32
    a1 *= b1  # a1 b1, then every carry into the high word
    for carry in (p01, p10, a0):
        carry >>= 32
        a1 += carry
    return a1


def _add128(hi, lo, add_hi, add_lo):
    """(hi, lo) + (add_hi, add_lo) mod 2**128, in place on hi and lo."""
    lo += add_lo
    hi += add_hi
    hi += lo < add_lo
    return hi, lo


def _lcg_step(hi, lo, inc_hi, inc_lo):
    """state * multiplier + inc mod 2**128, on (hi, lo) uint64 arrays."""
    new_hi = _mulhi64(lo, _PCG_MULT_LO)
    new_hi += hi * np.uint64(_PCG_MULT_LO)
    new_hi += lo * np.uint64(_PCG_MULT_HI)
    return _add128(new_hi, lo * np.uint64(_PCG_MULT_LO), inc_hi, inc_lo)


class _Substreams:
    """PCG64(SeedSequence(entropy, spawn_key=(k,))) for a vector of trial
    keys k < 2**32, advanced together as (hi, lo) uint64 arrays.  Streams
    join with `add` and leave with `keep`; each carries its key, the rows it
    has drawn and a coin it may hold buffered.

    Seeding follows numpy (O'Neill, HMC-CS-2014-0905): state = 0,
    inc = 2 seq + 1, step, state += seed, step.
    """

    def __init__(self, entropy: int):
        self.entropy = entropy
        self.keys, self.draws = np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        # held: the last call left a coin of a 32-bit word buffered, its value in spare
        self.held, self.spare = np.empty(0, dtype=bool), np.empty(0, dtype=bool)
        self.state = self.inc = (np.empty(0, dtype=np.uint64),) * 2

    def add(self, keys: np.ndarray) -> None:
        """Seed the streams of the trial `keys` and append them."""
        seed_hi, seed_lo, seq_hi, seq_lo = _seed_words(self.entropy, keys.astype(np.uint32))
        inc = (seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1)
        state = _lcg_step(*_add128(seed_hi, seed_lo, *inc), *inc)
        self.keys = np.concatenate([self.keys, keys])
        self.draws = np.concatenate([self.draws, np.zeros(len(keys), dtype=np.int64)])
        self.held, self.spare = (np.concatenate([a, np.zeros(len(keys), dtype=bool)])
                                 for a in (self.held, self.spare))
        self.state = tuple(map(np.concatenate, zip(self.state, state)))
        self.inc = tuple(map(np.concatenate, zip(self.inc, inc)))

    def coins(self, count: int) -> np.ndarray:
        """(streams, count) bool: the next Generator.integers(0, 2, size=count) of each stream.

        Each 64-bit XSL-RR output rotr(hi ^ lo, hi >> 58) is two 32-bit words,
        low half first, and a coin is bit 31 of its word: Lemire's bounded
        method (TOMACS 2019) never rejects at range 2.  A word left over is
        buffered for the next call, as numpy buffers it: a stream holding one
        reads it first and, when count is odd, takes one output fewer.
        """
        outputs = -(-count // 2)
        # the coin a stream holds, then the two words of each output
        words = np.empty((len(self.keys), 1 + 2 * outputs), dtype=bool)
        words[:, 0] = self.spare
        for step in range(outputs):
            hi, lo = state = _lcg_step(*self.state, *self.inc)
            rot = hi >> 58
            out = hi ^ lo
            left = out << (64 - rot & 63)
            out >>= rot
            out |= left
            words[:, 1 + 2 * step] = out & (1 << 31)
            words[:, 2 + 2 * step] = out >> 63
            if count % 2 and step == outputs - 1:  # a held stream stops one output short
                state = tuple(np.where(self.held, *pair) for pair in zip(self.state, state))
            self.state = state
        rows = words[:, 1 : count + 1]
        if self.held.any():
            rows = np.where(self.held[:, None], words[:, :count], rows)
        self.spare = words[:, count + count % 2]
        self.held = self.held ^ (count % 2 == 1)
        self.draws += 1
        return rows

    def keep(self, mask: np.ndarray) -> None:
        at = np.flatnonzero(mask)
        self.keys, self.draws, self.held, self.spare = (
            a[at] for a in (self.keys, self.draws, self.held, self.spare))
        self.state = tuple(s[at] for s in self.state)
        self.inc = tuple(s[at] for s in self.inc)


def _check_stream(n: int, entropy: int, trial: int, bits: np.ndarray) -> None:
    """Redraw `trial`'s coin rows through numpy's own Generator; raise on any mismatch."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy, spawn_key=(trial,))))
    expected = np.array([rng.integers(0, 2, size=n // 2) for _ in bits], dtype=bool)
    if not np.array_equal(bits, expected):
        raise RuntimeError(f"vectorized PCG64 stream of trial {trial} differs from numpy's")


def _draw_rounds(n: int, entropy, trials: range):
    """Every draw of the given trials, one round at a time: per round the
    trial of each row, its orbit coins, and which rows were accepted.

    Trial i redraws from its own substream until connected.  Substreams are
    seeded _SEED_BATCH trials at a time, and each batch's round also draws
    for every trial rejected so far, which keeps its generator state; drain
    rounds then finish the trials still pending.  Rows come in no trial
    order, each trial's in draw order.  Trials start, start + BLOCK_SIZE, ...
    are checked against numpy's Generator once accepted.
    """
    # orbit {j, n-j} generates what j does: `generates` reads a row through j = 1..n//2
    group, reps = AbelianGroupSpec((n,)), np.arange(1, n // 2 + 1)
    streams = _Substreams(int(entropy))
    spot = {}  # the rows so far of each checked trial

    def draw():
        bits = streams.coins(n // 2)
        ok = generates(group, bits, reps)
        owner = streams.keys
        for i in np.flatnonzero((owner - trials.start) % BLOCK_SIZE == 0).tolist():
            trial = int(owner[i])
            spot.setdefault(trial, []).append(bits[i])
            if ok[i]:
                _check_stream(n, entropy, trial, np.array(spot.pop(trial)))
        streams.keep(~ok)
        if streams.draws.max(initial=0) >= MAX_RESAMPLE_ATTEMPTS:
            raise RuntimeError(f"no connected symbol after {MAX_RESAMPLE_ATTEMPTS} draws (n={n})")
        return owner, bits, ok

    for start in range(trials.start, trials.stop, _SEED_BATCH):
        streams.add(np.arange(start, min(start + _SEED_BATCH, trials.stop)))
        yield draw()
    while streams.keys.size:
        yield draw()


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


def _symbol_stats(packed: np.ndarray, draws: np.ndarray, n: int, tol: float):
    """The run table of distinct rows of orbit coins, bit-packed in `packed`
    and drawn `draws` times each: per row the accepted count, lambda_0, the
    mean of the other eigenvalues, the type and the deviation, in blocks of
    max(1, BLOCK_ENTRIES // n) rows, each unpacked only for its block, so no
    table of the block holds more than BLOCK_ENTRIES float64 entries.

    Connectivity is a function of the symbol, so every draw of a connected
    row was accepted and none of another.  Types and deviations are computed
    for connected rows only, once per distinct class partition of the run
    (`_PartitionTable`), and are 0 on the others; the cut
    (`spectra._row_classes`) refuses a connected row whose lambda_a and
    lambda_{n-a} differ.  Every row's arithmetic is independent of the
    rows sharing its block, so results do not depend on how rows are grouped.
    """
    group, reps = AbelianGroupSpec((n,)), np.arange(1, n // 2 + 1)  # as in `_draw_rounds`
    _, phase = character_phases(group)
    size = len(packed)
    connected, lam0, other = np.empty(size, dtype=bool), np.empty(size), np.empty(size)
    types, deviations = np.zeros(size, dtype=np.int64), np.zeros(size)
    partitions = _PartitionTable(n)
    step = max(1, BLOCK_ENTRIES // n)
    for start in range(0, size, step):
        rows = slice(start, start + step)
        bits = np.unpackbits(packed[rows], axis=1, count=n // 2).astype(bool)
        lams = circulant_eigenvalues(group, _symbol_values(bits, n))
        lam0[rows], other[rows] = lams[:, 0], lams[:, 1:].mean(axis=1)
        connected[rows] = ok = generates(group, bits, reps)
        lams = lams[ok]  # the cut reads connected rows; the block's others are freed first
        labels = _row_classes(group, lams, tol)[0]
        kept = start + np.flatnonzero(ok)
        types[kept], deviations[kept] = partitions.stats(labels, phase)
    return draws * connected, lam0, other, types, deviations


def _merge_counts(keys: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys in sorted order, each with the sum of its counts."""
    order = np.argsort(keys)  # equal keys are merged, so their order does not matter
    keys, counts = keys[order], counts[order]
    first = np.flatnonzero(np.append(True, keys[1:] != keys[:-1]))
    return keys[first], np.add.reduceat(counts, first)


def _draw_table(n: int, entropy: int, trials: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of orbit coins drawn by `trials` trials, bit-packed,
    and how often each was drawn.

    Rounds are merged into the table once they outnumber it.  The table at
    least doubles between merges when most draws are new symbols, so the
    sorting grows as trials * log(trials) whatever the number of distinct
    rows.  A packed row is one fixed-width key, an integer when it fits in
    8 bytes; no result depends on the order of the keys.
    """
    width = -(-(n // 2) // 8)
    size = 8 if width <= 8 else width
    key = np.dtype(np.uint64) if size == 8 else np.dtype(("S", size))
    parts = [(np.empty(0, dtype=key), np.empty(0, dtype=np.int64))]  # the table, then rounds
    pending = 0
    for _, bits, _ in _draw_rounds(n, entropy, range(trials)):
        # np.packbits along rows this short is slow: pad them to whole bytes, pack flat
        padded = np.zeros((len(bits), 8 * width), dtype=bool)
        padded[:, : n // 2] = bits
        rows = np.zeros((len(bits), size), dtype=np.uint8)
        rows[:, :width] = np.packbits(padded).reshape(-1, width)
        parts.append((rows.view(key)[:, 0], np.ones(len(rows), dtype=np.int64)))
        pending += len(rows)
        if pending >= len(parts[0][0]):
            parts, pending = [_merge_counts(*map(np.concatenate, zip(*parts)))], 0
    keys, draws = _merge_counts(*map(np.concatenate, zip(*parts)))
    return keys.view(np.uint8).reshape(len(keys), size), draws


def _exact_moments(values: np.ndarray, counts: np.ndarray) -> tuple[float, float]:
    """Mean and population variance of `values`, each taken `counts` times:
    the exact rationals, each rounded once to the nearest float.

    A finite float is an integer over a power of two, so over the common
    denominator 2**k both sums are Python ints, and int / int rounds once.
    Equal values are merged first, so the Python loops run once per distinct
    value: a few hundred for lambda_0 or the mean of the other eigenvalues
    even in runs with 10**5 to 10**6 distinct symbols.
    """
    values, counts = _merge_counts(values, counts)
    ratios = [v.as_integer_ratio() for v in values.tolist()]
    k = max(den.bit_length() for _, den in ratios) - 1
    nums = [num << (k + 1 - den.bit_length()) for num, den in ratios]
    counts = counts.tolist()
    total = sum(counts)
    s1 = sum(c * x for c, x in zip(counts, nums))
    s2 = sum(c * x * x for c, x in zip(counts, nums))
    return s1 / (total << k), (total * s2 - s1 * s1) / (total * total << 2 * k)


def _count_quantiles(values: np.ndarray, counts: np.ndarray, qs) -> list[float]:
    """np.quantile(np.repeat(values, counts), qs) without the repeat.

    numpy's default linear rule, step for step: the virtual index (N-1) q,
    its floor and the next index (both the last at or past N-1), and
    numpy's _lerp, which interpolates down from the upper value once the
    weight reaches 1/2.  A position is found in the cumulative counts of
    the sorted values.
    """
    order = np.argsort(values, kind="stable")
    values, ends = values[order].tolist(), np.cumsum(counts[order])
    last = int(ends[-1]) - 1
    out = []
    for q in qs:
        index = last * q
        below = -1 if index >= last else math.floor(index)  # -1: numpy's index of the last
        t = index - below
        lo, hi = (values[np.searchsorted(ends, p, side="right")]
                  for p in ((last, last) if below < 0 else (below, below + 1)))
        diff = hi - lo
        out.append(hi - diff * (1 - t) if t >= 0.5 else lo + diff * t)
    return out


def _count_histogram(types: np.ndarray, counts: np.ndarray) -> dict[int, int]:
    """{type: summed count} over the types with a nonzero count, in type order."""
    return {t: c for t, c in zip(*(a.tolist() for a in _merge_counts(types, counts))) if c}


def _run_entropy(n: int, trials: int, seed: int) -> int:
    """The entropy of a run's substreams, after checking its arguments."""
    if n < 3:
        raise ValueError("random circulants require n >= 3")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if trials > MAX_TRIALS:
        raise ValueError(f"trials must be <= 2**32 (one uint32 spawn key per trial), got {trials}")
    return np.random.SeedSequence(seed).entropy


def random_circulants(n: int, count: int, seed: int) -> list[Symbol]:
    """The connected symbols accepted by trials 0..count-1 of C(n, 1/2) at
    `seed`, in trial order: the draws `ensemble_stats(n, count, seed)` reduces.

    They are not checked again: orbit coins make every symbol symmetric and
    leave out 0, and `generates` accepted only generating ones."""
    entropy, group = _run_entropy(n, count, seed), AbelianGroupSpec((n,))
    accepted = np.empty((count, n // 2), dtype=bool)
    for owner, bits, ok in _draw_rounds(n, entropy, range(count)):
        accepted[owner[ok]] = bits[ok]  # rows in trial order
    return [Symbol._proven(group, values) for values in _symbol_values(accepted, n)]


def ensemble_stats(n: int, trials: int, seed: int, tol: float = DEGENERACY_TOL) -> EnsembleStats:
    """Seeded Monte Carlo over C(n, 1/2) with closed-form spectra.

    Draws run round by round into the run table of distinct symbols and
    their draw counts; every statistic is a reduction of that table.
    """
    entropy = _run_entropy(n, trials, seed)
    degeneracy_labels(np.zeros(1), tol)  # rejects a bad tol before any drawing
    packed, draws = _draw_table(n, entropy, trials)
    accepted, lam0, other, types, deviations = _symbol_stats(packed, draws, n, tol)
    if int(accepted.sum()) != trials:
        raise RuntimeError("accepted draws do not sum to the trial count")
    total = int(draws.sum())
    mean_lam0, var_lam0 = _exact_moments(lam0, accepted)
    mean_other, var_other = _exact_moments(other, accepted)
    unc_lam0, unc_var_lam0 = _exact_moments(lam0, draws)
    unc_other, unc_var_other = _exact_moments(other, draws)
    q10, q50, q90 = _count_quantiles(deviations, accepted, (0.1, 0.5, 0.9))
    return EnsembleStats(
        n=n,
        trials=trials,
        seed=seed,
        rejections=total - trials,
        total_draws=total,
        rejection_rate=(total - trials) / total,
        mean_lambda0=mean_lam0,
        var_lambda0=var_lam0,
        mean_lambda_other=mean_other,
        var_lambda_other=var_other,
        mean_lambda0_unconditional=unc_lam0,
        se_lambda0_unconditional=math.sqrt(unc_var_lam0) / math.sqrt(total),
        mean_lambda_other_unconditional=unc_other,
        se_lambda_other_unconditional=math.sqrt(unc_var_other) / math.sqrt(total),
        type_histogram=_count_histogram(types, accepted),
        deviation_quantiles={"q10": q10, "q50": q50, "q90": q90},
    ).validate()


def _exhaustive_table(n: int, tol: float):
    """The run table of all 2^floor(n/2) symmetric symbols on Z_n, each drawn
    once: draw counts, then `_symbol_stats`.  At most 1024 rows, one block."""
    if not 3 <= n <= 20:
        raise ValueError("exhaustive enumeration is supported for 3 <= n <= 20")
    m = n // 2
    draws = np.ones(2**m, dtype=np.int64)
    bits = (np.arange(2**m)[:, None] >> np.arange(m)) & 1 == 1
    return draws, *_symbol_stats(np.packbits(bits, axis=1), draws, n, tol)


def type_spectrum_exhaustive(n: int, tol: float = DEGENERACY_TOL) -> dict[int, int]:
    """Exact type histogram over all connected symbols; oracle for the sampler."""
    _, accepted, _, _, types, _ = _exhaustive_table(n, tol)
    return _count_histogram(types, accepted)


def exhaustive_expectations(n: int) -> dict[str, float]:
    """Exact ensemble expectations by enumerating all 2^floor(n/2) symbols."""
    draws, accepted, lam0, other, _, _ = _exhaustive_table(n, DEGENERACY_TOL)
    return {
        "p_connected": int(accepted.sum()) / len(draws),
        "mean_lambda0": _exact_moments(lam0, draws)[0],
        "mean_lambda_other": _exact_moments(other, draws)[0],
        "mean_lambda0_connected": _exact_moments(lam0, accepted)[0],
        "mean_lambda_other_connected": _exact_moments(other, accepted)[0],
    }
