import dataclasses
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ctqw import ensembles, graphs
from ctqw.cli import main
from ctqw.mixing import total_variation, uniform_target
from ctqw.ensembles import (
    BLOCK_SIZE,
    MAX_RESAMPLE_ATTEMPTS,
    MAX_TRIALS,
    EnsembleStats,
    ensemble_stats,
    exhaustive_expectations,
    random_circulants,
    type_spectrum_exhaustive,
)
from ctqw.spectra import (
    DEGENERACY_TOL,
    _roots_of_unity,
    _row_classes,
    abelian_circulant_eigensystem,
    character_phases,
    circulant_eigenvalues,
)
from ctqw.walk import average_distribution
from tests.golden import render

DATA = Path(__file__).parent / "data"


def _symmetric_cosine_table(n):
    return _roots_of_unity(n).real


def _ref_moments(values):
    """Mean and population variance of per-draw values as exact rationals,
    each rounded once."""
    xs = [Fraction(float(x)) for x in values]
    mean = sum(xs, Fraction(0)) / len(xs)
    return float(mean), float(sum((x - mean) ** 2 for x in xs) / len(xs))


# Reference oracle: the one-trial-at-a-time route the batched pipeline replaced.


def _ref_draw(n, rng):
    bits = rng.integers(0, 2, size=n // 2)
    vals = np.zeros(n, dtype=bool)
    for j in range(1, n // 2 + 1):
        if bits[j - 1]:
            vals[j] = vals[n - j] = True
    return vals


def _ref_connected(n, vals):
    support = np.flatnonzero(vals)
    g = n
    for x in support:
        g = math.gcd(g, int(x))
    return support.size > 0 and g == 1


def _orbit_generates(bits, n):
    """`graphs.generates` on rows of orbit coins, as the sampler calls it."""
    return graphs.generates(graphs.AbelianGroupSpec((n,)), bits, np.arange(1, n // 2 + 1))


def _ref_eigenvalues(vals, cos_table):
    n = len(vals)
    support = np.flatnonzero(vals)
    return cos_table[(support[:, None] * np.arange(n)[None, :]) % n].sum(axis=0)


def _ref_classes(lams, tol):
    order = np.argsort(-lams, kind="stable")
    sorted_vals = lams[order]
    classes, start = [], 0
    for j in range(1, len(lams)):
        if sorted_vals[j - 1] - sorted_vals[j] > tol:
            classes.append(order[start:j])
            start = j
    classes.append(order[start:])
    return classes


def _ref_trial(n, ss, cos_table, char_table, tol):
    rng = np.random.Generator(np.random.PCG64(ss))
    lam0, other = [], []
    for _ in range(MAX_RESAMPLE_ATTEMPTS):
        vals = _ref_draw(n, rng)
        lams = _ref_eigenvalues(vals, cos_table)
        lam0.append(float(lams[0]))
        other.append(float(lams[1:].mean()))
        if _ref_connected(n, vals):
            classes = _ref_classes(lams, tol)
            assert any(len(c) > 1 for c in classes)
            pbar = np.zeros(n)
            for cls in classes:
                proj = char_table[:, cls].sum(axis=1)
                pbar += (proj * proj.conj()).real
            pbar /= n * n
            return lam0, other, len(classes), float(np.abs(pbar - 1.0 / n).sum())
    raise AssertionError("no connected draw")


def _ref_ensemble_stats(n, trials, seed, tol=DEGENERACY_TOL):
    cos_table = _symmetric_cosine_table(n)
    char_table = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
    results = [_ref_trial(n, ss, cos_table, char_table, tol)
               for ss in np.random.SeedSequence(seed).spawn(trials)]
    unc_lam0 = np.array([x for r in results for x in r[0]])
    unc_other = np.array([x for r in results for x in r[1]])
    acc_lam0 = np.array([r[0][-1] for r in results])
    acc_other = np.array([r[1][-1] for r in results])
    types = {}
    for r in results:
        types[r[2]] = types.get(r[2], 0) + 1
    q10, q50, q90 = np.quantile([r[3] for r in results], [0.1, 0.5, 0.9])
    total = len(unc_lam0)
    (mean_lam0, var_lam0), (mean_other, var_other) = _ref_moments(acc_lam0), _ref_moments(acc_other)
    (unc_mean_lam0, unc_var_lam0), (unc_mean_other, unc_var_other) = (
        _ref_moments(unc_lam0), _ref_moments(unc_other))
    return {
        "n": n, "trials": trials, "seed": seed,
        "rejections": total - trials, "total_draws": total,
        "rejection_rate": (total - trials) / total,
        "mean_lambda0": mean_lam0, "var_lambda0": var_lam0,
        "mean_lambda_other": mean_other, "var_lambda_other": var_other,
        "mean_lambda0_unconditional": unc_mean_lam0,
        "se_lambda0_unconditional": math.sqrt(unc_var_lam0) / math.sqrt(total),
        "mean_lambda_other_unconditional": unc_mean_other,
        "se_lambda_other_unconditional": math.sqrt(unc_var_other) / math.sqrt(total),
        "type_histogram": dict(sorted(types.items())),
        "deviation_quantiles": {"q10": float(q10), "q50": float(q50), "q90": float(q90)},
    }


def _ref_type_spectrum(n, tol=DEGENERACY_TOL):
    cos_table = _symmetric_cosine_table(n)
    hist = {}
    for mask in range(2 ** (n // 2)):
        vals = np.zeros(n, dtype=bool)
        for j in range(1, n // 2 + 1):
            if mask >> (j - 1) & 1:
                vals[j] = vals[n - j] = True
        if _ref_connected(n, vals):
            t = len(_ref_classes(_ref_eigenvalues(vals, cos_table), tol))
            hist[t] = hist.get(t, 0) + 1
    return dict(sorted(hist.items()))


@pytest.mark.parametrize("n,seed", [(3, 1), (4, 2), (6, 5), (7, 9), (12, 3), (24, 11)])
def test_ensemble_stats_matches_reference_oracle(n, seed):
    trials = BLOCK_SIZE + 1
    got = dataclasses.asdict(ensemble_stats(n, trials, seed))
    ref = _ref_ensemble_stats(n, trials, seed)
    assert got["rejections"] > 0
    got_q, ref_q = got.pop("deviation_quantiles"), ref.pop("deviation_quantiles")
    assert got == ref
    assert got_q.keys() == ref_q.keys()
    assert all(abs(got_q[k] - ref_q[k]) <= 1e-12 for k in ref_q)


def test_exhaustive_histograms_match_reference_oracle():
    for n in range(3, 21):
        assert type_spectrum_exhaustive(n) == _ref_type_spectrum(n), n


def _ref_random_circulant(n, seed, trial):
    """Trial `trial`'s symbol from numpy's own objects, redrawn until connected."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(trial,))))
    for _ in range(MAX_RESAMPLE_ATTEMPTS):
        vals = _ref_draw(n, rng)
        if _ref_connected(n, vals):
            return vals
    raise AssertionError("no connected draw")


def test_sampler_is_deterministic_and_platform_stable():
    # every symbol is numpy's own per-trial draw, also across a block boundary
    for n in (3, 4, 7, 8, 24):
        for seed in (123, 2**64 + 9):
            symbols = random_circulants(n, 50, seed)
            assert len(symbols) == 50
            for i, sym in enumerate(symbols):
                assert sym.group.factors == (n,)
                assert np.array_equal(sym.values, _ref_random_circulant(n, seed, i)), (n, seed, i)
    symbols = random_circulants(8, BLOCK_SIZE + 2, 31)
    for i in range(BLOCK_SIZE - 2, BLOCK_SIZE + 2):
        assert np.array_equal(symbols[i].values, _ref_random_circulant(8, 31, i)), i


def test_random_circulants_are_the_draws_the_ensemble_reduces():
    n, trials, seed = 7, BLOCK_SIZE + 1, 5
    degrees = [int(sym.values.sum()) for sym in random_circulants(n, trials, seed)]
    stats = ensemble_stats(n, trials, seed)
    assert (stats.mean_lambda0, stats.var_lambda0) == _ref_moments(degrees)


def test_sampler_produces_valid_connected_symbols():
    for n in (3, 5, 8, 12):
        for sym in random_circulants(n, 5, 1):
            graphs.Symbol(sym.group, sym.values.copy())  # the check the sampler skips
            graphs._check_adjacency(graphs.build_abelian_circulant(sym).adjacency)


def test_sampler_n3_has_single_outcome():
    # only one nontrivial orbit; the empty draw is rejected and resampled
    for seed in range(6):
        assert [list(sym.support) for sym in random_circulants(3, 4, seed)] == [[1, 2]] * 4


def _refuses_before_drawing(monkeypatch, n, count, seed):
    def no_draws(*args):
        raise AssertionError("drew before refusing")

    monkeypatch.setattr(ensembles, "_draw_rounds", no_draws)
    with pytest.raises(ValueError):
        random_circulants(n, count, seed)
    with pytest.raises(ValueError):
        ensemble_stats(n, count, seed)


def test_sampler_rejects_small_n(monkeypatch):
    for n in (2, 1, 0):
        _refuses_before_drawing(monkeypatch, n, 1, 0)


def test_random_circulants_refuse_what_the_ensemble_refuses(monkeypatch):
    for count, seed in ((0, 0), (MAX_TRIALS + 1, 0), (1, -1)):
        _refuses_before_drawing(monkeypatch, 7, count, seed)


def test_uniform_deviation_equals_the_average_distribution_route():
    # the ensemble's diagonal-shift formula for ||Pbar - U|| against walk's
    # class projections, on the symbols of C(n, 1/2)
    for n in [*range(3, 41), 64, 101, 128]:
        symbols = random_circulants(n, 40, n)
        group = graphs.AbelianGroupSpec((n,))
        _, phase = character_phases(group)
        lams = circulant_eigenvalues(group, np.array([sym.values for sym in symbols]))
        got = ensembles._uniform_deviation(_row_classes(group, lams, DEGENERACY_TOL)[0], phase)
        ref = [total_variation(average_distribution(abelian_circulant_eigensystem(sym), 0),
                               uniform_target(n)) for sym in symbols]
        assert np.max(np.abs(got - ref)) <= 1e-12, n


def test_exhaustive_type_histograms():
    assert type_spectrum_exhaustive(3) == {2: 1}
    assert type_spectrum_exhaustive(4) == {2: 1, 3: 1}
    assert type_spectrum_exhaustive(5) == {2: 1, 3: 2}
    with pytest.raises(ValueError):
        type_spectrum_exhaustive(21)


def test_exhaustive_expectations_match_formulas():
    # unconditional means over all draws reproduce (n-1)/2 and -1/2
    for n in (5, 7, 9, 12):
        exact = exhaustive_expectations(n)
        expected_lam0 = (n - 1) / 2
        assert abs(exact["mean_lambda0"] - expected_lam0) < 1e-12
        assert abs(exact["mean_lambda_other"] + 0.5) < 1e-12


def test_ensemble_stats_fields_and_determinism():
    a = ensemble_stats(7, 400, seed=9)
    b = ensemble_stats(7, 400, seed=9)
    assert a == b
    assert sum(a.type_histogram.values()) == 400
    assert all(2 <= t <= 7 for t in a.type_histogram)
    assert a.total_draws == a.trials + a.rejections
    assert 0.0 <= a.rejection_rate < 1.0
    assert set(a.deviation_quantiles) == {"q10", "q50", "q90"}
    with pytest.raises(ValueError):
        ensemble_stats(7, 0, seed=1)


@pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan"), float("inf")])
def test_bad_tol_is_rejected(monkeypatch, tol):
    def no_draws(*args):
        raise AssertionError("drew before refusing")

    monkeypatch.setattr(ensembles, "_draw_rounds", no_draws)
    with pytest.raises(ValueError, match="tol"):
        ensemble_stats(7, 10, seed=1, tol=tol)
    with pytest.raises(ValueError):
        type_spectrum_exhaustive(7, tol=tol)


def test_conditional_vs_unconditional_means():
    stats = ensemble_stats(7, 4000, seed=11)
    exact = exhaustive_expectations(7)
    # conditional mean concentrates on the connected-ensemble value 24/7
    assert abs(stats.mean_lambda0 - exact["mean_lambda0_connected"]) < 0.2
    # unconditional mean (all draws) concentrates on (n-1)/2 = 3
    assert abs(stats.mean_lambda0_unconditional - 3.0) < 4 * stats.se_lambda0_unconditional


def test_every_trial_has_zero_gap():
    stats = ensemble_stats(5, 500, seed=3)
    assert all(t < 5 for t in stats.type_histogram), "degenerate pair on every draw"


def test_mc_frequencies_match_exhaustive_small_n():
    hist = type_spectrum_exhaustive(6)
    total = sum(hist.values())
    stats = ensemble_stats(6, 4000, seed=21)
    for t, cnt in hist.items():
        p = cnt / total
        se = math.sqrt(p * (1 - p) / stats.trials)
        freq = stats.type_histogram.get(t, 0) / stats.trials
        assert abs(freq - p) <= 4 * se + 1e-9
    assert set(stats.type_histogram) <= set(hist)


def test_stats_json():
    import json

    doc = json.loads(render(["ensemble", "--n", "5", "--trials", "50", "--seed", "2"]))
    assert doc["schema"] == "ctqw/1"
    assert doc["n"] == 5 and doc["trials"] == 50
    assert "type_histogram" in doc and "deviation_quantiles" in doc


# Reference for the streaming draw: numpy's own objects, one Generator per
# trial, rows in trial-then-draw order.


def _ref_draw_block(n, entropy, trials):
    owners, rows = [], []
    for i in trials:
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy, spawn_key=(i,))))
        for _ in range(MAX_RESAMPLE_ATTEMPTS):
            bits = rng.integers(0, 2, size=(1, n // 2)).astype(bool)
            owners.append(i)
            rows.append(bits[0])
            if _orbit_generates(bits, n)[0]:
                break
    return np.array(rows), np.array(owners)


def _draws_in_trial_order(n, entropy, trials):
    """Every row `ensembles._draw_rounds` draws for `trials`, in trial-then-draw
    order, and which rows were accepted."""
    owner, bits, ok = (np.concatenate(a) for a in zip(*ensembles._draw_rounds(n, entropy, trials)))
    order = np.argsort(owner, kind="stable")  # rounds come in draw order
    return bits[order], ok[order]


ENTROPIES = {
    "1word": 7,
    "2words": 2**32 + 5,
    "4words": 2**127 + 3,
    "5words": 2**128 + 11,
    "7words": 2**200 + 1,
    "random": np.random.SeedSequence().entropy,
}


@pytest.mark.parametrize("n", [3, 4, 5, 7, 24, 365])
@pytest.mark.parametrize("entropy", ENTROPIES.values(), ids=ENTROPIES.keys())
def test_block_stream_is_bit_identical_to_numpy(n, entropy):
    assert 1 <= -(-entropy.bit_length() // 32) <= 7
    for start in (0, BLOCK_SIZE, MAX_TRIALS - 40):
        trials = range(start, start + 40)
        bits, accepted = _draws_in_trial_order(n, entropy, trials)
        ref_bits, owners = _ref_draw_block(n, entropy, trials)
        assert np.array_equal(bits, ref_bits), (entropy, n, start)
        assert np.array_equal(accepted, np.append(owners[1:] != owners[:-1], True))


@pytest.mark.parametrize("n", [4, 6, 8])
def test_block_stream_matches_numpy_across_redraws(n):
    # odd and even n//2, half or more of the draws disconnected
    trials = range(3 * BLOCK_SIZE, 3 * BLOCK_SIZE + 200)
    bits, accepted = _draws_in_trial_order(n, 12345, trials)
    ref_bits, owners = _ref_draw_block(n, 12345, trials)
    assert np.bincount(owners - trials.start).max() >= 4
    assert np.array_equal(bits, ref_bits)
    assert accepted.sum() == len(trials)


def test_spot_check_catches_a_corrupted_coin(monkeypatch, capsys):
    coins = ensembles._Substreams.coins

    def corrupt(self, count):
        bits = coins(self, count)
        bits[0, -1] = ~bits[0, -1]
        return bits

    monkeypatch.setattr(ensembles._Substreams, "coins", corrupt)
    with pytest.raises(RuntimeError, match="differs from numpy"):
        ensemble_stats(7, 10, seed=1)
    assert main(["ensemble", "--n", "7", "--trials", "10", "--seed", "1"]) == 2
    assert "differs from numpy" in capsys.readouterr().err


@pytest.mark.parametrize("n,trials", [(11, 9000), (7, 2 * ensembles._SEED_BATCH + 5)])
def test_spot_check_runs_on_the_first_trial_of_every_block(monkeypatch, n, trials):
    # trials 0, BLOCK_SIZE, 2 BLOCK_SIZE, ..., each once with all its rows,
    # whichever seeding batch and round they fall in
    checked = []
    real = ensembles._check_stream

    def spy(n, entropy, trial, bits):
        checked.append(trial)
        real(n, entropy, trial, bits)

    monkeypatch.setattr(ensembles, "_check_stream", spy)
    ensemble_stats(n, trials, seed=2)
    assert sorted(checked) == list(range(0, trials, BLOCK_SIZE))
    checked.clear()
    random_circulants(n, trials, 2)
    assert sorted(checked) == list(range(0, trials, BLOCK_SIZE))
    checked.clear()
    list(ensembles._draw_rounds(n, 12345, range(MAX_TRIALS - 40, MAX_TRIALS)))
    assert checked == [MAX_TRIALS - 40]


@pytest.mark.parametrize("n", [7, 8, 11])
def test_carried_streams_match_numpy_across_batches(monkeypatch, n):
    # small seeding batches, so that most rounds draw for trials rejected in
    # earlier batches beside new ones; when n//2 is odd, streams holding a
    # buffered coin and streams holding none meet in one round
    monkeypatch.setattr(ensembles, "_SEED_BATCH", 64)
    mixed = []
    coins = ensembles._Substreams.coins

    def spy(self, count):
        mixed.append(0 < self.held.sum() < len(self.held))
        return coins(self, count)

    monkeypatch.setattr(ensembles._Substreams, "coins", spy)
    trials = range(BLOCK_SIZE - 100, BLOCK_SIZE + 1500)
    bits, accepted = _draws_in_trial_order(n, 12345, trials)
    ref_bits, owners = _ref_draw_block(n, 12345, trials)
    assert np.array_equal(bits, ref_bits)
    assert np.array_equal(accepted, np.append(owners[1:] != owners[:-1], True))
    assert len(mixed) > len(trials) // 64
    assert any(mixed) == (n // 2 % 2 == 1)


def test_a_sampler_that_never_connects_raises_after_the_redraw_cap(monkeypatch):
    monkeypatch.setattr(ensembles, "_SEED_BATCH", 4)  # trial 0 meets two more batches
    monkeypatch.setattr(ensembles, "generates", lambda group, bits, reps: np.zeros(len(bits), bool))
    rounds = []
    coins = ensembles._Substreams.coins
    monkeypatch.setattr(ensembles._Substreams, "coins",
                        lambda self, count: rounds.append(len(self.keys)) or coins(self, count))
    with pytest.raises(RuntimeError, match=f"no connected symbol after {MAX_RESAMPLE_ATTEMPTS} draws"):
        ensemble_stats(7, 10, seed=1)
    assert len(rounds) == MAX_RESAMPLE_ATTEMPTS and rounds[:3] == [4, 8, 10]


def test_trials_beyond_one_word_spawn_key_are_refused(monkeypatch, capsys):
    def no_draws(*args):
        raise AssertionError("drew before refusing")

    monkeypatch.setattr(ensembles, "_draw_rounds", no_draws)
    with pytest.raises(ValueError, match="2\\*\\*32"):
        ensemble_stats(7, MAX_TRIALS + 1, seed=1)
    assert main(["ensemble", "--n", "7", "--trials", str(MAX_TRIALS + 1), "--seed", "1"]) == 1
    assert "2**32" in capsys.readouterr().err
    # a negative seed is still refused by SeedSequence
    assert main(["ensemble", "--n", "7", "--trials", "10", "--seed", "-1"]) == 1
    assert "non-negative" in capsys.readouterr().err


# Reference for the run table: the per-block route it replaced, which computed
# spectra, classes and deviations for every draw of each block and kept them
# all; moments are exact rationals over the per-draw values.


def _ref_block_ensemble_stats(n, trials, seed, tol=DEGENERACY_TOL):
    group = graphs.AbelianGroupSpec((n,))
    _, phase = character_phases(group)
    entropy = np.random.SeedSequence(seed).entropy
    blocks = []
    for start in range(0, trials, BLOCK_SIZE):
        trial_range = range(start, min(start + BLOCK_SIZE, trials))
        bits, accepted = _draws_in_trial_order(n, entropy, trial_range)
        lams = circulant_eigenvalues(group, ensembles._symbol_values(bits, n))
        labels = _row_classes(group, lams[accepted], tol)[0]
        blocks.append((lams[:, 0], lams[:, 1:].mean(axis=1), accepted,
                       labels.max(axis=1) + 1, ensembles._uniform_deviation(labels, phase)))
    unc_lam0, unc_other, accepted, types, deviations = (np.concatenate(col) for col in zip(*blocks))
    total = len(unc_lam0)
    (mean_lam0, var_lam0), (mean_other, var_other) = (
        _ref_moments(unc_lam0[accepted]), _ref_moments(unc_other[accepted]))
    (unc_mean_lam0, unc_var_lam0), (unc_mean_other, unc_var_other) = (
        _ref_moments(unc_lam0), _ref_moments(unc_other))
    q10, q50, q90 = np.quantile(deviations, [0.1, 0.5, 0.9])
    keys, counts = np.unique(types, return_counts=True)
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
        mean_lambda0_unconditional=unc_mean_lam0,
        se_lambda0_unconditional=math.sqrt(unc_var_lam0) / math.sqrt(total),
        mean_lambda_other_unconditional=unc_mean_other,
        se_lambda_other_unconditional=math.sqrt(unc_var_other) / math.sqrt(total),
        type_histogram={int(k): int(c) for k, c in zip(keys, counts)},
        deviation_quantiles={"q10": float(q10), "q50": float(q50), "q90": float(q90)},
    )


def _bitwise(stats):
    """Every field of `stats` with floats as their exact hex form."""
    def exact(v):
        if isinstance(v, dict):
            return {k: exact(x) for k, x in v.items()}
        return v.hex() if isinstance(v, float) else v

    return {k: exact(v) for k, v in dataclasses.asdict(stats).items()}


@pytest.mark.parametrize("n,trials,seed", [
    # symbols repeat within and across blocks
    (3, 3 * BLOCK_SIZE + 5, 1),
    (7, 3 * BLOCK_SIZE + 5, 2),
    (8, 3 * BLOCK_SIZE + 5, 3),
    (24, 3 * BLOCK_SIZE + 5, 4),
    # (almost) every symbol distinct; n=40 fills more than one chunk
    (40, 3 * BLOCK_SIZE + 5, 5),
    (365, 300, 6),
])
def test_run_level_dedup_is_bitwise_equal_to_per_block_reference(n, trials, seed):
    assert _bitwise(ensemble_stats(n, trials, seed)) == _bitwise(_ref_block_ensemble_stats(n, trials, seed))


def test_spectra_run_once_per_distinct_symbol(monkeypatch):
    rows = []
    real = ensembles.circulant_eigenvalues

    def counting(group, values):
        rows.append(len(values))
        return real(group, values)

    monkeypatch.setattr(ensembles, "circulant_eigenvalues", counting)
    stats = ensemble_stats(7, 100_000, seed=3)
    assert stats.total_draws > 100_000
    assert 0 < sum(rows) <= 2 ** (7 // 2)


@pytest.mark.parametrize("coins,raises", [
    ([True, False, False], True),  # C_7, accepted
    ([False, False, False], False),  # the empty symbol, always rejected
])
def test_nonzero_gap_on_an_accepted_symbol_raises(monkeypatch, coins, raises):
    real = ensembles.circulant_eigenvalues
    target = ensembles._symbol_values(np.array([coins]), 7)

    def split(group, values):
        # break lambda_a == lambda_{-a} on the target symbol only
        lams = real(group, values)
        lams[(values == target).all(axis=1)] += 1e-3 * np.arange(lams.shape[1])
        return lams

    monkeypatch.setattr(ensembles, "circulant_eigenvalues", split)
    if raises:
        with pytest.raises(RuntimeError, match="nonzero spectral gap"):
            ensemble_stats(7, 200, seed=1)
    else:
        assert ensemble_stats(7, 200, seed=1).rejections > 0


def test_an_accepted_symbol_asymmetric_below_tol_raises(monkeypatch):
    # lambda_6 one ulp above lambda_1 on C_7: the cut still merges them into
    # one class, but the symbol's eigenvalues are no longer those of +-a
    real = ensembles.circulant_eigenvalues
    target = ensembles._symbol_values(np.array([[True, False, False]]), 7)

    def nudge(group, values):
        lams = real(group, values)
        rows = (values == target).all(axis=1)
        lams[rows, -1] = np.nextafter(lams[rows, -1], np.inf)
        return lams

    monkeypatch.setattr(ensembles, "circulant_eigenvalues", nudge)
    with pytest.raises(RuntimeError, match="nonzero spectral gap"):
        ensemble_stats(7, 200, seed=1)


@pytest.mark.parametrize("n,trials,seed", [(7, 20000, 3), (24, 5000, 5)])
def test_ensemble_json_is_pinned(n, trials, seed):
    # the n=7 file was regenerated when moments became exact sums rounded once
    # (var_lambda_other moved in its last bit); holds on every numpy the CI runs
    # the CLI writes the pinned document and one newline
    pinned = (DATA / f"ensemble_n{n}_trials{trials}_seed{seed}.json").read_bytes()
    argv = ["ensemble", "--n", str(n), "--trials", str(trials), "--seed", str(seed)]
    assert render(argv) == pinned + b"\n"


# The run table's reductions against numpy on the repeated values.


def _quantile_cases():
    rng = np.random.default_rng(5)
    yield np.array([0.3]), np.array([1])  # N = 1
    yield np.array([0.7, 0.7, 0.7]), np.array([2, 0, 5])  # all values equal
    yield np.array([2.0, -1.5, 0.25]), np.array([3, 4, 4])  # N = 11: 10 q lands on an index
    yield np.array([1.0, 0.0]), np.array([0, 6])  # a zero count at the top
    yield np.array([0.7, 0.1]), np.array([1, 1])  # the t >= 0.5 branch rounds differently
    for size in (2, 7, 40):
        values = rng.normal(size=size) * 10.0 ** rng.integers(-3, 3, size=size)
        yield values, rng.integers(0, 5, size=size) + (np.arange(size) == 0)


@pytest.mark.parametrize("values,counts", list(_quantile_cases()))
def test_count_quantiles_match_numpy_on_the_repeated_values(values, counts):
    qs = (0.0, 0.1, 0.25, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0)
    got = ensembles._count_quantiles(values, counts, qs)
    expected = np.quantile(np.repeat(values, counts), qs)
    assert [x.hex() for x in got] == [float(x).hex() for x in expected]


def test_exact_moments_are_the_rationals_rounded_once():
    rng = np.random.default_rng(3)
    values = rng.normal(size=50) * 10.0 ** rng.integers(-8, 8, size=50)
    counts = rng.integers(0, 6, size=50) + 1
    mean, var = ensembles._exact_moments(values, counts)
    assert (mean, var) == _ref_moments(np.repeat(values, counts))


def test_variance_of_identical_values_is_exactly_zero():
    assert ensembles._exact_moments(np.array([0.1, 0.1]), np.array([3, 4])) == (0.1, 0.0)
    # on Z_3 every accepted symbol is {1, 2}; numpy's two-pass var gave 4.93e-32
    stats = ensemble_stats(3, 4097, 1)
    assert stats.var_lambda0 == stats.var_lambda_other == 0.0


def _traced_peak(n, trials):
    """The peak of memory traced by `tracemalloc` during one ensemble_stats run."""
    tracemalloc.start()
    try:
        ensemble_stats(n, trials, seed=1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_memory_does_not_grow_with_the_trial_count():
    ensemble_stats(7, 100, seed=1)  # imports and caches outside the measurement
    small, large = _traced_peak(7, 10**5), _traced_peak(7, 4 * 10**5)
    # a per-draw array would quadruple the peak
    assert large <= 1.25 * small, (small, large)


def test_statistics_tables_stay_within_the_block_bound():
    # blocks of BLOCK_ENTRIES // n rows: the peak grows far slower than
    # n * trials (it was 72 MiB at n = 365 with blocks of BLOCK_SIZE rows)
    ensemble_stats(101, 100, seed=1)  # imports and caches outside the measurement
    small, large = _traced_peak(101, 4097), _traced_peak(365, 4097)
    assert large <= 12 * 2**20 and large <= 2 * small, (small, large)


def test_draw_table_counts_every_draw_with_log_linear_sorting(monkeypatch):
    # 4096 draws of 3001 distinct symbols in 64 rounds, so nearly every draw
    # is new.  Merging once the rounds outnumber the table sorts about 2.7
    # rows per draw; rebuilding the table per round would sort about 30.
    m, trials, size = 12, 4096, 64

    def rows(trials_range):
        symbol = np.arange(trials_range.start, trials_range.stop) * 2654435761 % 3001
        return (symbol[:, None] >> np.arange(m)) & 1 == 1

    def rounds(n, entropy, trials_range):
        for start in range(trials_range.start, trials_range.stop, size):
            part = range(start, min(start + size, trials_range.stop))
            yield np.arange(part.start, part.stop), rows(part), None

    monkeypatch.setattr(ensembles, "_draw_rounds", rounds)
    sorted_rows = []
    merge = ensembles._merge_counts
    monkeypatch.setattr(ensembles, "_merge_counts",
                        lambda keys, counts: sorted_rows.append(len(keys)) or merge(keys, counts))

    packed, draws = ensembles._draw_table(2 * m, 0, trials)
    keys, counts = np.unique(rows(range(trials)), axis=0, return_counts=True)
    got = dict(zip(map(bytes, np.unpackbits(packed, axis=1, count=m)), draws.tolist()))
    assert len(got) == len(packed) == 3001
    assert got == dict(zip(map(bytes, keys.astype(np.uint8)), counts.tolist()))
    assert sum(sorted_rows) <= 4 * trials, sum(sorted_rows)


# Connectivity of orbit rows (`graphs.generates`), against the gcd rule.


def _gcd_rule(bits, n):
    """Per row: gcd of the chosen orbits j and n is 1."""
    return np.gcd.reduce(np.where(bits, np.arange(1, n // 2 + 1), n), axis=1) == 1


def test_connected_is_the_gcd_rule_on_every_row_of_small_n():
    for n in range(3, 25):
        m = n // 2
        bits = (np.arange(2**m)[:, None] >> np.arange(m)) & 1 == 1
        got = _orbit_generates(bits, n)
        assert got.dtype == bool and got.shape == (2**m,)
        assert np.array_equal(got, _gcd_rule(bits, n)), n
        assert got.sum() == sum(_ref_connected(n, v) for v in ensembles._symbol_values(bits, n))


@pytest.mark.parametrize("n", [30, 64, 101, 210, 365, 1024])
def test_connected_is_the_gcd_rule_on_random_rows(n):
    rng = np.random.default_rng(n)
    m, rows = n // 2, 10**4
    dense = rng.integers(0, 2, size=(rows // 3, m)) == 1
    sparse = rng.random((rows // 3, m)) < 2 / m
    # coins on the multiples of one prime factor only: never connected
    p = rng.choice(graphs._prime_factors(n), size=rows - 2 * (rows // 3))
    on_multiples = (rng.integers(0, 2, size=(len(p), m)) == 1) & (np.arange(1, m + 1) % p[:, None] == 0)
    bits = np.concatenate([dense, sparse, on_multiples, np.zeros((1, m), dtype=bool)])
    got = _orbit_generates(bits, n)
    assert np.array_equal(got, _gcd_rule(bits, n))
    assert not got[-1] and not got[2 * (rows // 3):].any() and got.any()


# Types and deviations once per distinct class partition.


def _unkeyed_partition_stats(table, labels, phase):
    return labels.max(axis=1) + 1, ensembles._uniform_deviation(labels, phase)


def _table_stats_bytes(stats):
    accepted, _, _, types, deviations = stats
    return ([a.tobytes() for a in stats],
            [q.hex() for q in ensembles._count_quantiles(deviations, accepted, (0.1, 0.5, 0.9))],
            ensembles._count_histogram(types, accepted))


@pytest.mark.parametrize("n,trials", [(24, 20000), (40, 50000), (101, 2000)])
def test_keyed_deviations_are_the_per_row_route_bitwise(monkeypatch, n, trials):
    packed, draws = ensembles._draw_table(n, np.random.SeedSequence(1).entropy, trials)
    rows = []
    real = ensembles._uniform_deviation
    monkeypatch.setattr(ensembles, "_uniform_deviation",
                        lambda labels, phase: rows.append(len(labels)) or real(labels, phase))
    keyed = ensembles._symbol_stats(packed, draws, n, DEGENERACY_TOL)
    connected = int((keyed[0] > 0).sum())
    assert sum(rows) < connected  # partitions repeat in every one of these runs
    monkeypatch.setattr(ensembles._PartitionTable, "stats", _unkeyed_partition_stats)
    unkeyed = ensembles._symbol_stats(packed, draws, n, DEGENERACY_TOL)
    assert _table_stats_bytes(keyed) == _table_stats_bytes(unkeyed)


def test_keyed_exhaustive_tables_are_the_per_row_route_bitwise(monkeypatch):
    keyed = [ensembles._exhaustive_table(n, DEGENERACY_TOL)[1:] for n in range(3, 21)]
    monkeypatch.setattr(ensembles._PartitionTable, "stats", _unkeyed_partition_stats)
    for n, stats in zip(range(3, 21), keyed):
        assert _table_stats_bytes(stats) == _table_stats_bytes(
            ensembles._exhaustive_table(n, DEGENERACY_TOL)[1:]), n


def _run_labels(n, trials, seed):
    """Class labels of every connected symbol of a run, and the phases."""
    packed, _ = ensembles._draw_table(n, np.random.SeedSequence(seed).entropy, trials)
    bits = np.unpackbits(packed, axis=1, count=n // 2).astype(bool)
    group = graphs.AbelianGroupSpec((n,))
    _, phase = character_phases(group)
    lams = circulant_eigenvalues(group, ensembles._symbol_values(bits, n))
    return _row_classes(group, lams[_orbit_generates(bits, n)], DEGENERACY_TOL)[0], phase


@pytest.mark.parametrize("n,trials,seed", [(40, 50000, 1), (24, 20000, 5), (101, 2000, 3)])
def test_deviations_once_per_distinct_partition_of_the_run(monkeypatch, n, trials, seed):
    labels, phase = _run_labels(n, trials, seed)
    partitions = np.unique(ensembles._partition_keys(labels)).size
    rows = []
    real = ensembles._uniform_deviation
    monkeypatch.setattr(ensembles, "_uniform_deviation",
                        lambda labels, phase: rows.append(len(labels)) or real(labels, phase))
    stats = ensembles.ensemble_stats(n, trials, seed)
    assert sum(rows) == partitions < len(labels), (rows, partitions)
    if n == 40:
        assert len(rows) > 1 and len(labels) > 10 * BLOCK_SIZE  # chunks beyond the first add few
    assert stats.trials == trials


def _chunk_labels(n, trials, seed):
    """Class labels of the connected symbols of a run's first chunk."""
    packed, _ = ensembles._draw_table(n, np.random.SeedSequence(seed).entropy, trials)
    bits = np.unpackbits(packed[:BLOCK_SIZE], axis=1, count=n // 2).astype(bool)
    group = graphs.AbelianGroupSpec((n,))
    _, phase = character_phases(group)
    lams = circulant_eigenvalues(group, ensembles._symbol_values(bits, n))
    return _row_classes(group, lams[_orbit_generates(bits, n)], DEGENERACY_TOL)[0], phase


@pytest.mark.parametrize("n,trials", [(7, 500), (24, 500), (40, 500), (365, 60)])
def test_partition_keys_label_each_character_with_the_smallest_of_its_class(n, trials):
    labels, _ = _chunk_labels(n, trials, n)
    keys = ensembles._partition_keys(labels)
    ref = [[int(np.flatnonzero(row == label)[0]) for label in row] for row in labels]
    assert [np.frombuffer(k, dtype=np.min_scalar_type(n - 1)).tolist() for k in keys] == ref


def test_partition_keys_do_not_depend_on_how_classes_are_numbered():
    labels, phase = _chunk_labels(24, 20000, 1)
    rng = np.random.default_rng(0)
    relabel = rng.permuted(np.tile(np.arange(24), (len(labels), 1)), axis=1)
    permuted = np.take_along_axis(relabel, labels, axis=1)
    assert not np.array_equal(permuted, labels)
    assert ensembles._partition_keys(permuted).tobytes() == ensembles._partition_keys(labels).tobytes()
    _, deviations = ensembles._PartitionTable(24).stats(labels, phase)
    assert deviations.tobytes() == ensembles._uniform_deviation(permuted, phase).tobytes()
