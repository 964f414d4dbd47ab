import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from ctqw import ensembles, graphs
from ctqw.cli import main
from ctqw.ensembles import (
    BLOCK_SIZE,
    MAX_RESAMPLE_ATTEMPTS,
    MAX_TRIALS,
    EnsembleStats,
    ensemble_stats,
    exhaustive_expectations,
    sample_random_circulant,
    stats_to_json,
    type_spectrum_exhaustive,
)
from ctqw.spectra import (
    DEGENERACY_TOL,
    _roots_of_unity,
    character_phases,
    circulant_eigenvalues,
)

DATA = Path(__file__).parent / "data"


def _symmetric_cosine_table(n):
    return _roots_of_unity(n).real


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
    return {
        "n": n, "trials": trials, "seed": seed,
        "rejections": total - trials, "total_draws": total,
        "rejection_rate": (total - trials) / total,
        "mean_lambda0": float(acc_lam0.mean()), "var_lambda0": float(acc_lam0.var()),
        "mean_lambda_other": float(acc_other.mean()), "var_lambda_other": float(acc_other.var()),
        "mean_lambda0_unconditional": float(unc_lam0.mean()),
        "se_lambda0_unconditional": float(unc_lam0.std() / math.sqrt(total)),
        "mean_lambda_other_unconditional": float(unc_other.mean()),
        "se_lambda_other_unconditional": float(unc_other.std() / math.sqrt(total)),
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


def test_sampler_produces_valid_connected_symbols():
    for n in (3, 5, 8, 12):
        sym = sample_random_circulant(n, seed=1)
        g = graphs.build_abelian_circulant(sym)
        g.validate()
        assert sym.group.factors == (n,)


def test_sampler_is_deterministic_and_platform_stable():
    a = sample_random_circulant(8, seed=123)
    b = sample_random_circulant(8, seed=123)
    assert np.array_equal(a.values, b.values)
    # frozen draw for the documented PCG64 / SeedSequence contract
    assert list(a.support) == [2, 3, 5, 6]


def test_sampler_n3_has_single_outcome():
    # only one nontrivial orbit; the empty draw is rejected and resampled
    for seed in range(6):
        sym = sample_random_circulant(3, seed=seed)
        assert list(sym.support) == [1, 2]


def test_sampler_rejects_small_n():
    with pytest.raises(ValueError):
        sample_random_circulant(2, seed=0)


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

    monkeypatch.setattr(ensembles, "_draw_block", no_draws)
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

    stats = ensemble_stats(5, 50, seed=2)
    doc = json.loads(stats_to_json(stats))
    assert doc["schema"] == "ctqw/1"
    assert doc["n"] == 5 and doc["trials"] == 50
    assert "type_histogram" in doc and "deviation_quantiles" in doc


# Reference for the block stream: numpy's own objects, one Generator per
# trial, rows in trial-then-draw order.


def _ref_draw_block(n, entropy, trials):
    owners, rows = [], []
    for i in trials:
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy, spawn_key=(i,))))
        for _ in range(MAX_RESAMPLE_ATTEMPTS):
            bits = rng.integers(0, 2, size=(1, n // 2)).astype(bool)
            owners.append(i)
            rows.append(bits[0])
            if ensembles._connected(bits, n)[0]:
                break
    return np.array(rows), np.array(owners)


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
        bits, accepted = ensembles._draw_block(n, entropy, trials)
        ref_bits, owners = _ref_draw_block(n, entropy, trials)
        assert np.array_equal(bits, ref_bits), (entropy, n, start)
        assert np.array_equal(accepted, np.append(owners[1:] != owners[:-1], True))


@pytest.mark.parametrize("n", [4, 6, 8])
def test_block_stream_matches_numpy_across_redraws(n):
    # odd and even n//2, half or more of the draws disconnected
    trials = range(3 * BLOCK_SIZE, 3 * BLOCK_SIZE + 200)
    bits, accepted = ensembles._draw_block(n, 12345, trials)
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


def test_trials_beyond_one_word_spawn_key_are_refused(monkeypatch, capsys):
    def no_draws(*args):
        raise AssertionError("drew before refusing")

    monkeypatch.setattr(ensembles, "_draw_block", no_draws)
    with pytest.raises(ValueError, match="2\\*\\*32"):
        ensemble_stats(7, MAX_TRIALS + 1, seed=1)
    assert main(["ensemble", "--n", "7", "--trials", str(MAX_TRIALS + 1), "--seed", "1"]) == 1
    assert "2**32" in capsys.readouterr().err
    # a negative seed is still refused by SeedSequence
    assert main(["ensemble", "--n", "7", "--trials", "10", "--seed", "-1"]) == 1
    assert "non-negative" in capsys.readouterr().err


# Reference for the run-level dedup: the per-block route it replaced, which
# computed spectra, classes and deviations for every draw of each block.


def _ref_block_ensemble_stats(n, trials, seed, tol=DEGENERACY_TOL):
    _, phase = character_phases(graphs.AbelianGroupSpec((n,)))
    entropy = np.random.SeedSequence(seed).entropy
    blocks = []
    for start in range(0, trials, BLOCK_SIZE):
        trial_range = range(start, min(start + BLOCK_SIZE, trials))
        bits, accepted = ensembles._draw_block(n, entropy, trial_range)
        lams = circulant_eigenvalues(ensembles._symbol_values(bits, n), phase, n)
        labels = ensembles._class_labels(lams[accepted], tol)
        blocks.append((lams[:, 0], lams[:, 1:].mean(axis=1), accepted,
                       labels.max(axis=1) + 1, ensembles._uniform_deviation(labels, phase)))
    unc_lam0, unc_other, accepted, types, deviations = (np.concatenate(col) for col in zip(*blocks))
    accepted_lam0, accepted_other = unc_lam0[accepted], unc_other[accepted]
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
        type_histogram=ensembles._histogram(types),
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

    def counting(values, phase, L):
        rows.append(len(values))
        return real(values, phase, L)

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

    def split(values, phase, L):
        # break lambda_a == lambda_{-a} on the target symbol only
        lams = real(values, phase, L)
        lams[(values == target).all(axis=1)] += 1e-3 * np.arange(lams.shape[1])
        return lams

    monkeypatch.setattr(ensembles, "circulant_eigenvalues", split)
    if raises:
        with pytest.raises(RuntimeError, match="nonzero spectral gap"):
            ensemble_stats(7, 200, seed=1)
    else:
        assert ensemble_stats(7, 200, seed=1).rejections > 0


@pytest.mark.parametrize("n,trials,seed", [(7, 20000, 3), (24, 5000, 5)])
def test_ensemble_json_is_pinned(n, trials, seed):
    # generated before the run-level dedup; holds on every numpy the CI runs
    pinned = (DATA / f"ensemble_n{n}_trials{trials}_seed{seed}.json").read_text()
    assert stats_to_json(ensemble_stats(n, trials, seed)) == pinned
