import dataclasses
import math

import numpy as np
import pytest

from ctqw import graphs
from ctqw.ensembles import (
    BLOCK_SIZE,
    MAX_RESAMPLE_ATTEMPTS,
    ensemble_stats,
    exhaustive_expectations,
    sample_random_circulant,
    stats_to_json,
    type_spectrum_exhaustive,
)
from ctqw.spectra import DEGENERACY_TOL, _roots_of_unity


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
def test_bad_tol_is_rejected(tol):
    with pytest.raises(ValueError):
        ensemble_stats(7, 10, seed=1, tol=tol)
    with pytest.raises(ValueError):
        type_spectrum_exhaustive(7, tol=tol)


def test_ensemble_stats_threaded_matches_serial(monkeypatch):
    monkeypatch.setenv("CTQW_THREADS", "4")
    threaded = ensemble_stats(6, 300, seed=5)
    monkeypatch.setenv("CTQW_THREADS", "1")
    serial = ensemble_stats(6, 300, seed=5)
    assert threaded == serial


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
