"""Independent output checks, run by the runner outside the timed region.

Each check takes an op's output text and returns a list of error strings
(empty when the output is accepted).  None of them imports `ctqw`: reference
values come from numpy's LAPACK and FFT, exact integer formulas, or a
separate enumeration of the circulant ensemble.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache

import numpy as np

EIG_TOL = 1e-9
SCAN_TOL = 1e-9
AVERAGE_TOL = 1e-12
# |mean - expectation| must stay within this many standard errors; 5 keeps a
# correct sampler's false alarms below 1e-6 per check.
MEAN_SE_LIMIT = 5.0
# Oracle clustering tolerance for circulant types; the enumeration also checks
# that no genuine gap sits near it, so the result does not hinge on its value.
TYPE_TOL = 1e-7

# The default `ctqw verify` run records exactly these discrepancies: two even
# cycles, the path start-average direction, and the 14 resonant bunkbed bases
# that stay red by design.
BUNKBED_RESONANT = ("K_2", "C_4", "C_6", "C_8", "C_12", "C_16", "P_2", "P_5", "P_8",
                    "P_11", "P_14", "Q_1", "Q_2", "Q_3")
VERIFY_DISCREPANCIES = (
    ["cycles C_3..C_33: even_cycle_C4", "cycles C_3..C_33: even_cycle_C6"]
    + [f"bunkbed over {b}: layer_equality" for b in BUNKBED_RESONANT]
    + ["paths P_2..P_32: start_average_direction"]
)


def _json(text: str):
    try:
        return json.loads(text), []
    except json.JSONDecodeError as exc:
        return None, [f"output is not JSON: {exc}"]


def check_verify(text: str) -> list[str]:
    doc, errors = _json(text)
    if doc is None:
        return errors
    for rep in doc.get("reports", []):
        for name, flag in rep.get("flags", {}).items():
            if flag.get("status") == "fail":
                errors.append(f"fail flag: {rep.get('descriptor')}: {name}")
    if doc.get("discrepancies") != VERIFY_DISCREPANCIES:
        errors.append(f"discrepancies differ from the {len(VERIFY_DISCREPANCIES)} known entries: "
                      f"{doc.get('discrepancies')}")
    return errors


def check_repeat(first: dict[str, bytes], name: str, data: bytes) -> list[str]:
    """Same seed, same bytes: the first pass's output is the reference for later passes."""
    if first.setdefault(name, data) != data:
        return ["output bytes differ from the first pass with the same seed"]
    return []


def _orbit_eigen_table(n: int) -> np.ndarray:
    """Row j-1: eigenvalue contribution of the orbit {j, n-j} to every lambda_a."""
    a = np.arange(n)
    rows = []
    for j in range(1, n // 2 + 1):
        if 2 * j == n:
            rows.append(np.where(a % 2 == 0, 1.0, -1.0))
        else:
            rows.append(2.0 * np.cos(2.0 * np.pi * ((a * j) % n) / n))
    return np.array(rows)


@lru_cache(maxsize=None)
def circulant_type_histogram(n: int) -> dict[int, int]:
    """Type histogram over every connected symmetric symbol of Z_n, by enumeration.

    Raises if a nonzero eigenvalue gap comes near TYPE_TOL, where the
    clustering would become ambiguous.
    """
    m = n // 2
    bits = (np.arange(2**m)[:, None] >> np.arange(m)[None, :]) & 1
    # connected iff gcd(n, support) == 1; gcd(n, n - j) == gcd(n, j)
    g = np.full(2**m, n)
    for j in range(1, m + 1):
        g = np.where(bits[:, j - 1] == 1, np.gcd(g, j), g)
    connected = g == 1
    lams = np.sort(bits[connected] @ _orbit_eigen_table(n), axis=1)
    gaps = np.diff(lams, axis=1)
    near = gaps[(gaps > 1e-12) & (gaps < 1e3 * TYPE_TOL)]
    if near.size:
        raise RuntimeError(f"eigenvalue gap {near.min():.3e} too close to the oracle tolerance")
    types = 1 + (gaps > TYPE_TOL).sum(axis=1)
    values, counts = np.unique(types, return_counts=True)
    return {int(t): int(c) for t, c in zip(values, counts)}


def check_ensemble(text: str, n: int, trials: int, seed: int) -> list[str]:
    doc, errors = _json(text)
    if doc is None:
        return errors
    if (doc.get("n"), doc.get("trials"), doc.get("seed")) != (n, trials, seed):
        errors.append(f"header (n, trials, seed) = {(doc.get('n'), doc.get('trials'), doc.get('seed'))}")
    hist = {int(k): v for k, v in doc.get("type_histogram", {}).items()}
    if sum(hist.values()) != trials:
        errors.append(f"type histogram sums to {sum(hist.values())}, not {trials}")
    outside = sorted(set(hist) - set(circulant_type_histogram(n)))
    if outside:
        errors.append(f"types {outside} never occur among connected symbols of Z_{n}")
    if doc.get("total_draws") != trials + doc.get("rejections", -1):
        errors.append("total_draws != trials + rejections")
    # Each of the n - 1 non-identity elements is in the support with probability
    # 1/2, so E[lambda_0] = (n - 1)/2; that equals floor(n/2) only for odd n.
    # The trace is 0, so the other n - 1 eigenvalues average -lambda_0/(n - 1).
    for key, expected in (("lambda0", (n - 1) / 2), ("lambda_other", -0.5)):
        mean = doc.get(f"mean_{key}_unconditional")
        se = doc.get(f"se_{key}_unconditional")
        if not isinstance(mean, (int, float)) or not isinstance(se, (int, float)) or not se > 0:
            errors.append(f"missing all-draws mean or standard error for {key}")
        elif not abs(mean - expected) <= MEAN_SE_LIMIT * se:
            errors.append(f"all-draws mean {key} = {mean} is {abs(mean - expected) / se:.1f} "
                          f"standard errors from {expected}")
    return errors


def check_exhaustive(text: str, n: int) -> list[str]:
    doc, errors = _json(text)
    if doc is None:
        return errors
    hist = {int(k): v for k, v in doc.get("type_histogram", {}).items()}
    expected = circulant_type_histogram(n)
    if hist != expected:
        errors.append(f"exhaustive histogram {hist} != enumeration {expected}")
    return errors


def check_hypercube_table(text: str, d: int) -> list[str]:
    """Q_d spectrum table: eigenvalue d - 2k with multiplicity C(d, k), k = 0..d."""
    lines = text.strip().splitlines()
    errors = []
    if len(lines) != 4 + d + 1:
        return [f"expected {4 + d + 1} lines, got {len(lines)}"]
    if lines[0] != f"graph: hypercube on {2**d} vertices":
        errors.append(f"bad header {lines[0]!r}")
    try:
        gap = float(lines[1].split(":", 1)[1])
        typ = int(lines[2].split(":", 1)[1])
        rows = [(float(a), int(b)) for a, b in (ln.split() for ln in lines[4:])]
    except (ValueError, IndexError) as exc:
        return errors + [f"unparsable table: {exc}"]
    if gap != 0.0:
        errors.append(f"spectral gap {gap}, expected 0")
    if typ != d + 1:
        errors.append(f"type {typ}, expected {d + 1}")
    for k, (lam, mult) in enumerate(rows):
        if abs(lam - (d - 2 * k)) > EIG_TOL or mult != math.comb(d, k):
            errors.append(f"row {k}: ({lam}, {mult}) != ({d - 2 * k}, {math.comb(d, k)})")
    return errors


def hypercube_average(d: int) -> np.ndarray:
    """Exact limiting average on Q_d from vertex 0, via Krawtchouk polynomials.

    Pbar(v) = N^-2 sum_k K_k(|v|)^2, with K_k(w) = sum_j (-1)^j C(w, j) C(d - w, k - j).
    """
    N = 2**d
    by_weight = []
    for w in range(d + 1):
        s = sum(sum((-1) ** j * math.comb(w, j) * math.comb(d - w, k - j) for j in range(k + 1)) ** 2
                for k in range(d + 1))
        by_weight.append(s / N**2)
    weights = np.array([bin(v).count("1") for v in range(N)])
    return np.array(by_weight)[weights]


def check_hypercube_average(text: str, d: int) -> list[str]:
    doc, errors = _json(text)
    if doc is None:
        return errors
    probs = np.asarray(doc.get("probabilities", []), dtype=np.float64)
    N = 2**d
    if probs.shape != (N,):
        return [f"expected {N} probabilities, got {probs.shape}"]
    ref = hypercube_average(d)
    err = float(np.max(np.abs(probs - ref)))
    if not err <= AVERAGE_TOL:
        errors.append(f"average distribution off by {err:.3e}")
    tv = float(np.abs(ref - 1.0 / N).sum())
    for key in ("deviation_uniform", "deviation_classical"):  # Q_d is regular
        if not abs(doc.get(key, math.nan) - tv) <= AVERAGE_TOL:
            errors.append(f"{key} = {doc.get(key)}, expected {tv}")
    if doc.get("type") != d + 1 or doc.get("spectral_gap") != 0.0:
        errors.append(f"type/gap = {doc.get('type')}/{doc.get('spectral_gap')}, expected {d + 1}/0")
    return errors


def cycle_deviation(n: int, times: np.ndarray) -> np.ndarray:
    """||P_t - U|| on C_n from vertex 0, by FFT of the circulant eigenphases."""
    lam = 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n)
    amp = np.fft.ifft(np.exp(-1j * np.outer(times, lam)), axis=1)
    return np.abs(np.abs(amp) ** 2 - 1.0 / n).sum(axis=1)


def check_cycle_scan(text: str, n: int) -> list[str]:
    doc, errors = _json(text)
    if doc is None:
        return errors
    minima = doc.get("minima", [])
    if not minima:
        return ["no minima reported"]
    t = np.array([m["t"] for m in minima], dtype=np.float64)
    dev = np.array([m["deviation"] for m in minima], dtype=np.float64)
    if not (t[0] > 0 and np.all(np.diff(t) > 0)):
        errors.append("scan times are not positive and increasing")
    err = np.abs(dev - cycle_deviation(n, t))
    if not np.max(err) <= SCAN_TOL:
        errors.append(f"{int((~(err <= SCAN_TOL)).sum())} of {len(t)} deviations differ from "
                      f"recomputation, worst by {np.max(err):.3e}")
    return errors


def cycle_adjacency(n: int) -> np.ndarray:
    eye = np.eye(n)
    return np.roll(eye, 1, axis=1) + np.roll(eye, -1, axis=1)


def check_eigenvalues(text: str, adjacency: np.ndarray) -> list[str]:
    """Spectrum JSON eigenvalues (descending) against numpy.linalg.eigh."""
    doc, errors = _json(text)
    if doc is None:
        return errors
    lam = np.asarray(doc.get("eigenvalues", []), dtype=np.float64)
    ref = np.linalg.eigvalsh(np.asarray(adjacency, dtype=np.float64))[::-1]
    if lam.shape != ref.shape:
        return [f"expected {ref.size} eigenvalues, got {lam.size}"]
    err = float(np.max(np.abs(lam - ref)))
    if not err <= EIG_TOL:
        errors.append(f"eigenvalues differ from eigh by {err:.3e}")
    if sum(doc.get("multiplicities", [])) != ref.size:
        errors.append("multiplicities do not sum to n")
    return errors


def check_cycle_eigenvalues(text: str, n: int) -> list[str]:
    return check_eigenvalues(text, cycle_adjacency(n))


CHECKS = {
    "verify": check_verify,
    "ensemble": check_ensemble,
    "exhaustive": check_exhaustive,
    "hypercube_table": check_hypercube_table,
    "hypercube_average": check_hypercube_average,
    "cycle_scan": check_cycle_scan,
    "cycle_eigenvalues": check_cycle_eigenvalues,
    "eigenvalues": check_eigenvalues,
}


def check_op(op, text: str) -> list[str]:
    """Run the oracle that workloads.plan named for this op."""
    return CHECKS[op.oracle](text, **op.params)
