"""Tests of the benchmark itself: every oracle accepts a real output of the
program and rejects a corrupted copy; the tracer's self-time arithmetic; the
seeded inputs; and the runner's refusal to run without the sources.

    python3 -m pytest -q ctqwbench
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracles  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from ctqw import cli  # noqa: E402


def run_cli(tmp_path, *argv) -> str:
    out = tmp_path / "out"
    assert cli.main([*argv, "-o", str(out)]) == 0
    return out.read_text()


def edit_json(text: str, change) -> str:
    doc = json.loads(text)
    change(doc)
    return json.dumps(doc)


@pytest.fixture(scope="module")
def verify_text(tmp_path_factory):
    return run_cli(tmp_path_factory.mktemp("verify"), "verify", "--format", "json", "--seed", "3")


def test_verify_oracle(verify_text):
    assert oracles.check_verify(verify_text) == []

    def add_fail(doc):
        doc["reports"][0]["flags"]["average_closed_form"]["status"] = "fail"

    assert oracles.check_verify(edit_json(verify_text, add_fail))
    assert oracles.check_verify(edit_json(verify_text, lambda d: d["discrepancies"].pop()))


@pytest.mark.parametrize("n", [7, 12])
def test_ensemble_oracle(tmp_path, n):
    text = run_cli(tmp_path, "ensemble", "--n", str(n), "--trials", "3000", "--seed", "5")
    assert oracles.check_ensemble(text, n, 3000, 5) == []
    assert oracles.check_ensemble(text, n, 3000, 6)  # wrong seed echoed

    def recount(doc):
        k = next(iter(doc["type_histogram"]))
        doc["type_histogram"][k] += 1

    assert oracles.check_ensemble(edit_json(text, recount), n, 3000, 5)

    def impossible_type(doc):  # move one trial to a type no connected symbol has
        k = next(iter(doc["type_histogram"]))
        doc["type_histogram"][k] -= 1
        doc["type_histogram"][str(n + 1)] = 1

    assert oracles.check_ensemble(edit_json(text, impossible_type), n, 3000, 5)

    def shifted_mean(doc):
        doc["mean_lambda_other_unconditional"] += 10 * doc["se_lambda_other_unconditional"]

    assert oracles.check_ensemble(edit_json(text, shifted_mean), n, 3000, 5)


def test_exhaustive_oracle(tmp_path):
    text = run_cli(tmp_path, "ensemble", "--n", "12", "--exhaustive")
    assert oracles.check_exhaustive(text, 12) == []

    def recount(doc):
        doc["type_histogram"]["2"] += 1

    assert oracles.check_exhaustive(edit_json(text, recount), 12)


def test_hypercube_table_oracle(tmp_path):
    text = run_cli(tmp_path, "spectrum", "--family", "hypercube", "--d", "5", "--format", "table")
    assert oracles.check_hypercube_table(text, 5) == []
    lines = text.splitlines()
    lines[5] = lines[5].replace(" 5", " 4")  # multiplicity C(5, 1) = 5 becomes 4
    assert oracles.check_hypercube_table("\n".join(lines), 5)
    assert oracles.check_hypercube_table(text.replace("type: 6", "type: 5"), 5)


def test_hypercube_average_oracle(tmp_path):
    text = run_cli(tmp_path, "average", "--family", "hypercube", "--d", "6")
    assert oracles.check_hypercube_average(text, 6) == []

    def nudge(doc):
        doc["probabilities"][3] += 1e-9
        doc["probabilities"][4] -= 1e-9

    assert oracles.check_hypercube_average(edit_json(text, nudge), 6)


def test_hypercube_average_formula_small_case():
    # The Q_d walk factorizes into K_2 walks: P_t(v) = cos^2(t)^(d-|v|) sin^2(t)^|v|,
    # whose time averages are 1/2 on Q_1 and 3/8, 1/8, 1/8, 3/8 on Q_2.
    assert np.allclose(oracles.hypercube_average(1), [0.5, 0.5])
    assert np.allclose(oracles.hypercube_average(2), [3 / 8, 1 / 8, 1 / 8, 3 / 8])


def test_cycle_scan_oracle(tmp_path):
    text = run_cli(tmp_path, "scan", "--family", "cycle", "--n", "17", "--t-max", "40")
    assert oracles.check_cycle_scan(text, 17) == []

    def nudge(doc):
        doc["minima"][-1]["deviation"] += 1e-7

    assert oracles.check_cycle_scan(edit_json(text, nudge), 17)


def test_eigenvalue_oracle(tmp_path):
    text = run_cli(tmp_path, "spectrum", "--dense", "--family", "cycle", "--n", "16")
    adj = oracles.cycle_adjacency(16)
    assert oracles.check_eigenvalues(text, adj) == []

    def nudge(doc):
        doc["eigenvalues"][7] += 1e-6

    assert oracles.check_eigenvalues(edit_json(text, nudge), adj)
    assert oracles.check_eigenvalues(text, oracles.cycle_adjacency(17))


def test_custom_graph_oracle(tmp_path):
    adj = workloads.random_connected_graph(24, 0.2, np.random.SeedSequence(1))
    graph = tmp_path / "g.json"
    graph.write_text(workloads.graph_json(adj))
    text = run_cli(tmp_path, "spectrum", "--graph-file", str(graph))
    assert oracles.check_eigenvalues(text, adj) == []
    other = adj.copy()
    i, j = np.argwhere(np.triu(adj, 1))[0]
    other[i, j] = other[j, i] = 0
    assert oracles.check_eigenvalues(text, other)


def test_repeat_oracle():
    first: dict[str, bytes] = {}
    assert oracles.check_repeat(first, "op", b"abc") == []
    assert oracles.check_repeat(first, "op", b"abc") == []
    assert oracles.check_repeat(first, "op", b"abd")


def test_enumeration_matches_known_counts():
    # 2^3 symbols of Z_7, 7 of them connected: the complete graph (type 2) and
    # six of type 4; C(7,1/2) ensemble output must lie in this support.
    assert oracles.circulant_type_histogram(7) == {2: 1, 4: 6}
    assert sum(oracles.circulant_type_histogram(20).values()) == 990


def test_seeded_inputs_repeat_and_differ(tmp_path):
    a = workloads.plan("large_graphs", 4, str(tmp_path))
    b = workloads.plan("large_graphs", 4, str(tmp_path))
    c = workloads.plan("large_graphs", 5, str(tmp_path))
    assert [op.argv for op in a.ops] == [op.argv for op in b.ops]
    assert a.inputs == b.inputs and len(a.inputs) == 1
    assert a.inputs != c.inputs
    seeds = [workloads.derived_seeds(s)["verify"] for s in range(5)]
    assert len(set(seeds)) == 5


def test_self_times_subtract_children():
    spans = [["root", 0.0, 10.0, -1], ["a", 1.0, 5.0, 0], ["b", 2.0, 3.0, 1], ["c", 6.0, 7.0, 0]]
    assert tracer.self_times(spans) == [5.0, 3.0, 1.0, 1.0]


def test_traced_command_accounts_for_root(tmp_path):
    script = f"""
import json, sys
sys.path[:0] = [{os.path.join(ROOT, 'src')!r}, {BENCH_DIR!r}]
import ctqw.cli, tracer
t = tracer.Tracer(); t.install(); t.begin_root()
assert ctqw.cli.main(["average", "--family", "cycle", "--n", "9", "-o", {str(tmp_path / 'o')!r}]) == 0
t.end_root()
import ctqw.walk
print(json.dumps([tracer.layer_metrics(t.dump()), ctqw.walk.degeneracy_classes.__wrapped__.__module__]))
"""
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    m, wrapped_from = json.loads(out.stdout)
    assert wrapped_from == "ctqw.spectra"  # rebound in walk, not only in spectra
    layers = sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert math.isclose(layers + m["trace.unattributed_s"], m["trace.root_s"], abs_tol=1e-9)
    assert m["spectra.closed.calls"] == 1 and m["graphs.calls"] > 0
    assert 0 <= m["trace.unattributed_s"] < 0.5 * m["trace.root_s"]


def test_runner_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "ctqwbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "ctqwbench/run.py", "--workload", "verify_default",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
