import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ctqw.cli import main

S3_TABLE = {
    "class_sizes": [1, 3, 2],
    "dims": [1, 1, 2],
    "chars": [[[1, 0], [1, 0], [1, 0]],
              [[1, 0], [-1, 0], [1, 0]],
              [[2, 0], [0, 0], [-1, 0]]],
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_build_emits_schema(capsys):
    code, out, _ = run_cli(capsys, "build", "--family", "cycle", "--n", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "ctqw/1"
    assert doc["family"] == "cycle" and doc["n"] == 5
    assert doc["adjacency_rows"][0] == "01001"


def test_average_complete_8(capsys):
    code, out, _ = run_cli(capsys, "average", "--family", "complete", "--n", "8")
    assert code == 0
    doc = json.loads(out)
    assert doc["probabilities"][0] == pytest.approx(0.78125, abs=1e-12)
    assert doc["deviation_uniform"] == pytest.approx(1.3125, abs=1e-12)


def test_scan_hypercube_finds_quarter_pi(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--family", "hypercube", "--d", "3", "--eps", "1e-9",
        "--t-max", str(math.pi),
    )
    assert code == 0
    doc = json.loads(out)
    assert any(abs(m["t"] - math.pi / 4) < 1e-6 for m in doc["minima"])


def test_scan_normalized_rescales_times(capsys):
    _, out, _ = run_cli(
        capsys, "scan", "--family", "hypercube", "--d", "3", "--eps", "1e-9",
        "--t-max", str(3 * math.pi), "--normalize",
    )
    doc = json.loads(out)
    assert any(abs(m["t"] - 3 * math.pi / 4) < 1e-6 for m in doc["minima"])


def test_normalize_keeps_average_fixed(capsys):
    _, plain, _ = run_cli(capsys, "average", "--family", "cycle", "--n", "6")
    _, normed, _ = run_cli(capsys, "average", "--family", "cycle", "--n", "6", "--normalize")
    a = json.loads(plain)["probabilities"]
    b = json.loads(normed)["probabilities"]
    assert a == b  # bit-for-bit


def test_normalize_requires_regular(capsys):
    code, _, err = run_cli(capsys, "average", "--family", "path", "--n", "4", "--normalize")
    assert code == 1
    assert "regular" in err


def test_round_trip_graph_file(tmp_path, capsys):
    out_file = tmp_path / "c8.json"
    code, _, _ = run_cli(capsys, "build", "--family", "cycle", "--n", "8",
                         "-o", str(out_file))
    assert code == 0 and out_file.exists()
    _, direct, _ = run_cli(capsys, "spectrum", "--family", "cycle", "--n", "8")
    _, via_file, _ = run_cli(capsys, "spectrum", "--graph-file", str(out_file))
    assert direct == via_file  # identical downstream results, bit for bit


BUILD_ARGV = [
    ["--family", "cycle", "--n", "7"],
    ["--family", "complete", "--n", "5"],
    ["--family", "path", "--n", "6"],
    ["--family", "hypercube", "--d", "3"],
    ["--family", "complete_bipartite", "--n", "3"],
    ["--family", "circulant", "--group", "2,4", "--symbol", "1,3,4"],
    ["--family", "bunkbed", "--base-family", "cycle", "--base-n", "5"],
    ["--family", "bunkbed", "--base-family", "complete", "--base-n", "4"],
    ["--family", "bunkbed", "--base-family", "path", "--base-n", "4"],
    ["--family", "bunkbed", "--base-family", "hypercube", "--base-d", "2"],
]


@pytest.mark.parametrize("argv", BUILD_ARGV, ids=lambda a: "-".join(a[1::2]))
def test_every_build_output_round_trips(tmp_path, capsys, argv):
    out_file = tmp_path / "g.json"
    assert run_cli(capsys, "build", *argv, "-o", str(out_file))[0] == 0
    code, direct, _ = run_cli(capsys, "spectrum", *argv)
    assert code == 0
    code, via_file, _ = run_cli(capsys, "spectrum", "--graph-file", str(out_file))
    assert code == 0 and via_file == direct


def _built_doc(capsys, *argv):
    code, out, _ = run_cli(capsys, "build", *argv)
    assert code == 0
    return json.loads(out)


def test_path_label_on_a_cycle_is_rejected(tmp_path, capsys):
    # C_5 with its symbol fields removed would route to the P_5 closed form
    doc = _built_doc(capsys, "--family", "cycle", "--n", "5")
    del doc["group_factors"], doc["symbol_support"]
    doc["family"] = "path"
    path = tmp_path / "c5_as_path.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "spectrum", "--graph-file", str(path))
    assert code == 1 and out == ""
    assert "'path'" in err


@pytest.mark.parametrize("rows", [
    ["0\u0661\u0661", "\u066101", "\u0661\u06610"],  # Arabic-Indic digit one
    [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
], ids=["non-ascii-digits", "int-lists"])
def test_graph_file_rows_must_be_zero_one_strings(tmp_path, capsys, rows):
    doc = _built_doc(capsys, "--family", "complete", "--n", "3")
    good = tmp_path / "k3.json"
    good.write_text(json.dumps(doc))
    code, k3, _ = run_cli(capsys, "spectrum", "--graph-file", str(good))
    assert code == 0 and k3
    doc["adjacency_rows"] = rows
    bad = tmp_path / "k3_bad_rows.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "spectrum", "--graph-file", str(bad))
    assert code == 1 and out == ""
    assert "adjacency_rows" in err


def test_bunkbed_base_not_matching_its_layers_is_rejected(tmp_path, capsys):
    # layers are C_4 but the base claims P_4: the closed form would give 2.618, not 3
    doc = _built_doc(capsys, "--family", "bunkbed", "--base-family", "cycle", "--base-n", "4")
    doc["base"] = _built_doc(capsys, "--family", "path", "--n", "4")
    path = tmp_path / "bad_bunkbed.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "spectrum", "--graph-file", str(path))
    assert code == 1 and out == ""
    assert "'base'" in err


def test_output_is_atomic_no_tmp_left(tmp_path, capsys):
    out_file = tmp_path / "out.json"
    run_cli(capsys, "walk", "--family", "cycle", "--n", "4", "--t", "1.0",
            "-o", str(out_file))
    assert out_file.exists()
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_walk_csv_and_amplitudes(capsys):
    code, out, _ = run_cli(capsys, "walk", "--family", "complete", "--n", "2",
                           "--t", "0.5", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "vertex,probability"
    code, out, _ = run_cli(capsys, "walk", "--family", "complete", "--n", "2",
                           "--t", "0.5", "--amplitudes")
    doc = json.loads(out)
    amp = doc["amplitudes"]
    assert amp[0][0] == pytest.approx(math.cos(0.5), abs=1e-12)
    assert amp[1][1] == pytest.approx(-math.sin(0.5), abs=1e-12)
    code, _, err = run_cli(capsys, "walk", "--family", "complete", "--n", "2",
                           "--t", "0.5", "--amplitudes", "--format", "csv")
    assert code == 1


def test_circulant_and_bunkbed_flags(capsys):
    code, out, _ = run_cli(capsys, "build", "--family", "circulant",
                           "--group", "2,2,2", "--symbol", "1,2,4")
    assert code == 0
    assert json.loads(out)["n"] == 8
    code, out, _ = run_cli(capsys, "spectrum", "--family", "bunkbed",
                           "--base-family", "complete", "--base-n", "3")
    assert code == 0
    assert np.allclose(json.loads(out)["eigenvalues"], [3, 1, 0, 0, -2, -2], atol=1e-12)


def test_char_table_subcommand(tmp_path, capsys):
    path = tmp_path / "s3.json"
    path.write_text(json.dumps(S3_TABLE))
    code, out, _ = run_cli(capsys, "spectrum", "--char-table", str(path),
                           "--class-function", "0,1,0")
    assert code == 0
    doc = json.loads(out)
    assert {(e["value"], e["multiplicity"]) for e in doc["eigenvalues"]} == {
        (3.0, 1), (0.0, 4), (-3.0, 1)}
    code, _, err = run_cli(capsys, "spectrum", "--char-table", str(path),
                           "--class-function", "0,0,0")
    assert code == 1 and "disconnected" in err


def test_custom_adjacency_through_graph_file(tmp_path, capsys):
    good = tmp_path / "k4.json"
    good.write_text(json.dumps(
        {"n": 4, "family": "custom", "adjacency_rows": ["0111", "1011", "1101", "1110"]}))
    code, out, _ = run_cli(capsys, "average", "--graph-file", str(good))
    assert code == 0
    assert json.loads(out)["probabilities"][0] == pytest.approx(0.625, abs=1e-12)

    asymmetric = tmp_path / "bad.json"
    asymmetric.write_text(json.dumps(
        {"n": 2, "family": "custom", "adjacency_rows": ["01", "00"]}))
    code, _, err = run_cli(capsys, "average", "--graph-file", str(asymmetric))
    assert code == 1 and "symmetric" in err


@pytest.mark.parametrize("group, symbol, bad", [
    ("5", "1,7", "7"),
    ("2,4", "-1,1", "-1"),  # must not wrap to index 7
])
def test_symbol_index_out_of_range_exits_1(capsys, group, symbol, bad):
    code, out, err = run_cli(capsys, "build", "--family", "circulant", "--group", group,
                             f"--symbol={symbol}")
    assert code == 1 and out == ""
    assert f"symbol index {bad} is out of range" in err


def test_graph_file_symbol_index_out_of_range_exits_1(tmp_path, capsys):
    doc = _built_doc(capsys, "--family", "cycle", "--n", "3")
    doc["symbol_support"] = [1, 5]
    path = tmp_path / "bad_symbol.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "spectrum", "--graph-file", str(path))
    assert code == 1 and out == ""
    assert "symbol index 5 is out of range 0..2" in err


def test_usage_errors_exit_1(capsys):
    assert run_cli(capsys, "build")[0] == 1
    assert run_cli(capsys, "build", "--family", "cycle")[0] == 1
    assert run_cli(capsys, "build", "--family", "cycle", "--n", "2")[0] == 1
    assert run_cli(capsys, "walk", "--family", "cycle", "--n", "4")[0] == 1  # missing --t
    assert run_cli(capsys, "nonsense")[0] == 1
    assert run_cli(capsys, "ensemble", "--n", "2")[0] == 1


def test_help_exits_0(capsys):
    assert run_cli(capsys, "--help")[0] == 0
    assert run_cli(capsys, "scan", "--help")[0] == 0


def test_ensemble_subcommand(capsys):
    code, out, _ = run_cli(capsys, "ensemble", "--n", "5", "--trials", "200", "--seed", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["trials"] == 200
    code, out, _ = run_cli(capsys, "ensemble", "--n", "4", "--exhaustive")
    assert code == 0
    assert json.loads(out)["type_histogram"] == {"2": 1, "3": 1}


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
@pytest.mark.parametrize("mode", [
    ["ensemble", "--n", "7", "--exhaustive"],
    ["ensemble", "--n", "7", "--trials", "50"],
    ["spectrum", "--family", "cycle", "--n", "8"],
    ["average", "--family", "cycle", "--n", "8"],
    ["spectrum", "--family", "cycle", "--n", "8", "--format", "csv"],
    ["spectrum", "--char-table", "S3", "--class-function", "0,1,0"],
    ["spectrum", "--char-table", "S3", "--class-function", "0,1,0", "--format", "csv"],
    ["spectrum", "--char-table", "S3", "--class-function", "0,1,0", "--format", "table"],
])
def test_ensemble_rejects_bad_tol(capsys, tmp_path, tol, mode):
    table = tmp_path / "s3.json"
    table.write_text(json.dumps(S3_TABLE))
    mode = [str(table) if arg == "S3" else arg for arg in mode]
    code, out, err = run_cli(capsys, *mode, "--tol", tol)
    assert code == 1
    assert out == "" and "tol" in err


@pytest.mark.parametrize("argv", [
    ["build", "--family", "cycle", "--n", "5", "--tol", "7"],
    ["walk", "--family", "cycle", "--n", "5", "--t", "1", "--tol", "0.5"],
    ["scan", "--family", "cycle", "--n", "5", "--tol", "0.5"],
    ["verify", "--checks", "cycle_average", "--tol", "0.5"],
    ["build", "--family", "cycle", "--n", "5", "--normalize"],
    ["ensemble", "--n", "5", "--trials", "10", "--normalize"],
    ["verify", "--checks", "cycle_average", "--normalize"],
], ids=["build-tol", "walk-tol", "scan-tol", "verify-tol",
        "build-normalize", "ensemble-normalize", "verify-normalize"])
def test_flags_a_subcommand_does_not_read_are_rejected(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == "" and "unrecognized arguments" in err


@pytest.mark.parametrize("argv", [
    ["walk", "--family", "cycle", "--n", "5", "--t", "nan"],
    ["walk", "--family", "cycle", "--n", "5", "--t", "inf"],
    ["scan", "--family", "cycle", "--n", "5", "--t-max", "nan"],
    ["scan", "--family", "cycle", "--n", "5", "--eps", "nan"],
], ids=["walk-t-nan", "walk-t-inf", "scan-t-max-nan", "scan-eps-nan"])
def test_non_finite_times_are_rejected(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == "" and "usage error" in err


def test_verify_subcommand_reports_discrepancies(capsys):
    code, out, _ = run_cli(capsys, "verify", "--checks", "cycle_average", "--max-n", "8")
    assert code == 0
    doc = json.loads(out)
    assert any("even_cycle_C4" in d for d in doc["discrepancies"])
    code, _, err = run_cli(capsys, "verify", "--checks", "bogus")
    assert code == 1


def test_closed_stdout_ends_quietly():
    # the reader is gone before the first write, as after `ctqw ... | head -1`
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ctqw", "spectrum", "--family", "hypercube", "--d", "4",
             "--format", "table"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 0


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_spectrum_never_builds_eigenvectors_it_does_not_print(capsys, monkeypatch, fmt):
    from ctqw import graphs, spectra

    def refuse(group):
        raise RuntimeError("eigenvector table built")

    monkeypatch.setattr(spectra, "character_phases", refuse)
    with pytest.raises(RuntimeError, match="eigenvector table built"):
        spectra.graph_eigensystem(graphs.build_hypercube(8)).eigenvectors
    code, out, err = run_cli(capsys, "spectrum", "--family", "hypercube", "--d", "8",
                             "--format", fmt)
    assert code == 0 and err == ""
    if fmt == "table":
        assert "type: 9" in out
    elif fmt == "csv":
        assert len(out.splitlines()) == 1 + 256
    else:
        doc = json.loads(out)
        assert (doc["n"], doc["type"]) == (256, 9) and "eigenvectors" not in doc
        code, _, err = run_cli(capsys, "spectrum", "--family", "hypercube", "--d", "8",
                               "--eigenvectors")
        assert code == 2 and "eigenvector table built" in err


@pytest.mark.parametrize("sizes, dims", [([1, 3.9, 2.5], [1, 1, 2]), ([1, "3", 2], [1, 1, 2]),
                                         ([1, 3, 2], [1, 1, 2.7]), ([1, 3, 2], [1, 1, "2"])])
def test_char_table_entries_must_be_exact_integers(tmp_path, capsys, sizes, dims):
    path = tmp_path / "s3_bad.json"
    path.write_text(json.dumps({**S3_TABLE, "class_sizes": sizes, "dims": dims}))
    code, out, err = run_cli(capsys, "spectrum", "--char-table", str(path),
                             "--class-function", "0,1,0")
    assert code == 1 and out == ""
    assert "must be a list of integers" in err


PAW = {"n": 4, "family": "custom", "adjacency_rows": ["0111", "1010", "1100", "1000"]}


def test_graph_file_spectrum_is_lapack_and_dense_is_jacobi(tmp_path, capsys, jacobi_calls):
    path = tmp_path / "paw.json"
    path.write_text(json.dumps(PAW))
    code, production, _ = run_cli(capsys, "spectrum", "--graph-file", str(path))
    assert code == 0 and jacobi_calls == []
    code, dense, _ = run_cli(capsys, "spectrum", "--dense", "--graph-file", str(path))
    assert code == 0 and jacobi_calls == [(1, 4, 4)]
    got, want = json.loads(production), json.loads(dense)
    assert np.max(np.abs(np.subtract(got["eigenvalues"], want["eigenvalues"]))) <= 1e-12
    assert got["multiplicities"] == want["multiplicities"]


def test_bad_lapack_results_exit_2(tmp_path, capsys, monkeypatch):
    path = tmp_path / "paw.json"
    path.write_text(json.dumps(PAW))
    exact = np.linalg.eigh

    def one_vector_off(a):
        lam, vec = exact(a)
        vec[:, 0] *= 1.0 + 1e-6
        return lam, vec

    monkeypatch.setattr(np.linalg, "eigh", one_vector_off)
    code, out, err = run_cli(capsys, "spectrum", "--graph-file", str(path))
    assert code == 2 and out == ""
    assert "computational failure" in err and "orthonormal" in err

    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    code, out, err = run_cli(capsys, "spectrum", "--graph-file", str(path))
    assert code == 2 and out == ""
    assert "computational failure: LAPACK eigh failed" in err


def test_lapack_route_agrees_across_openblas_thread_counts(tmp_path):
    from ctqw import graphs

    rng = np.random.default_rng(40)
    while True:
        upper = np.triu(rng.random((40, 40)) < 0.2, 1)
        adjacency = (upper | upper.T).astype(np.uint8)
        try:
            g = graphs.from_adjacency(adjacency)
            break
        except graphs.GraphValidationError:
            continue
    path = tmp_path / "g40.json"
    path.write_text(graphs.graph_to_json(g))
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    docs = {}
    for threads in ("1", "2"):
        runs = [subprocess.run([sys.executable, "-m", "ctqw", "spectrum", "--graph-file", str(path)],
                               capture_output=True, timeout=120,
                               env={**env, "OPENBLAS_NUM_THREADS": threads}) for _ in range(2)]
        assert [r.returncode for r in runs] == [0, 0], runs[0].stderr
        assert runs[0].stdout == runs[1].stdout, threads  # repeats byte for byte
        docs[threads] = json.loads(runs[0].stdout)
    one, two = docs["1"], docs["2"]
    bound = 1e-12 * (1.0 + np.linalg.norm(adjacency.astype(np.float64)))
    assert np.max(np.abs(np.subtract(one["eigenvalues"], two["eigenvalues"]))) <= bound
    for key in ("multiplicities", "degeneracy_classes", "type"):
        assert one[key] == two[key], key
