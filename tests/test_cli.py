import json
import math

import numpy as np
import pytest

from ctqw.cli import main


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
    table = {
        "class_sizes": [1, 3, 2],
        "dims": [1, 1, 2],
        "chars": [[[1, 0], [1, 0], [1, 0]],
                  [[1, 0], [-1, 0], [1, 0]],
                  [[2, 0], [0, 0], [-1, 0]]],
    }
    path = tmp_path / "s3.json"
    path.write_text(json.dumps(table))
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
])
def test_ensemble_rejects_bad_tol(capsys, tol, mode):
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
