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


@pytest.mark.parametrize("target", ["missing", "directory"])
def test_an_unwritable_output_is_a_usage_error(tmp_path, capsys, target):
    # used to end in a FileNotFoundError or IsADirectoryError traceback
    path = tmp_path / "no_such_dir" / "x.json" if target == "missing" else tmp_path
    code, out, err = run_cli(capsys, "build", "--family", "cycle", "--n", "5", "-o", str(path))
    assert code == 1 and out == ""
    assert err.startswith(f"usage error: cannot write output {path}: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []  # no .tmp file left behind


def test_a_non_finite_value_is_a_computational_failure(tmp_path, capsys, monkeypatch):
    # used to print "deviation_uniform": NaN, which is not JSON, and exit 0
    from ctqw import mixing

    monkeypatch.setattr(mixing, "total_variation", lambda p, q: math.nan)
    out_file = tmp_path / "out.json"
    for output in ([], ["-o", str(out_file)]):
        code, out, err = run_cli(capsys, "average", "--family", "cycle", "--n", "5", *output)
        assert code == 2 and out == ""
        assert err.startswith("computational failure: a NaN or infinity reached the output")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("fmt", ["csv", "table"])
def test_a_non_finite_value_is_refused_in_csv_and_table(tmp_path, capsys, monkeypatch, fmt, value):
    # used to print "1.0,nan" (CSV) or "1  nan" (table) and exit 0
    from ctqw import mixing

    monkeypatch.setattr(mixing, "instantaneous_mixing_scan", lambda *a, **k: [(1.0, value)])
    out_file = tmp_path / "out.txt"
    for output in ([], ["-o", str(out_file)]):
        code, out, err = run_cli(capsys, "scan", "--family", "cycle", "--n", "5",
                                 "--format", fmt, *output)
        assert code == 2 and out == ""
        assert err == "computational failure: a NaN or infinity reached the output\n"
    assert list(tmp_path.iterdir()) == []


def test_csv_and_table_are_checked_without_the_indented_encoder(capsys, monkeypatch):
    # an indented json.dumps runs the pure-Python encoder, several times slower
    # than the C one on large documents; only JSON output may use it
    import json.encoder

    if json.encoder.c_make_encoder is None:
        pytest.skip("this Python has no C JSON encoder")

    def refuse(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    for fmt in ("csv", "table"):
        code, out, _ = run_cli(capsys, "spectrum", "--family", "hypercube", "--d", "5",
                               "--format", fmt)
        assert code == 0 and out
    with pytest.raises(AssertionError, match="pure-Python"):
        main(["spectrum", "--family", "hypercube", "--d", "5"])


@pytest.mark.skipif(os.name != "posix", reason="file modes and the umask are POSIX")
@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)])
def test_output_files_follow_the_umask(tmp_path, capsys, umask, mode):
    # every -o file used to be 0600, the mode of a tempfile.mkstemp file
    out_file = tmp_path / "ok.json"
    old = os.umask(umask)
    try:
        code, _, _ = run_cli(capsys, "build", "--family", "cycle", "--n", "3", "-o", str(out_file))
    finally:
        os.umask(old)
    assert code == 0
    assert os.stat(out_file).st_mode & 0o777 == mode
    assert [p.name for p in tmp_path.iterdir()] == ["ok.json"]


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


@pytest.mark.parametrize("extra", [[], ["--amplitudes"]], ids=["probabilities", "amplitudes"])
def test_walk_runs_one_amplitude_product(capsys, monkeypatch, extra):
    from ctqw import graphs, spectra, walk

    calls = []
    names = ("class_projections", "class_amplitudes", "class_probabilities")
    for name in names:
        real = getattr(walk, name)
        monkeypatch.setattr(walk, name, lambda *a, _real=real, _name=name: calls.append(_name) or _real(*a))
    code, out, _ = run_cli(capsys, "walk", "--family", "cycle", "--n", "9", "--t", "1.3", *extra)
    assert code == 0 and calls == list(names)
    spec = spectra.graph_eigensystem(graphs.build_cycle(9))
    doc = json.loads(out)
    assert doc["probabilities"] == walk.instantaneous_distribution(spec, 0, 1.3).tolist()
    if extra:
        assert doc["amplitudes"] == [[z.real, z.imag] for z in walk.evolve(spec, 0, 1.3).tolist()]


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


def test_scan_refuses_a_window_its_refinement_cannot_resolve():
    # from t = 2^19 floats lie further apart than the refinement width; a
    # scan there once never returned, so the run has a timeout
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    argv = [sys.executable, "-m", "ctqw", "scan", "--family", "cycle", "--n", "5", "--grid", "64"]
    refused = subprocess.run([*argv, "--t-max", "6e5"], capture_output=True, text=True,
                             env=env, timeout=60)
    assert refused.returncode == 1 and refused.stdout == ""
    assert "t_max" in refused.stderr and "too large" in refused.stderr
    resolved = subprocess.run([*argv, "--t-max", "4e5"], capture_output=True, text=True,
                              env=env, timeout=60)
    assert resolved.returncode == 0 and json.loads(resolved.stdout)["minima"]


def test_verify_subcommand_reports_discrepancies(capsys):
    code, out, _ = run_cli(capsys, "verify", "--checks", "cycle_average", "--max-n", "8")
    assert code == 0
    doc = json.loads(out)
    assert any("even_cycle_C4" in d for d in doc["discrepancies"])
    code, _, err = run_cli(capsys, "verify", "--checks", "bogus")
    assert code == 1
    # an empty list ran every check, while " , " was refused
    for empty in ("", " , "):
        code, out, err = run_cli(capsys, "verify", "--checks", empty)
        assert code == 1 and out == "" and "no checks selected" in err


def test_verify_help_lists_every_check_in_order(capsys):
    from ctqw.mixing import ALL_CHECKS

    code, out, _ = run_cli(capsys, "verify", "--help")
    assert code == 0
    # argparse wraps the help text; the list reads the same with its spacing undone
    assert f"comma list from: {', '.join(ALL_CHECKS)}" in " ".join(out.split())


def _refuse_constant(name):
    raise ValueError(f"non-finite number {name} in JSON output")


@pytest.mark.parametrize("argv", [
    ["build", "--family", "bunkbed", "--base-family", "cycle", "--base-n", "4"],
    ["spectrum", "--family", "path", "--n", "5", "--eigenvectors"],
    ["spectrum", "--char-table", "S3", "--class-function", "0,1,0"],
    ["walk", "--family", "hypercube", "--d", "3", "--t", "0.7", "--amplitudes"],
    ["average", "--family", "complete", "--n", "2"],
    ["scan", "--family", "cycle", "--n", "7", "--grid", "256"],
    ["ensemble", "--n", "7", "--trials", "500", "--seed", "1"],
    ["ensemble", "--n", "10", "--exhaustive"],
    ["verify", "--max-n", "8"],
], ids=["build", "spectrum", "spectrum-char-table", "walk-amplitudes", "average", "scan",
        "ensemble", "ensemble-exhaustive", "verify"])
def test_json_output_has_no_nan_or_infinity(tmp_path, capsys, argv):
    (tmp_path / "s3.json").write_text(json.dumps(S3_TABLE))
    argv = [str(tmp_path / "s3.json") if a == "S3" else a for a in argv]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    json.loads(out, parse_constant=_refuse_constant)


@pytest.mark.parametrize("argv", [["spectrum"], ["average"], ["walk", "--t", "1"], ["scan"]],
                         ids=lambda a: a[0])
def test_one_vertex_graph_file_exits_1(tmp_path, capsys, argv):
    # used to print "spectral_gap": Infinity and "deviation_classical": NaN
    path = tmp_path / "k1.json"
    path.write_text(json.dumps({"n": 1, "adjacency_rows": ["0"]}))
    code, out, err = run_cli(capsys, *argv, "--graph-file", str(path))
    assert code == 1 and out == ""
    assert "at least 2 vertices" in err


@pytest.mark.parametrize("argv", [
    ["--max-n", "5", "--checks", "path_classical"],
    ["--max-n", "2"],
    ["--max-n", "1"],
], ids=["5-path", "2", "1"])
def test_verify_cap_below_every_check_having_a_case_exits_1(capsys, argv):
    # used to pass or flag checks over empty ranges
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 1 and out == ""
    assert "at least 6" in err


@pytest.mark.parametrize("trials", ["1", "2", "29"])
def test_verify_refuses_fewer_ensemble_trials_than_the_floor(capsys, trials):
    # every draw of a run this short may give one lambda_0, so a standard error
    # of 0 would fail a correct sampler
    code, out, err = run_cli(capsys, "verify", "--checks", "ensemble_expectations",
                             "--trials", trials, "--format", "json")
    assert code == 1 and out == ""
    assert "at least 30" in err


def test_verify_at_the_trial_floor_prints_strict_json(capsys):
    code, out, err = run_cli(capsys, "verify", "--checks", "ensemble_expectations",
                             "--trials", "30", "--format", "json")
    assert code == 0 and err == ""
    (report,) = json.loads(out, parse_constant=_refuse_constant)["reports"]
    assert [flag["status"] for flag in report["flags"].values()] == ["pass", "pass"]


def test_verify_fails_a_sampler_that_returns_one_symbol(capsys, monkeypatch):
    # above the floor a standard error of 0 means a faulty sampler: exit 2
    from ctqw import ensembles

    def one_symbol(n, entropy, trials):
        yield (np.arange(trials.start, trials.stop), np.ones((len(trials), n // 2), dtype=bool),
               np.ones(len(trials), dtype=bool))

    monkeypatch.setattr(ensembles, "_draw_rounds", one_symbol)
    code, out, err = run_cli(capsys, "verify", "--checks", "ensemble_expectations",
                             "--trials", "30", "--format", "json")
    assert code == 2 and err == ""
    (report,) = json.loads(out, parse_constant=_refuse_constant)["reports"]
    for flag in report["flags"].values():
        assert flag["status"] == "fail"
        assert "standard error 0" in flag["note"]


@pytest.mark.parametrize("factors", [[4.9], ["4"]], ids=["float", "string"])
def test_graph_file_group_factors_must_be_integers(tmp_path, capsys, factors):
    doc = _built_doc(capsys, "--family", "cycle", "--n", "4")
    doc["group_factors"] = factors  # loaded as Z_4 before the check
    path = tmp_path / "c4_bad_group.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "spectrum", "--graph-file", str(path))
    assert code == 1 and out == ""
    assert "group factors must be a list of integers" in err


def test_graph_file_boolean_n_exits_1(tmp_path, capsys):
    # JSON true passed as n = 1 and then failed in reshape with a TypeError
    path = tmp_path / "bool_n.json"
    path.write_text(json.dumps({"n": True, "adjacency_rows": ["0"]}))
    code, out, err = run_cli(capsys, "spectrum", "--graph-file", str(path))
    assert code == 1 and out == ""
    assert "boolean" in err


def test_char_table_boolean_values_exit_1(tmp_path, capsys):
    path = tmp_path / "z2_bools.json"
    path.write_text(json.dumps({"class_sizes": [1, 1], "dims": [1, 1],
                                "chars": [[[True, 0], [1, 0]], [[1, 0], [-1, False]]]}))
    code, out, err = run_cli(capsys, "spectrum", "--char-table", str(path),
                             "--class-function", "0,1")
    assert code == 1 and out == ""
    assert "real numbers" in err


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
    # --eigenvectors adds them to the JSON document only
    eigenvectors = [] if fmt == "json" else ["--eigenvectors"]
    code, out, err = run_cli(capsys, "spectrum", "--family", "hypercube", "--d", "8",
                             "--format", fmt, *eigenvectors)
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


def test_an_input_too_large_to_hold_is_a_computational_failure(capsys, monkeypatch):
    # numpy raises MemoryError (_ArrayMemoryError) for an array it cannot
    # allocate, as `spectrum --family hypercube --d 40` does; faked here, so
    # no test allocates a huge array
    from ctqw import cli

    message = "Unable to allocate 1.00 TiB for an array with shape (1099511627776,)"

    def too_large(d):
        raise MemoryError(message)

    monkeypatch.setitem(cli._SIZED_FAMILIES, "hypercube", ("d", too_large, True))
    for command in ("build", "spectrum", "average"):
        code, out, err = run_cli(capsys, command, "--family", "hypercube", "--d", "40")
        assert code == 2 and out == ""
        assert err == f"computational failure: {message}\n"

    def bare(n):
        raise MemoryError

    monkeypatch.setitem(cli._SIZED_FAMILIES, "cycle", ("n", bare, True))
    code, out, err = run_cli(capsys, "build", "--family", "cycle", "--n", "10000000000")
    assert (code, out, err) == (2, "", "computational failure: out of memory\n")


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


def test_blocked_jacobi_route_agrees_across_openblas_thread_counts():
    # C_128 runs the blocked oracle, whose matrix products go through BLAS
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    argv = [sys.executable, "-m", "ctqw", "spectrum", "--dense", "--family", "cycle", "--n", "128"]
    docs = {}
    for threads in ("1", "2"):
        runs = [subprocess.run(argv, capture_output=True, timeout=120,
                               env={**env, "OPENBLAS_NUM_THREADS": threads}) for _ in range(2)]
        assert [r.returncode for r in runs] == [0, 0], runs[0].stderr
        assert runs[0].stdout == runs[1].stdout, threads  # repeats byte for byte
        docs[threads] = json.loads(runs[0].stdout)
    one, two = docs["1"], docs["2"]
    bound = 1e-12 * (1.0 + math.sqrt(2 * 128))  # ||A||_F of C_128
    assert np.max(np.abs(np.subtract(one["eigenvalues"], two["eigenvalues"]))) <= bound
    for key in ("multiplicities", "degeneracy_classes", "spectral_gap", "type"):
        assert one[key] == two[key], key


@pytest.mark.parametrize("family", [["--family", "cycle", "--n", "257"],
                                    ["--family", "hypercube", "--d", "10"]], ids=["C257", "Q10"])
def test_scans_repeat_across_openblas_thread_counts(family):
    # every scan evaluation is a BLAS matrix product, and a printed deviation's
    # last bits depend on the batch it is evaluated in: the output must still
    # repeat byte for byte on one and on two OpenBLAS threads
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    argv = [sys.executable, "-m", "ctqw", "scan", *family]
    outputs = {}
    for threads in ("1", "2"):
        runs = [subprocess.run(argv, capture_output=True, timeout=120,
                               env={**env, "OPENBLAS_NUM_THREADS": threads}) for _ in range(2)]
        assert [r.returncode for r in runs] == [0, 0], runs[0].stderr
        assert runs[0].stdout == runs[1].stdout, threads  # repeats byte for byte
        outputs[threads] = runs[0].stdout
    assert outputs["1"] == outputs["2"]
    assert len(json.loads(outputs["1"])["minima"]) == {"cycle": 955, "hypercube": 637}[family[1]]


def test_verify_repeats_across_openblas_thread_counts():
    # the dense oracle's Jacobi stacks and the scans run BLAS products: the
    # report must be the same bytes on one and on two OpenBLAS threads
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    argv = [sys.executable, "-m", "ctqw", "verify", "--format", "json", "--seed", "7"]
    runs = {threads: subprocess.run(argv, capture_output=True, timeout=300,
                                    env={**env, "OPENBLAS_NUM_THREADS": threads})
            for threads in ("1", "2")}
    assert [r.returncode for r in runs.values()] == [0, 0], runs["1"].stderr
    assert runs["1"].stdout == runs["2"].stdout
    assert json.loads(runs["1"].stdout)["reports"]


@pytest.mark.parametrize("change", [
    "[1, 2]", '"x"', {"base": 5}, {"base": None}, {"symbol_support": 5}, {"group_factors": 3},
    {"symbol_support": [True, 2]}, {"labels": 5}, {"labels": ["a"]}, {"labels": [1, 2, 3]},
    {"family": 7},
], ids=["list", "string", "base-5", "base-null", "support-5", "factors-3", "support-bool",
        "labels-5", "labels-short", "labels-ints", "family-7"])
@pytest.mark.parametrize("command", ["build", "spectrum"])
def test_graph_file_of_the_wrong_shape_exits_1(tmp_path, capsys, command, change):
    # a traceback, or a cast or echoed value with exit 0, before the checks;
    # a string is the whole file, a dict changes the keys of C_3's file
    text = change if isinstance(change, str) else json.dumps(
        {**_built_doc(capsys, "--family", "cycle", "--n", "3"), **change})
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, command, "--graph-file", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: ")


def test_scan_refuses_a_negative_eps(capsys):
    # -inf printed "eps": null, the encoding of no threshold, and no minimum
    for eps in ("-inf", "-1e-9"):
        code, out, err = run_cli(capsys, "scan", "--family", "cycle", "--n", "5", f"--eps={eps}")
        assert code == 1 and out == ""
        assert err.startswith("error: eps must be >= 0")
    assert run_cli(capsys, "scan", "--family", "cycle", "--n", "5", "--eps=0")[0] == 0


def test_dense_routes_over_the_budget_exit_1(capsys, monkeypatch):
    from ctqw import spectra

    monkeypatch.setattr(spectra, "DENSE_BUDGET", spectra.DENSE_ARRAYS * 8 * 12 * 12 - 1)
    for argv in (["spectrum", "--dense", "--family", "cycle", "--n", "12"],
                 ["average", "--family", "complete_bipartite", "--n", "6"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: dense eigensystem of n = 12 refused") and "bytes" in err
    code, _, _ = run_cli(capsys, "spectrum", "--dense", "--family", "cycle", "--n", "11")
    assert code == 0


@pytest.mark.parametrize("argv", [
    ["spectrum", "--family", "cycle", "--n", "12"],
    ["spectrum", "--family", "cycle", "--n", "12", "--format", "table"],
    ["spectrum", "--family", "cycle", "--n", "12", "--format", "csv"],
    ["average", "--family", "cycle", "--n", "12"],
    ["average", "--family", "hypercube", "--d", "4", "--format", "table"],
], ids=["spectrum-json", "spectrum-table", "spectrum-csv", "average-json", "average-table"])
def test_each_command_cuts_the_degeneracy_labels_once(capsys, monkeypatch, argv):
    from ctqw import graphs, spectra, walk

    cuts = []
    exact = spectra.degeneracy_labels

    def counted(desc, tol):
        cuts.append(tol)
        return exact(desc, tol)

    monkeypatch.setattr(spectra, "degeneracy_labels", counted)
    monkeypatch.setattr(walk, "degeneracy_labels", counted)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and cuts == [1e-9]
    if "--format" not in argv:
        doc = json.loads(out)
        spec = spectra.graph_eigensystem(graphs.build_cycle(12))
        assert doc["spectral_gap"] == spectra.spectral_gap(spec) == 0.0
        assert doc["type"] == spectra.spectrum_type(spec) == 7


def test_commands_in_one_process_run_as_they_run_alone(capsys):
    # `main` builds its parser once per process and reuses it for every call
    commands = [
        ["build", "--family", "cycle", "--n", "6"],
        ["spectrum", "--family", "hypercube", "--d", "3"],
        ["walk", "--family", "cycle", "--n", "5"],  # no --t: a usage error
        ["ensemble", "--n", "7", "--trials", "200", "--seed", "3"],
    ]
    together = [run_cli(capsys, *argv) for argv in commands]
    assert [code for code, _, _ in together] == [0, 0, 1, 0]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    for argv, (code, out, err) in zip(commands, together):
        alone = subprocess.run([sys.executable, "-m", "ctqw", *argv], capture_output=True,
                               text=True, env=env, timeout=120)
        assert (alone.returncode, alone.stdout, alone.stderr) == (code, out, err), argv


def test_no_command_imports_numpy_ma(tmp_path):
    # numpy's plain np.unique(x) and np.unique(x, axis=0) import numpy.ma on
    # their first call (about 16 ms and 1 MB on numpy 2.4); np.unique with
    # return_* arguments, as ctqw calls it, does not
    commands = [
        ["ensemble", "--n", "24", "--trials", "2000", "--seed", "1"],
        ["ensemble", "--n", "12", "--exhaustive"],
        ["average", "--family", "hypercube", "--d", "4"],
        ["scan", "--family", "cycle", "--n", "9"],
        ["spectrum", "--dense", "--family", "cycle", "--n", "9"],
        ["verify", "--max-n", "8", "--trials", "30"],
    ]
    script = (
        "import json, sys\n"
        "from ctqw.cli import main\n"
        "seen = []\n"
        "for i, argv in enumerate(json.loads(sys.argv[1])):\n"
        "    code = main([*argv, '-o', f'{sys.argv[2]}/out{i}'])\n"
        "    seen.append([code, 'numpy.ma' in sys.modules])\n"
        "print(json.dumps(seen))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(commands), str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0, False]] * len(commands)


def test_importing_the_cli_does_not_load_logging():
    # no module imports logging, so no command pays for it at start-up
    script = "import sys\nimport ctqw.cli\nprint('logging' in sys.modules)\n"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
