"""Pinned CLI outputs: rewrite them, or compare the current ones byte for byte.

    PYTHONPATH=src python tests/golden.py --write   # regenerate tests/data/golden/
    PYTHONPATH=src python tests/golden.py --check   # exit 1 unless every output is the same bytes

`--check` is the exact comparison for one platform and BLAS build.  For each
file that differs it prints every moved leaf (`leaves`): its JSON path, the
pinned value, the new value and the relative move; for the table format,
every moved line.  The Tier-1 test (`tests/test_golden.py`) compares the same
outputs within stated float bounds, so that it passes on other numpy versions
and runner CPUs, except the ensemble outputs, which it compares byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import tempfile
from pathlib import Path

from ctqw.cli import main as ctqw

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "golden"

# one graph of each family, as `ctqw` graph arguments
FAMILIES = {
    "C9": ["--family", "cycle", "--n", "9"],
    "K6": ["--family", "complete", "--n", "6"],
    "P7": ["--family", "path", "--n", "7"],
    "Q4": ["--family", "hypercube", "--d", "4"],
    "K44": ["--family", "complete_bipartite", "--n", "4"],
    "Z4xZ6": ["--family", "circulant", "--group", "4,6", "--symbol", "1,5,6,7,18,23"],
    "bunkbed_C5": ["--family", "bunkbed", "--base-family", "cycle", "--base-n", "5"],
}
# user symbols, checked by `Symbol.validate`, on a cyclic and two non-cyclic groups
SYMBOLS = {
    "Z12": ["--family", "circulant", "--group", "12", "--symbol", "3,4,8,9"],
    "Z2xZ2xZ2": ["--family", "circulant", "--group", "2,2,2", "--symbol", "1,2,4"],
    "Z4xZ6": FAMILIES["Z4xZ6"],
}

# --format -> the suffix of its pinned file
FORMATS = {"json": ".json", "csv": ".csv", "table": "_table.txt"}

# file name -> the `ctqw` arguments whose output it pins
CASES = {
    "verify_seed7.json": ["verify", "--format", "json", "--seed", "7"],
    "verify_seed1641411168.json": ["verify", "--format", "json", "--seed", "1641411168"],
    "verify_seed938443845.json": ["verify", "--format", "json", "--seed", "938443845"],
    "verify_seed7_table.txt": ["verify", "--format", "table", "--seed", "7"],
    **{f"verify_max_n{n}.json": ["verify", "--format", "json", "--max-n", str(n)]
       for n in (6, 8, 13)},
    "scan_C257.json": ["scan", "--family", "cycle", "--n", "257"],
    "scan_Q10.json": ["scan", "--family", "hypercube", "--d", "10"],
    **{f"{cmd}_{name}.json": [cmd, *graph] for name, graph in {**FAMILIES, **SYMBOLS}.items()
       for cmd in ("build", "spectrum")},
    # a graph file's `symbol_support` is a user symbol too
    "spectrum_file_Z4xZ6.json": ["spectrum", "--graph-file", str(DATA / "circulant_4x6.json")],
    "spectrum_dense_C128.json": ["spectrum", "--family", "cycle", "--n", "128", "--dense"],
    **{f"average_{name}.json": ["average", *graph] for name, graph in FAMILIES.items()},
    **{f"walk_{name}.json": ["walk", *graph, "--t", "1.3"] for name, graph in FAMILIES.items()},
    "walk_K12_t100_amplitudes.json": ["walk", "--family", "complete", "--n", "12", "--t", "100",
                                      "--amplitudes"],
    **{f"ensemble_exhaustive_n{n}.json": ["ensemble", "--n", str(n), "--exhaustive"]
       for n in range(3, 21)},
    # sampled runs: n//2 odd at n = 7 and 11 (streams with and without a
    # buffered coin), runs past one block of trials, and at n = 40, 101 and
    # 365 a new symbol on nearly every draw (at n = 40 in several blocks of
    # statistics rows)
    **{f"ensemble_n{n}_trials{trials}_seed{seed}.json":
       ["ensemble", "--n", str(n), "--trials", str(trials), "--seed", str(seed)]
       for n, trials, seed in ((7, 100000, 1), (24, 20000, 1), (11, 9000, 2), (101, 2000, 3),
                               (3, 1, 0), (40, 20000, 4), (365, 300, 9))},
    # the class-function circulant route, in every format
    **{f"spectrum_char_table_S3{suffix}":
       ["spectrum", "--char-table", str(DATA / "s3_char_table.json"), "--class-function", "0,1,0",
        "--format", fmt]
       for fmt, suffix in FORMATS.items()},
    # the CSV and table formats: one graph per command, a scan with no minima
    # below eps, and a sampled and an exhaustive ensemble
    **{f"{name}{suffix}": [*argv, "--format", fmt]
       for name, argv in {
           "spectrum_Q4": ["spectrum", *FAMILIES["Q4"]],
           "walk_C9": ["walk", *FAMILIES["C9"], "--t", "1.3"],
           "average_P7": ["average", *FAMILIES["P7"]],
           "scan_C9": ["scan", *FAMILIES["C9"]],
           "scan_C9_eps1e-9": ["scan", *FAMILIES["C9"], "--t-max", "12", "--eps", "1e-9"],
           "ensemble_n7_trials5000_seed1": ["ensemble", "--n", "7", "--trials", "5000",
                                            "--seed", "1"],
           "ensemble_exhaustive_n10": ["ensemble", "--n", "10", "--exhaustive"],
       }.items()
       for fmt, suffix in FORMATS.items() if fmt != "json"},
}


def render(argv: list[str]) -> bytes:
    """The bytes `ctqw <argv>` writes, run in this process."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        code = ctqw([*argv, "--output", str(out)])
        if code != 0:
            raise RuntimeError(f"ctqw {' '.join(argv)} exited {code}")
        return out.read_bytes()


def leaves(got, want, kind: str = "float", where: str = "$"):
    """(path, kind, got, want) for each leaf of two JSON documents, walked
    along `want`; a dict or list whose keys or length differ is one leaf.
    A list of [time, deviation] pairs and a scan's {"t", "deviation"} entries
    are scan minima, of kinds "time" and "minimum"; every other leaf keeps
    the `kind` of its parent."""
    if isinstance(want, dict) and isinstance(got, dict) and list(got) == list(want):
        for key, value in want.items():
            sub = {"t": "time", "deviation": "minimum"}.get(key, kind)
            yield from leaves(got[key], value, sub, f"{where}.{key}")
    elif isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        minima = bool(want) and all(isinstance(x, list) and len(x) == 2 for x in want)
        for i, (g, w) in enumerate(zip(got, want)):
            if minima and isinstance(g, list) and len(g) == 2:
                yield from leaves(g[0], w[0], "time", f"{where}[{i}][0]")
                yield from leaves(g[1], w[1], "minimum", f"{where}[{i}][1]")
            else:
                yield from leaves(g, w, kind, f"{where}[{i}]")
    else:
        yield where, kind, got, want


def moved(name: str, got: bytes, want: bytes) -> list[str]:
    """One line per leaf (JSON) or line (table) of the pinned `want` that `got` moves."""
    if not name.endswith(".json"):
        pairs = zip(got.decode().splitlines(), want.decode().splitlines())
        return [f"  line {i + 1}: {w!r} -> {g!r}" for i, (g, w) in enumerate(pairs) if g != w]
    lines = []
    for where, _, g, w in leaves(json.loads(got), json.loads(want)):
        if repr(g) != repr(w):  # repr tells 1 from 1.0 and prints every bit of a float
            move = (f"  ({abs(g - w) / abs(w):.1e} relative)"
                    if type(g) is type(w) is float and math.isfinite(w) and w else "")
            lines.append(f"  {where}: {w!r} -> {g!r}{move}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="rewrite every pinned output")
    mode.add_argument("--check", action="store_true", help="compare every output byte for byte")
    args = parser.parse_args(argv)
    if args.write:
        GOLDEN.mkdir(parents=True, exist_ok=True)
    bad = []
    for name, cmd in CASES.items():
        path = GOLDEN / name
        try:
            data = render(cmd)
        except RuntimeError as exc:  # a failed command pins nothing and matches nothing
            print(f"{name}: {exc}")
            bad.append(name)
            continue
        if args.write:
            path.write_bytes(data)
        elif not path.exists() or path.read_bytes() != data:
            print(f"differs: {name}  (ctqw {' '.join(cmd)})")
            for line in moved(name, data, path.read_bytes()) if path.exists() else ():
                print(line)
            bad.append(name)
    print(f"{len(CASES) - len(bad)} of {len(CASES)} outputs "
          + ("written" if args.write else "identical"))
    return 1 if bad else 0

if __name__ == "__main__":
    sys.exit(main())
