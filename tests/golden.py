"""Pinned CLI outputs: rewrite them, or compare the current ones byte for byte.

    PYTHONPATH=src python tests/golden.py --write   # regenerate tests/data/golden/
    PYTHONPATH=src python tests/golden.py --check   # exit 1 unless every output is the same bytes

`--check` is the exact comparison for one platform and BLAS build.  The
Tier-1 test (`tests/test_golden.py`) compares the same outputs within stated
float bounds, so that it passes on other numpy versions and runner CPUs.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

from ctqw.cli import main as ctqw

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"

# file name -> the `ctqw` arguments whose output it pins
CASES = {
    "verify_seed7.json": ["verify", "--format", "json", "--seed", "7"],
    "verify_seed1641411168.json": ["verify", "--format", "json", "--seed", "1641411168"],
    "verify_seed938443845.json": ["verify", "--format", "json", "--seed", "938443845"],
    "verify_seed7_table.txt": ["verify", "--format", "table", "--seed", "7"],
    "verify_max_n6.json": ["verify", "--format", "json", "--max-n", "6"],
    "scan_C257.json": ["scan", "--family", "cycle", "--n", "257"],
    "scan_Q10.json": ["scan", "--family", "hypercube", "--d", "10"],
}


def render(argv: list[str]) -> bytes:
    """The bytes `ctqw <argv>` writes, run in this process."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        code = ctqw([*argv, "--output", str(out)])
        if code != 0:
            raise RuntimeError(f"ctqw {' '.join(argv)} exited {code}")
        return out.read_bytes()


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
            bad.append(name)
    print(f"{len(CASES) - len(bad)} of {len(CASES)} outputs "
          + ("written" if args.write else "identical"))
    return 1 if bad else 0

if __name__ == "__main__":
    sys.exit(main())
