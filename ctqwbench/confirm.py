"""Repeat run.py over several seeds, interleaving the workloads, and report
each end-to-end metric's median, quartiles and spread against its bound.

    python3 ctqwbench/confirm.py --seeds 1-10 [--workloads a,b] [--trace 0|1] [--out FILE]

Runs go round-robin (seed 1 on every workload, then seed 2, ...), so slow
drift in a shared machine's load spreads over all workloads instead of
landing on one.  Spread is (q3 - q1) / median with statistics.quantiles(n=4);
a metric is steady when its spread stays below a third of its bound.
Exit status 1 if any run fails or reports an incorrect output.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write every run's result line and the summary here")
    args = ap.parse_args()
    names = args.workloads.split(",")
    values: dict[str, dict[str, list[float]]] = {w: {} for w in names}
    ok = True
    for seed in parse_seeds(args.seeds):
        for w in names:
            cmd = [*bench["command"], "--workload", w, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {proc.returncode} {proc.stderr.strip()[-300:]}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok &= bool(result["correct"])
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            shown = " ".join(f"{k}={m['value']:.5g}" for k, m in result["metrics"].items())
            print(f"{w:<15} seed {seed:<3} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {shown}", flush=True)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    summary = {}
    print(f"\n{'workload':<15} {'metric':<26} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for w, metrics in values.items():
        for name, vals in metrics.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            summary.setdefault(w, {})[name] = {"median": med, "q1": q1, "q3": q3,
                                               "spread": spread, "n": len(vals), "values": vals}
            flag = ""
            if bound is not None:
                flag = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
            print(f"{w:<15} {name:<26} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} "
                  f"{bound if bound is not None else '':>6} {flag}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
