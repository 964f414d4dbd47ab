"""ctqw benchmark runner.

    python3 ctqwbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it imports `ctqw` from ./src).  One
closed-loop client: passes run one after another, each in a fresh interpreter
(worker.py), and each pass runs the workload's `ctqw` commands serially
through `ctqw.cli.main(argv)`.  Passes start until --seconds have elapsed; the
pass in flight finishes.  After every pass the outputs are checked against
independent oracles (oracles.py), outside the timed region, and must be byte
identical to the first pass's.

--trace 0 reports the end-to-end metrics (medians over passes): wall_s,
setup_s (median of every pass's set-up plus SETUP_PROBES set-up-only starts)
and peak_rss_mb.  --trace 1 alternates untraced and traced passes and reports
the per-layer metrics of tracer.py, plus the tracing overhead.  The last line
of stdout is the result JSON; the lines before it give quartiles, the
environment, fail_ratio and (ensemble_mc) trials_per_s.  A full report is
written to .bench_build/ctqwbench/.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5
HARD_LIMIT_S = 170.0  # every run must end within 180 s
NOISE_NOTE = (
    "Shared 2-CPU sandbox: one instantaneous_uniform check took 0.97 s against 0.12-0.14 s "
    "in fresh processes, and single large_graphs passes took 4.2-6.5 s. The runner runs "
    "several fresh-interpreter passes per run and reports medians with quartiles; "
    "confirm.py interleaves workloads across seeds."
)


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def blas_info() -> dict:
    """OpenBLAS version and thread count of the numpy in use."""
    info = {"blas_version": None, "blas_threads": None}
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas_version"] = f"{cfg.get('name')} {cfg.get('version')}"
    except (KeyError, TypeError):
        pass
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {ln.split()[-1] for ln in fh if "openblas" in ln and ln.split()[-1].startswith("/")}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas_info(),
        "CTQW_THREADS": os.environ.get("CTQW_THREADS", "unset"),
        "noise": NOISE_NOTE,
    }


def quartiles(values: list[float]) -> dict:
    v = sorted(values)
    if len(v) == 1:
        return {"median": v[0], "q1": v[0], "q3": v[0], "n": 1}
    q1, q2, q3 = statistics.quantiles(v, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "n": len(v)}


class Run:
    def __init__(self, args):
        self.args = args
        self.start = clock()
        self.workdir = os.path.join(ROOT, ".bench_build", "ctqwbench",
                                    f"{args.workload}-{args.seed}-{os.getpid()}")
        os.makedirs(self.workdir, exist_ok=True)
        self.plan = workloads.plan(args.workload, args.seed, self.workdir)
        self.env = {k: v for k, v in os.environ.items() if k != "CTQW_THREADS"}
        self.first_outputs: dict[str, bytes] = {}
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def remaining(self) -> float:
        return HARD_LIMIT_S - (clock() - self.start)

    def spawn(self, *extra: str) -> tuple[dict | None, float]:
        """Run one worker; returns its result (None on failure) and its set-up time."""
        for name in ("pass.json", "spans.json"):
            path = os.path.join(self.workdir, name)
            if os.path.exists(path):
                os.unlink(path)
        cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), "--workload",
               self.args.workload, "--seed", str(self.args.seed), "--workdir", self.workdir, *extra]
        spawned = clock()
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                                  timeout=max(self.remaining(), 1.0))
        except subprocess.TimeoutExpired:
            self.problems.append(f"worker {' '.join(extra)} timed out")
            return None, 0.0
        if proc.returncode != 0:
            self.problems.append(f"worker exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
            return None, 0.0
        with open(os.path.join(self.workdir, "pass.json"), encoding="utf-8") as fh:
            result = json.load(fh)
        if proc.stderr.strip():
            result["stderr"] = proc.stderr.strip()[-500:]
        return result, result["ready"] - spawned

    def one_pass(self, traced: bool) -> dict | None:
        for op in self.plan.ops:
            if os.path.exists(op.output):
                os.unlink(op.output)
        result, setup = self.spawn(*(["--trace"] if traced else []))
        self.attempted += len(self.plan.ops)
        if result is None:
            self.failed += len(self.plan.ops)
            return None
        result["setup_s"] = setup
        result["output_bytes"] = 0
        for op, rec in zip(self.plan.ops, result["ops"]):
            errors = self.check(op, rec, result.get("stderr", ""))
            if errors:
                self.failed += 1
                self.problems.append(f"{op.name}: {'; '.join(errors)}"[:1000])
            if os.path.exists(op.output):
                result["output_bytes"] += os.path.getsize(op.output)
        if traced:
            with open(os.path.join(self.workdir, "spans.json"), encoding="utf-8") as fh:
                result["layers"] = tracer.layer_metrics(json.load(fh))
        return result

    def check(self, op, rec: dict, stderr: str) -> list[str]:
        errors = [] if rec["rc"] == 0 else [f"exit {rec['rc']} {rec['error'] or stderr}".strip()]
        try:
            with open(op.output, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            return errors + [f"no output: {exc}"]
        return (errors + oracles.check_op(op, data.decode("utf-8", errors="replace"))
                + oracles.check_repeat(self.first_outputs, op.name, data))

    def passes(self, traced_pattern: tuple[bool, ...]) -> list[dict]:
        """Passes cycling through traced_pattern until --seconds have elapsed."""
        done: list[dict] = []
        i = 0
        while i < len(traced_pattern) or clock() - self.start < self.args.seconds:
            traced = traced_pattern[i % len(traced_pattern)]
            result = self.one_pass(traced)
            i += 1
            if result is None:
                break
            result["traced"] = traced
            done.append(result)
        return done

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def summarize(run: Run, results: list[dict], setup_probes: list[float]) -> tuple[dict, dict]:
    """(metrics for the result line, full report)."""
    untraced = [r for r in results if not r["traced"]]
    traced = [r for r in results if r["traced"]]
    report: dict = {"workload": run.args.workload, "seed": run.args.seed,
                    "derived_seeds": {k: v for k, v in workloads.derived_seeds(run.args.seed).items()
                                      if k != "graph"},
                    "passes": {"untraced": len(untraced), "traced": len(traced)},
                    "attempted": run.attempted, "failed": run.failed,
                    "fail_ratio": run.failed / run.attempted if run.attempted else 1.0,
                    "problems": run.problems}
    stats = {
        "wall_s": quartiles([r["wall_s"] for r in untraced]),
        "setup_s": quartiles([r["setup_s"] for r in untraced] + setup_probes),
        "peak_rss_mb": quartiles([r["peak_rss_mb"] for r in untraced]),
        # CPU time of the pass process (all threads), printed beside wall_s so
        # that a slower shared CPU can be told apart from waiting
        "cpu_s": quartiles([r["cpu_s"] for r in untraced]),
    }
    sampling = [op for op in run.plan.ops if op.trials]
    if sampling:
        trials = sum(op.trials for op in sampling)
        names = {op.name for op in sampling}
        stats["trials_per_s"] = quartiles(
            [trials / sum(o["seconds"] for o in r["ops"] if o["name"] in names) for r in untraced])
    report["ops_s"] = {op.name: quartiles([r["ops"][i]["seconds"] for r in untraced])
                       for i, op in enumerate(run.plan.ops)}
    report["end_to_end"] = stats
    if not run.args.trace:
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        metrics = {k: {"value": stats[k]["median"], "unit": u} for k, u in units.items()}
        return metrics, report
    layer_names = traced[0]["layers"].keys()
    layers = {k: statistics.median(r["layers"][k] for r in traced) for k in layer_names}
    layers["cli.output_bytes"] = statistics.median(r["output_bytes"] for r in traced)
    layers["trace.overhead_ratio"] = (statistics.median(r["wall_s"] for r in traced)
                                      / stats["wall_s"]["median"] - 1.0)
    report["per_layer"] = layers
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer"]
    metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in declared}
    return metrics, report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "ctqw", "cli.py")):
        print(f"error: no ctqw sources under {os.path.join(ROOT, 'src')}; "
              "run from the root of a ctqw checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2

    run = Run(args)
    probes: list[float] = []
    try:
        if args.trace:
            results = run.passes((False, True))
        else:
            for _ in range(SETUP_PROBES):
                result, setup = run.spawn("--setup-only")
                if result is not None:
                    probes.append(setup)
            results = run.passes((False,))
        if {r["traced"] for r in results} != ({False, True} if args.trace else {False}):
            print("error: no pass completed: " + "; ".join(run.problems)[-2000:], file=sys.stderr)
            return 2
        metrics, report = summarize(run, results, probes)
    finally:
        run.close()

    report["environment"] = environment()
    report["seconds"] = clock() - run.start
    out = os.path.join(os.path.dirname(run.workdir), f"last-{args.workload}-trace{args.trace}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)

    print(f"ctqwbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={report['passes']} elapsed={report['seconds']:.1f}s")
    print("environment " + json.dumps(report["environment"]))
    for name, q in report["end_to_end"].items():
        print(f"{name:<14} median {q['median']:.6g}  q1 {q['q1']:.6g}  q3 {q['q3']:.6g}  (n={q['n']})")
    print(f"fail_ratio     {report['fail_ratio']:.6g}  ({run.failed} of {run.attempted} ops failed)")
    for problem in run.problems:
        print(f"problem: {problem}")
    for name, value in report.get("per_layer", {}).items():
        print(f"{name:<26} {value:.6g}")
    print(json.dumps({"correct": run.failed == 0 and not run.problems, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
