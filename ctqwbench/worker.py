"""One workload pass in a fresh interpreter; started by run.py, not by hand.

Set-up (importing numpy and `ctqw`, writing the seeded inputs) ends at the
`ready` clock reading, which the runner subtracts from its spawn time.  The
pass then calls `ctqw.cli.main(argv)` once per op, serially, timing each call.
Results, and spans when traced, go to JSON files in the work directory after
the timed region.

    python3 ctqwbench/worker.py --workload W --seed S --workdir D [--trace] [--setup-only]
"""

import argparse
import json
import os
import resource
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, SRC)
    import ctqw.cli  # imports numpy too: part of what a CLI user pays on every command
    import workloads

    if os.path.dirname(os.path.abspath(ctqw.__file__)) != os.path.join(SRC, "ctqw"):
        print(f"ctqw imported from {ctqw.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    plan = workloads.plan(args.workload, args.seed, args.workdir)
    workloads.write_inputs(plan)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    result = {"ready": ready}
    if not args.setup_only:
        tracer = None
        if args.trace:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracer.install()
            tracer.begin_root()
        ops = []
        cpu_start = os.times()
        start = time.perf_counter()
        for op in plan.ops:
            t0 = time.perf_counter()
            try:
                rc, error = ctqw.cli.main(op.argv), None
            except Exception as exc:  # an op that raises counts as failed
                rc, error = None, f"{type(exc).__name__}: {exc}"
            ops.append({"name": op.name, "seconds": time.perf_counter() - t0, "rc": rc,
                        "error": error})
        wall = time.perf_counter() - start
        cpu_end = os.times()
        if tracer is not None:
            tracer.end_root()
            with open(os.path.join(args.workdir, "spans.json"), "w", encoding="utf-8") as fh:
                json.dump(tracer.dump(), fh, separators=(",", ":"))
        result.update(ops=ops, wall_s=wall,
                      cpu_s=(cpu_end.user - cpu_start.user) + (cpu_end.system - cpu_start.system),
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    with open(os.path.join(args.workdir, "pass.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
