"""The benchmark's workloads: seeded inputs and the `ctqw` commands of one pass.

Everything here is derived from the workload seed alone, so the worker (which
writes the inputs and runs the commands) and the runner (which checks the
outputs) agree on every input without passing anything but the seed.  Only
numpy is used: the generated inputs must not depend on the program under test.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("verify_default", "ensemble_mc", "large_graphs")

# Sizes fixed by the workload definitions (see README.md for why each was chosen).
ENSEMBLE_RUNS = ((7, 100_000), (24, 20_000))
EXHAUSTIVE_N = 20
HYPERCUBE_SPECTRUM_D = 11
HYPERCUBE_AVERAGE_D = 10
SCAN_CYCLE_N = 257
DENSE_CYCLE_N = 128
CUSTOM_GRAPH_N = 96
CUSTOM_GRAPH_P = 0.1


@dataclass
class Op:
    """One `ctqw` command of a pass: argv, output file, and the oracle
    (a name in oracles.CHECKS) with its parameters."""

    name: str
    argv: list[str]
    output: str
    oracle: str
    params: dict = field(default_factory=dict)
    trials: int = 0  # trials sampled; nonzero marks a sampling command


@dataclass
class Plan:
    ops: list[Op]
    inputs: dict[str, str] = field(default_factory=dict)  # path -> content


def derived_seeds(seed: int) -> dict:
    """The seeds handed to the program, derived from the workload seed."""
    if seed < 0:
        raise ValueError("workload seed must be non-negative")
    children = np.random.SeedSequence(seed).spawn(4)
    state = [int(c.generate_state(1)[0]) for c in children[:3]]
    return {
        "verify": state[0],
        "ensemble": {n: s for (n, _), s in zip(ENSEMBLE_RUNS, state[1:])},
        "graph": children[3],
    }


def random_connected_graph(n: int, p: float, seed_seq: np.random.SeedSequence) -> np.ndarray:
    """G(n, p) adjacency, redrawn from the same stream until it is connected."""
    rng = np.random.Generator(np.random.PCG64(seed_seq))
    while True:
        upper = np.triu(rng.random((n, n)) < p, k=1)
        adj = (upper | upper.T).astype(np.uint8)
        seen = np.zeros(n, dtype=bool)
        seen[0] = True
        frontier = seen.copy()
        while frontier.any():
            frontier = (adj[frontier].any(axis=0)) & ~seen
            seen |= frontier
        if seen.all():
            return adj


def graph_json(adj: np.ndarray) -> str:
    """A custom graph in the program's documented `ctqw/1` graph-file format."""
    rows = ["".join("1" if x else "0" for x in row) for row in adj]
    return json.dumps({"schema": "ctqw/1", "n": int(adj.shape[0]), "family": "custom",
                       "adjacency_rows": rows})


def plan(workload: str, seed: int, workdir: str) -> Plan:
    """The ops of one pass of `workload`; output and input paths live in workdir."""
    seeds = derived_seeds(seed)

    def out(name: str) -> str:
        return os.path.join(workdir, name)

    if workload == "verify_default":
        ops = [Op("verify", ["verify", "--format", "json", "--seed", str(seeds["verify"]),
                             "-o", out("verify.json")], out("verify.json"), "verify")]
        return Plan(ops)

    if workload == "ensemble_mc":
        ops = []
        for n, trials in ENSEMBLE_RUNS:
            s = seeds["ensemble"][n]
            path = out(f"ensemble_{n}.json")
            ops.append(Op(f"ensemble_n{n}", ["ensemble", "--n", str(n), "--trials", str(trials),
                                             "--seed", str(s), "-o", path], path,
                          "ensemble", {"n": n, "trials": trials, "seed": s}, trials=trials))
        path = out(f"exhaustive_{EXHAUSTIVE_N}.json")
        ops.append(Op(f"exhaustive_n{EXHAUSTIVE_N}",
                      ["ensemble", "--n", str(EXHAUSTIVE_N), "--exhaustive", "-o", path], path,
                      "exhaustive", {"n": EXHAUSTIVE_N}))
        return Plan(ops)

    if workload == "large_graphs":
        adj = random_connected_graph(CUSTOM_GRAPH_N, CUSTOM_GRAPH_P, seeds["graph"])
        gfile = out("custom_graph.json")
        d_spec, d_avg = HYPERCUBE_SPECTRUM_D, HYPERCUBE_AVERAGE_D
        ops = [
            Op(f"spectrum_Q{d_spec}", ["spectrum", "--family", "hypercube", "--d", str(d_spec),
                                       "--format", "table", "-o", out("q_spectrum.txt")],
               out("q_spectrum.txt"), "hypercube_table", {"d": d_spec}),
            Op(f"average_Q{d_avg}", ["average", "--family", "hypercube", "--d", str(d_avg),
                                     "-o", out("q_average.json")],
               out("q_average.json"), "hypercube_average", {"d": d_avg}),
            Op(f"scan_C{SCAN_CYCLE_N}", ["scan", "--family", "cycle", "--n", str(SCAN_CYCLE_N),
                                         "-o", out("c_scan.json")],
               out("c_scan.json"), "cycle_scan", {"n": SCAN_CYCLE_N}),
            Op(f"dense_C{DENSE_CYCLE_N}", ["spectrum", "--dense", "--family", "cycle",
                                           "--n", str(DENSE_CYCLE_N), "-o", out("c_dense.json")],
               out("c_dense.json"), "cycle_eigenvalues", {"n": DENSE_CYCLE_N}),
            Op(f"custom_G{CUSTOM_GRAPH_N}", ["spectrum", "--graph-file", gfile,
                                             "-o", out("custom_spectrum.json")],
               out("custom_spectrum.json"), "eigenvalues", {"adjacency": adj}),
        ]
        return Plan(ops, {gfile: graph_json(adj)})

    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def write_inputs(p: Plan) -> None:
    """Write the pass's input files (part of set-up, as a CLI user would)."""
    for path, text in p.inputs.items():
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
