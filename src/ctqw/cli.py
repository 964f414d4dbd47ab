"""Command-line surface: build graphs, emit spectra, evolve walks, scan for
mixing times, run ensembles, and verify the mixing statements.

Exit codes: 0 success (recorded discrepancies included), 1 usage error,
2 computational failure.  Output files are written atomically.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__, ensembles, graphs, mixing, spectra, walk
from .graphs import SCHEMA, Graph, GraphValidationError
from .spectra import JacobiConvergenceError


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise UsageError(message)


# Families built from one size flag: the flag, the builder, and whether the
# family may be a bunkbed base (read from --base-n or --base-d).
_SIZED_FAMILIES = {
    "cycle": ("n", graphs.build_cycle, True),
    "complete": ("n", graphs.build_complete, True),
    "path": ("n", graphs.build_path, True),
    "hypercube": ("d", graphs.build_hypercube, True),
    "complete_bipartite": ("n", graphs.build_complete_bipartite, False),
}


def _add_graph_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--family",
        choices=[*_SIZED_FAMILIES, "circulant", "bunkbed"],
        help="graph family to build",
    )
    p.add_argument("--n", type=int, help="size parameter (vertices or part size)")
    p.add_argument("--d", type=int, help="hypercube dimension")
    p.add_argument("--group", help="circulant group factors, e.g. '8' or '2,2,2'")
    p.add_argument("--symbol", help="circulant symbol support indices, e.g. '1,7'")
    p.add_argument(
        "--base-family",
        choices=[fam for fam, (_, _, base) in _SIZED_FAMILIES.items() if base],
        help="bunkbed base family",
    )
    p.add_argument("--base-n", type=int, help="bunkbed base size")
    p.add_argument("--base-d", type=int, help="bunkbed base hypercube dimension")
    p.add_argument("--graph-file", help="read the graph from a JSON file instead")


def _add_common_args(p: argparse.ArgumentParser, formats=("json", "csv", "table")) -> None:
    p.add_argument("--format", choices=list(formats), default="json")
    p.add_argument("--output", "-o", help="write output to this path (atomic)")


def _add_tol_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=_positive_float, default=spectra.DEGENERACY_TOL,
                   help="degeneracy tolerance (default 1e-9)")


def _add_normalize_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--normalize", action="store_true",
                   help="divide the adjacency by the regular degree")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text!r}")
    return value


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise UsageError(f"could not parse {what}: {text!r}") from None


def _build_graph(args) -> Graph:
    if args.graph_file:
        try:
            with open(args.graph_file, "r", encoding="utf-8") as fh:
                return graphs.graph_from_json(fh.read())
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read graph file: {exc}") from None
    if not args.family:
        raise UsageError("either --family or --graph-file is required")
    fam = args.family
    if fam in _SIZED_FAMILIES:
        flag, build, _ = _SIZED_FAMILIES[fam]
        return build(_require(getattr(args, flag), f"--{flag}"))
    if fam == "circulant":
        _require(args.group, "--group")
        _require(args.symbol, "--symbol")
        group = graphs.AbelianGroupSpec(tuple(_parse_int_list(args.group, "--group")))
        support = _parse_int_list(args.symbol, "--symbol")
        return graphs.build_abelian_circulant(graphs.Symbol.from_support(group, support))
    if fam == "bunkbed":
        flag, build, _ = _SIZED_FAMILIES[_require(args.base_family, "--base-family")]
        return graphs.build_bunkbed(build(_require(getattr(args, f"base_{flag}"), f"--base-{flag}")))
    raise UsageError(f"unknown family {fam!r}")


def _require(value, flag: str):
    """`value`, unless it is None: then `flag` was required."""
    if value is None:
        raise UsageError(f"{flag} is required for this invocation")
    return value


def _spectrum_for(g: Graph, args) -> spectra.Spectrum:
    method = "dense" if getattr(args, "dense", False) else "auto"
    spec = spectra.graph_eigensystem(g, method=method)
    if args.normalize:
        deg = g.degrees
        if not np.all(deg == deg[0]):
            raise UsageError("--normalize requires a regular graph")
        spec = spec.scaled(1.0 / float(deg[0]))
    return spec


def _emit(text: str, path: str | None) -> None:
    if path is None:
        print(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _distribution_text(probs: np.ndarray, fmt: str, meta: dict) -> str:
    if fmt == "json":
        doc = {"schema": SCHEMA, **meta, "probabilities": [float(p) for p in probs]}
        return json.dumps(doc, indent=2)
    if fmt == "csv":
        lines = ["vertex,probability"]
        lines += [f"{v},{float(p)!r}" for v, p in enumerate(probs)]
        return "\n".join(lines)
    width = max(len(str(len(probs) - 1)), 6)
    lines = [f"{'vertex':>{width}}  probability"]
    lines += [f"{v:>{width}}  {float(p):.12g}" for v, p in enumerate(probs)]
    return "\n".join(lines)


def _cmd_build(args) -> int:
    g = _build_graph(args)
    _emit(graphs.graph_to_json(g), args.output)
    return 0


def _cmd_spectrum(args) -> int:
    if args.char_table:
        return _cmd_spectrum_char_table(args)
    g = _build_graph(args)
    spec = _spectrum_for(g, args)
    if args.format == "json":
        text = spectra.spectrum_to_json(
            spec,
            tol=args.tol,
            include_eigenvectors=args.eigenvectors,
            extra={"family": g.family, "normalized": bool(args.normalize)},
        )
    elif args.format == "csv":
        lines = ["index,eigenvalue"]
        lines += [f"{j},{float(x)!r}" for j, x in enumerate(spec.eigenvalues)]
        text = "\n".join(lines)
    else:
        labels = spectra.degeneracy_labels(spec.eigenvalues, args.tol)
        summary = spectra.degeneracy_summary(spec.eigenvalues, labels)
        lines = [f"graph: {g.family} on {g.n} vertices"]
        lines.append(f"spectral gap: {summary['spectral_gap']:.12g}")
        lines.append(f"type: {summary['type']}")
        lines.append("eigenvalue        multiplicity")
        for cls in summary["degeneracy_classes"]:
            lines.append(f"{spec.eigenvalues[cls[0]]:<17.12g} {len(cls)}")
        text = "\n".join(lines)
    _emit(text, args.output)
    return 0


def _cmd_spectrum_char_table(args) -> int:
    _require(args.class_function, "--class-function")
    try:
        with open(args.char_table, "r", encoding="utf-8") as fh:
            table = spectra.CharacterTable.from_json(fh.read())
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read character table: {exc}") from None
    f_by_class = _parse_int_list(args.class_function, "--class-function")
    pairs = spectra.class_circulant_eigenvalues(table, f_by_class)
    if args.format == "json":
        doc = {
            "schema": SCHEMA,
            "order": table.order,
            "eigenvalues": [{"value": lam, "multiplicity": m} for lam, m in pairs],
        }
        text = json.dumps(doc, indent=2)
    elif args.format == "csv":
        lines = ["eigenvalue,multiplicity"]
        lines += [f"{lam!r},{m}" for lam, m in pairs]
        text = "\n".join(lines)
    else:
        lines = ["eigenvalue        multiplicity"]
        lines += [f"{lam:<17.12g} {m}" for lam, m in pairs]
        text = "\n".join(lines)
    _emit(text, args.output)
    return 0


def _cmd_walk(args) -> int:
    g = _build_graph(args)
    spec = _spectrum_for(g, args)
    if args.amplitudes and args.format != "json":
        raise UsageError("--amplitudes requires --format json")
    # the amplitudes of walk.evolve and the probabilities of
    # walk.instantaneous_distribution, from one product
    amp, probs = walk._walk(spec, args.start, args.t, amplitudes=args.amplitudes, distribution=True)
    meta = {"family": g.family, "n": g.n, "start": args.start, "t": args.t}
    if args.amplitudes:
        doc = {
            "schema": SCHEMA,
            **meta,
            "probabilities": [float(p) for p in probs],
            "amplitudes": [[float(z.real), float(z.imag)] for z in amp],
        }
        _emit(json.dumps(doc, indent=2), args.output)
        return 0
    _emit(_distribution_text(probs, args.format, meta), args.output)
    return 0


def _cmd_average(args) -> int:
    g = _build_graph(args)
    spec = _spectrum_for(g, args)
    labels = spectra.degeneracy_labels(spec.eigenvalues, args.tol)
    pbar = walk.average_distribution(spec, args.start, labels=labels)
    summary = spectra.degeneracy_summary(spec.eigenvalues, labels)
    meta = {
        "family": g.family,
        "n": g.n,
        "start": args.start,
        "deviation_uniform": mixing.total_variation(pbar, mixing.uniform_target(g.n)),
        "deviation_classical": mixing.total_variation(pbar, mixing.lazy_stationary(g)),
        "spectral_gap": summary["spectral_gap"],
        "type": summary["type"],
    }
    _emit(_distribution_text(pbar, args.format, meta), args.output)
    return 0


def _cmd_scan(args) -> int:
    eps = math.inf if args.eps is None else args.eps
    if math.isnan(eps):
        raise UsageError("--eps must not be NaN")
    g = _build_graph(args)
    spec = _spectrum_for(g, args)
    minima = mixing.instantaneous_mixing_scan(
        spec, args.start, eps=eps, t_max=args.t_max, grid=args.grid
    )
    if args.format == "json":
        doc = {
            "schema": SCHEMA,
            "family": g.family,
            "n": g.n,
            "eps": None if math.isinf(eps) else eps,
            "minima": [{"t": t, "deviation": dev} for t, dev in minima],
        }
        text = json.dumps(doc, indent=2)
    elif args.format == "csv":
        lines = ["t,deviation"]
        lines += [f"{t!r},{dev!r}" for t, dev in minima]
        text = "\n".join(lines)
    else:
        lines = [f"{'t':>18}  deviation"]
        lines += [f"{t:>18.12g}  {dev:.6g}" for t, dev in minima]
        text = "\n".join(lines) if minima else "no minima below eps"
    _emit(text, args.output)
    return 0


def _cmd_ensemble(args) -> int:
    if args.exhaustive:
        hist = ensembles.type_spectrum_exhaustive(args.n, tol=args.tol)
        if args.format == "json":
            text = json.dumps(
                {"schema": SCHEMA, "n": args.n, "type_histogram": {str(k): v for k, v in hist.items()}},
                indent=2,
            )
        elif args.format == "csv":
            lines = ["type,count"] + [f"{k},{v}" for k, v in hist.items()]
            text = "\n".join(lines)
        else:
            lines = ["type  count"] + [f"{k:>4}  {v}" for k, v in hist.items()]
            text = "\n".join(lines)
        _emit(text, args.output)
        return 0
    stats = ensembles.ensemble_stats(args.n, args.trials, args.seed, tol=args.tol)
    if args.format == "json":
        text = ensembles.stats_to_json(stats)
    elif args.format == "csv":
        lines = ["key,value"]
        doc = json.loads(ensembles.stats_to_json(stats))
        for k, v in doc.items():
            if isinstance(v, dict):
                lines += [f"{k}.{kk},{vv}" for kk, vv in v.items()]
            elif k != "schema":
                lines.append(f"{k},{v}")
        text = "\n".join(lines)
    else:
        text = "\n".join(
            [
                f"C({stats.n}, 1/2) with {stats.trials} trials, seed {stats.seed}",
                f"rejection rate        {stats.rejection_rate:.4f}",
                f"mean lambda_0         {stats.mean_lambda0:.6f} (accepted)"
                f"  {stats.mean_lambda0_unconditional:.6f} (all draws)",
                f"mean lambda_(j!=0)    {stats.mean_lambda_other:.6f} (accepted)"
                f"  {stats.mean_lambda_other_unconditional:.6f} (all draws)",
                f"type histogram        {stats.type_histogram}",
                f"deviation quantiles   {stats.deviation_quantiles}",
            ]
        )
    _emit(text, args.output)
    return 0


def _reports_json(reports) -> str:
    doc = {
        "schema": SCHEMA,
        "reports": [
            {
                "descriptor": r.descriptor,
                **(
                    {"deviation_uniform": r.deviation_uniform}
                    if r.deviation_uniform is not None
                    else {}
                ),
                **(
                    {"instantaneous_times": [[t, d] for t, d in r.instantaneous_times]}
                    if r.instantaneous_times
                    else {}
                ),
                "flags": r.flags,
            }
            for r in reports
        ],
        "discrepancies": mixing.collect_discrepancies(reports),
    }
    return json.dumps(doc, indent=2, default=str)


def _reports_table(reports) -> str:
    lines = []
    for r in reports:
        for name, flag in r.flags.items():
            status = flag["status"].upper()
            measured = flag.get("measured", "")
            lines.append(f"{status:<12} {r.descriptor:<36} {name:<34} {measured}")
    discrepancies = mixing.collect_discrepancies(reports)
    lines.append("")
    lines.append(f"{len(discrepancies)} recorded discrepancies")
    for d in discrepancies:
        lines.append(f"  - {d}")
    return "\n".join(lines)


def _cmd_verify(args) -> int:
    checks = mixing.ALL_CHECKS
    if args.checks is not None:  # an empty list is refused, not read as all checks
        checks = tuple(tok.strip() for tok in args.checks.split(",") if tok.strip())
    cfg = mixing.VerifyConfig(checks=checks, max_n=args.max_n, seed=args.seed,
                              ensemble_trials=args.trials)
    reports = mixing.verify_all(cfg)
    text = _reports_json(reports) if args.format == "json" else _reports_table(reports)
    _emit(text, args.output)
    return 2 if mixing.has_failures(reports) else 0


def build_parser() -> _Parser:
    parser = _Parser(prog="ctqw", description=__doc__)
    parser.add_argument("--version", action="version", version=f"ctqw {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct a graph and emit it as JSON")
    _add_graph_args(p)
    _add_common_args(p, formats=("json",))
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("spectrum", help="eigensystem, spectral gap, and type")
    _add_graph_args(p)
    _add_common_args(p)
    _add_tol_arg(p)
    _add_normalize_arg(p)
    p.add_argument("--dense", action="store_true", help="force the Jacobi oracle")
    p.add_argument("--eigenvectors", action="store_true", help="include eigenvectors (JSON)")
    p.add_argument("--char-table", help="character table JSON for a class-function circulant")
    p.add_argument("--class-function", help="0/1 values per conjugacy class, e.g. '0,1,0'")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("walk", help="instantaneous distribution at a given time")
    _add_graph_args(p)
    _add_common_args(p)
    _add_normalize_arg(p)
    p.add_argument("--t", type=_finite_float, required=True, help="evolution time")
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--amplitudes", action="store_true", help="include amplitudes (JSON)")
    p.set_defaults(func=_cmd_walk)

    p = sub.add_parser("average", help="limiting average distribution and deviations")
    _add_graph_args(p)
    _add_common_args(p)
    _add_tol_arg(p)
    _add_normalize_arg(p)
    p.add_argument("--start", type=int, default=0)
    p.set_defaults(func=_cmd_average)

    p = sub.add_parser("scan", help="scan for instantaneous mixing times")
    _add_graph_args(p)
    _add_common_args(p)
    _add_normalize_arg(p)
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--eps", type=float, default=None, help="report minima at or below this deviation")
    p.add_argument("--t-max", type=_finite_float, default=None, help="scan window (default heuristic)")
    p.add_argument("--grid", type=int, default=mixing.SCAN_GRID)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("ensemble", help="random circulant ensemble statistics")
    _add_common_args(p, formats=("json", "csv", "table"))
    _add_tol_arg(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exhaustive", action="store_true", help="exact enumeration instead of sampling")
    p.set_defaults(func=_cmd_ensemble)

    p = sub.add_parser("verify", help="run the named mixing checks")
    _add_common_args(p, formats=("json", "table"))
    p.add_argument("--checks", help=f"comma list from: {', '.join(mixing.ALL_CHECKS)}")
    p.add_argument("--max-n", type=int, default=None, help="cap sizes across families")
    p.add_argument("--trials", type=int, default=10000, help="ensemble trials")
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=_cmd_verify)

    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> _Parser:
    """The parser, built on the first `main` call; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return 0 if exc.code in (0, None) else 1
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early (`ctqw ... | head -1`): end quietly, with
        # stdout on devnull so the interpreter's final flush cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (GraphValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (JacobiConvergenceError, RuntimeError, FloatingPointError) as exc:
        print(f"computational failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # an input too large to hold: numpy names the array
        print(f"computational failure: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
