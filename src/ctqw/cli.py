"""Command-line surface: build graphs, emit spectra, evolve walks, scan for
mixing times, run ensembles, and verify the mixing statements.

Exit codes: 0 success (recorded discrepancies included), 1 usage error,
2 computational failure.  Output files are written atomically, with the
mode a shell redirect would give them.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__, ensembles, graphs, mixing, spectra, walk
from .graphs import Graph, GraphValidationError


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


# The graph flags of `_add_graph_args`, as argparse names them.
_GRAPH_FLAGS = ("family", "n", "d", "group", "symbol", "base_family", "base_n", "base_d",
                "graph_file")


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
    p.add_argument("--tol", type=_positive_float,  # default DEGENERACY_TOL, through _tol
                   help="degeneracy tolerance (default 1e-9)")


def _tol(args) -> float:
    """The --tol given, else DEGENERACY_TOL; None means not given, so the
    routes that read no tolerance can refuse it."""
    return spectra.DEGENERACY_TOL if args.tol is None else args.tol


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


def _refuse(args, names, why: str) -> None:
    """Refuse the flags among `names` (None or False unless given) that were given."""
    given = [f"--{name.replace('_', '-')}" for name in names
             if getattr(args, name) is not None and getattr(args, name) is not False]
    if given:
        raise UsageError(f"{', '.join(given)}: {why}")


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


def _write(args, doc: dict, lines=None) -> None:
    """The one writer: a command's document as `ctqw/1` JSON, or as the CSV
    or table lines that `lines(doc, format)` reads from it, refused in every
    format if it holds a NaN or infinity, printed or written atomically to
    --output: a new file under the umask, or over an existing file with that
    file's permission bits, as a shell redirect leaves them.  An output that
    cannot be written is a usage error, and leaves no temporary file behind."""
    # JSON refuses NaN and infinity; CSV and tables take an unindented pass, on the C encoder
    text = graphs.to_json(doc, indent=2 if args.format == "json" else None)
    if args.format != "json":
        text = "\n".join(lines(doc, args.format))
    if args.output is None:
        print(text)
        return
    tmp = f"{os.path.abspath(args.output)}.{os.urandom(8).hex()}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8") as fh:  # a new file, its mode set by the umask
            fh.write(text + "\n")
        try:
            os.chmod(tmp, os.stat(args.output).st_mode & 0o777)
        except FileNotFoundError:
            pass
        os.replace(tmp, args.output)
    except OSError as exc:
        raise UsageError(f"cannot write output {args.output}: {exc.strerror or exc}") from None
    finally:
        if os.path.exists(tmp):  # the write failed before its rename
            os.unlink(tmp)


def _multiplicity_lines(pairs) -> list[str]:
    return ["eigenvalue        multiplicity", *(f"{lam:<17.12g} {m}" for lam, m in pairs)]


def _distribution_lines(doc: dict, fmt: str) -> list[str]:
    probs = doc["probabilities"]
    if fmt == "csv":
        return ["vertex,probability", *(f"{v},{p!r}" for v, p in enumerate(probs))]
    width = max(len(str(len(probs) - 1)), 6)
    return [f"{'vertex':>{width}}  probability",
            *(f"{v:>{width}}  {p:.12g}" for v, p in enumerate(probs))]


def _cmd_build(args) -> int:
    _write(args, graphs.graph_document(_build_graph(args)))
    return 0


def _spectrum_lines(doc: dict, fmt: str) -> list[str]:
    values = doc["eigenvalues"]
    if fmt == "csv":
        return ["index,eigenvalue", *(f"{j},{x!r}" for j, x in enumerate(values))]
    return [f"graph: {doc['family']} on {doc['n']} vertices",
            f"spectral gap: {doc['spectral_gap']:.12g}",
            f"type: {doc['type']}",
            *_multiplicity_lines((values[c[0]], len(c)) for c in doc["degeneracy_classes"])]


def _cmd_spectrum(args) -> int:
    if args.char_table:
        return _cmd_spectrum_char_table(args)
    _refuse(args, ("class_function",), "only read with --char-table")
    if args.eigenvectors and args.format != "json":
        raise UsageError("--eigenvectors requires --format json")
    g = _build_graph(args)
    spec = _spectrum_for(g, args)
    labels = spectra.degeneracy_labels(spec.eigenvalues, _tol(args))
    doc = {"n": spec.n, "eigenvalues": [float(x) for x in spec.eigenvalues],
           **spectra.degeneracy_summary(spec.eigenvalues, labels)}
    if args.eigenvectors:
        doc["eigenvectors"] = [[[float(z.real), float(z.imag)] for z in spec.eigenvectors[:, j]]
                               for j in range(spec.n)]
    doc |= {"family": g.family, "normalized": bool(args.normalize)}
    _write(args, doc, _spectrum_lines)
    return 0


def _char_table_lines(doc: dict, fmt: str) -> list[str]:
    pairs = [(e["value"], e["multiplicity"]) for e in doc["eigenvalues"]]
    if fmt == "csv":
        return ["eigenvalue,multiplicity", *(f"{lam!r},{m}" for lam, m in pairs)]
    return _multiplicity_lines(pairs)


def _cmd_spectrum_char_table(args) -> int:
    _refuse(args, (*_GRAPH_FLAGS, "dense", "normalize", "eigenvectors"),
            "not read with --char-table, which takes no graph")
    _refuse(args, ("tol",), "not read with --char-table, whose multiplicities come from the table")
    _require(args.class_function, "--class-function")
    try:
        with open(args.char_table, "r", encoding="utf-8") as fh:
            table = spectra.CharacterTable.from_json(fh.read())
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read character table: {exc}") from None
    f_by_class = _parse_int_list(args.class_function, "--class-function")
    pairs = spectra.class_circulant_eigenvalues(table, f_by_class)
    doc = {"order": table.order,
           "eigenvalues": [{"value": lam, "multiplicity": m} for lam, m in pairs]}
    _write(args, doc, _char_table_lines)
    return 0


def _cmd_walk(args) -> int:
    g = _build_graph(args)
    spec = _spectrum_for(g, args)
    if args.amplitudes and args.format != "json":
        raise UsageError("--amplitudes requires --format json")
    # the amplitudes of walk.evolve and the probabilities of
    # walk.instantaneous_distribution, from one product
    amp, probs = walk._walk(spec, args.start, args.t, amplitudes=args.amplitudes, distribution=True)
    doc = {"family": g.family, "n": g.n, "start": args.start, "t": args.t,
           "probabilities": [float(p) for p in probs]}
    if args.amplitudes:
        doc["amplitudes"] = [[float(z.real), float(z.imag)] for z in amp]
    _write(args, doc, _distribution_lines)
    return 0


def _cmd_average(args) -> int:
    g = _build_graph(args)
    spec = _spectrum_for(g, args)
    labels = spectra.degeneracy_labels(spec.eigenvalues, _tol(args))
    pbar = walk.average_distribution(spec, args.start, labels=labels)
    summary = spectra.degeneracy_summary(spec.eigenvalues, labels)
    doc = {"family": g.family, "n": g.n, "start": args.start,
           "deviation_uniform": mixing.total_variation(pbar, mixing.uniform_target(g.n)),
           "deviation_classical": mixing.total_variation(pbar, mixing.lazy_stationary(g)),
           "spectral_gap": summary["spectral_gap"], "type": summary["type"],
           "probabilities": [float(p) for p in pbar]}
    _write(args, doc, _distribution_lines)
    return 0


def _scan_lines(doc: dict, fmt: str) -> list[str]:
    minima = [(m["t"], m["deviation"]) for m in doc["minima"]]
    if fmt == "csv":
        return ["t,deviation", *(f"{t!r},{dev!r}" for t, dev in minima)]
    if not minima:
        return ["no minima below eps"]
    return [f"{'t':>18}  deviation", *(f"{t:>18.12g}  {dev:.6g}" for t, dev in minima)]


def _cmd_scan(args) -> int:
    eps = math.inf if args.eps is None else args.eps
    if math.isnan(eps):
        raise UsageError("--eps must not be NaN")
    g = _build_graph(args)
    spec = _spectrum_for(g, args)
    minima = mixing.instantaneous_mixing_scan(spec, args.start, eps=eps, t_max=args.t_max,
                                              grid=args.grid)
    doc = {"family": g.family, "n": g.n, "eps": None if math.isinf(eps) else eps,
           "minima": [{"t": t, "deviation": dev} for t, dev in minima]}
    _write(args, doc, _scan_lines)
    return 0


def _histogram_lines(doc: dict, fmt: str) -> list[str]:
    hist = doc["type_histogram"].items()
    if fmt == "csv":
        return ["type,count", *(f"{k},{v}" for k, v in hist)]
    return ["type  count", *(f"{k:>4}  {v}" for k, v in hist)]


def _ensemble_lines(doc: dict, fmt: str) -> list[str]:
    if fmt == "csv":
        lines = ["key,value"]
        for k, v in doc.items():
            if isinstance(v, dict):
                lines += [f"{k}.{kk},{vv}" for kk, vv in v.items()]
            else:
                lines.append(f"{k},{v}")
        return lines
    return [
        f"C({doc['n']}, 1/2) with {doc['trials']} trials, seed {doc['seed']}",
        f"rejection rate        {doc['rejection_rate']:.4f}",
        f"mean lambda_0         {doc['mean_lambda0']:.6f} (accepted)"
        f"  {doc['mean_lambda0_unconditional']:.6f} (all draws)",
        f"mean lambda_(j!=0)    {doc['mean_lambda_other']:.6f} (accepted)"
        f"  {doc['mean_lambda_other_unconditional']:.6f} (all draws)",
        f"type histogram        {doc['type_histogram']}",
        f"deviation quantiles   {doc['deviation_quantiles']}",
    ]


def _cmd_ensemble(args) -> int:
    if args.exhaustive:
        _refuse(args, ("trials", "seed"), "not read with --exhaustive, which draws no sample")
        hist = ensembles.type_spectrum_exhaustive(args.n, tol=_tol(args))
        doc = {"n": args.n, "type_histogram": {str(k): v for k, v in hist.items()}}
        _write(args, doc, _histogram_lines)
    else:
        trials = 10000 if args.trials is None else args.trials  # None: not given, for --exhaustive
        stats = ensembles.ensemble_stats(args.n, trials, args.seed or 0, tol=_tol(args))
        _write(args, asdict(stats), _ensemble_lines)
    return 0


def _verify_lines(doc: dict, fmt: str) -> list[str]:
    discrepancies = doc["discrepancies"]
    return [*(f"{flag['status'].upper():<12} {r['descriptor']:<36} {name:<34} "
              f"{flag.get('measured', '')}"
              for r in doc["reports"] for name, flag in r["flags"].items()),
            "", f"{len(discrepancies)} recorded discrepancies", *(f"  - {d}" for d in discrepancies)]


def _cmd_verify(args) -> int:
    checks = mixing.ALL_CHECKS
    if args.checks is not None:  # an empty list is refused, not read as all checks
        checks = tuple(tok.strip() for tok in args.checks.split(",") if tok.strip())
    cfg = mixing.VerifyConfig(checks=checks, max_n=args.max_n, seed=args.seed,
                              ensemble_trials=args.trials)
    reports = mixing.verify_all(cfg)
    doc = {
        "reports": [
            {
                "descriptor": r.descriptor,
                **({"deviation_uniform": r.deviation_uniform}
                   if r.deviation_uniform is not None else {}),
                **({"instantaneous_times": [[t, d] for t, d in r.instantaneous_times]}
                   if r.instantaneous_times else {}),
                "flags": r.flags,
            }
            for r in reports
        ],
        "discrepancies": mixing.collect_discrepancies(reports),
    }
    _write(args, doc, _verify_lines)
    return 2 if mixing.has_failures(reports) else 0


def _build_args(p: argparse.ArgumentParser) -> None:
    _add_graph_args(p)
    _add_common_args(p, formats=("json",))


def _spectrum_args(p: argparse.ArgumentParser) -> None:
    _add_graph_args(p)
    _add_common_args(p)
    _add_tol_arg(p)
    _add_normalize_arg(p)
    p.add_argument("--dense", action="store_true",
                   help="force LAPACK eigh, even where a closed form exists")
    p.add_argument("--eigenvectors", action="store_true", help="include eigenvectors (JSON)")
    p.add_argument("--char-table", help="character table JSON for a class-function circulant")
    p.add_argument("--class-function", help="0/1 values per conjugacy class, e.g. '0,1,0'")


def _walk_args(p: argparse.ArgumentParser) -> None:
    _add_graph_args(p)
    _add_common_args(p)
    _add_normalize_arg(p)
    p.add_argument("--t", type=_finite_float, required=True, help="evolution time")
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--amplitudes", action="store_true", help="include amplitudes (JSON)")


def _average_args(p: argparse.ArgumentParser) -> None:
    _add_graph_args(p)
    _add_common_args(p)
    _add_tol_arg(p)
    _add_normalize_arg(p)
    p.add_argument("--start", type=int, default=0)


def _scan_args(p: argparse.ArgumentParser) -> None:
    _add_graph_args(p)
    _add_common_args(p)
    _add_normalize_arg(p)
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--eps", type=float, default=None, help="report minima at or below this deviation")
    p.add_argument("--t-max", type=_finite_float, default=None, help="scan window (default heuristic)")
    p.add_argument("--grid", type=int, default=mixing.SCAN_GRID)


def _ensemble_args(p: argparse.ArgumentParser) -> None:
    _add_common_args(p, formats=("json", "csv", "table"))
    _add_tol_arg(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int)  # default 10000
    p.add_argument("--seed", type=int)  # default 0
    p.add_argument("--exhaustive", action="store_true", help="exact enumeration instead of sampling")


def _verify_args(p: argparse.ArgumentParser) -> None:
    _add_common_args(p, formats=("json", "table"))
    p.add_argument("--checks", help=f"comma list from: {', '.join(mixing.ALL_CHECKS)}")
    p.add_argument("--max-n", type=int, default=None, help="cap sizes across families")
    p.add_argument("--trials", type=int, default=10000, help="ensemble trials")
    p.add_argument("--seed", type=int, default=7)


# Each subcommand, in the order `ctqw --help` lists them: its help line, the
# function that adds its arguments, and the function that runs it.
_COMMANDS = {
    "build": ("construct a graph and emit it as JSON", _build_args, _cmd_build),
    "spectrum": ("eigensystem, spectral gap, and type", _spectrum_args, _cmd_spectrum),
    "walk": ("instantaneous distribution at a given time", _walk_args, _cmd_walk),
    "average": ("limiting average distribution and deviations", _average_args, _cmd_average),
    "scan": ("scan for instantaneous mixing times", _scan_args, _cmd_scan),
    "ensemble": ("random circulant ensemble statistics", _ensemble_args, _cmd_ensemble),
    "verify": ("run the named mixing checks", _verify_args, _cmd_verify),
}


def _build_parser(commands) -> _Parser:
    """The top-level parser with the named subcommands only."""
    parser = _Parser(prog="ctqw", description=__doc__)
    parser.add_argument("--version", action="version", version=f"ctqw {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in commands:
        help_line, add_args, run = _COMMANDS[name]
        p = sub.add_parser(name, help=help_line)
        add_args(p)
        p.set_defaults(func=run)
    return parser


def build_parser() -> _Parser:
    return _build_parser(_COMMANDS)


@functools.lru_cache(maxsize=None)
def _parser(command: str | None) -> _Parser:
    """The parser of an argument list that starts with the subcommand
    `command`, with no other subcommand; for None (--help, --version, a
    missing or unknown command) the full parser.  Each is built on first use;
    parsing leaves it unchanged."""
    return _build_parser(_COMMANDS if command is None else (command,))


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
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
    except (RuntimeError, FloatingPointError) as exc:
        print(f"computational failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # an input too large to hold: numpy names the array
        print(f"computational failure: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
