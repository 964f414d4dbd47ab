"""Outside-in tracer: wraps the public functions of each `ctqw` module.

Nothing in the package changes.  In a traced pass the worker calls
`Tracer.install()` after set-up; it replaces each public function of the layer
modules by a span-recording wrapper in every `ctqw` namespace that binds it
(`walk.degeneracy_classes` is bound by `from .spectra import ...`, for example),
and wraps a few coarse methods.  Per-element helpers (`element_of`, `index_of`,
`add_index`, `negate_index`) and private functions stay unwrapped, so their
time counts as self time of the public function that called them and the
wrapper cost stays small.

A span is `[name, start, end, parent]` with `parent` the index of the
enclosing span (-1 for none).  Spans are kept in memory and written out when
the pass ends; `layer_metrics` turns them into per-layer numbers.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

# Module -> layer.  spectra is split into sub-layers by function below.
LAYERS = ("graphs", "spectra", "walk", "mixing", "ensembles", "cli")
SPECTRA_SUBLAYER = {
    "abelian_circulant_eigensystem": "closed",
    "path_eigensystem": "closed",
    "bunkbed_eigensystem": "closed",
    "class_circulant_eigenvalues": "closed",
    "dense_eigensystem": "dense",
    "jacobi_eigensystem": "dense",
    "degeneracy_classes": "degeneracy",
    "spectral_gap": "degeneracy",
    "spectrum_type": "degeneracy",
}
METHODS = (
    ("Graph", "validate"),
    ("Symbol", "validate"),
    ("AbelianGroupSpec", "difference_table"),
    ("AbelianGroupSpec", "coordinates"),
)
ROOT = "root"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)

    def wrap(self, name: str, fn, on_result=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _on_ensemble(self, stats) -> None:
        self.counters["ensembles.trials"] += stats.trials
        self.counters["ensembles.draws"] += stats.total_draws

    def _on_scan(self, minima) -> None:
        self.counters["mixing.scan.minima"] += len(minima)

    def install(self) -> None:
        """Wrap every public function of the layer modules wherever it is bound."""
        modules = {layer: sys.modules[f"ctqw.{layer}"] for layer in LAYERS}
        hooks = {"ensemble_stats": self._on_ensemble,
                 "instantaneous_mixing_scan": self._on_scan}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                sub = SPECTRA_SUBLAYER.get(attr, "other") if layer == "spectra" else None
                span = f"{layer}.{sub}:{attr}" if sub else f"{layer}:{attr}"
                wrapped[obj] = self.wrap(span, obj, hooks.get(attr))
        for name, mod in list(sys.modules.items()):
            if name != "ctqw" and not name.startswith("ctqw."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
        for cls_name, meth in METHODS:
            cls = getattr(modules["graphs"], cls_name)
            setattr(cls, meth, self.wrap(f"graphs:{cls_name}.{meth}", getattr(cls, meth)))

    def begin_root(self) -> None:
        self.stack.append(len(self.spans))
        self.spans.append([ROOT, time.perf_counter(), 0.0, -1])

    def end_root(self) -> None:
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def dump(self) -> dict:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {"names": names,
                "spans": [[index[s[0]], s[1], s[2], s[3]] for s in self.spans],
                "counters": dict(self.counters)}


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def layer_metrics(dump: dict) -> dict[str, float]:
    """Per-layer self times and counts of one traced pass.

    Returns the metric names of BENCHMARK.json's `per_layer` list except
    `cli.output_bytes` and `trace.overhead_ratio`, which the runner measures.
    An idle layer reads 0 (no calls, no time, ratio 0).
    """
    names = dump["names"]
    spans = [[names[s[0]], s[1], s[2], s[3]] for s in dump["spans"]]
    selfs = self_times(spans)
    layer_self: dict[str, float] = defaultdict(float)
    layer_calls: dict[str, int] = defaultdict(int)
    fn_self: dict[str, float] = defaultdict(float)
    fn_total: dict[str, float] = defaultdict(float)
    fn_calls: dict[str, int] = defaultdict(int)
    root = 0.0
    for (name, start, end, _), own in zip(spans, selfs):
        if name == ROOT:
            root += end - start
            continue
        layer, fn = name.split(":", 1)
        top = layer.split(".", 1)[0]
        layer_self[top] += own
        layer_calls[top] += 1
        if layer != top:
            layer_self[layer] += own
            layer_calls[layer] += 1
        fn_self[fn] += own
        fn_total[fn] += end - start
        fn_calls[fn] += 1
    counters = dump["counters"]
    trials = counters.get("ensembles.trials", 0)
    draws = counters.get("ensembles.draws", 0)
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    m["graphs.calls"] = layer_calls["graphs"]
    for sub in ("closed", "dense", "degeneracy"):
        m[f"spectra.{sub}.self_s"] = layer_self[f"spectra.{sub}"]
        m[f"spectra.{sub}.calls"] = layer_calls[f"spectra.{sub}"]
    m["walk.evolve.calls"] = fn_calls["evolve"]
    m["walk.average.self_s"] = fn_self["average_distribution"]
    m["mixing.scan.calls"] = fn_calls["instantaneous_mixing_scan"]
    m["mixing.scan.minima"] = counters.get("mixing.scan.minima", 0)
    m["ensembles.trials"] = trials
    m["ensembles.draws"] = draws
    m["ensembles.accept_ratio"] = trials / draws if draws else 0.0
    m["ensembles.us_per_trial"] = 1e6 * fn_total["ensemble_stats"] / trials if trials else 0.0
    m["trace.root_s"] = root
    m["trace.unattributed_s"] = root - sum(layer_self[layer] for layer in LAYERS)
    m["trace.spans"] = len(spans)
    return m
