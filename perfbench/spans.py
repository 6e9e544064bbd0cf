"""Spans at the package's layer boundaries, and the per-layer metrics.

`Tracer.install` replaces, in each package module, every public function
it imported from another package module with a wrapper that records a
span (name, start, end, parent) in memory.  Calls inside one module are
not boundaries and stay untraced, so `witness_general`'s recursion is one
span per graph.  Two boundaries inside `census` are added by hand: class
generation and the per-record tally.  The spans are written out once,
after the run, and `layer_metrics` reduces them in run.py's process.

Census pool workers inherit the wrappers when forked, but their spans
stay in the workers; on census-n8-jobs2 the exact layer shows up only
as census.pool.worker_cpu_s.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import time
from collections import Counter

LAYERS = ("census", "exact", "forcing", "witness", "graph_core", "graph6_io", "cli")
# Bit helpers whose span would cost more than the call itself.
UNTRACED = {"iter_bits", "mask_of", "vertices_of"}
# Outermost witness routes named in the per-layer metrics; anything else
# counts as "other".
ROUTES = ("cut-vertex", "algo1-even", "algo1-odd", "delta1-a", "delta1-b",
          "delta2-case1", "delta2-case2a", "delta2-case2bi", "delta2-case2bii")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def wrap_generator(self, name: str, fn):
        """One span per item produced, so consumer time is excluded."""
        step = self.wrap(name, next)
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                try:
                    item = step(items)
                except StopIteration:
                    return
                counts[name] += 1
                yield item

        return traced

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"zeroforcing.{layer}") for layer in LAYERS}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or attr in UNTRACED or not inspect.isfunction(obj):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if home == layer or home not in modules:
                    continue
                wrap = self.wrap_generator if inspect.isgeneratorfunction(obj) else self.wrap
                setattr(module, attr, wrap(f"{home}.{attr}", obj))
        census = modules["census"]
        census.generate_graphs = self.wrap_generator("census.generate_graphs",
                                                     census.generate_graphs)
        census.CensusTable.add = self.wrap("census.tally", census.CensusTable.add)

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, handle)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 when nothing was recorded."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def span_stats(spans: list[list]) -> tuple[dict[str, list[float]], dict[str, list[float]]]:
    """Durations and self times in seconds, grouped by span name."""
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    durations: dict[str, list[float]] = {}
    selves: dict[str, list[float]] = {}
    for (name, start, end, _), inner in zip(spans, child_ns):
        durations.setdefault(name, []).append((end - start) / 1e9)
        selves.setdefault(name, []).append((end - start - inner) / 1e9)
    return durations, selves


def layer_metrics(trace: dict, routes: list[str], micro: dict,
                  pool_cpu: tuple[float, float], overhead_frac: float) -> dict[str, float]:
    """Every per-layer metric; a layer the workload bypasses reads 0."""
    durations, selves = span_stats(trace["spans"])

    def us(name: str, q: float) -> float:
        return percentile(durations.get(name, []), q) * 1e6

    def total(name: str) -> float:
        return sum(durations.get(name, []))

    out: dict[str, float] = {}
    for layer in LAYERS[:-1]:
        names = [n for n in durations if n.startswith(layer + ".")]
        out[f"{layer}.calls"] = sum(len(durations[n]) for n in names)
        out[f"{layer}.self_s"] = sum(sum(selves[n]) for n in names)
    parent_cpu, worker_cpu = pool_cpu
    out.update({
        "census.generate_s": total("census.generate_graphs"),
        "census.classes": trace["counts"].get("census.generate_graphs", 0),
        "census.canonical_form_us.p50": percentile(micro["canonical_form"], 0.5) * 1e6,
        "census.canonical_form_us.p99": percentile(micro["canonical_form"], 0.99) * 1e6,
        "census.tally_s": total("census.tally"),
        "census.pool.parent_cpu_s": parent_cpu,
        "census.pool.worker_cpu_s": worker_cpu,
        "exact.zero_s": total("exact.zero_forcing_number"),
        "exact.failed_s": total("exact.failed_zero_forcing_number"),
        "exact.zero_us.p50": us("exact.zero_forcing_number", 0.5),
        "exact.zero_us.p95": us("exact.zero_forcing_number", 0.95),
        "exact.failed_us.p50": us("exact.failed_zero_forcing_number", 0.5),
        "exact.failed_us.p95": us("exact.failed_zero_forcing_number", 0.95),
        "forcing.derived_set_us.p50": percentile(micro["derived_set"], 0.5) * 1e6,
        "witness.general_us.p50": us("witness.witness_general", 0.5),
        "witness.general_us.p99": us("witness.witness_general", 0.99),
        "witness.verify_us.p50": us("witness.verify_witness", 0.5),
        "witness.lift_depth_mean": (sum(r.count("(") for r in routes) / len(routes)
                                    if routes else 0.0),
        "graph_core.is_connected_us.p50": us("graph_core.is_connected", 0.5),
        "graph_core.connected_components_us.p50": us("graph_core.connected_components", 0.5),
        "graph_core.cut_vertices_us.p50": us("graph_core.cut_vertices", 0.5),
        "graph6_io.parse_us.p50": percentile(micro["parse_graph6"], 0.5) * 1e6,
        "graph6_io.write_us.p50": percentile(micro["write_graph6"], 0.5) * 1e6,
        "cli.self_ms": percentile(selves.get("cli.main", []), 0.5) * 1e3,
        "trace.overhead_frac": overhead_frac,
    })
    outer = Counter(r.partition("(")[0] for r in routes)
    for tag in ROUTES:
        out[f"witness.route.{tag}"] = outer.pop(tag, 0)
    out["witness.route.other"] = sum(outer.values())
    return out
