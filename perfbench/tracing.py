"""Runtime spans around c4lab's public entry points, installed from outside.

``install`` replaces every public function of every c4lab module, and the
copies other modules imported by name, with one shared wrapper per function,
so spans nest as the calls do (supersat -> graph).  Nothing inside the
package changes; the private ``_scan`` kernel is measured through the
public calls that use it.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time

LAYERS = ("primes", "field", "plane", "polarity", "graph", "supersat", "extremal")
# methods are entry points too: experiments rebuild graphs through them
METHODS = (("graph", "Graph", "add_edges"), ("graph", "Graph", "remove_edges"))


def _choose2_sum(degrees) -> int:
    d = degrees.astype("int64")
    return int((d * (d - 1) // 2).sum())


# work counts computed from a call's arguments, labelled ``computed`` on output
COUNTERS = {
    "graph.count_c4": ("wedges", lambda g: _choose2_sum(g.degrees())),
    "plane.verify_projective_plane": ("pairs", lambda s: s.n_points * (s.n_points - 1)),
}


def _size(args):
    """The first argument's order q, vertex count n or integer value, if any."""
    if not args:
        return None
    first = args[0]
    if isinstance(first, int):
        return first
    for attr in ("q", "n", "n_points"):
        value = getattr(first, attr, None)
        if isinstance(value, int):
            return value
    return None


FIELDS = ["name", "start", "end", "parent", "run", "computed_count", "size"]


class Tracer:
    """Collects (name, start, end, parent, run, computed count, size) spans.

    ``run`` labels the phase the spans belong to: ``setup``, ``pass`` or
    ``check``; checks are traced but left out of the metrics.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.run = "setup"
        self.counting_s = 0.0  # time spent computing work counts, outside any span
        self._stack: list[int] = []

    def wrap(self, fn, name: str):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [name, time.perf_counter(), None, parent, self.run, None, _size(args)]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                if counter is not None:
                    span[5] = counter[1](args[0])
                    self.counting_s += time.perf_counter() - span[2]

        return traced

    def install(self) -> int:
        """Wrap every public c4lab function in place; returns how many."""
        package = importlib.import_module("c4lab")
        modules = [package] + [importlib.import_module(f"c4lab.{m}") for m in LAYERS]
        wrapped: dict[int, object] = {}
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                origin = getattr(val, "__module__", "") or ""
                layer = origin.rpartition(".")[2]
                if attr.startswith("_") or inspect.isclass(val) or layer not in LAYERS:
                    continue
                if not callable(val) or not origin.startswith("c4lab."):
                    continue
                if id(val) not in wrapped:
                    wrapped[id(val)] = self.wrap(val, f"{layer}.{val.__name__}")
                setattr(mod, attr, wrapped[id(val)])
        for layer, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"c4lab.{layer}"), cls_name)
            setattr(cls, meth, self.wrap(getattr(cls, meth), f"{layer}.{meth}"))
        return len(wrapped) + len(METHODS)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": FIELDS,
                    "computed_counts": {k: v[0] for k, v in COUNTERS.items()},
                    "spans": self.spans,
                },
                fh,
            )


def span_cost() -> float:
    """Seconds one span adds to a call: a traced no-op minus a bare one.

    The median over five batches of 20 000 calls of the per-call difference;
    the no-op takes one argument without ``q``, ``n`` or ``n_points``, the
    slowest path of ``_size``.
    """
    calls = 20000

    def noop(x):
        return x

    traced = Tracer().wrap(noop, "noop")
    arg = object()

    def per_call(fn) -> float:
        t = time.perf_counter()
        for _ in range(calls):
            fn(arg)
        return (time.perf_counter() - t) / calls

    return statistics.median(per_call(traced) - per_call(noop) for _ in range(5))


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1]
    return own


def aggregate(spans, key, runs=("setup", "pass")) -> dict:
    """[calls, total s, self s, computed count] per ``key(span)``, over ``runs``."""
    rows: dict = {}
    for s, own in zip(spans, self_times(spans)):
        if s[4] in runs:
            row = rows.setdefault(key(s), [0, 0.0, 0.0, 0])
            row[0] += 1
            row[1] += s[2] - s[1]
            row[2] += own
            row[3] += s[5] or 0
    return rows


def size_table(spans) -> list[str]:
    """Lines of calls, total and self seconds per (span, size) in the timed pass.

    Size is the first argument's order q, vertex count n or integer value;
    rows below 5 ms in total are left out.
    """
    rows = aggregate(spans, lambda s: (s[0], s[6]), runs=("pass",))
    lines = [f"{'span':40s} {'size':>6s} {'calls':>7s} {'total_s':>9s} {'self_s':>9s}"]
    for (name, size), (calls, total, own, _) in sorted(rows.items(), key=lambda kv: -kv[1][1]):
        if total >= 0.005:
            lines.append(f"{name:40s} {str(size):>6s} {calls:7d} {total:9.3f} {own:9.3f}")
    return lines


def layer_metrics(tracer: Tracer, traced_wall: float, cpu: float, overhead: float) -> dict:
    """Per-layer metrics (name -> (value, unit)) from the recorded spans.

    Spans of set-up and of the pass count; spans of checks do not.
    """
    spans = tracer.spans
    rows = aggregate(spans, lambda s: s[0])
    zero = [0, 0.0, 0.0, 0]

    def calls(name):
        return (rows.get(name, zero)[0], "count")

    def sec(name):
        return (rows.get(name, zero)[1], "s")

    def self_s(name):
        return (rows.get(name, zero)[2], "s")

    def computed(name):
        return (rows.get(name, zero)[3], "count")

    add_edge = [s[2] - s[1] for s in spans
                if s[0] == "supersat.add_edge_experiment" and s[4] != "check"]

    # count_c4 time below experiment spans over the outermost experiments' time
    def is_experiment(name: str) -> bool:
        return name.startswith("supersat.") and name != "supersat.er_graph"

    below: list[bool] = []  # parents precede children in ``spans``
    for s in spans:
        p = s[3]
        below.append(p is not None and (is_experiment(spans[p][0]) or below[p]))
    experiment_s = sum(
        s[2] - s[1]
        for s, b in zip(spans, below)
        if is_experiment(s[0]) and not b and s[4] != "check"
    )
    recount_s = sum(
        s[2] - s[1] for s, b in zip(spans, below) if s[0] == "graph.count_c4" and b
    )
    top_level = sum(s[2] - s[1] for s in spans if s[3] is None and s[4] == "pass")

    def both(a, b):
        return (rows.get(a, zero)[1] + rows.get(b, zero)[1], "s")

    out = {
        "field.spec_for_order.s": sec("field.spec_for_order"),
        "plane.build_pg2.s": sec("plane.build_pg2"),
        "plane.verify_projective_plane.s": sec("plane.verify_projective_plane"),
        "plane.verify_projective_plane.pairs": computed("plane.verify_projective_plane"),
        "plane.incidence_io.s": both("plane.write_incidence", "plane.read_incidence"),
        "polarity.orthogonal_polarity.s": sec("polarity.orthogonal_polarity"),
        "polarity.polarity_graph.self_s": self_s("polarity.polarity_graph"),
        "graph.count_c4.s": sec("graph.count_c4"),
        "graph.count_c4.calls": calls("graph.count_c4"),
        "graph.count_c4.wedges": computed("graph.count_c4"),
        "graph.graph_stats.s": sec("graph.graph_stats"),
        "graph.add_edges.s": sec("graph.add_edges"),
        "graph.add_edges.calls": calls("graph.add_edges"),
        "graph.c4_through_edge.s": sec("graph.c4_through_edge"),
        "graph.c4_through_edge.calls": calls("graph.c4_through_edge"),
        "graph.edge_list_io.s": both("graph.write_edge_list", "graph.read_edge_list"),
        "supersat.er_graph.s": sec("supersat.er_graph"),
        "supersat.add_edge_experiment.self_s": self_s("supersat.add_edge_experiment"),
        "supersat.add_edge_experiment.p99_ms": (
            1e3 * statistics.quantiles(add_edge, n=100, method="inclusive")[98], "ms"),
        "supersat.recount_share": (recount_s / experiment_s if experiment_s else 0.0, "ratio"),
        "extremal.turan_bruteforce.s": sec("extremal.turan_bruteforce"),
        "extremal.h_bruteforce.self_s": self_s("extremal.h_bruteforce"),
        "proc.cpu_s": (cpu, "s"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_s": (overhead, "s"),
        "trace.unaccounted_s": (traced_wall - top_level, "s"),
    }
    for exp in ("matching_experiment", "random_supersat", "classify_perturbation", "upper_count_audit"):
        out[f"supersat.{exp}.self_s"] = self_s(f"supersat.{exp}")
    return out
