"""Outside-in tracing of toriclab's public layer functions.

``Tracer.install`` wraps each function in ``LAYERS`` and rebinds the wrapper
in every ``toriclab`` module that holds the original, so calls between
modules (``bases`` -> ``walks.is_primitive_subgraph``, ``cli`` and
``implication_suite`` -> ``robustness_verdict``, ``fiber_graphs`` ->
``fiber``) are seen as well as calls from the benchmark.  ``uninstall``
restores the originals, so untraced passes run the program unchanged.

Each call is a span (name, start, end, parent span, graph index).  Calls
that run hundreds of thousands of times per graph are folded: they keep
per-graph call counts and busy/self time but record no span.  A span's self
time is its duration minus the durations of the wrapped calls made directly
inside it.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import Counter

SPAN, FOLD, GENERATOR = "span", "fold", "generator"

# module -> (function, how it is recorded)
LAYERS = {
    "graphs": (
        ("load_graph", SPAN),
        ("block_decomposition", FOLD),
        ("connected_edge_subsets", GENERATOR),
    ),
    "walks": (
        ("is_primitive_subgraph", FOLD),
        ("walk_from_primitive_subgraph", SPAN),
        ("minimality_failures", SPAN),
        ("classify_chords", SPAN),
    ),
    "bases": (
        ("analyze_graph", SPAN),
        ("primitive_elements", SPAN),
        ("circuit_walks", SPAN),
        ("fiber_bundle", SPAN),
    ),
    "oracle": (
        ("fiber", SPAN),
        ("fiber_graphs", SPAN),
        ("graver_bounded", SPAN),
        ("sample_groebner", SPAN),
        ("buchberger", SPAN),
    ),
    "robustness": (
        ("robustness_verdict", SPAN),
        ("implication_suite", SPAN),
        ("circuit_rule_violations", SPAN),
    ),
    "cli": (("main", SPAN),),
}


def _count_graver(tracer, parent, fn, args, kwargs, result) -> None:
    tracer.counts["bases.graver_elements"] += len(result)


def _count_fiber(tracer, parent, fn, args, kwargs, result) -> None:
    tracer.counts["oracle.fiber_members"] += len(result)


def _count_box(tracer, parent, fn, args, kwargs, result) -> None:
    bound = inspect.signature(fn).bind(*args, **kwargs).arguments
    tracer.counts["oracle.box_rows"] += (bound["box"] + 1) ** bound["config"].ncols


def _count_primitive(tracer, parent, fn, args, kwargs, result) -> None:
    # Only the enumeration's own test counts toward the yield; the walk
    # reconstruction repeats the test on subsets already accepted.
    if parent[0] == "bases.primitive_elements":
        tracer.counts["walks.subsets_tested"] += 1
        tracer.counts["walks.primitive_walks"] += bool(result.ok)


HOOKS = {
    "bases.primitive_elements": _count_graver,
    "oracle.fiber": _count_fiber,
    "oracle.graver_bounded": _count_box,
    "walks.is_primitive_subgraph": _count_primitive,
}


class Tracer:
    def __init__(self) -> None:
        self.graph = -1
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        # (name, graph) -> [calls, busy_s, self_s]
        self.totals: dict[tuple[str, int], list] = {}
        # Open frames: [name, child_s, span_id]; the root never closes.
        self._stack: list[list] = [["<root>", 0.0, None]]
        self._next_id = 0
        self._rebound: list[tuple[object, str, object]] = []

    def _total(self, name: str) -> list:
        key = (name, self.graph)
        tot = self.totals.get(key)
        if tot is None:
            tot = self.totals[key] = [0, 0.0, 0.0]
        return tot

    def _wrap(self, name: str, fn, mode: str):
        stack = self._stack
        clock = time.perf_counter
        hook = HOOKS.get(name)
        record = mode == SPAN

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if record:
                span_id = self._next_id
                self._next_id += 1
            else:
                span_id = None
            frame = [name, 0.0, span_id]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                parent[1] += d
                tot = self._total(name)
                tot[0] += 1
                tot[1] += d
                tot[2] += d - frame[1]
                if record:
                    self.spans.append((span_id, parent[2], name, self.graph, t0, t1))
            if hook is not None:
                hook(self, parent, fn, args, kwargs, result)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            tot = self._total(name)
            tot[0] += 1

            def stream():
                items = 0
                try:
                    while True:
                        parent = stack[-1]
                        frame = [name, 0.0, None]
                        stack.append(frame)
                        t0 = clock()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            d = clock() - t0
                            stack.pop()
                            parent[1] += d
                            tot[1] += d
                            tot[2] += d - frame[1]
                        items += 1
                        yield item
                finally:
                    self.counts[name + ".items"] += items

            return stream()

        return wrapper

    def install(self) -> None:
        replace = {}
        for module, functions in LAYERS.items():
            mod = importlib.import_module("toriclab." + module)
            for func, mode in functions:
                original = getattr(mod, func)
                name = f"{module}.{func}"
                if mode == GENERATOR:
                    replace[id(original)] = (original, self._wrap_generator(name, original))
                else:
                    replace[id(original)] = (original, self._wrap(name, original, mode))
        for modname, mod in list(sys.modules.items()):
            if modname != "toriclab" and not modname.startswith("toriclab."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._rebound.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._rebound):
            setattr(mod, attr, original)
        self._rebound.clear()

    def metrics(self) -> dict[str, float]:
        """This tracer's per-layer metrics, totals over the graphs it saw.

        Every wrapped function gets ``.calls``, ``.busy_s`` and ``.self_s``,
        0 when it never ran, plus the counts the hooks keep.
        """
        out: dict[str, float] = {}
        for module, functions in LAYERS.items():
            for func, _mode in functions:
                for stat in ("calls", "busy_s", "self_s"):
                    out[f"{module}.{func}.{stat}"] = 0
        for (name, _graph), (calls, busy, self_s) in self.totals.items():
            out[name + ".calls"] += calls
            out[name + ".busy_s"] += busy
            out[name + ".self_s"] += self_s
        counts = self.counts
        out["graphs.subsets_visited"] = counts["graphs.connected_edge_subsets.items"]
        for name in ("bases.graver_elements", "oracle.fiber_members", "oracle.box_rows"):
            out[name] = counts[name]
        tested = counts["walks.subsets_tested"]
        out["walks.primitive_yield"] = (
            counts["walks.primitive_walks"] / tested if tested else 0.0
        )
        return out

    def dump(self, path: str, origin: float) -> None:
        """Write spans and folded per-graph totals, times relative to origin."""
        folded = {
            f"{module}.{func}"
            for module, functions in LAYERS.items()
            for func, mode in functions
            if mode != SPAN
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "span_fields": ["id", "parent", "name", "graph", "start_s", "end_s"],
                    "spans": [
                        [i, p, n, g, round(t0 - origin, 7), round(t1 - origin, 7)]
                        for i, p, n, g, t0, t1 in self.spans
                    ],
                    "folded_fields": ["name", "graph", "calls", "busy_s", "self_s"],
                    "folded": [
                        [n, g, c, round(b, 7), round(s, 7)]
                        for (n, g), (c, b, s) in sorted(self.totals.items())
                        if n in folded
                    ],
                    "counts": dict(sorted(self.counts.items())),
                },
                fh,
            )
            fh.write("\n")
