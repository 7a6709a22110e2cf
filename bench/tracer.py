"""Per-layer tracing of persfiber from outside the package.

The tracer wraps each listed function, by identity, in every persfiber
module namespace where it is bound (``fiber.canonical_form`` is the same
object as ``core.canonical_form``, so both names get the one wrapper). A
traced call records a span (name, start, end, parent) in memory; after each
benchmark op the spans are folded into per-function call counts and self
times (a span's duration minus the spans directly under it) and dropped, so
memory stays bounded by one op. Tree vertices are counted by wrapping
``__post_init__`` on the two tree classes.

A recursive function (one that calls itself through its module-level name)
gets one span for the outermost call; its recursion still passes through
the wrapper, which doubles its stack depth while tracing.

A name that the package no longer defines is reported in ``absent`` and
its metrics read 0; it is never an error.
"""
from __future__ import annotations

import importlib
import math
import sys
from time import perf_counter

LAYERS = {
    "core": ["validate_critical_sequence", "validate_barcode", "canonical_form"],
    "persistence": ["barcode_of_sequence", "rank"],
    "trees": ["merge_tree_of_sequence", "elder_rule", "forget_chirality", "cmt_to_sequence"],
    "fiber": [
        "count_cmts", "count_merge_trees", "attachment_plans", "materialize",
        "enumerate_cmts", "enumerate_merge_trees", "enumerate_functions",
    ],
    "oracle": ["all_functions", "brute_fiber", "verify"],
}
FUNCTIONS = [f"{mod}.{name}" for mod, names in LAYERS.items() for name in names]
# Time per call against input size (minima of a sequence, bars of a barcode).
SIZED = ["persistence.barcode_of_sequence", "trees.merge_tree_of_sequence", "fiber.count_cmts"]
ENUMERATORS = {"fiber.enumerate_cmts", "fiber.enumerate_merge_trees", "fiber.enumerate_functions"}
TREE_CLASSES = ["core.MergeTree.__post_init__", "core.ChiralMergeTree.__post_init__"]
# Calls below this size are dominated by fixed per-call cost, not by scaling.
LARGE_CALL = 64

COUNTERS = [
    "core.tree_nodes", "fiber.results", "fiber.enum_tree_nodes",
    "oracle.candidates_generated", "oracle.candidates_distinct",
]


def _size(arg) -> int:
    if hasattr(arg, "values"):
        return (len(arg.values) + 1) // 2
    return len(arg.bars)


def empty_state() -> dict:
    """Aggregates that survive an op; plain JSON so traced processes can ship them."""
    return {
        "calls": {key: 0 for key in FUNCTIONS},
        "self_s": {key: 0.0 for key in FUNCTIONS},
        "sizes": {key: [] for key in SIZED},
        "counters": {key: 0 for key in COUNTERS},
        "absent": [],
    }


def merge_state(into: dict, other: dict) -> None:
    for key in FUNCTIONS:
        into["calls"][key] += other["calls"][key]
        into["self_s"][key] += other["self_s"][key]
    for key in SIZED:
        into["sizes"][key] += other["sizes"][key]
    for key in COUNTERS:
        into["counters"][key] += other["counters"][key]
    into["absent"] = sorted(set(into["absent"]) | set(other["absent"]))


class Tracer:
    """Spans and counters of the listed persfiber functions while ``enabled``."""

    def __init__(self):
        self.enabled = False
        self.state = empty_state()
        self._spans: list = []     # [key, start, end, parent index, size]
        self._stack: list[int] = []
        self._active: set[str] = set()
        self._enum_depth = 0
        self._candidates: set[tuple] = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        importlib.import_module("persfiber")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "persfiber" or name.startswith("persfiber."))]
        for key in FUNCTIONS:
            mod, name = key.split(".")
            original = getattr(sys.modules.get(f"persfiber.{mod}"), name, None)
            if original is None:
                self.state["absent"].append(key)
                continue
            wrapper = self._wrap(key, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._bind(m, attr, wrapper)
        core = sys.modules["persfiber.core"]
        for key in TREE_CLASSES:
            cls = getattr(core, key.split(".")[1], None)
            original = vars(cls).get("__post_init__") if cls is not None else None
            if original is None:
                self.state["absent"].append(key)
                continue
            self._bind(cls, "__post_init__", self._wrap_vertex(original))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _bind(self, owner, attr, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, key, fn):
        spans, stack, active, state = self._spans, self._stack, self._active, self.state
        sized = key in SIZED
        enumerator = key in ENUMERATORS
        candidates = key == "oracle.all_functions"

        def traced(*args, **kwargs):
            if not self.enabled or key in active:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([key, 0.0, 0.0, stack[-1] if stack else -1,
                          _size(args[0]) if sized and args else 0])
            stack.append(index)
            active.add(key)
            outer_enum = enumerator and self._enum_depth == 0
            if enumerator:
                self._enum_depth += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                spans[index][1:3] = start, end
                stack.pop()
                active.discard(key)
                if enumerator:
                    self._enum_depth -= 1
            # Results are counted only when they are a sized collection: a
            # generator must reach the caller undrained.
            if outer_enum and hasattr(result, "__len__"):
                state["counters"]["fiber.results"] += len(result)
            if candidates and hasattr(result, "__len__"):
                state["counters"]["oracle.candidates_generated"] += len(result)
                self._candidates.update(getattr(s, "values", s) for s in result)
            return result

        return traced

    def _wrap_vertex(self, fn):
        counters = self.state["counters"]

        def traced(obj):
            if self.enabled:
                counters["core.tree_nodes"] += 1
                if self._enum_depth:
                    counters["fiber.enum_tree_nodes"] += 1
            return fn(obj)

        return traced

    # -- folding ---------------------------------------------------------------

    def end_op(self) -> None:
        """Fold the spans of the op that just ran into the aggregates and drop them."""
        calls, self_s, sizes = self.state["calls"], self.state["self_s"], self.state["sizes"]
        spans = self._spans
        for key, start, end, parent, size in spans:
            duration = end - start
            calls[key] += 1
            self_s[key] += duration
            if parent >= 0:
                self_s[spans[parent][0]] -= duration
            if key in sizes:
                sizes[key].append([size, duration])
        spans.clear()
        self.state["counters"]["oracle.candidates_distinct"] += len(self._candidates)
        self._candidates.clear()


def size_exponent(samples) -> float:
    """Least-squares slope of log(time) on log(size) over the large calls; 0 if unmeasurable."""
    points = [(math.log(s), math.log(d)) for s, d in samples if s >= LARGE_CALL and d > 0]
    if len({x for x, _ in points}) < 2:
        return 0.0
    mx = sum(x for x, _ in points) / len(points)
    my = sum(y for _, y in points) / len(points)
    sxx = sum((x - mx) ** 2 for x, _ in points)
    sxy = sum((x - mx) * (y - my) for x, y in points)
    return sxy / sxx


def layer_metrics(state: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metric name -> (value, unit) for the library layers."""
    out: dict[str, tuple[float, str]] = {}
    for key in FUNCTIONS:
        out[f"{key}.calls"] = (state["calls"][key], "count")
        out[f"{key}.self_s"] = (max(0.0, state["self_s"][key]), "s")
    for key in SIZED:
        out[f"{key}.size_exponent"] = (size_exponent(state["sizes"][key]), "1")
    c = state["counters"]
    out["core.tree_nodes"] = (c["core.tree_nodes"], "count")
    out["fiber.results"] = (c["fiber.results"], "count")
    out["fiber.tree_nodes_per_result"] = (
        c["fiber.enum_tree_nodes"] / c["fiber.results"] if c["fiber.results"] else 0.0, "nodes/result")
    out["oracle.candidates_generated"] = (c["oracle.candidates_generated"], "count")
    out["oracle.candidates_distinct"] = (c["oracle.candidates_distinct"], "count")
    out["oracle.useful_ratio"] = (
        c["oracle.candidates_distinct"] / c["oracle.candidates_generated"]
        if c["oracle.candidates_generated"] else 0.0, "ratio")
    return out
