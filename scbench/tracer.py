"""Span tracer that times the program's layers from outside.

``Tracer.install`` rebinds each traced function, wherever a ``spacecover``
module holds a reference to it, to a wrapper that records a span per call
(per ``next()`` for generators).  ``Tracer.uninstall`` puts every original
back.  No source file is edited.

Spans are kept in memory as (name, start, end, parent, instance) and
written out with ``write``.  A layer's self time is its span
durations minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# (module, function) pairs whose calls become spans, named "<module>.<function>".
TRACED: Tuple[Tuple[str, str], ...] = (
    ("pgm_solver", "reduce_terminals"),
    ("pgm_solver", "enumerate_backbones"),
    ("pgm_solver", "build_pattern_instances"),
    ("pattern_cover", "solve"),
    ("pattern_cover", "colorful_solve"),
    ("derand", "build_hash_family"),
    ("derand", "build_universal_set"),
    ("multigraph", "count_simple_cycles"),
    ("multigraph", "good_edge_separation"),
    ("eoct", "solve"),
    ("dual_solver", "reduce_terminals_dual"),
    ("dual_solver", "build_esc"),
    ("dual_solver", "solve_esc"),
    ("dual_solver", "recurs"),
    ("dual_solver", "preliminary_partition"),
    ("binmatroid", "span_contains"),
    ("binmatroid", "dual_span_contains"),
    ("fileio", "parse_instance"),
    ("fileio", "report_from_solution"),
)

# Layers whose non-None results count as hits, and those whose result carries
# a list of coloring functions.
HIT_LAYERS = ("pattern_cover.solve", "pattern_cover.colorful_solve", "dual_solver.solve_esc")
FUNCTION_LAYERS = ("derand.build_hash_family", "derand.build_universal_set")

BRANCHES = ("small", "unbreakable", "breakable", "no_shrink", "lift_fail", "pocket_fallback")


class Tracer:
    """In-memory span and counter store plus the rebinding that feeds it."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._spans: List[list] = []        # [name, start, end, parent, instance]
        self.stack: List[int] = []
        self.instance = -1
        self._instance_first = 0
        self.counts: Counter = Counter()
        self._saved: List[Tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------
    # A timeout can interrupt these methods between any two statements, so a
    # span is appended whole and every open span is closed at instance end.

    def open(self, name: str) -> int:
        idx = len(self._spans)
        span = [name, None, None, self.stack[-1] if self.stack else -1, self.instance]
        self._spans.append(span)
        self.stack.append(idx)
        span[1] = self.clock()
        return idx

    def _end(self, idx: int, now: float) -> None:
        span = self._spans[idx]
        if span[1] is None:
            span[1] = now
        span[2] = now

    def close(self, idx: int) -> None:
        now = self.clock()
        while self.stack:
            top = self.stack.pop()
            self._end(top, now)
            if top == idx:
                return

    def close_all(self) -> None:
        """Close every span still open (after a timeout unwound the program)."""
        now = self.clock()
        self.stack.clear()
        for idx in range(self._instance_first, len(self._spans)):
            if self._spans[idx][2] is None:
                self._end(idx, now)

    def begin_instance(self, instance: int, name: str) -> int:
        self.close_all()
        self.instance = instance
        self._instance_first = len(self._spans)
        return self.open(name)

    def end_instance(self) -> None:
        self.close_all()
        self.instance = -1

    # -- wrappers -----------------------------------------------------------

    def wrap(self, fn: Callable, name: str) -> Callable:
        tracer = self
        hit = name in HIT_LAYERS
        functions = name in FUNCTION_LAYERS

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                tracer.counts[name + ".calls"] += 1
                return tracer._iterate(fn(*args, **kwargs), name)
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[name + ".calls"] += 1
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if hit and result is not None:
                tracer.counts[name + ".hits"] += 1
            if functions:
                tracer.counts[name + ".functions"] += len(result.functions)
            return result
        return wrapper

    def _iterate(self, gen, name: str):
        """Re-yield gen's items, one span per next() call."""
        try:
            while True:
                idx = self.open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.close(idx)
                self.counts[name + ".yielded"] += 1
                yield item
        finally:
            gen.close()

    def _count_branch(self, bump: Callable) -> Callable:
        tracer = self

        @functools.wraps(bump)
        def counting_bump(params, branch):
            tracer.counts["dual_solver.branch." + branch] += 1
            return bump(params, branch)
        return counting_bump

    def _rebind(self, owner: object, attr: str, value: object) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Rebind every traced name in every loaded spacecover module."""
        import spacecover.cli  # noqa: F401  (loads every module the CLI reaches)
        from spacecover.dual_solver import RecursParams

        modules = [mod for key, mod in sorted(sys.modules.items())
                   if mod is not None and (key == "spacecover" or key.startswith("spacecover."))]
        for mod_name, fn_name in TRACED:
            fn = getattr(sys.modules["spacecover." + mod_name], fn_name)
            wrapper = self.wrap(fn, "%s.%s" % (mod_name, fn_name))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._rebind(mod, attr, wrapper)
        self._rebind(RecursParams, "bump", self._count_branch(RecursParams.bump))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- output -------------------------------------------------------------

    def spans(self) -> List[Tuple[str, float, float, int, int]]:
        return [tuple(span) for span in self._spans]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans()):
                name, start, end, parent, inst = span
                fh.write(json.dumps([i, name, start, end, parent, inst]) + "\n")


def self_times(spans: Sequence[Tuple[str, float, float, int, int]]) -> Dict[str, float]:
    """Total self time per span name: duration minus direct children's durations."""
    own = [end - start for _, start, end, _, _ in spans]
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            own[parent] -= spans[i][2] - spans[i][1]
    totals: Dict[str, float] = defaultdict(float)
    for (name, _, _, _, _), t in zip(spans, own):
        totals[name] += t
    return dict(totals)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, counts: Counter) -> Dict[str, float]:
    """The per-layer metrics of the benchmark from one traced pass."""
    self_s = self_times(spans)
    out: Dict[str, float] = {}
    for layer in ("pgm_solver.reduce_terminals", "pgm_solver.enumerate_backbones",
                  "pgm_solver.build_pattern_instances", "pattern_cover.colorful_solve",
                  "derand.build_hash_family", "derand.build_universal_set",
                  "multigraph.count_simple_cycles", "multigraph.good_edge_separation",
                  "eoct.solve", "dual_solver.reduce_terminals_dual", "dual_solver.build_esc",
                  "dual_solver.recurs", "dual_solver.preliminary_partition",
                  "binmatroid.span_contains", "binmatroid.dual_span_contains",
                  "fileio.parse_instance", "fileio.report_from_solution"):
        out[layer + ".self_s"] = self_s.get(layer, 0.0)
    for layer in ("pgm_solver.enumerate_backbones", "pgm_solver.build_pattern_instances"):
        out[layer + ".yielded"] = counts[layer + ".yielded"]
    for layer in ("pattern_cover.solve", "pattern_cover.colorful_solve",
                  "derand.build_hash_family", "derand.build_universal_set",
                  "multigraph.count_simple_cycles", "multigraph.good_edge_separation",
                  "eoct.solve", "dual_solver.solve_esc", "dual_solver.recurs"):
        out[layer + ".calls"] = counts[layer + ".calls"]
    for layer in HIT_LAYERS:
        out[layer + ".hit_ratio"] = _ratio(counts[layer + ".hits"], counts[layer + ".calls"])
    for layer in FUNCTION_LAYERS:
        out[layer + ".functions"] = counts[layer + ".functions"]
    for branch in BRANCHES:
        out["dual_solver.branch." + branch] = counts["dual_solver.branch." + branch]
    breakable = counts["dual_solver.branch.breakable"]
    out["dual_solver.breakable.shrink_ratio"] = _ratio(
        breakable - counts["dual_solver.branch.no_shrink"], breakable)
    return out
