"""Span recorder installed around blockrange's public functions.

The wrappers live in the benchmark, not in the library: ``install`` replaces
each traced function at every module namespace that binds it (so calls that
go through ``from .x import f`` are caught too), and class attributes for
methods.  Spans are kept in memory as (name, start, end, parent, problem)
tuples and written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

from reduce import IdentityHits


class Tracer:
    """Spans and counters of one traced worker, in memory until ``dump``."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict[str, float] = {}
        self.problem = -1
        self._stack: list[int] = []
        self.hits = IdentityHits()

    def begin_problem(self, index: int) -> None:
        self.problem = index
        self.hits.reset()

    def add(self, metric: str, value: float) -> None:
        self.counters[metric] = self.counters.get(metric, 0.0) + value

    def wrap(self, name: str, fn, count=None):
        """``fn`` recorded as span ``name``; ``count(tracer, args, result)``
        adds the call's work to the counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self.problem)
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def top(self, metric: str, value: float) -> None:
        self.counters[metric] = max(self.counters.get(metric, 0.0), value)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def _rebind(package: str, original, replacement) -> int:
    """Replace ``original`` by ``replacement`` in every loaded module of the
    package; returns how many bindings were replaced."""
    n = 0
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == package or modname.startswith(package + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                n += 1
    return n


def _wrap_function(tracer: Tracer, module, attr: str, name: str, count=None) -> None:
    original = getattr(module, attr)
    if _rebind("blockrange", original, tracer.wrap(name, original, count)) == 0:
        raise RuntimeError(f"no binding of {module.__name__}.{attr} found")


def _wrap_method(tracer: Tracer, cls, attr: str, name: str, count=None) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(tracer.wrap(name, raw.__func__, count)))
    else:
        setattr(cls, attr, tracer.wrap(name, raw, count))


def _count_eig(t: Tracer, args, result) -> None:
    mats = args[0]
    k, n = mats.shape[0], mats.shape[1]
    t.add("linalg.eig.matrices", k)
    t.add("linalg.eig.entries", k * n * n)


def _count_range(t: Tracer, args, result) -> None:
    if t.hits.observe(result):
        t.add("numrange.hits", 1)
    t.top("numrange.gap_max", result.gap)


def _count_hull(t: Tracer, args, result) -> None:
    # classmethod: args[0] is the class, args[1] the point set
    t.add("convex2d.hull.points", len(args[1]))


def _count_distance(t: Tracer, args, result) -> None:
    region = args[0]
    t.add("convex2d.distance.pairs", len(result) * region.vertices.size)


def _count_window(t: Tracer, args, result) -> None:
    t.add("blockop.window_values.elements", len(result))


def _count_union(t: Tracer, args, result) -> None:
    t.add("blockop.tail_union.points", len(result))


def _count_limsup(t: Tracer, args, result) -> None:
    # periodic and vanishing tails short-circuit without doubling; only the
    # builtin tails run the doubling loop, one certificate entry per step
    if args[0].tail.kind == "builtin":
        t.add("blockop.limsup.doublings", len(result.certificate))


def _count_essential(t: Tracer, args, result) -> None:
    t.top("essrange.crosscheck_gap_max", result.crosscheck_gap)


def _count_regroup(t: Tracer, args, result) -> None:
    t.add("regroup.scanned_blocks", result.boundaries[-1])


def install(tracer: Tracer) -> None:
    """Wrap every traced blockrange entry point with ``tracer``'s spans."""
    # the package re-exports a function named ``regroup``, which shadows the
    # submodule as a package attribute, so modules are looked up by full name
    blockop, cli, convex2d, essrange, linalg, numrange, regroup = (
        importlib.import_module(f"blockrange.{m}")
        for m in ("blockop", "cli", "convex2d", "essrange", "linalg", "numrange", "regroup")
    )
    _wrap_function(tracer, linalg, "max_eigenpairs_batch", "linalg.eig", _count_eig)
    _wrap_function(tracer, numrange, "numerical_range", "numrange", _count_range)
    _wrap_function(tracer, convex2d, "hausdorff", "convex2d.hausdorff")
    _wrap_function(tracer, convex2d, "intersect_regions", "convex2d.intersect")
    _wrap_method(tracer, convex2d.ConvexRegion, "from_points", "convex2d.hull", _count_hull)
    _wrap_method(tracer, convex2d.ConvexRegion, "from_support", "convex2d.from_support")
    _wrap_method(tracer, convex2d.ConvexRegion, "distance", "convex2d.distance", _count_distance)
    _wrap_method(tracer, blockop.BlockOperatorSpec, "block", "blockop.block")
    _wrap_method(tracer, blockop.BlockOperatorSpec, "window_values",
                 "blockop.window_values", _count_window)
    _wrap_function(tracer, blockop, "tail_union", "blockop.tail_union", _count_union)
    _wrap_function(tracer, blockop, "limsup_ranges", "blockop.limsup", _count_limsup)
    _wrap_function(tracer, essrange, "essential_numerical_range", "essrange.essential",
                   _count_essential)
    _wrap_function(tracer, regroup, "choose_translation", "regroup.choose_translation")
    _wrap_function(tracer, regroup, "regroup", "regroup.regroup", _count_regroup)
    _wrap_function(tracer, regroup, "group_region", "regroup.group_region")
    _wrap_function(tracer, regroup, "verify_conv_free", "regroup.verify")
    _wrap_function(tracer, cli, "main", "cli.main")
