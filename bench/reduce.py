"""Pure reducers shared by the benchmark runner, the worker and their tests.

Nothing here imports blockrange: these functions turn per-problem timings
and recorded spans into the metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import math
import statistics

# A percentile is reported as trustworthy only when at least this many
# samples lie beyond it (p90 therefore needs 100 problems).
TAIL_SAMPLES = 10

# Per-layer metrics of the traced run: means per problem where the unit
# says so, maxima over the run for gaps, ratios otherwise.  The last field
# names the end-to-end metric and the workload the layer metric should move;
# BENCHMARK.json lists the same names, units and directions.
LAYER_METRICS = (
    ("linalg.eig.calls", "count/problem", "lower", "solve_p50_s, solve_p90_s on block_range; 0 on dense_disc"),
    ("linalg.eig.matrices", "count/problem", "lower", "solve_p50_s on block_range"),
    ("linalg.eig.entries", "count/problem", "lower", "solve_p50_s on block_range (computed input size)"),
    ("linalg.eig.self_s", "s/problem", "lower", "solve_p50_s, solve_p90_s on block_range; slightly on vanishing_tail"),
    ("numrange.calls", "count/problem", "lower", "problems_per_s on cli_regroup"),
    ("numrange.hits", "count/problem", "higher", "problems_per_s on cli_regroup; 0 on block_range"),
    ("numrange.hit_ratio", "ratio", "higher", "problems_per_s on cli_regroup"),
    ("numrange.self_s", "s/problem", "lower", "problems_per_s on cli_regroup"),
    ("numrange.gap_max", "norm", "lower", "tolerance_p50 on block_range; a speed-up must not raise it"),
    ("convex2d.hull.calls", "count/problem", "lower", "solve_p50_s on vanishing_tail"),
    ("convex2d.hull.points", "count/problem", "lower", "solve_p50_s on vanishing_tail and dense_disc"),
    ("convex2d.hull.self_s", "s/problem", "lower", "solve_p50_s on vanishing_tail and dense_disc"),
    ("convex2d.from_support.calls", "count/problem", "lower", "solve_p50_s on block_range and vanishing_tail"),
    ("convex2d.from_support.self_s", "s/problem", "lower", "solve_p50_s on vanishing_tail"),
    ("convex2d.distance.calls", "count/problem", "lower", "solve_p50_s on vanishing_tail"),
    ("convex2d.distance.pairs", "count/problem", "lower", "solve_p50_s on vanishing_tail"),
    ("convex2d.distance.self_s", "s/problem", "lower", "solve_p50_s on vanishing_tail"),
    ("convex2d.hausdorff.calls", "count/problem", "lower", "solve_p50_s on vanishing_tail"),
    ("convex2d.hausdorff.self_s", "s/problem", "lower", "solve_p50_s on vanishing_tail and dense_disc"),
    ("convex2d.intersect.calls", "count/problem", "lower", "solve_p50_s on dense_disc"),
    ("convex2d.intersect.self_s", "s/problem", "lower", "solve_p50_s on dense_disc"),
    ("blockop.block.calls", "count/problem", "lower", "solve_p50_s on vanishing_tail"),
    ("blockop.block.self_s", "s/problem", "lower", "solve_p50_s on vanishing_tail"),
    ("blockop.window_values.elements", "count/problem", "lower", "solve_p50_s on cli_regroup (scalar cycles); 0 on dense_disc"),
    ("blockop.window_values.self_s", "s/problem", "lower", "solve_p50_s on cli_regroup (scalar cycles)"),
    ("blockop.tail_union.calls", "count/problem", "lower", "solve_p50_s on dense_disc"),
    ("blockop.tail_union.points", "count/problem", "lower", "solve_p50_s on dense_disc"),
    ("blockop.tail_union.self_s", "s/problem", "lower", "solve_p50_s on dense_disc"),
    ("blockop.limsup.doublings", "count/problem", "lower", "solve_p50_s on dense_disc"),
    ("blockop.limsup.self_s", "s/problem", "lower", "solve_p50_s on dense_disc"),
    ("essrange.essential.calls", "count/problem", "lower", "solve_p50_s on vanishing_tail and dense_disc"),
    ("essrange.essential.self_s", "s/problem", "lower", "solve_p50_s on vanishing_tail and dense_disc"),
    ("essrange.crosscheck_gap_max", "norm", "lower", "tolerance_p50 on vanishing_tail and dense_disc; must not grow"),
    ("regroup.choose_translation.self_s", "s/problem", "lower", "solve_p50_s on cli_regroup"),
    ("regroup.regroup.self_s", "s/problem", "lower", "solve_p50_s, solve_p90_s on cli_regroup"),
    ("regroup.scanned_blocks", "count/problem", "lower", "solve_p50_s, solve_p90_s on cli_regroup"),
    ("regroup.group_region.calls", "count/problem", "lower", "solve_p50_s on cli_regroup"),
    ("regroup.group_region.self_s", "s/problem", "lower", "solve_p50_s, solve_p90_s on cli_regroup"),
    ("regroup.verify.self_s", "s/problem", "lower", "solve_p50_s, solve_p90_s on cli_regroup"),
    ("cli.main.self_s", "s/problem", "lower", "solve_p50_s on cli_regroup"),
    ("cli.artifact_bytes", "bytes/problem", "lower", "solve_p50_s on cli_regroup"),
    ("trace.coverage", "ratio", "higher", "spanned self time over problem wall time; at least 0.9"),
    ("trace.overhead_ratio", "ratio", "lower", "traced solve_p50_s over untraced solve_p50_s"),
)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% of the
    samples at or below it."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile rank must lie in (0, 100], got {q}")
    return xs[max(1, math.ceil(q / 100.0 * len(xs))) - 1]


def cycle_throughput(records) -> float:
    """Certified problems per second over one cycle of input classes, each
    class timed by the median wall time of its problems.

    ``records`` are dicts with ``slot`` (position of the problem's class in
    its workload's cycle), ``wall_s`` and ``ok``.  The cycle's time is the
    sum over slots of their median wall time, so a burst of machine load
    that slows a few problems moves it little; the share of problems that
    passed their check scales the rate.
    """
    walls: dict[int, list[float]] = {}
    for r in records:
        walls.setdefault(r["slot"], []).append(r["wall_s"])
    if not walls:
        raise ValueError("throughput of an empty run")
    cycle_s = sum(statistics.median(w) for w in walls.values())
    ok_share = sum(bool(r["ok"]) for r in records) / len(records)
    return ok_share * len(walls) / cycle_s


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie strictly beyond the nearest-rank q-th percentile."""
    return n - max(1, math.ceil(q / 100.0 * n))


def percentile_supported(n: int, q: float) -> bool:
    """Whether n samples leave at least TAIL_SAMPLES beyond the q-th percentile."""
    return samples_beyond(n, q) >= TAIL_SAMPLES


def self_times(spans) -> list[float]:
    """Self time of every span: its duration minus the part of its interval
    covered by its direct children.

    ``spans`` is a sequence of (name, start, end, parent, problem) tuples,
    ``parent`` being the index of the enclosing span or -1.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c0, c1 in sorted(children.get(i, ())):
            lo, hi = max(c0, reach), min(c1, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


class IdentityHits:
    """Counts results that are the very object returned earlier in the same
    problem, which is how a cache hit shows from outside the cache."""

    def __init__(self):
        self._seen: dict[int, object] = {}

    def observe(self, obj) -> bool:
        key = id(obj)
        if key in self._seen:
            return True
        # holding the object keeps its id from being reused in this problem
        self._seen[key] = obj
        return False

    def reset(self) -> None:
        self._seen.clear()


def layer_metrics(spans, counters: dict[str, float], problems: int,
                  problem_wall_s: float) -> dict[str, float]:
    """Layer metrics from recorded spans and counters.

    Span names are metric prefixes: a span named ``linalg.eig`` yields
    ``linalg.eig.calls`` and ``linalg.eig.self_s``.  ``counters`` holds the
    remaining totals (work sizes, hits) and maxima (gaps), keyed by full
    metric name.  Metrics with a ``/problem`` unit are divided by the number
    of problems.  ``trace.overhead_ratio`` is left to the caller, which has
    the untraced run.
    """
    if problems < 1:
        raise ValueError("need at least one problem")
    calls: dict[str, float] = {}
    busy: dict[str, float] = {}
    selfs = self_times(spans)
    for (name, *_), s in zip(spans, selfs):
        calls[name] = calls.get(name, 0.0) + 1
        busy[name] = busy.get(name, 0.0) + s
    totals = dict(counters)
    for name in calls:
        totals[f"{name}.calls"] = calls[name]
        totals[f"{name}.self_s"] = busy[name]
    nr_calls = totals.get("numrange.calls", 0.0)
    totals["numrange.hit_ratio"] = totals.get("numrange.hits", 0.0) / nr_calls if nr_calls else 0.0
    totals["trace.coverage"] = sum(selfs) / problem_wall_s if problem_wall_s > 0 else 0.0
    out = {}
    for metric, unit, _, _ in LAYER_METRICS:
        if metric == "trace.overhead_ratio":
            continue
        per_problem = unit.endswith("/problem")
        out[metric] = totals.get(metric, 0.0) / (problems if per_problem else 1)
    return out
