"""Tests of the benchmark's own reducers:  python3 -m pytest bench"""

import json
import os

import pytest

from reduce import (
    LAYER_METRICS,
    cycle_throughput,
    IdentityHits,
    layer_metrics,
    percentile,
    percentile_supported,
    samples_beyond,
    self_times,
)
from run import E2E_METRICS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_percentile_is_nearest_rank():
    xs = [float(v) for v in range(10, 0, -1)]
    assert percentile(xs, 50) == 5.0
    assert percentile(xs, 90) == 9.0
    assert percentile(xs, 100) == 10.0
    assert percentile([7.0], 90) == 7.0
    assert percentile([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 50) == 3.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_p90_needs_one_hundred_samples():
    assert samples_beyond(100, 90) == 10
    assert percentile_supported(100, 90)
    assert not percentile_supported(99, 90)
    assert samples_beyond(20, 50) == 10
    assert not percentile_supported(5, 90)


def _rec(slot, wall_s, ok=True):
    return {"slot": slot, "wall_s": wall_s, "ok": ok}


def test_cycle_throughput_uses_each_class_median():
    # slot 0 takes 1 s, slot 1 takes 3 s; one problem of slot 1 was slowed
    recs = [_rec(0, 1.0), _rec(1, 3.0), _rec(1, 3.0), _rec(0, 1.0), _rec(1, 30.0),
            _rec(0, 1.0)]
    assert cycle_throughput(recs) == pytest.approx(2 / 4.0)
    recs[0]["ok"] = False
    assert cycle_throughput(recs) == pytest.approx(5 / 6 * 2 / 4.0)
    with pytest.raises(ValueError):
        cycle_throughput([])


def _span(name, start, end, parent, problem=0):
    return (name, start, end, parent, problem)


def test_self_time_of_nested_and_sibling_spans():
    spans = [
        _span("top", 0.0, 10.0, -1),
        _span("a", 1.0, 3.0, 0),
        _span("a.inner", 1.5, 2.5, 1),
        _span("b", 4.0, 6.0, 0),
        _span("other", 20.0, 21.0, -1, problem=1),
    ]
    assert self_times(spans) == pytest.approx([6.0, 1.0, 1.0, 2.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [_span("top", 0.0, 10.0, -1), _span("a", 1.0, 4.0, 0), _span("b", 3.0, 5.0, 0)]
    assert self_times(spans)[0] == pytest.approx(6.0)


def test_cache_hits_are_detected_by_identity():
    hits = IdentityHits()
    first = [1.0]
    assert not hits.observe(first)
    assert hits.observe(first)
    assert not hits.observe([1.0])  # equal but a new object: recomputed
    hits.reset()
    assert not hits.observe(first)


def test_layer_metrics_are_per_problem_and_cover_the_wall_time():
    spans = [
        _span("numrange", 0.0, 1.0, -1, 0),
        _span("linalg.eig", 0.2, 0.8, 0, 0),
        _span("numrange", 2.0, 2.5, -1, 1),
    ]
    counters = {"numrange.hits": 1.0, "numrange.gap_max": 0.25}
    m = layer_metrics(spans, counters, problems=2, problem_wall_s=1.6)
    assert m["numrange.calls"] == 1.0
    assert m["numrange.self_s"] == pytest.approx(0.45)
    assert m["linalg.eig.calls"] == 0.5
    assert m["numrange.hit_ratio"] == 0.5
    assert m["numrange.gap_max"] == 0.25
    assert m["trace.coverage"] == pytest.approx(1.5 / 1.6)
    assert m["convex2d.intersect.calls"] == 0.0


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(E2E_METRICS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in LAYER_METRICS
    ]
