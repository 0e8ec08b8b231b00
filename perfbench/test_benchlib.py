"""Tests for the benchmark's own helpers (no verblab training is run)."""

import json
import os
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import benchlib  # noqa: E402
from benchlib import Patches, Tracer, percentile, samples_beyond, self_times, tail_percentile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


@pytest.mark.parametrize(
    "n, expected",
    [
        (10, 50.0),  # even the median leaves only 5 beyond: fall back to it
        (20, 50.0),
        (40, 75.0),
        (99, 75.0),
        (100, 90.0),
        (199, 90.0),
        (200, 95.0),
        (999, 95.0),
        (1000, 99.0),
        (10000, 99.9),
    ],
)
def test_tail_percentile_is_highest_with_ten_samples_beyond(n, expected):
    p = tail_percentile(n)
    assert p == expected
    if n >= 20:
        assert samples_beyond(n, p) >= 10
    higher = [c for c in benchlib.TAIL_CANDIDATES if c > p]
    assert all(samples_beyond(n, c) < 10 for c in higher)


def test_samples_beyond_counts_values_above_the_percentile():
    values = list(range(1, 101))
    for p in (50.0, 90.0, 95.0, 99.0):
        cut = percentile(values, p)
        assert sum(v > cut for v in values) == samples_beyond(len(values), p)


def test_percentile_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 100) == 5.0
    assert percentile(values, 1) == 1.0
    with pytest.raises(ValueError):
        percentile([], 50)


def _span(sid, start, end, parent=None, bulk=0.0):
    return [sid, f"s{sid}", start, end, parent, bulk]


def test_self_time_subtracts_children_and_bulk():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 3.0, parent=0),
        _span(2, 2.0, 2.5, parent=1),
        _span(3, 4.0, 8.0, parent=0, bulk=1.5),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 2.0 - 4.0)
    assert own[1] == pytest.approx(2.0 - 0.5)
    assert own[2] == pytest.approx(0.5)
    assert own[3] == pytest.approx(4.0 - 1.5)
    # self times of a fully nested tree add up to the root's duration
    assert sum(own.values()) + 1.5 == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [_span(0, 0.0, 10.0), _span(1, 1.0, 5.0, parent=0), _span(2, 3.0, 7.0, parent=0),
             _span(3, 9.0, 12.0, parent=0)]
    # children cover [1, 7] and [9, 10] inside the parent
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_nests_spans_and_charges_leaves_to_their_parent():
    tr = Tracer()

    def leaf():
        time.sleep(0.01)

    def inner():
        traced_leaf()
        traced_leaf()

    traced_leaf = tr.leaf("lib.leaf", leaf)
    outer = tr.span("lib.outer", tr.span("lib.inner", inner))
    outer()
    summary = tr.summary()
    assert summary["calls"] == {"lib.leaf": 2, "lib.inner": 1, "lib.outer": 1}
    assert [s[4] for s in tr.spans] == [None, 0]  # inner's parent is outer
    wall = tr.spans[0][3] - tr.spans[0][2]
    assert sum(summary["self_s"].values()) == pytest.approx(wall, abs=1e-6)
    assert summary["self_s"]["lib.leaf"] >= 0.02
    assert summary["self_s"]["lib.inner"] < summary["self_s"]["lib.leaf"]


def test_tracer_does_not_time_calls_nested_in_a_leaf():
    tr = Tracer()
    inner = tr.leaf("lib.inner", lambda: None)
    outer = tr.leaf("lib.outer", lambda: inner())
    outer()
    assert tr.leaf_calls == {"lib.outer": 1}


def test_patches_replace_every_binding_and_undo(tmp_path):
    import types

    def f():
        return 1

    a, b = types.ModuleType("a"), types.ModuleType("b")
    a.f = b.g = f
    with Patches([a, b]) as p:
        p.function(a, "f", lambda fn: (lambda: fn() + 1))
        assert a.f() == 2 and b.g() == 2
    assert a.f is f and b.g is f


@pytest.mark.parametrize("name", ["wall_s", "rng.self_s", "iter_ms_p50", "a-b", "9lives"])
def test_valid_metric_names(name):
    assert benchlib.valid_metric_name(name)


@pytest.mark.parametrize("name", ["", "_x", ".x", "has space", "x/y", "a" * 65, "é"])
def test_invalid_metric_names(name):
    assert not benchlib.valid_metric_name(name)


def test_benchmark_json_metrics_match_the_runner():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    import run

    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]] + [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    assert all(benchlib.valid_metric_name(n) for n in names)
    assert all(benchlib.valid_unit(m["unit"]) for m in doc["end_to_end"] + doc["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
