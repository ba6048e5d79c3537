"""Tests of the benchmark's own arithmetic and of its metric declarations.

Run with ``python -m pytest perfbench`` from the repository root.
"""

import json
import math
from pathlib import Path

import pytest

import bench_stats
import run
from bench_trace import PER_LAYER, Tracer, layer_metrics

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


# -- the percentile rule ---------------------------------------------------

def test_nearest_rank_percentile():
    values = list(range(100, 0, -1))
    assert bench_stats.percentile(values, 50) == 50
    assert bench_stats.percentile(values, 95) == 95
    assert bench_stats.percentile(values, 100) == 100
    assert bench_stats.percentile([7.0], 95) == 7.0
    with pytest.raises(ValueError):
        bench_stats.percentile([], 50)


def test_p95_needs_ten_samples_beyond_it():
    assert bench_stats.samples_beyond(200, 95) == 10
    assert bench_stats.samples_beyond(199, 95) == 9
    assert bench_stats.highest_supported_percentile(200) == 95
    assert bench_stats.highest_supported_percentile(199) == 90
    assert bench_stats.highest_supported_percentile(1000) == 99
    assert bench_stats.highest_supported_percentile(10_000) == 99.9
    assert bench_stats.highest_supported_percentile(19) is None
    assert bench_stats.min_samples_for(95) == 200
    assert bench_stats.min_samples_for(50) == 20
    assert bench_stats.min_samples_for(99) == 1000


# -- self time with nested spans -------------------------------------------

def test_self_time_subtracts_direct_children_only():
    spans = [
        (0, None, "root", 0.0, 10.0),
        (1, 0, "a", 1.0, 4.0),
        (2, 1, "leaf", 2.0, 3.0),
        (3, 0, "b", 5.0, 6.0),
    ]
    own = bench_stats.self_times(spans)
    assert own[0] == pytest.approx(6.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(1.0)
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        (0, None, "root", 0.0, 10.0),
        (1, 0, "a", 1.0, 4.0),
        (2, 0, "b", 3.0, 6.0),
        (3, 0, "late", 9.0, 12.0),
    ]
    assert bench_stats.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_layer_summary_and_tracer_nesting():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: None)

    def outer():
        inner()
        inner()

    tracer.wrap("outer", outer)()
    with tracer.span("block"):
        inner()
    summary = bench_stats.layer_summary(tracer.spans)
    assert summary["inner"]["calls"] == 3
    assert summary["outer"]["calls"] == 1
    parents = {span[0]: span[1] for span in tracer.spans}
    names = {span[0]: span[2] for span in tracer.spans}
    assert sorted(names[parents[i]] for i in names
                  if names[i] == "inner") == ["block", "outer", "outer"]
    assert summary["outer"]["self_s"] <= summary["outer"]["total_s"]


def test_layer_metrics_average_per_traced_unit():
    units = []
    for _ in range(2):
        tracer = Tracer()
        tracer.spans.extend([(0, None, "session.run", 0.0, 4.0),
                             (1, 0, "engine.run", 0.5, 3.5),
                             (2, 1, "checkpoint.save", 1.0, 2.0)])
        tracer.add("evaluation.column_requests", 10)
        tracer.add("evaluation.columns_computed", 2)
        units.append(tracer)
    values = layer_metrics(units)
    assert values["session.overhead_s"] == pytest.approx(1.0)
    assert values["checkpoint.saves"] == 1
    assert values["checkpoint.run_share_pct"] == pytest.approx(25.0)
    assert values["evaluation.column_hit_rate"] == pytest.approx(0.8)
    assert values["evaluation.columns_computed"] == 2
    assert values["compile.kernel_hit_rate"] == 0.0


# -- hypervolume on a hand-built front -------------------------------------

def test_hypervolume_of_hand_built_front():
    reference = (1.0, 100.0)
    front = [(0.5, 20.0), (0.2, 60.0)]
    # strips: (100-20)*(1-0.5) + (100-60)*(0.5-0.2) = 40 + 12
    assert bench_stats.hypervolume(front, reference) == pytest.approx(0.52)
    dominated = front + [(0.6, 70.0)]
    assert bench_stats.hypervolume(dominated, reference) == pytest.approx(0.52)
    outside = front + [(0.1, 150.0), (1.5, 5.0)]
    assert bench_stats.hypervolume(outside, reference) == pytest.approx(0.52)
    assert bench_stats.hypervolume([], reference) == 0.0
    assert bench_stats.hypervolume([(0.0, 0.0)], reference) == 1.0


def test_mutually_nondominated():
    assert bench_stats.mutually_nondominated([(0.5, 20.0), (0.2, 60.0)])
    assert bench_stats.mutually_nondominated([(0.5, 20.0), (0.5, 20.0)])
    assert not bench_stats.mutually_nondominated([(0.5, 20.0), (0.5, 30.0)])


# -- failed_share counting -------------------------------------------------

def test_failed_share_counts_every_recorded_operation():
    ledger = bench_stats.Ledger()
    assert ledger.record(True, "never shown")
    assert not ledger.record(False, "PM: HTTP 500")
    ledger.record(True, "never shown")
    ledger.record(False, "PM: served values differ")
    assert ledger.attempted == 4
    assert ledger.failures == ["PM: HTTP 500", "PM: served values differ"]
    assert ledger.failed_share == 0.5
    assert bench_stats.failed_share(3, 0) == 0.0
    with pytest.raises(ValueError):
        bench_stats.failed_share(0, 0)
    with pytest.raises(ValueError):
        bench_stats.failed_share(2, 3)


# -- fingerprints ----------------------------------------------------------

def test_fingerprint_sees_every_bit_but_not_insertion_order():
    front = [("1 + x", 0.1, 10.0)]
    other = [("2 * y", 0.2, 20.0)]
    digest = bench_stats.front_fingerprint({"a": front, "b": other})
    assert digest == bench_stats.front_fingerprint({"b": other, "a": front})
    nudged = [("1 + x", math.nextafter(0.1, 1.0), 10.0)]
    assert digest != bench_stats.front_fingerprint({"a": nudged, "b": other})


# -- BENCHMARK.json declares exactly what the command prints --------------

def test_benchmark_json_matches_the_metrics_the_command_prints():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert all(0 < bound <= 0.25 for bound in bounds.values())
