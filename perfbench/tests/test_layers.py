"""The traced-run reduction charges self time once and finds every layer."""

from __future__ import annotations

import dataclasses

import pytest

import layers


def span(name, duration, *children, **attrs):
    return {"name": name, "attrs": attrs, "duration_s": duration, "children": list(children)}


def test_self_times_add_up_to_the_wall_time():
    tree = span(
        "bench.op",
        1.0,
        span(
            "runner.run_scenario",
            0.9,
            span("runner.plan", 0.05),
            span("runner.shard", 0.7, span("engine.run", 0.6, span("engine.attack", 0.4), span("engine.fuse", 0.1))),
            workers=1,
        ),
        fa=2,
    )
    out = layers.reduce_trace([tree], {}, wall_s=1.25, ops=1)
    assert out["engine.attack_s"] == pytest.approx(0.4)
    assert out["engine.run_self_s"] == pytest.approx(0.1)
    assert out["runner.shard_self_s"] == pytest.approx(0.1)
    assert out["runner.fanout_s"] == pytest.approx(0.15)
    assert out["expectation.fa2_s"] == pytest.approx(0.4)
    assert out["runner.shards"] == 1
    assert out["trace.unattributed_s"] == pytest.approx(0.25)


def test_pool_shards_are_busy_time_on_their_own_lanes():
    shards = [span("runner.shard", 0.8, span("engine.run", 0.7)) for _ in range(2)]
    tree = span("runner.run_scenario", 1.0, span("runner.plan", 0.01), *shards, span("runner.merge", 0.02), workers=2)
    out = layers.reduce_trace([tree], {}, wall_s=1.0, ops=1)
    # The parent waited for the pool; the shards' 1.6 busy seconds are not
    # subtracted from its 1.0 wall seconds.
    assert out["runner.fanout_s"] == pytest.approx(0.97)
    assert out["engine.run_self_s"] == pytest.approx(1.4)
    assert out["trace.unattributed_s"] == pytest.approx(0.0)


def test_latency_records_are_not_busy_time():
    tree = span("serve.request", 0.5)
    out = layers.reduce_trace([], {}, wall_s=0.0, ops=1, lane_spans=[tree, span("spec.decode", 0.002)])
    assert out["spec.decode_ms"] == pytest.approx(2.0)
    assert out["trace.unattributed_s"] == 0.0


def test_counters_become_ratios_and_counts():
    metrics = {
        "counters": [
            {"name": "repro_expectation_memo_total", "labels": {"outcome": "hit"}, "value": 1},
            {"name": "repro_expectation_memo_total", "labels": {"outcome": "miss"}, "value": 3},
            {"name": "repro_optimize_evaluations_total", "labels": {"outcome": "memo"}, "value": 3},
            {"name": "repro_optimize_evaluations_total", "labels": {"outcome": "unique"}, "value": 1},
            {"name": "repro_store_reads_total", "labels": {"outcome": "miss"}, "value": 2},
        ]
    }
    out = layers.reduce_trace([], metrics, wall_s=0.0, ops=1)
    assert out["expectation.memo_hit_ratio"] == 0.25
    assert out["expectation.decisions"] == 4
    assert out["optimize.memo_hit_ratio"] == 0.75
    assert out["optimize.unique_evaluations"] == 1
    assert out["store.misses"] == 2


def test_installed_timers_reach_the_program_call_sites():
    import repro.api
    from repro import obs
    from repro.scenarios import get_scenario

    layers.install_timers()
    spec = dataclasses.replace(get_scenario("sweep-lossy-smoke"), samples=1_000, shard_samples=500)
    with obs.collect() as session:
        repro.api.run(spec, store=None)
    snapshot = session.snapshot()
    out = layers.reduce_trace(snapshot["spans"], snapshot["metrics"], wall_s=0.0, ops=1)
    assert out["channel.realize_s"] > 0
    assert out["kernel.coverage_extremes_calls"] > 0
    assert out["spec.decode_ms"] > 0
    assert out["engine.samples"] == 2 * spec.samples
