"""Each output check accepts the program's real output and rejects a corrupted one.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np
import pytest

import checks
from repro.engine import get_engine
from repro.scenarios import get_scenario
from repro.scenarios.spec import ComparisonCase


def rounds(case: ComparisonCase, engine: str = "batch", samples: int = 50, seed: int = 3):
    return get_engine(engine).run_rounds(
        case.comparison_config(),
        case.schedule_objects()[0],
        case.attack,
        None,
        samples,
        np.random.default_rng(seed),
    )


def corrupted(result, **arrays):
    """A copy of a RoundsResult with some arrays replaced."""
    return dataclasses.replace(result, **arrays)


ROW1 = ComparisonCase(label="row1", lengths=(5.0, 11.0, 17.0), fa=1)
ROW7_EXACT = ComparisonCase(label="row7", lengths=(5.0, 5.0, 5.0, 5.0, 20.0), fa=2, attack="expectation")


def test_marzullo_on_a_hand_worked_example():
    # Two intervals must agree: [1, 2] is covered by the first two and
    # [2.5, 3] by the last two, so the fusion spans [1, 3].
    assert checks.marzullo([0.0, 1.0, 2.5], [2.0, 3.0, 4.0], f=1) == (1.0, 3.0)
    assert checks.marzullo([0.0, 1.0, 2.5], [2.0, 3.0, 4.0], f=0) is None
    assert checks.marzullo([0.0, 0.0], [1.0, 1.0], f=0) == (0.0, 1.0)


def test_fusion_recomputation_accepts_the_engine_and_rejects_a_shifted_interval():
    result = rounds(ROW1)
    config = ROW1.comparison_config()
    assert checks.check_fusion(result, config.resolved_f, "row1") == []
    shifted = result.fusion_lo.copy()
    shifted[7] += 1e-9
    assert checks.check_fusion(corrupted(result, fusion_lo=shifted), config.resolved_f, "row1")
    invalid = result.valid.copy()
    invalid[3] = False
    assert checks.check_fusion(corrupted(result, valid=invalid), config.resolved_f, "row1")


def test_round_properties_reject_a_width_past_the_bound_and_a_missed_true_value():
    result = rounds(ROW1)
    config = ROW1.comparison_config()
    args = (ROW1.lengths, config.resolved_attacked, config.true_value, "row1")
    assert checks.check_rounds(result, *args) == []
    bound = checks.theorem2_bound(ROW1.lengths, set(config.resolved_attacked))
    wide = result.fusion_hi.copy()
    wide[0] = result.fusion_lo[0] + bound + 0.5
    assert any("Theorem 2" in p for p in checks.check_rounds(corrupted(result, fusion_hi=wide), *args))
    missed = result.fusion_lo.copy()
    missed[1] = config.true_value + 0.25
    assert any("true value" in p for p in checks.check_rounds(corrupted(result, fusion_lo=missed), *args))


def test_exact_attacker_matches_the_scalar_oracle_and_a_changed_float_is_caught():
    ours, oracle = rounds(ROW7_EXACT, samples=2), rounds(ROW7_EXACT, engine="scalar", samples=2)
    assert checks.check_identical(ours, oracle, "row7") == []
    changed = ours.broadcast_hi.copy()
    changed[1, 2] = np.nextafter(changed[1, 2], np.inf)
    assert checks.check_identical(corrupted(ours, broadcast_hi=changed), oracle, "row7")


@pytest.fixture(scope="module")
def smoke_payloads():
    import repro.api

    channel_free = repro.api.run(
        dataclasses.replace(get_scenario("table1-smoke"), samples=4_000, shard_samples=1_000), store=None
    ).payload
    lossy = repro.api.run(
        dataclasses.replace(get_scenario("sweep-lossy-iid"), samples=2_000, shard_samples=1_000), store=None
    ).payload
    return channel_free, lossy


def test_payload_properties_reject_detection_invalid_rounds_and_wide_intervals(smoke_payloads):
    payload, _ = smoke_payloads
    assert checks.check_comparison_payload(payload, stealthy=True, label="smoke") == []
    for field, value in (("detected_fraction", 0.01), ("valid_fraction", 0.99), ("expected_width", 99.0)):
        bad = copy.deepcopy(payload)
        bad["cases"][0]["rows"][0][field] = value
        assert checks.check_comparison_payload(bad, stealthy=True, label="smoke"), field


def test_lossy_counters_reject_counts_outside_the_channel_model(smoke_payloads):
    _, payload = smoke_payloads
    assert checks.check_comparison_payload(payload, stealthy=True, label="lossy") == []
    plain = next(case for case in payload["cases"] if case["channel"]["retransmit_budget"] == 0)
    retried = next(case for case in payload["cases"] if case["channel"]["retransmit_budget"] > 0)
    n = len(plain["lengths"])
    row = dict(plain["rows"][0], channel_dropped=plain["rows"][0]["channel_dropped"] * 2 + 50)
    assert checks.check_lossy_row(plain["channel"], n, row, "plain")
    row = dict(retried["rows"][0])
    row["channel_retransmits"] = retried["channel"]["retransmit_budget"] * row["samples"] + 1
    assert checks.check_lossy_row(retried["channel"], n, row, "retried")


def test_served_payload_comparison_rejects_a_changed_float(smoke_payloads):
    payload, _ = smoke_payloads
    same = copy.deepcopy(payload)
    assert checks.check_same_payload(same, payload, "served") == []
    row = same["cases"][0]["rows"][1]
    row["expected_width"] = float(np.nextafter(row["expected_width"], np.inf))
    assert checks.check_same_payload(same, payload, "served")


def test_search_check_rejects_a_best_worse_than_a_baseline_and_a_disagreeing_estimate():
    payload = {
        "best": {"expected_width": 7.35},
        "baselines": [
            {"schedule_spec": "ascending", "expected_width": 7.39},
            {"schedule_spec": "descending", "expected_width": 8.40},
        ],
    }
    assert checks.check_search(payload, estimate=7.36, std_error=0.01, label="anneal") == []
    worse = copy.deepcopy(payload)
    worse["best"]["expected_width"] = 7.45
    assert any("baseline" in p for p in checks.check_search(worse, 7.45, 0.01, "anneal"))
    assert any("independent" in p for p in checks.check_search(payload, 7.60, 0.01, "anneal"))
