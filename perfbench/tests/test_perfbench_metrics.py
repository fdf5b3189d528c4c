"""Metric arithmetic of the serving benchmark, on synthetic reports.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from summary import (  # noqa: E402
    completed_fraction,
    he_operations_per_request,
    late_over_early,
    online_cost_per_request,
    tail,
)


def report(*, batch_id=0, batch_size=1, shared=False, online_bytes=0, online_rounds=0, ops=None):
    return SimpleNamespace(
        batch_id=batch_id, batch_size=batch_size, shared_slot_batch=shared,
        online_bytes=online_bytes, online_rounds=online_rounds, he_operations=ops or {},
    )


class TestTail:
    def test_exactly_ten_samples_beyond(self):
        values = list(range(1, 101))  # 1..100
        percentile, value = tail(values)
        assert value == 90  # 91..100 are the ten beyond it
        assert percentile == pytest.approx(90.0)

    def test_order_of_input_does_not_matter(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 8.0, 7.0, 6.0, 10.0, 11.0, 12.0]
        percentile, value = tail(values)
        assert value == 2.0  # 3..12 are beyond it
        assert percentile == pytest.approx(100 * 2 / 12)

    def test_eleven_samples_is_the_minimum(self):
        assert tail(range(11)) == (pytest.approx(100 / 11), 0.0)
        with pytest.raises(ValueError):
            tail(range(10))


class TestSharedSlotDedupe:
    def test_shared_batch_counted_once(self):
        # Three requests shared one batch whose joint figures are 900 B / 30
        # rounds; a fourth ran alone with 100 B / 5 rounds.
        reports = [
            report(batch_id=1, batch_size=3, shared=True, online_bytes=900, online_rounds=30)
            for _ in range(3)
        ] + [report(batch_id=2, online_bytes=100, online_rounds=5)]
        per_bytes, per_rounds = online_cost_per_request(reports)
        assert per_bytes == pytest.approx((900 + 100) / 4)
        assert per_rounds == pytest.approx((30 + 5) / 4)

    def test_chunks_of_one_batch_count_separately(self):
        # A linear batch split into two slot chunks of sizes 2 and 1: each
        # chunk's reports carry that chunk's joint figure.
        reports = [
            report(batch_id=7, batch_size=2, shared=True, online_bytes=400, online_rounds=2),
            report(batch_id=7, batch_size=2, shared=True, online_bytes=400, online_rounds=2),
            report(batch_id=7, batch_size=1, shared=True, online_bytes=300, online_rounds=2),
        ]
        per_bytes, per_rounds = online_cost_per_request(reports)
        assert per_bytes == pytest.approx(700 / 3)
        assert per_rounds == pytest.approx(4 / 3)

    def test_unshared_reports_add_up(self):
        reports = [
            report(online_bytes=10, online_rounds=1), report(online_bytes=30, online_rounds=3)
        ]
        assert online_cost_per_request(reports) == (20.0, 2.0)

    def test_he_operations_follow_the_same_rule(self):
        reports = [
            report(batch_size=2, shared=True, ops={"he_add": 8, "he_rotate": 2})
            for _ in range(2)
        ] + [report(ops={"he_add": 2})]
        got = he_operations_per_request(reports, ("he_add", "he_rotate", "decrypt"))
        assert got == {"he_add": pytest.approx(10 / 3), "he_rotate": pytest.approx(2 / 3),
                       "decrypt": 0.0}


class TestLateOverEarly:
    def test_steady_rate_is_one(self):
        completions = [float(i) for i in range(1, 11)]
        assert late_over_early(0.0, completions) == pytest.approx(1.0)

    def test_decay_halves_the_late_rate(self):
        # Five completions one second apart, then five two seconds apart.
        completions = [1, 2, 3, 4, 5, 7, 9, 11, 13, 15]
        assert late_over_early(0.0, completions) == pytest.approx(0.5)

    def test_batched_completions_split_between_batches(self):
        # Batches of four completing every 2 s: eight requests on each side.
        completions = [2.0] * 4 + [4.0] * 4 + [6.0] * 4 + [8.0] * 4
        assert late_over_early(0.0, completions) == pytest.approx(1.0)

    def test_rejects_degenerate_episodes(self):
        with pytest.raises(ValueError):
            late_over_early(0.0, [1.0])
        with pytest.raises(ValueError):
            late_over_early(0.0, [1.0, 1.0])


class TestCompletedFraction:
    def test_all_completed(self):
        assert completed_fraction(40, 0, 0, 0) == 1.0

    def test_shed_failed_and_timed_out_all_miss(self):
        assert completed_fraction(100, failed=3, shed=5, timeouts=2) == pytest.approx(0.9)

    def test_nothing_attempted_is_an_error(self):
        with pytest.raises(ValueError):
            completed_fraction(0, 0, 0, 0)
