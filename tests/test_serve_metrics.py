"""Serving observability: histograms, counters, the queue probe."""

import random

import pytest

from repro.serve.metrics import (
    BUCKET_BOUNDS_MS,
    COUNTER_NAMES,
    LatencyHistogram,
    ServeMetrics,
    TIERS,
    merge_latency_snapshots,
)


class TestLatencyHistogram:
    def test_empty(self):
        hist = LatencyHistogram()
        assert hist.quantile_ms(0.5) == 0.0
        snap = hist.snapshot()
        assert snap == {
            "count": 0,
            "p50_ms": 0.0,
            "p99_ms": 0.0,
            "mean_ms": 0.0,
            "max_ms": 0.0,
            "buckets": [0] * (len(BUCKET_BOUNDS_MS) + 1),
            "total_ms": 0.0,
        }

    def test_quantiles_are_bucket_upper_bounds(self):
        hist = LatencyHistogram()
        for _ in range(100):
            hist.observe(3.0)  # falls in the (2, 5] bucket
        assert hist.quantile_ms(0.5) == 5.0
        assert hist.quantile_ms(0.99) == 5.0

    def test_p99_lands_in_the_tail_bucket(self):
        hist = LatencyHistogram()
        for _ in range(98):
            hist.observe(0.8)  # (0.5, 1] bucket
        hist.observe(450.0)  # (200, 500] bucket
        hist.observe(450.0)
        assert hist.quantile_ms(0.5) == 1.0
        assert hist.quantile_ms(0.99) == 500.0

    def test_open_last_bucket_reports_exact_max(self):
        hist = LatencyHistogram()
        beyond = BUCKET_BOUNDS_MS[-1] * 2
        hist.observe(beyond)
        assert hist.quantile_ms(0.99) == beyond
        assert hist.snapshot()["max_ms"] == beyond

    def test_mean_and_max(self):
        hist = LatencyHistogram()
        hist.observe(1.0)
        hist.observe(3.0)
        snap = hist.snapshot()
        assert snap["count"] == 2
        assert snap["mean_ms"] == 2.0
        assert snap["max_ms"] == 3.0


def _random_samples(rng, n):
    """Latencies spanning every bucket regime, incl. the open tail."""
    out = []
    for _ in range(n):
        out.append(rng.choice((0.03, 0.7, 3.0, 42.0, 450.0, 80000.0)))
    return out


class TestMergeLatencySnapshots:
    """The merge bug class: aggregation must be associative and must
    equal one histogram that saw the union stream, or a merged p50/p99
    silently lies."""

    def test_merge_equals_union_histogram(self):
        rng = random.Random(7)
        parts = []
        union = LatencyHistogram()
        for _ in range(4):
            hist = LatencyHistogram()
            for ms in _random_samples(rng, rng.randrange(0, 60)):
                hist.observe(ms)
                union.observe(ms)
            parts.append(hist.snapshot())
        merged = merge_latency_snapshots(parts)
        expected = union.snapshot()
        # Summation order differs, so the raw total compares to within
        # float tolerance; everything else is exactly equal.
        assert merged.pop("total_ms") == pytest.approx(
            expected.pop("total_ms")
        )
        assert merged == expected

    def test_merge_is_associative_and_commutative(self):
        rng = random.Random(11)
        snaps = []
        for _ in range(3):
            hist = LatencyHistogram()
            for ms in _random_samples(rng, 40):
                hist.observe(ms)
            snaps.append(hist.snapshot())
        a, b, c = snaps
        left = merge_latency_snapshots(
            [merge_latency_snapshots([a, b]), c]
        )
        right = merge_latency_snapshots(
            [a, merge_latency_snapshots([b, c])]
        )
        flat = merge_latency_snapshots([a, b, c])
        assert left == right == flat
        assert merge_latency_snapshots([c, a, b]) == flat

    def test_merge_of_nothing_is_empty(self):
        merged = merge_latency_snapshots([])
        assert merged["count"] == 0
        assert merged["p50_ms"] == 0.0 and merged["p99_ms"] == 0.0

    def test_legacy_snapshot_without_buckets_degrades_gracefully(self):
        legacy = {"count": 5, "mean_ms": 2.0, "max_ms": 4.0}
        merged = merge_latency_snapshots([legacy])
        assert merged["count"] == 5
        # Position unknown -> the open tail bucket, quantile = max.
        assert merged["buckets"][-1] == 5
        assert merged["p99_ms"] == 4.0


class TestServeMetrics:
    def test_snapshot_schema_is_complete_when_idle(self):
        snap = ServeMetrics().snapshot()
        assert set(snap["counters"]) == set(COUNTER_NAMES)
        assert all(v == 0 for v in snap["counters"].values())
        assert set(snap["tiers"]) == set(TIERS)
        assert snap["queue_depth"] == 0
        assert snap["uptime_seconds"] >= 0.0
        assert snap["hit_rates"] == {
            "warm": 0.0,
            "coalesced": 0.0,
            "cold": 0.0,
        }

    def test_hit_rates_partition_answered_requests(self):
        m = ServeMetrics()
        m.bump("warm_hits", 6)
        m.bump("artifact_hits", 2)
        m.bump("coalesced", 1)
        m.bump("cold_jobs", 1)
        m.bump("shed", 5)  # refused -> not in the denominator
        rates = m.hit_rates()
        assert rates["warm"] == 0.8
        assert rates["coalesced"] == 0.1
        assert rates["cold"] == 0.1
        assert abs(sum(rates.values()) - 1.0) < 1e-9

    def test_queue_probe(self):
        m = ServeMetrics()
        m.queue_probe = lambda: 7
        assert m.queue_depth() == 7
        assert m.snapshot()["queue_depth"] == 7

    def test_observe_feeds_the_right_tier(self):
        m = ServeMetrics()
        m.observe("warm", 0.3)
        m.observe("cold", 120.0)
        snap = m.snapshot()
        assert snap["tiers"]["warm"]["count"] == 1
        assert snap["tiers"]["cold"]["count"] == 1
        assert snap["tiers"]["coalesced"]["count"] == 0
