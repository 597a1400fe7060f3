"""The observability layer (repro.core.stats)."""

import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from fractions import Fraction

import pytest

from repro.core import count, stats

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


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


@pytest.fixture
def private_registry(monkeypatch):
    """Register test caches, and count their evictions, apart from the
    process's real caches and counters."""
    monkeypatch.setattr(stats, "_CACHES", {})
    monkeypatch.setattr(stats, "_counters", dict(stats._counters))


class TestBoundedLRU:
    def test_touched_key_survives_and_peek_does_not_touch(self):
        lru = stats.BoundedLRU(2)
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.get("a") == 1  # "b" is now the oldest
        lru.put("c", 3)
        assert list(lru) == ["a", "c"]
        assert lru.peek("a") == 1  # no touch: "a" stays the oldest
        lru.put("d", 4)
        assert list(lru) == ["c", "d"]
        assert lru.get("a") is None and lru.peek("a") is None

    def test_put_pop_and_clear(self):
        lru = stats.BoundedLRU(3)
        lru.put("a", False)  # a falsy value is still a value
        assert lru.get("a") is False
        lru.put("b", 2)
        lru.put("a", 1)  # replacing makes the key most recent
        assert list(lru) == ["b", "a"] and lru.peek("a") == 1
        assert lru.pop("b") == 2 and lru.pop("b") is None
        lru.clear()
        assert len(lru) == 0

    def test_zero_limit_stores_nothing_and_counts_nothing(
        self, private_registry
    ):
        lru = stats.BoundedLRU(0, "lru_test")
        with stats.collecting_stats() as counters:
            lru.put("a", 1)
            assert lru.get("a") is None
        assert len(lru) == 0
        assert counters.get("lru_test_evictions", 0) == 0

    def test_resize_evicts_oldest_and_counts_each(self, private_registry):
        lru = stats.BoundedLRU(5, "lru_test")
        for k in range(5):
            lru.put(k, k)
        with stats.collecting_stats() as counters:
            assert lru.resize(2) == 5
            assert list(lru) == [3, 4]
            assert counters["lru_test_evictions"] == 3
            lru.put(5, 5)
            assert list(lru) == [4, 5]
            assert counters["lru_test_evictions"] == 4
        snap = stats.engine_snapshot()
        assert snap["lru_test_size"] == 2 and snap["lru_test_limit"] == 2

    def test_unnamed_instances_report_nothing(self, private_registry):
        lru = stats.BoundedLRU(1)
        with stats.collecting_stats() as counters:
            lru.put("a", 1)
            lru.put("b", 2)
        assert not any(counters.values())
        assert stats._CACHES == {}

    def test_snapshot_reports_all_four_without_importing_them(self):
        script = (
            "import json, sys\n"
            "from repro.core import stats\n"
            "snap = stats.engine_snapshot()\n"
            "print(json.dumps({'snap': snap, 'loaded': sorted(m for m in "
            "('repro.automaton', 'repro.evalc') if m in sys.modules)}))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=SRC),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        doc = json.loads(done.stdout)
        assert doc["loaded"] == []
        for name, limit in stats.CACHE_LIMITS.items():
            assert doc["snap"][name + "_size"] == 0
            assert doc["snap"][name + "_limit"] == limit

    def test_clear_caches_empties_all_four(self):
        from repro.automaton import automaton_for
        from repro.core.memo import clear_answer_memo
        from repro.evalc import compile_sum

        result = count("1 <= i <= n and 3 | (i + n)", ["i"])
        compile_sum(result)
        automaton_for("0 <= i <= 9 and 0 <= j <= i", ["i", "j"])
        names = ("sat_cache", "answer_memo", "evalc_cache", "automaton_cache")
        try:
            snap = stats.engine_snapshot()
            assert all(snap[name + "_size"] > 0 for name in names)
            stats.clear_caches()
            snap = stats.engine_snapshot()
            assert all(snap[name + "_size"] == 0 for name in names)
        finally:
            stats.clear_caches()
            clear_answer_memo()

    def test_threads_with_python_hashed_keys(self):
        """Fraction keys hash and compare in Python code, so a thread
        switch can land inside a map operation; the lock keeps the map
        whole.  Nothing may raise, a hit must return its own key's
        value, and the size must respect the limit."""
        lru = stats.BoundedLRU(4)
        keys = [Fraction(k, 7) for k in range(16)]
        errors = []

        def worker(seed):
            rng = random.Random(seed)
            try:
                for _ in range(20000):
                    key = rng.choice(keys)
                    op = rng.random()
                    if op < 0.45:
                        value = lru.get(key)
                        if value is not None and value != key:
                            errors.append((key, value))
                    elif op < 0.9:
                        lru.put(key, key)
                    elif op < 0.97:
                        lru.resize(rng.choice((2, 3, 4)))
                    else:
                        lru.clear()
            except Exception as exc:  # reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(lru) <= lru.limit

    def test_forked_child_takes_fresh_locks(self, private_registry):
        """A fork while another thread holds a cache's lock must not
        leave the child's copy of that lock held forever."""
        lru = stats.BoundedLRU(4, "lru_test")
        with lru._lock:  # as if another thread were inside an operation
            pid = os.fork()
            if pid == 0:  # pragma: no cover - the child
                lru.put("a", 1)
                os._exit(0 if lru.get("a") == 1 else 1)
        for _ in range(100):
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.05)
        else:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert done and os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
