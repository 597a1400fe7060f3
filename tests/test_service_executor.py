"""Executor: per-job payloads, timeouts, budgets, crash retry."""

import pytest

from repro.service.executor import (
    BUDGET_EXCEEDED,
    PARSE_ERROR,
    TIMEOUT,
    WORKER_CRASH,
    JobError,
    execute_request,
    run_jobs,
)
from repro.service.request import JobRequest

# Hook-marked formulas must still parse (hashing happens in the parent)
# and must be structurally distinct from the healthy jobs, or the
# alpha-invariant dedup would fold them together.
SLEEP_FORMULA = "1 <= sleepy_marker and sleepy_marker <= n + 7"
POISON_FORMULA = "1 <= poison_marker and poison_marker <= n + 13"


class TestExecuteRequest:
    def test_count_payload(self):
        req = JobRequest(
            "count",
            "1 <= i and i < j and j <= n",
            over=["i", "j"],
            at=[{"n": 10}],
        )
        payload = execute_request(req)
        assert payload["kind"] == "count"
        assert "n**2" in payload["result"]
        assert payload["points"] == [{"at": {"n": 10}, "value": 45}]
        assert payload["exactness"] == "exact"
        assert "sat_calls" in payload["stats"]
        assert isinstance(payload["result_json"], dict)

    def test_sum_payload(self):
        req = JobRequest(
            "sum", "1 <= i <= n", over=["i"], poly="i*i", at=[{"n": 100}]
        )
        payload = execute_request(req)
        assert payload["points"][0]["value"] == 338350

    def test_simplify_payload(self):
        req = JobRequest("simplify", "x >= 1 and x >= 0 and x <= 9")
        payload = execute_request(req)
        assert payload["result"] == "x - 1 >= 0 and -x + 9 >= 0"
        assert payload["clauses"] == ["x - 1 >= 0 and -x + 9 >= 0"]

    def test_parse_error_is_structured(self):
        req = JobRequest("count", "1 <= i <= ===", over=["i"])
        with pytest.raises(JobError) as exc_info:
            execute_request(req)
        assert exc_info.value.kind == PARSE_ERROR


class TestRunJobs:
    def test_outcomes_in_input_order(self):
        reqs = [
            JobRequest("count", "1 <= i <= n", over=["i"], id="a"),
            JobRequest("simplify", "x >= 1 and x >= 0", id="b"),
        ]
        outcomes = run_jobs(reqs, workers=2)
        assert [o["ok"] for o in outcomes] == [True, True]
        assert outcomes[0]["payload"]["kind"] == "count"
        assert outcomes[1]["payload"]["kind"] == "simplify"
        assert all(o["attempts"] == 1 for o in outcomes)

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            run_jobs([], workers=0)

    def test_timeout_is_structured_and_batch_completes(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_SLEEP", "sleepy_marker")
        reqs = [
            JobRequest("count", SLEEP_FORMULA, over=["sleepy_marker"], timeout=0.3),
            JobRequest("count", "1 <= i <= n", over=["i"]),
        ]
        outcomes = run_jobs(reqs, workers=2, default_timeout=30.0)
        assert outcomes[0]["ok"] is False
        assert outcomes[0]["error"]["kind"] == TIMEOUT
        assert outcomes[1]["ok"] is True

    def test_crash_is_retried_once_then_structured(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_POISON", "poison_marker")
        reqs = [
            JobRequest("count", POISON_FORMULA, over=["poison_marker"]),
            JobRequest("count", "1 <= i <= n", over=["i"]),
        ]
        outcomes = run_jobs(reqs, workers=2)
        assert outcomes[0]["ok"] is False
        assert outcomes[0]["error"]["kind"] == WORKER_CRASH
        assert outcomes[0]["attempts"] == 2
        assert "86" in outcomes[0]["error"]["message"]
        assert outcomes[1]["ok"] is True

    def test_transient_crash_retry_succeeds(self, tmp_path, monkeypatch):
        # A worker killed once recovers on retry: the flag file makes
        # only the first attempt die, so the job must come back ok
        # with attempts == 2 while the rest of the batch is untouched.
        flag = tmp_path / "died_once"
        monkeypatch.setenv(
            "REPRO_SERVICE_POISON_ONCE", "poison_marker:%s" % flag
        )
        reqs = [
            JobRequest("count", POISON_FORMULA, over=["poison_marker"]),
            JobRequest("count", "1 <= i <= n", over=["i"]),
        ]
        outcomes = run_jobs(reqs, workers=2)
        assert outcomes[0]["ok"] is True
        assert outcomes[0]["attempts"] == 2
        assert outcomes[1]["ok"] is True
        assert outcomes[1]["attempts"] == 1
        assert flag.exists()

    def test_budget_exceeded_mid_batch_not_retried(self):
        # Budget exhaustion is a deterministic failure: it must be
        # reported after one attempt (retrying would just burn the
        # same budget again) and must not block the jobs around it.
        reqs = [
            JobRequest("count", "1 <= i <= n", over=["i"]),
            JobRequest(
                "count",
                "1 <= i and i < j and j <= n",
                over=["i", "j"],
                budget=1,
            ),
            JobRequest("count", "1 <= k <= m + 2", over=["k"]),
        ]
        outcomes = run_jobs(reqs, workers=2)
        assert outcomes[1]["ok"] is False
        assert outcomes[1]["error"]["kind"] == BUDGET_EXCEEDED
        assert outcomes[1]["attempts"] == 1
        assert outcomes[0]["ok"] is True and outcomes[2]["ok"] is True

    def test_forked_worker_starts_with_an_empty_evalc_cache(self):
        """A job's stats must not depend on what the parent process
        served before: the forked worker compiles its own evaluator
        instead of reusing the parent's."""
        req = JobRequest(
            "evaluate",
            "1 <= i <= n and 3 | (i + n)",
            over=["i"],
            at=[{"n": 9}, {"n": 4}],
        )
        execute_request(req)  # leaves a compiled evaluator in this process
        (outcome,) = run_jobs([req], workers=1)
        assert outcome["ok"] is True
        job_stats = outcome["payload"]["stats"]
        assert job_stats["evalc_cache_hits"] == 0
        assert job_stats["evalc_compiles"] == 1

    def test_warm_rerun_of_budget_limited_job_completes(self):
        # Budget units are satisfiability-cache *misses*.  A job too
        # hard for budget=1 cold must complete on a warm in-process
        # re-run: every sat query answers from the memo, so the warm
        # run charges zero units against the same exhausted budget.
        from repro.core import stats
        from repro.core.memo import clear_answer_memo, set_answer_memo
        from repro.omega.satisfiability import clear_sat_cache

        req = JobRequest(
            "count", "1 <= i and i < j and j <= n", over=["i", "j"],
            at=[{"n": 10}],
        )
        clear_sat_cache()
        clear_answer_memo()
        # The answer memo would mask the sat cache (the warm run would
        # be answered at the recursion roots); disable it so the warm
        # run actually replays every satisfiability query.
        previous_memo = set_answer_memo(0)
        try:
            budget = stats.set_work_budget(1)
            try:
                with pytest.raises(JobError) as exc_info:
                    execute_request(req)
                assert exc_info.value.kind == BUDGET_EXCEEDED
                stats.set_work_budget(None)
                cold = execute_request(req)  # warm the sat cache
                stats.set_work_budget(1)
                warm = execute_request(req)  # same job, same budget: ok
                assert warm["result"] == cold["result"]
                assert warm["points"] == cold["points"]
                assert stats.budget_spent() == 0
            finally:
                stats.set_work_budget(budget)
        finally:
            set_answer_memo(previous_memo)
            clear_sat_cache()

    def test_budget_exceeded_is_structured(self):
        reqs = [
            JobRequest(
                "count",
                "1 <= i and i < j and j <= n",
                over=["i", "j"],
                budget=1,
            ),
            JobRequest("count", "1 <= i <= n", over=["i"]),
        ]
        outcomes = run_jobs(reqs, workers=1)
        assert outcomes[0]["ok"] is False
        assert outcomes[0]["error"]["kind"] == BUDGET_EXCEEDED
        assert outcomes[1]["ok"] is True

    def test_default_budget_fallback(self):
        outcomes = run_jobs(
            [JobRequest("count", "1 <= i and i < j and j <= n", over=["i", "j"])],
            workers=1,
            default_budget=1,
        )
        assert outcomes[0]["error"]["kind"] == BUDGET_EXCEEDED

    def test_on_outcome_streaming(self):
        seen = []
        run_jobs(
            [
                JobRequest("count", "1 <= i <= n", over=["i"]),
                JobRequest("count", "1 <= i <= m", over=["i"]),
            ],
            workers=1,
            on_outcome=lambda index, outcome: seen.append((index, outcome["ok"])),
        )
        assert sorted(seen) == [(0, True), (1, True)]

    def test_per_job_stats_isolation(self):
        # Two identical jobs must report identical per-job counters --
        # the second worker starts from a clean snapshot, not on top of
        # the first one's.
        reqs = [
            JobRequest("count", "1 <= i and i < j and j <= n", over=["i", "j"]),
            JobRequest("count", "1 <= i and i < k and k <= n + 5", over=["i", "k"]),
            JobRequest("count", "1 <= i and i < j and j <= n", over=["i", "j"]),
        ]
        outcomes = run_jobs(reqs, workers=1)
        first = outcomes[0]["payload"]["stats"]
        third = outcomes[2]["payload"]["stats"]
        assert first["sat_calls"] == third["sat_calls"] > 0
