"""Tests of the benchmark's own code.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from perfbench import common, layers, nests  # noqa: E402
from perfbench.trace import self_times  # noqa: E402

common.require_source()

from perfbench import serve_workload  # noqa: E402


def benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_bench(*args, cwd=ROOT, timeout=170):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


# -- generators --------------------------------------------------------------


def test_nests_are_deterministic_per_seed():
    first = [s.key() for s in nests.generate_round(7)]
    assert first == [s.key() for s in nests.generate_round(7)]
    assert first != [s.key() for s in nests.generate_round(8)]
    assert len(first) == len(nests.SHAPES)


def test_cold_requests_are_deterministic_and_follow_the_mix():
    first = [item["request"] for item in serve_workload.cold_requests(3)]
    assert first == [item["request"] for item in serve_workload.cold_requests(3)]
    assert len(first) == serve_workload.COLD_ROUND
    kinds = {}
    for request in first:
        kinds[request["kind"]] = kinds.get(request["kind"], 0) + 1
    expected = {}
    for (kind, _backend, _several), n in serve_workload.COLD_MIX.items():
        expected[kind] = expected.get(kind, 0) + n
    assert kinds == expected


def test_warm_inputs_are_deterministic_per_seed():
    def requests(seed):
        inputs = serve_workload.warm_inputs(seed, 2, 20)
        return [i["request"] for i in inputs["prefill"] + sum(inputs["rounds"], [])]

    assert requests(4) == requests(4)
    assert requests(4) != requests(5)


def test_warm_rounds_repeat_their_slots_at_fresh_points():
    first, second = serve_workload.warm_inputs(4, 2, 20)["rounds"]
    for a, b in zip(first, second):
        assert a["slot"] == b["slot"]
        assert a["request"]["kind"] == b["request"]["kind"]
        if "base" in a:
            assert a["base"] == b["base"]
        else:
            assert a["request"]["formula"] == b["request"]["formula"]
            assert a["request"] != dict(b["request"], id=a["request"]["id"])


def test_enumeration_oracle_on_a_triangle():
    spec = nests.NestSpec(
        "tri",
        [("i", nests.aff(1), nests.aff(0, N=1), 1), ("j", nests.aff(0, i=1), nests.aff(0, N=1), 1)],
        [(nests.aff(0, i=1), nests.aff(0, j=1)), (nests.aff(-1, i=1), nests.aff(0, j=1))],
        2,
    )
    got = nests.enumerate_answers(spec, 4, 0)
    assert got["iterations"] == 10 and got["flops"] == 20
    # a[i, j] and a[i-1, j] over 1 <= i <= j <= 4 touch rows 0..4.
    assert got["memory"] == len({(x, y) for y in range(1, 5) for x in range(0, y + 1)})
    # a[i, j] written at (i, j) is read as a[i'-1, j] at i' = i + 1 > i.
    assert got["dependences"] == sum(1 for j in range(1, 5) for i in range(1, j))


def test_cold_case_table_matches_the_generator():
    from perfbench.classify_cases import CASES, classify

    with open(os.path.join(ROOT, "perfbench", "cold_cases.json")) as fh:
        table = json.load(fh)["cases"]
    assert [row for row in table if row[0] < 200] == classify(200)
    assert len(table) > CASES * 0.9


# -- metric names ------------------------------------------------------------


def test_metric_names_match_benchmark_json():
    doc = benchmark_json()
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == common.END_TO_END
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(layers.PER_LAYER)
    assert set(layers.SELF_TIME) <= {name for name, _unit in layers.PER_LAYER}


# -- spans -------------------------------------------------------------------


def test_self_times_nest_and_sum_to_the_root():
    spans = [
        ("serve.http", 0.0, 10.0, "1:1", None, "op1", 0),
        # daemon side, another process: owned by the client span via op id
        ("serve.daemon.handle", 1.0, 9.0, "2:1", None, "op1", 0),
        ("service.diskcache.get", 1.5, 2.0, "2:2", "2:1", "op1", 0),
        ("service.executor.job", 2.0, 8.0, "2:3", "2:1", "op1", 0),
        # the forked worker's spans, under the daemon's job span
        ("service.executor.execute", 3.0, 7.0, "3:1", "2:3", "op1", 0),
        ("omega.satisfiability", 4.0, 5.0, "3:2", "3:1", "op1", 0),
    ]
    got = self_times(spans, {"op1": "1:1"})
    assert got["serve.http"] == pytest.approx(2.0)
    assert got["serve.daemon.handle"] == pytest.approx(1.5)
    assert got["service.executor.job"] == pytest.approx(2.0)
    assert got["service.executor.execute"] == pytest.approx(3.0)
    assert got["omega.satisfiability"] == pytest.approx(1.0)
    assert sum(got.values()) == pytest.approx(10.0)


def test_layer_metrics_account_for_the_wall():
    spans = [
        ("op", 0.0, 1.0, "1:1", None, "0", 0),
        ("apps.iterations", 0.1, 0.5, "1:2", "1:1", "0", 0),
        ("presburger.dnf", 0.2, 0.3, "1:3", "1:2", "0", 3),
    ]
    out = layers.compute(spans, 1, 1.0, {"sat_calls": 4, "sat_cache_hits": 1})
    assert out["apps.iterations.ms"] == pytest.approx(300.0)
    assert out["presburger.dnf.ms"] == pytest.approx(100.0)
    assert out["presburger.dnf.clauses"] == 3
    assert out["omega.satisfiability.cache_hit_ratio"] == pytest.approx(0.25)
    assert out["trace.unattributed_ms"] == pytest.approx(600.0)
    assert out["trace.attributed_share"] == pytest.approx(0.4)


# -- end to end --------------------------------------------------------------


def _result(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", ["nest-analysis", "serve-cold", "serve-warm"])
def test_smoke_run_prints_every_end_to_end_metric(workload):
    details, result = _result(
        run_bench("--workload", workload, "--seed", "2", "--seconds", "0.1", "--trace", "0", "--smoke")
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == common.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert details["wrong_answers"] == 0 and all(details["routes"].values())
    assert details["environment"]["seed"] == 2


@pytest.mark.parametrize("workload", ["nest-analysis", "serve-cold"])
def test_traced_smoke_run_attributes_the_wall(workload):
    details, result = _result(
        run_bench("--workload", workload, "--seed", "2", "--seconds", "0.1", "--trace", "1", "--smoke")
    )
    assert result["correct"]
    assert [k for k in result["metrics"]] == [name for name, _unit in layers.PER_LAYER]
    m = {k: v["value"] for k, v in result["metrics"].items()}
    # Self times plus unattributed time make up the wall within 10%.
    assert 0.9 <= m["trace.attributed_share"] <= 1.1
    assert m["trace.overhead_ratio"] > 0
    assert details["self_ms"]
    if workload == "serve-cold":
        assert m["service.executor.job_ms"] > m["service.executor.worker_ms"] > 0
        assert m["serve.metrics.cold_jobs"] == pytest.approx(1.0)
    else:
        assert m["core.memo.hit_ratio"] > 0 and m["apps.iterations.ms"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns(".out", "__pycache__"),
    )
    proc = run_bench(
        "--workload", "nest-analysis", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=str(tmp_path), timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
