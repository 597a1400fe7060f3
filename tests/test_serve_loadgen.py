"""Load generator: corpus building, alpha variants, replay, summaries."""

import asyncio
import json
import random

import pytest

from repro.__main__ import main
from repro.serve.daemon import ServeConfig
from repro.serve.loadgen import (
    DEFAULT_BASE_REQUESTS,
    alpha_variant,
    base_requests,
    build_requests,
    run_inprocess,
    summarize,
)
from repro.service.request import JobRequest


class TestAlphaVariant:
    def test_same_content_hash_different_spelling(self):
        rng = random.Random(7)
        for obj in DEFAULT_BASE_REQUESTS:
            if not obj.get("over"):
                continue
            variant = alpha_variant(obj, rng)
            assert variant["formula"] != obj["formula"]
            assert variant["over"] != obj["over"]
            assert (
                JobRequest.from_json(variant).content_hash()
                == JobRequest.from_json(obj).content_hash()
            )

    def test_no_over_vars_is_identity(self):
        rng = random.Random(0)
        simp = {"kind": "simplify", "formula": "x >= 1"}
        assert alpha_variant(simp, rng) == simp

    def test_poly_is_renamed_consistently(self):
        rng = random.Random(3)
        obj = {
            "kind": "sum",
            "formula": "1 <= i <= n",
            "over": ["i"],
            "poly": "i*i",
        }
        variant = alpha_variant(obj, rng)
        new_var = variant["over"][0]
        assert new_var in variant["poly"]
        assert (
            JobRequest.from_json(variant).content_hash()
            == JobRequest.from_json(obj).content_hash()
        )


class TestBuildRequests:
    def test_cycles_base_with_unique_ids(self):
        base = base_requests()
        reqs = build_requests(base, 20)
        assert len(reqs) == 20
        assert len({r["id"] for r in reqs}) == 20
        assert reqs[0]["formula"] == reqs[len(base)]["formula"]

    def test_rename_mix_is_deterministic_per_seed(self):
        base = base_requests()
        a = build_requests(base, 30, rename_mix=0.5, seed=11)
        b = build_requests(base, 30, rename_mix=0.5, seed=11)
        assert a == b
        c = build_requests(base, 30, rename_mix=0.5, seed=12)
        assert a != c

    def test_jsonl_corpus_file(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        with open(path, "w") as fh:
            fh.write(json.dumps({"kind": "count", "formula": "1 <= i <= n",
                                 "over": ["i"]}) + "\n")
            fh.write("\n")  # blank lines tolerated
        base = base_requests(str(path))
        assert len(base) == 1
        assert base[0]["id"] == "line1"

    def test_empty_corpus_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("\n")
        with pytest.raises(ValueError):
            base_requests(str(path))


class TestSummarize:
    def test_exact_percentiles_and_partition(self):
        records = [
            {"id": "a", "ok": True, "tier": "cold", "ms": 100.0},
            {"id": "b", "ok": True, "tier": "warm", "ms": 1.0},
            {"id": "c", "ok": True, "tier": "warm", "ms": 3.0},
            {"id": "d", "ok": False, "tier": "front", "ms": 0.5},
        ]
        summary = summarize(records, wall=2.0, clients=2)
        assert summary["requests"] == 4
        assert summary["ok"] == 3 and summary["errors"] == 1
        assert summary["throughput_rps"] == 2.0
        assert summary["tiers"]["warm"]["count"] == 2
        assert summary["tiers"]["warm"]["p50_ms"] == 3.0
        assert summary["tiers"]["cold"]["max_ms"] == 100.0
        assert "serve" not in summary

    def test_serve_snapshot_is_attached(self):
        summary = summarize([], wall=0.0, clients=1, serve_snapshot={"x": 1})
        assert summary["serve"] == {"x": 1}


class TestRunInprocess:
    def test_second_pass_is_all_warm(self, tmp_path):
        base = base_requests()
        reqs = build_requests(base, len(base), rename_mix=0.0)
        config = ServeConfig(
            cache_path=str(tmp_path / "lg.sqlite"), workers=2
        )
        results = asyncio.run(
            run_inprocess(reqs, clients=4, config=config, passes=2)
        )
        (pass1, _), (pass2, _) = results
        assert pass1["errors"] == 0 and pass2["errors"] == 0
        counters = pass2["serve"]["counters"]
        # Every unique job computed exactly once, in pass 1.
        assert counters["cold_jobs"] == len(base)
        assert "warm" in pass2["tiers"] and "cold" not in pass2["tiers"]
        assert pass2["serve"]["hit_rates"]["warm"] > 0.4

    def test_rename_mix_still_counts_each_job_once(self, tmp_path):
        base = [base_requests()[0]]  # one job, many renamed copies
        reqs = build_requests(base, 12, rename_mix=0.9, seed=5)
        config = ServeConfig(
            cache_path=str(tmp_path / "lg.sqlite"), workers=2
        )
        results = asyncio.run(
            run_inprocess(reqs, clients=6, config=config, passes=1)
        )
        summary, records = results[0]
        assert summary["errors"] == 0
        # All 12 share one content hash: exactly one cold dispatch,
        # everything else warm or coalesced.
        assert summary["serve"]["counters"]["cold_jobs"] == 1
        assert len(records) == 12
        assert summary["fleet"]["duplicate_computations"] == 0
        assert summary["fleet"]["distinct_cold_hashes"] == 1


class TestCLI:
    def test_loadgen_main_writes_summary_json(self, tmp_path, capsys):
        out = tmp_path / "out.json"
        code = main(
            [
                "loadgen",
                "--requests",
                "8",
                "--clients",
                "2",
                "--cache",
                str(tmp_path / "lg.sqlite"),
                "--json",
                str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["requests"] == 8 and doc["errors"] == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == doc

    @pytest.mark.parametrize("no_cache, expected", [(False, 0), (True, 1)])
    def test_assert_no_duplicates(self, tmp_path, capsys, no_cache, expected):
        """With a store every hash computes once; without one, repeats
        arriving after their first computation settled recompute, and
        the flag turns that into exit 1."""
        args = [
            "loadgen",
            "--requests",
            "48",
            "--clients",
            "4",
            "--rename-mix",
            "0.5",
            "--seed",
            "0",
            "--assert-no-duplicates",
            "--cache",
            str(tmp_path / "lg.sqlite"),
        ]
        if no_cache:
            args.append("--no-cache")
        code = main(args)
        captured = capsys.readouterr()
        duplicates = json.loads(captured.out)["fleet"]["duplicate_computations"]
        assert code == expected
        assert (duplicates > 0) == no_cache
        assert ("cold-computed more than once" in captured.err) == no_cache
