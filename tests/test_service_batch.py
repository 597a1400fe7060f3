"""Batch front end: ordering, caching, dedup, CLI behaviour."""

import json

import pytest

from repro.__main__ import main
from repro.service.batch import (
    VOLATILE_RESPONSE_KEYS,
    BatchSummary,
    parse_request_line,
    run_batch,
)
from repro.service.diskcache import DiskCache
from repro.service.executor import BAD_REQUEST, JobError
from repro.service.request import JobRequest

COUNT_IJ = {
    "id": "pairs",
    "kind": "count",
    "formula": "1 <= i and i < j and j <= n",
    "over": ["i", "j"],
    "at": [{"n": 10}],
}
SUM_SQ = {
    "id": "squares",
    "kind": "sum",
    "formula": "1 <= i <= n",
    "over": ["i"],
    "poly": "i*i",
    "at": [{"n": 100}],
}


def stable(response):
    """Project away the keys allowed to differ between runs."""
    return {
        k: v for k, v in response.items() if k not in VOLATILE_RESPONSE_KEYS
    }


class TestParseRequestLine:
    def test_good_line(self):
        entry = parse_request_line(json.dumps(COUNT_IJ), 1)
        assert isinstance(entry, JobRequest)
        assert entry.id == "pairs"

    def test_bad_json_line(self):
        entry = parse_request_line("{not json", 4)
        assert isinstance(entry, JobError)
        assert entry.kind == BAD_REQUEST
        assert entry.id == 4

    def test_invalid_request_keeps_its_own_id(self):
        entry = parse_request_line(
            json.dumps({"id": "x9", "kind": "count", "formula": "1 <= i"}), 2
        )
        assert isinstance(entry, JobError)
        assert entry.id == "x9"


class TestRunBatch:
    def test_mixed_batch_all_answered_in_order(self):
        entries = [
            JobRequest.from_json(COUNT_IJ),
            JobError(BAD_REQUEST, "line 2: invalid JSON", id=2),
            JobRequest("count", "1 <= i <= ===", over=["i"], id="broken"),
            JobRequest.from_json(SUM_SQ),
        ]
        responses, summary = run_batch(entries, workers=1)
        assert [r["id"] for r in responses] == ["pairs", 2, "broken", "squares"]
        assert [r["ok"] for r in responses] == [True, False, False, True]
        assert responses[0]["points"] == [{"at": {"n": 10}, "value": 45}]
        assert responses[2]["error"]["kind"] == "parse_error"
        assert responses[3]["points"] == [{"at": {"n": 100}, "value": 338350}]
        assert summary.jobs == 4 and summary.ok == 2
        assert summary.errors == {"bad_request": 1, "parse_error": 1}

    def test_result_json_not_echoed_in_responses(self):
        responses, _ = run_batch([JobRequest.from_json(COUNT_IJ)])
        assert "result_json" not in responses[0]
        assert "result" in responses[0]

    def test_dedup_identical_jobs_compute_once(self):
        # Alpha-renamed copies hash identically and share one run.
        twin = dict(COUNT_IJ, id="twin", formula="1 <= p and p < q and q <= n")
        twin["over"] = ["p", "q"]
        responses, summary = run_batch(
            [JobRequest.from_json(COUNT_IJ), JobRequest.from_json(twin)]
        )
        assert summary.deduped == 1
        assert stable(responses[0])["result"] == stable(responses[1])["result"]
        assert responses[1]["points"] == [{"at": {"n": 10}, "value": 45}]

    def test_rerun_is_fully_cached_and_stable(self, tmp_path):
        entries = [JobRequest.from_json(COUNT_IJ), JobRequest.from_json(SUM_SQ)]
        with DiskCache(str(tmp_path / "c.sqlite")) as cache:
            first, s1 = run_batch(entries, cache=cache)
            second, s2 = run_batch(entries, cache=cache)
        assert s1.cache_hits == 0 and s1.cache_misses == 2
        assert s2.cache_hits == 2 and s2.cache_misses == 0
        assert all(r["cached"] for r in second)
        assert all(r["wall_ms"] == 0.0 for r in second)
        for a, b in zip(first, second):
            assert json.dumps(stable(a), sort_keys=True) == json.dumps(
                stable(b), sort_keys=True
            )

    def test_failures_are_not_cached(self, tmp_path):
        entries = [JobRequest("count", "1 <= i <= ===", over=["i"], id="bad")]
        with DiskCache(str(tmp_path / "c.sqlite")) as cache:
            run_batch(entries, cache=cache)
            assert len(cache) == 0
            _, s2 = run_batch(entries, cache=cache)
        assert s2.cache_hits == 0

    def test_cache_write_failure_does_not_sink_batch(self, tmp_path, capsys):
        # A cache.put error (disk full, locked db) must degrade to an
        # uncached-but-correct response, never abort the batch.
        import sqlite3

        class ExplodingCache(DiskCache):
            def put(self, key, payload):
                raise sqlite3.OperationalError("database is locked")

        entries = [JobRequest.from_json(COUNT_IJ), JobRequest.from_json(SUM_SQ)]
        with ExplodingCache(str(tmp_path / "c.sqlite")) as cache:
            responses, summary = run_batch(entries, cache=cache)
            assert len(cache) == 0
        assert [r["ok"] for r in responses] == [True, True]
        assert summary.ok == 2
        assert "cache write failed" in capsys.readouterr().err

    def test_corrupt_cache_entry_recovers(self, tmp_path):
        import sqlite3

        path = str(tmp_path / "c.sqlite")
        entries = [JobRequest.from_json(COUNT_IJ)]
        with DiskCache(path) as cache:
            first, _ = run_batch(entries, cache=cache)
        conn = sqlite3.connect(path)
        conn.execute("UPDATE results SET payload = '{broken'")
        conn.commit()
        conn.close()
        with DiskCache(path) as cache:
            second, summary = run_batch(entries, cache=cache)
        assert summary.cache_corrupt == 1
        assert second[0]["ok"] is True and second[0]["cached"] is False
        assert stable(first[0]) == stable(second[0])

    def test_emit_streams_in_input_order(self):
        entries = [JobRequest.from_json(COUNT_IJ), JobRequest.from_json(SUM_SQ)]
        streamed = []
        responses, _ = run_batch(entries, workers=2, emit=streamed.append)
        assert streamed == responses

    def test_summary_round_trip(self):
        _, summary = run_batch([JobRequest.from_json(COUNT_IJ)])
        blob = summary.to_json()
        assert blob["jobs"] == 1 and blob["ok"] == 1
        assert "cache" in blob and "wall_seconds" in blob
        assert "1 jobs, 1 ok" in str(summary)


def write_jsonl(path, objs):
    with open(path, "w") as fh:
        for obj in objs:
            if isinstance(obj, str):
                fh.write(obj + "\n")
            else:
                fh.write(json.dumps(obj) + "\n")


class TestCLI:
    def run_cli(self, capsys, *argv):
        code = main(["batch"] + list(argv))
        captured = capsys.readouterr()
        lines = [json.loads(l) for l in captured.out.splitlines()]
        return code, lines, captured.err

    def test_job_failures_still_exit_zero(
        self, tmp_path, capsys, monkeypatch
    ):
        # Per-job failures are data: every well-formed line gets a
        # structured response and the exit code stays 0.
        monkeypatch.setenv("REPRO_SERVICE_SLEEP", "sleepy_marker")
        reqs = tmp_path / "reqs.jsonl"
        write_jsonl(
            reqs,
            [
                COUNT_IJ,
                {
                    "id": "stuck",
                    "kind": "count",
                    "formula": "1 <= sleepy_marker and sleepy_marker <= n + 7",
                    "over": ["sleepy_marker"],
                    "timeout": 0.3,
                },
                {
                    "id": "typo",
                    "kind": "count",
                    "formula": "1 <= i <= ===",
                    "over": ["i"],
                },
            ],
        )
        code, lines, err = self.run_cli(
            capsys,
            str(reqs),
            "--cache",
            str(tmp_path / "c.sqlite"),
            "--workers",
            "2",
        )
        assert code == 0
        kinds = {
            line["id"]: (line["ok"] or line["error"]["kind"])
            for line in lines
        }
        assert kinds == {
            "pairs": True,
            "stuck": "timeout",
            "typo": "parse_error",
        }
        assert "3 jobs, 1 ok" in err

    def test_malformed_line_answers_batch_but_exits_one(
        self, tmp_path, capsys
    ):
        # A line that is not a request at all (truncated JSON here) is
        # an *input-file* defect: it still gets a structured per-line
        # response and the rest of the batch is answered, but the exit
        # code flips to 1 so pipelines notice the corrupt file.
        reqs = tmp_path / "reqs.jsonl"
        write_jsonl(reqs, [COUNT_IJ, "{definitely not json", SUM_SQ])
        code, lines, err = self.run_cli(capsys, str(reqs), "--no-cache")
        assert code == 1
        assert [line["ok"] for line in lines] == [True, False, True]
        assert lines[1]["error"]["kind"] == "bad_request"
        assert "line 2" in lines[1]["error"]["message"]
        assert "1 malformed input line" in err

    def test_malformed_field_is_a_bad_request_line_and_exits_zero(
        self, tmp_path, capsys
    ):
        # A well-formed line with a bad field value is an unservable
        # request, like an unknown kind: answered, exit 0, and the
        # lines after it still run.
        reqs = tmp_path / "reqs.jsonl"
        write_jsonl(
            reqs,
            [
                {"kind": "count", "formula": "1<=i<=3", "over": ["i"],
                 "timeout": "abc"},
                COUNT_IJ,
            ],
        )
        code, lines, _ = self.run_cli(capsys, str(reqs), "--no-cache")
        assert code == 0
        assert [line["ok"] for line in lines] == [False, True]
        assert lines[0]["error"]["kind"] == "bad_request"
        assert "timeout" in lines[0]["error"]["message"]
        assert lines[1]["points"] == [{"at": {"n": 10}, "value": 45}]

    def test_truncated_record_and_trailing_blank_line(
        self, tmp_path, capsys
    ):
        # A trailing blank line is a tolerated artifact of appending
        # tools -- skipped, exit 0.  A *truncated* record (writer died
        # mid-line) is a malformed line -- answered, exit 1.
        reqs = tmp_path / "reqs.jsonl"
        with open(reqs, "w") as fh:
            fh.write(json.dumps(COUNT_IJ) + "\n")
            fh.write("\n")  # spacer blank line
        code, lines, _ = self.run_cli(capsys, str(reqs), "--no-cache")
        assert code == 0 and len(lines) == 1 and lines[0]["ok"]

        truncated = json.dumps(SUM_SQ)[: len(json.dumps(SUM_SQ)) // 2]
        with open(reqs, "w") as fh:
            fh.write(json.dumps(COUNT_IJ) + "\n")
            fh.write(truncated + "\n")
        code, lines, err = self.run_cli(capsys, str(reqs), "--no-cache")
        assert code == 1
        assert lines[0]["ok"] is True
        assert lines[1]["ok"] is False
        assert lines[1]["id"] == 2
        assert "1 malformed input line" in err

    def test_undecodable_bytes_become_structured_line_error(
        self, tmp_path, capsys
    ):
        # Raw non-UTF-8 bytes in one record must not raise a
        # UnicodeDecodeError for the whole file.
        reqs = tmp_path / "reqs.jsonl"
        with open(reqs, "wb") as fh:
            fh.write(json.dumps(COUNT_IJ).encode("utf-8") + b"\n")
            fh.write(b'{"id": "bin", "formula": "\xff\xfe garbage"}\n')
        code, lines, err = self.run_cli(capsys, str(reqs), "--no-cache")
        assert code == 1
        assert lines[0]["ok"] is True
        assert lines[1]["ok"] is False
        assert "undecodable bytes" in lines[1]["error"]["message"]
        assert "1 malformed input line" in err

    def test_second_run_hits_cache_and_matches(self, tmp_path, capsys):
        reqs = tmp_path / "reqs.jsonl"
        write_jsonl(reqs, [COUNT_IJ, SUM_SQ])
        argv = [str(reqs), "--cache", str(tmp_path / "c.sqlite")]
        summary_path = tmp_path / "summary.json"
        code1, first, _ = self.run_cli(capsys, *argv)
        code2, second, _ = self.run_cli(
            capsys, *argv, "--summary-json", str(summary_path)
        )
        assert code1 == code2 == 0
        assert all(r["cached"] for r in second)
        assert [stable(a) for a in first] == [stable(b) for b in second]
        summary = json.loads(summary_path.read_text())
        assert summary["cache"]["hits"] == summary["jobs"] == 2

    def test_no_cache_flag(self, tmp_path, capsys):
        reqs = tmp_path / "reqs.jsonl"
        write_jsonl(reqs, [COUNT_IJ])
        code, lines, _ = self.run_cli(capsys, str(reqs), "--no-cache")
        assert code == 0 and lines[0]["ok"] is True
        assert not (tmp_path / ".repro-cache.sqlite").exists()

    def test_unreadable_input_exits_2(self, tmp_path, capsys):
        code = main(["batch", str(tmp_path / "missing.jsonl"), "--no-cache"])
        err = capsys.readouterr().err
        assert code == 2
        assert "cannot read" in err

    def test_stdin_input(self, tmp_path, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(COUNT_IJ) + "\n"))
        code, lines, _ = self.run_cli(capsys, "-", "--no-cache")
        assert code == 0
        assert lines[0]["points"] == [{"at": {"n": 10}, "value": 45}]
