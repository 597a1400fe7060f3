"""Wire front ends: HTTP routes, JSONL socket, drain-on-SIGTERM."""

import asyncio
import http.client
import json
import os
import signal
import subprocess
import sys

import pytest

from repro.serve.daemon import CountingDaemon, ServeConfig
from repro.serve.http import HttpFrontend, JsonlFrontend, response_status
from repro.serve.loadgen import _http_request

COUNT_IJ = {
    "id": "pairs",
    "kind": "count",
    "formula": "1 <= i and i < j and j <= n",
    "over": ["i", "j"],
    "at": [{"n": 10}],
}

#: A count whose timeout is not a number.
MALFORMED = {
    "id": "bad-timeout",
    "kind": "count",
    "formula": "1<=i<=3",
    "over": ["i"],
    "timeout": "abc",
}

#: A sum whose summand expands to 3,321 terms: the parser refuses it.
OVERSIZED_SUM = {
    "id": "oversized",
    "kind": "sum",
    "formula": "1 <= i <= n and 1 <= j <= n and 1 <= k <= n",
    "over": ["i", "j", "k"],
    "poly": "(i+j+k)**80",
}

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def make_daemon(tmp_path, **kw):
    kw.setdefault("cache_path", str(tmp_path / "serve-cache.sqlite"))
    kw.setdefault("workers", 2)
    return CountingDaemon(ServeConfig(**kw))


def http_scenario(tmp_path, coro_fn, **kw):
    """Daemon + HTTP front end on an ephemeral port, always torn down."""

    async def wrapper():
        daemon = make_daemon(tmp_path, **kw)
        daemon.start()
        front = HttpFrontend(daemon, "127.0.0.1", 0)
        await front.start()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", front.port
            )
            try:
                return await coro_fn(daemon, front, reader, writer)
            finally:
                writer.close()
        finally:
            await front.stop()
            await daemon.drain()

    return asyncio.run(wrapper())


class TestResponseStatus:
    def test_mapping(self):
        def err(kind):
            return {"ok": False, "error": {"kind": kind}}

        assert response_status({"ok": True}) == 200
        assert response_status(err("overloaded")) == 429
        assert response_status(err("rate_limited")) == 429
        assert response_status(err("bad_request")) == 400
        assert response_status(err("parse_error")) == 400
        assert response_status(err("timeout")) == 504
        assert response_status(err("engine_error")) == 500


class TestHttpFrontend:
    def test_healthz(self, tmp_path):
        async def scenario(daemon, front, reader, writer):
            return await _http_request(reader, writer, "GET", "/healthz")

        status, doc = http_scenario(tmp_path, scenario)
        assert status == 200
        assert doc["ok"] is True and doc["draining"] is False
        assert doc["uptime_seconds"] >= 0.0

    def test_post_count_then_stats(self, tmp_path):
        async def scenario(daemon, front, reader, writer):
            body = dict(COUNT_IJ)
            del body["kind"]  # the path names the kind
            status1, first = await _http_request(
                reader, writer, "POST", "/count", body
            )
            status2, second = await _http_request(
                reader, writer, "POST", "/job", COUNT_IJ
            )
            status3, snap = await _http_request(
                reader, writer, "GET", "/stats"
            )
            return (status1, first), (status2, second), (status3, snap)

        (s1, first), (s2, second), (s3, snap) = http_scenario(
            tmp_path, scenario
        )
        assert s1 == s2 == s3 == 200
        assert first["ok"] and first["tier"] == "cold"
        assert first["points"] == [{"at": {"n": 10}, "value": 45}]
        assert second["tier"] == "warm"  # same keep-alive connection
        assert snap["serve"]["counters"]["requests"] == 2
        assert snap["serve"]["counters"]["warm_hits"] == 1
        assert "sat_calls" in snap  # the engine snapshot is the base

    def test_bad_json_body_is_400(self, tmp_path):
        async def scenario(daemon, front, reader, writer):
            payload = b"this is not json"
            head = (
                "POST /count HTTP/1.1\r\nHost: t\r\n"
                "Content-Length: %d\r\n\r\n" % len(payload)
            ).encode("latin-1")
            writer.write(head + payload)
            await writer.drain()
            status_line = await reader.readline()
            length = 0
            while True:
                raw = await reader.readline()
                if raw in (b"\r\n", b"\n", b""):
                    break
                name, _, value = raw.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value.strip())
            doc = json.loads(await reader.readexactly(length))
            return int(status_line.split()[1]), doc

        status, doc = http_scenario(tmp_path, scenario)
        assert status == 400
        assert doc["ok"] is False
        assert doc["error"]["kind"] == "bad_request"

    def test_malformed_field_is_400_and_keeps_the_connection(self, tmp_path):
        async def scenario(daemon, front, reader, writer):
            s1, bad = await _http_request(
                reader, writer, "POST", "/job", MALFORMED
            )
            s2, good = await _http_request(
                reader, writer, "POST", "/job", COUNT_IJ
            )
            return (s1, bad), (s2, good)

        (s1, bad), (s2, good) = http_scenario(tmp_path, scenario)
        assert s1 == 400
        assert bad["ok"] is False and bad["tier"] == "front"
        assert bad["error"]["kind"] == "bad_request"
        assert "timeout" in bad["error"]["message"]
        assert s2 == 200 and good["points"][0]["value"] == 45

    def test_unknown_path_is_404_and_method_405(self, tmp_path):
        async def scenario(daemon, front, reader, writer):
            s1, _ = await _http_request(reader, writer, "GET", "/nope")
            s2, _ = await _http_request(reader, writer, "PUT", "/count")
            return s1, s2

        s1, s2 = http_scenario(tmp_path, scenario)
        assert s1 == 404 and s2 == 405

    def test_tenant_header_feeds_rate_limiting(self, tmp_path):
        async def scenario(daemon, front, reader, writer):
            statuses = []
            for k in range(3):
                job = {
                    "id": "t%d" % k,
                    "kind": "count",
                    "formula": "1 <= i <= n + %d" % k,
                    "over": ["i"],
                }
                head = (
                    "POST /job HTTP/1.1\r\nHost: t\r\n"
                    "X-Repro-Tenant: hammer\r\n"
                    "Content-Type: application/json\r\n"
                )
                body = json.dumps(job).encode("utf-8")
                head += "Content-Length: %d\r\n\r\n" % len(body)
                writer.write(head.encode("latin-1") + body)
                await writer.drain()
                status_line = await reader.readline()
                length = 0
                while True:
                    raw = await reader.readline()
                    if raw in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = raw.decode("latin-1").partition(":")
                    if name.strip().lower() == "content-length":
                        length = int(value.strip())
                await reader.readexactly(length)
                statuses.append(int(status_line.split()[1]))
            return statuses

        statuses = http_scenario(
            tmp_path, scenario, rate=0.001, burst=2
        )
        assert statuses == [200, 200, 429]


class TestJsonlFrontend:
    def test_round_trip_with_correlated_ids(self, tmp_path):
        async def wrapper():
            daemon = make_daemon(tmp_path)
            daemon.start()
            front = JsonlFrontend(daemon, "127.0.0.1", 0)
            await front.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", front.port
                )
                jobs = [
                    dict(COUNT_IJ, id="a"),
                    dict(COUNT_IJ, id="b", tenant="someone"),
                    {"id": "bad", "kind": "count"},  # missing formula
                ]
                for job in jobs:
                    writer.write(
                        (json.dumps(job) + "\n").encode("utf-8")
                    )
                await writer.drain()
                writer.write_eof()
                responses = []
                while len(responses) < 3:
                    line = await asyncio.wait_for(
                        reader.readline(), timeout=30
                    )
                    if not line:
                        break
                    responses.append(json.loads(line))
                writer.close()
                return responses
            finally:
                await front.stop()
                await daemon.drain()

        responses = asyncio.run(wrapper())
        by_id = {r["id"]: r for r in responses}
        assert set(by_id) == {"a", "b", "bad"}
        assert by_id["a"]["ok"] is True
        # "b" is a duplicate hash: answered identically (tenant field
        # was stripped before the request model saw it).
        assert by_id["b"]["ok"] is True
        assert by_id["b"]["result"] == by_id["a"]["result"]
        assert by_id["bad"]["ok"] is False

    def test_malformed_field_gets_its_own_reply(self, tmp_path):
        async def wrapper():
            daemon = make_daemon(tmp_path)
            daemon.start()
            front = JsonlFrontend(daemon, "127.0.0.1", 0)
            await front.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", front.port
                )
                for job in (MALFORMED, dict(COUNT_IJ, id="after")):
                    writer.write((json.dumps(job) + "\n").encode("utf-8"))
                await writer.drain()
                writer.write_eof()
                responses = []
                while True:
                    line = await asyncio.wait_for(
                        reader.readline(), timeout=30
                    )
                    if not line:
                        break
                    responses.append(json.loads(line))
                writer.close()
                return responses
            finally:
                await front.stop()
                await daemon.drain()

        responses = asyncio.run(wrapper())
        by_id = {r["id"]: r for r in responses}
        assert len(responses) == 2 and set(by_id) == {"bad-timeout", "after"}
        assert by_id["bad-timeout"]["error"]["kind"] == "bad_request"
        assert by_id["after"]["ok"] is True

    def test_garbage_line_gets_structured_response(self, tmp_path):
        async def wrapper():
            daemon = make_daemon(tmp_path)
            daemon.start()
            front = JsonlFrontend(daemon, "127.0.0.1", 0)
            await front.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", front.port
                )
                writer.write(b"{truncated\n")
                await writer.drain()
                writer.write_eof()
                line = await asyncio.wait_for(reader.readline(), timeout=30)
                writer.close()
                return json.loads(line)
            finally:
                await front.stop()
                await daemon.drain()

        response = asyncio.run(wrapper())
        assert response["ok"] is False
        assert response["error"]["kind"] == "bad_request"


def start_serve(tmp_path, **env_extra):
    """``python -m repro serve`` on an ephemeral port, logging to a pipe."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1", **env_extra)
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--http-port",
            "0",
            "--cache",
            str(tmp_path / "serve.sqlite"),
        ],
        stderr=subprocess.PIPE,
        cwd=str(tmp_path),
        env=env,
    )


def post_job(port, job, timeout=60):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("POST", "/job", json.dumps(job))
        reply = conn.getresponse()
        return reply.status, json.loads(reply.read())
    finally:
        conn.close()


class TestServeProcess:
    def test_sigterm_drains_cleanly(self, tmp_path):
        """The CLI daemon must exit 0 on SIGTERM after a clean drain."""
        proc = start_serve(tmp_path)
        try:
            ready = proc.stderr.readline().decode()
            assert "listening on http://127.0.0.1:" in ready
            proc.send_signal(signal.SIGTERM)
            out = proc.stderr.read().decode()
            code = proc.wait(timeout=30)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup
                proc.kill()
        assert code == 0
        assert "draining" in out
        assert "drained; 0 requests" in out

    def test_worker_timeout_does_not_drain_the_daemon(self, tmp_path):
        """Killing a timed-out cold worker must not signal the daemon:
        the daemon answers 504, keeps serving, and drains only on its
        own SIGTERM."""
        proc = start_serve(tmp_path, REPRO_SERVICE_SLEEP="zzz")
        try:
            ready = proc.stderr.readline().decode()
            port = int(ready.rsplit(":", 1)[1])
            status, slow = post_job(
                port,
                {
                    "id": "slow",
                    "kind": "count",
                    "formula": "0 <= zzz <= 3",
                    "over": ["zzz"],
                    "timeout": 1,
                },
            )
            assert status == 504 and slow["error"]["kind"] == "timeout"
            status, fine = post_job(port, COUNT_IJ)
            assert status == 200 and fine["points"][0]["value"] == 45
            assert proc.poll() is None
            proc.send_signal(signal.SIGTERM)
            out = proc.stderr.read().decode()
            code = proc.wait(timeout=30)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup
                proc.kill()
        assert code == 0
        assert "drained; 2 requests" in out

    def test_oversized_summand_is_a_prompt_parse_error(self, tmp_path):
        """Hashing parses the summand on the daemon's event loop, so an
        unbounded expansion would hold every request behind it.  The
        refusal must arrive well inside a 10 s client timeout, and the
        daemon must keep answering."""
        proc = start_serve(tmp_path)
        try:
            ready = proc.stderr.readline().decode()
            port = int(ready.rsplit(":", 1)[1])
            status, big = post_job(port, OVERSIZED_SUM, timeout=10)
            assert status == 400, big
            assert big["error"]["kind"] == "parse_error"
            assert "term products" in big["error"]["message"]
            status, fine = post_job(port, COUNT_IJ)
            assert status == 200 and fine["points"][0]["value"] == 45
            proc.send_signal(signal.SIGTERM)
            proc.stderr.read()
            code = proc.wait(timeout=30)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup
                proc.kill()
        assert code == 0
