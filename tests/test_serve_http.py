"""Wire front ends: HTTP routes, JSONL socket, drain-on-SIGTERM."""

import asyncio
import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading

import pytest

from repro.serve.daemon import CountingDaemon, ServeConfig
from repro.serve.http import (
    MAX_BODY_BYTES,
    MAX_HEADERS,
    MAX_LINE_BYTES,
    HttpFrontend,
    JsonlFrontend,
    response_status,
)
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


async def read_http_response(reader):
    """(status, JSON body) of one response read off a raw stream."""
    status_line = await reader.readline()
    length = 0
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            break
        name, _, value = raw.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    return int(status_line.split()[1]), json.loads(await reader.readexactly(length))


def header_request(*header_lines):
    """A GET /healthz with the given raw header lines."""
    return (
        b"GET /healthz HTTP/1.1\r\n" + b"".join(header_lines) + b"\r\n"
    )


def pad_header(total):
    """One header line of exactly ``total`` bytes, CRLF included."""
    return b"X-Pad: " + b"a" * (total - 9) + b"\r\n"


def front_door(tmp_path, scenario, front_cls=HttpFrontend):
    """Run ``scenario(port)`` against a front end on an ephemeral port.

    Returns its result and every error the event loop's exception
    handler would log, such as "Unhandled exception in
    client_connected_cb" from a connection handler, or "Exception in
    callback" from a handler cancelled at teardown.
    """
    errors = []

    def collect(_loop, context):
        errors.append(context)

    async def wrapper():
        asyncio.get_running_loop().set_exception_handler(collect)
        daemon = make_daemon(tmp_path)
        daemon.start()
        front = front_cls(daemon, "127.0.0.1", 0)
        await front.start()
        try:
            return await asyncio.wait_for(scenario(front.port), 60)
        finally:
            await front.stop()
            await daemon.drain()

    return asyncio.run(wrapper()), errors


async def http_exchange(port, raw):
    """Send raw bytes; read one response, then read to EOF."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(raw)
        await writer.drain()
        status, doc = await read_http_response(reader)
        rest = await reader.read()
        return status, doc, rest
    finally:
        writer.close()


async def http_count(port):
    """A valid count on a new connection."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        return await _http_request(reader, writer, "POST", "/job", COUNT_IJ)
    finally:
        writer.close()


class TestFrontDoorLimits:
    """Over-long lines and too many headers get a 400 ``bad_request``
    and a closed connection, not a dropped connection and a logged
    traceback; the daemon keeps answering new connections."""

    @pytest.mark.parametrize(
        "raw",
        [
            pytest.param(
                b"POST /job HTTP/1.1\r\nHost: t\r\n"
                + pad_header(70 * 1024)
                + b"Content-Length: 2\r\n\r\n{}",
                id="70KiB-header-line",
            ),
            pytest.param(
                b"GET /" + b"a" * (70 * 1024) + b" HTTP/1.1\r\n\r\n",
                id="70KiB-request-line",
            ),
            pytest.param(
                header_request(pad_header(MAX_LINE_BYTES + 1)),
                id="header-line-one-byte-over",
            ),
            pytest.param(
                header_request(
                    *[b"X-H%d: v\r\n" % k for k in range(MAX_HEADERS + 1)]
                ),
                id="101-header-lines",
            ),
            pytest.param(
                header_request(*[b"X-H%d: v\r\n" % k for k in range(20000)]),
                id="20000-header-lines",
            ),
        ],
    )
    def test_refused_with_400_and_closed(self, tmp_path, raw):
        async def scenario(port):
            return await http_exchange(port, raw), await http_count(port)

        ((status, doc, rest), (good, answer)), errors = front_door(
            tmp_path, scenario
        )
        assert status == 400
        assert doc["ok"] is False and doc["error"]["kind"] == "bad_request"
        assert rest == b""  # the server closed the connection
        assert good == 200 and answer["points"][0]["value"] == 45
        assert errors == []

    def test_limits_themselves_are_served(self, tmp_path):
        async def scenario(port):
            longest = await http_exchange(
                port,
                header_request(pad_header(MAX_LINE_BYTES), b"Connection: close\r\n"),
            )
            most = await http_exchange(
                port,
                header_request(
                    *[b"X-H%d: v\r\n" % k for k in range(MAX_HEADERS - 1)],
                    b"Connection: close\r\n",
                ),
            )
            return longest, most

        (longest, most), errors = front_door(tmp_path, scenario)
        assert longest[0] == 200 and longest[1]["ok"] is True
        assert most[0] == 200 and most[1]["ok"] is True
        assert errors == []

    def test_jsonl_serves_a_line_past_64KiB(self, tmp_path):
        long_id = "x" * (70 * 1024)

        async def scenario(port):
            # The reply echoes the id, so it is past 64 KiB too.
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port, limit=MAX_BODY_BYTES
            )
            try:
                job = dict(COUNT_IJ, id=long_id)
                writer.write((json.dumps(job) + "\n").encode("utf-8"))
                await writer.drain()
                writer.write_eof()
                return [json.loads(line) async for line in reader]
            finally:
                writer.close()

        responses, errors = front_door(tmp_path, scenario, JsonlFrontend)
        assert len(responses) == 1
        assert responses[0]["id"] == long_id and responses[0]["ok"] is True
        assert errors == []

    def test_jsonl_line_over_the_body_limit_is_refused(self, tmp_path):
        async def scenario(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                first = dict(COUNT_IJ, id="in-flight")
                writer.write((json.dumps(first) + "\n").encode("utf-8"))
                writer.write(
                    b'{"id": "' + b"x" * MAX_BODY_BYTES + b'"}\n'
                    + (json.dumps(dict(COUNT_IJ, id="after")) + "\n").encode()
                )
                await writer.drain()
                refused = [json.loads(line) async for line in reader]
            finally:
                writer.close()
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                writer.write((json.dumps(COUNT_IJ) + "\n").encode("utf-8"))
                await writer.drain()
                writer.write_eof()
                served = [json.loads(line) async for line in reader]
            finally:
                writer.close()
            return refused, served

        (refused, served), errors = front_door(
            tmp_path, scenario, JsonlFrontend
        )
        by_id = {r["id"]: r for r in refused}
        # One refusal; the request already in flight is answered, and
        # nothing after the refused line is read.
        assert len(refused) == 2 and set(by_id) == {None, "in-flight"}
        assert by_id[None]["error"]["kind"] == "bad_request"
        assert by_id["in-flight"]["ok"] is True
        assert len(served) == 1 and served[0]["ok"] is True
        assert errors == []


class TestStop:
    def test_stop_answers_in_flight_and_closes_idle_connections(
        self, tmp_path
    ):
        """Stopping the front ends after a drain writes the answer still
        in flight, closes the idle keep-alive HTTP and JSONL
        connections, and leaves no connection handler pending (one left
        open would be cancelled by the loop's teardown)."""
        release = threading.Event()

        def blocked_cold(req, budget):
            assert release.wait(30), "cold job never released"
            return {
                "ok": True,
                "payload": {"kind": "count", "result": "fake",
                            "exactness": "exact", "points": [], "stats": {}},
                "wall_ms": 1.0,
                "attempts": 1,
            }

        async def scenario():
            daemon = make_daemon(tmp_path)
            daemon.start()
            daemon._run_cold = blocked_cold
            fronts = [
                HttpFrontend(daemon, "127.0.0.1", 0),
                JsonlFrontend(daemon, "127.0.0.1", 0),
            ]
            for front in fronts:
                await front.start()
            http_port, jsonl_port = (front.port for front in fronts)
            idle_http = await asyncio.open_connection("127.0.0.1", http_port)
            status, _ = await _http_request(*idle_http, "GET", "/healthz")
            assert status == 200
            idle_jsonl = await asyncio.open_connection("127.0.0.1", jsonl_port)
            idle_jsonl[1].write((json.dumps(MALFORMED) + "\n").encode())
            assert json.loads(await idle_jsonl[0].readline())["id"] == (
                "bad-timeout"
            )
            busy = await asyncio.open_connection("127.0.0.1", http_port)
            body = json.dumps(COUNT_IJ).encode()
            busy[1].write(
                b"POST /job HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
                % len(body) + body
            )
            for _ in range(500):
                if daemon._inflight:
                    break
                await asyncio.sleep(0.01)
            for front in fronts:
                front.server.close()
            drain = asyncio.ensure_future(daemon.drain())
            release.set()
            await drain
            await asyncio.wait_for(
                asyncio.gather(*(front.stop() for front in fronts)), 10
            )
            pending = asyncio.all_tasks() - {asyncio.current_task()}
            answer = await asyncio.wait_for(read_http_response(busy[0]), 10)
            closed = [
                await asyncio.wait_for(reader.read(), 10)
                for reader, _ in (idle_http, idle_jsonl)
            ]
            for _, writer in (idle_http, idle_jsonl, busy):
                writer.close()
            return pending, answer, closed

        pending, (status, doc), closed = asyncio.run(scenario())
        assert pending == set()
        assert status == 200 and doc["id"] == "pairs" and doc["ok"] is True
        assert closed == [b"", b""]


def start_serve(tmp_path, *args, **env_extra):
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
            *args,
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
            proc.stderr.close()
        assert code == 0
        assert "draining" in out
        assert "drained; 0 requests" in out

    def test_idle_connections_do_not_hold_the_drain(self, tmp_path):
        """An idle keep-alive HTTP connection and an idle JSONL
        connection stay open across SIGTERM; the daemon still drains and
        exits 0 at once.  (Since Python 3.12, ``Server.wait_closed``
        waits for clients to hang up, so the front ends close idle
        connections themselves.)"""
        proc = start_serve(tmp_path, "--jsonl-port", "0")
        try:
            ready = proc.stderr.readline().decode()
            http_port = int(ready.split("http://127.0.0.1:")[1].split(",")[0])
            jsonl_port = int(ready.rsplit(":", 1)[1])
            conn = http.client.HTTPConnection("127.0.0.1", http_port, timeout=60)
            conn.request("POST", "/job", json.dumps(COUNT_IJ))
            reply = conn.getresponse()
            assert reply.status == 200 and json.loads(reply.read())["ok"]
            with socket.create_connection(
                ("127.0.0.1", jsonl_port), timeout=60
            ) as sock, sock.makefile("rb") as lines:
                sock.sendall((json.dumps(dict(COUNT_IJ, id="line")) + "\n").encode())
                assert json.loads(lines.readline())["ok"] is True
                proc.send_signal(signal.SIGTERM)
                code = proc.wait(timeout=5)
            conn.close()
            out = proc.stderr.read().decode()
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup
                proc.kill()
            proc.stderr.close()
        assert code == 0
        assert "drained; 2 requests" in out

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
            proc.stderr.close()
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
            proc.stderr.close()
        assert code == 0
