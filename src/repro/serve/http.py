"""Wire front ends for the counting daemon: HTTP/1.1 and JSONL.

Both front ends are thin asyncio adapters over
:meth:`repro.serve.daemon.CountingDaemon.handle`; they parse bytes,
pick the tenant, and map structured responses to the wire.  The HTTP
server is hand-rolled on ``asyncio.start_server`` -- the stdlib is the
only dependency this project allows, and the daemon needs exactly the
small subset implemented here (request line, headers, Content-Length
bodies, keep-alive).

HTTP surface::

    GET  /healthz          -> {"ok": true, "uptime_seconds": ..., ...}
    GET  /stats            -> engine_snapshot() plus the daemon's metrics
                              under "serve"
    POST /count|/sum|/simplify|/evaluate|/member|/count_below
                           body = request JSON (the path fixes the
                              "kind" field)
    POST /job              body = full request JSON incl. "kind"

The tenant is the ``X-Repro-Tenant`` header (anonymous when absent).
Status codes follow the structured error kind: admission refusals
(``overloaded``, ``rate_limited``) are 429, client mistakes
(``bad_request``, ``parse_error``) are 400, ``timeout`` is 504, other
job failures are 500; the JSON body is always the full structured
response either way.

JSONL surface: one request object per line in, one response object per
line out (a ``tenant`` field on the request names the tenant; it is
stripped before the request model sees it).  Lines are served
concurrently, so responses come back in completion order -- clients
correlate by ``id`` exactly as with the batch CLI.

Limits: an HTTP request line or header line may be at most
:data:`MAX_LINE_BYTES` long, a request at most :data:`MAX_HEADERS`
header lines, a body and a JSONL line at most :data:`MAX_BODY_BYTES`.
A request over a limit gets a ``bad_request`` response and the
connection closes (on JSONL, once the requests already in flight on it
are answered).

``serve_main`` is the CLI entry (``python -m repro serve``): it wires
SIGTERM/SIGINT to graceful drain, prints a ready line with the bound
ports once listening, and exits 0 after a clean drain.
"""

import asyncio
import json
import signal
import sys
from typing import Optional, Tuple

from repro.core import stats
from repro.serve.daemon import (
    OVERLOADED,
    RATE_LIMITED,
    CountingDaemon,
    ServeConfig,
)
from repro.service.executor import BAD_REQUEST, PARSE_ERROR, TIMEOUT

#: Largest accepted request body or JSONL line; a counting request is
#: a few hundred bytes, so anything near this is garbage or abuse.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Longest HTTP request or header line, line ending included, and the
#: most header lines one request may have: the limits ``http.client``
#: enforces on responses.
MAX_LINE_BYTES = 65536
MAX_HEADERS = 100

#: How long a front end keeps reading (and dropping) a refused client's
#: input before closing.  Closing a socket with unread input resets the
#: connection, and the reset can destroy the refusal before the client
#: reads it.
LINGER_SECONDS = 1.0

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    504: "Gateway Timeout",
}

_ERROR_STATUS = {
    OVERLOADED: 429,
    RATE_LIMITED: 429,
    BAD_REQUEST: 400,
    PARSE_ERROR: 400,
    TIMEOUT: 504,
}

_JOB_PATHS = (
    "/count",
    "/sum",
    "/simplify",
    "/evaluate",
    "/member",
    "/count_below",
)


async def _close_after_refusal(reader, writer) -> None:
    """Half-close, then drop the client's input until EOF or the linger
    deadline, so the refusal just written reaches the client."""
    if writer.can_write_eof():
        writer.write_eof()

    async def drop_input():
        while await reader.read(65536):
            pass

    try:
        await asyncio.wait_for(drop_input(), LINGER_SECONDS)
    except (asyncio.TimeoutError, ConnectionError, ValueError):
        pass


def response_status(response: dict) -> int:
    """The HTTP status for a structured daemon response."""
    if response.get("ok"):
        return 200
    kind = (response.get("error") or {}).get("kind")
    return _ERROR_STATUS.get(kind, 500)


class _Frontend:
    """A listening server over the daemon, and its open connections,
    each with the number of its requests in flight."""

    #: Stream limit per connection: readline raises ValueError, instead
    #: of buffering on, for a longer line.
    LIMIT = MAX_LINE_BYTES - 1

    def __init__(
        self, daemon: CountingDaemon, host: str = "127.0.0.1", port: int = 0
    ):
        self.daemon = daemon
        self.host = host
        self.port = port
        self.server: Optional[asyncio.AbstractServer] = None
        self._open: dict = {}  # writer -> requests in flight on it
        self._handlers: set = set()
        self._closing = False

    async def start(self) -> None:
        self.server = await asyncio.start_server(
            self._connected, self.host, self.port, limit=self.LIMIT
        )
        self.port = self.server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop listening, close idle connections now and busy ones
        after their last answer, and wait for every handler.  Call it
        once :meth:`CountingDaemon.drain` has settled the requests in
        flight.  (``Server.wait_closed`` alone waits for idle clients
        since Python 3.12; before, teardown cancelled their handlers.)
        """
        if self.server is None:
            return
        self.server.close()
        self._closing = True
        for writer, busy in self._open.items():
            if not busy:
                writer.close()
        if self._handlers:
            await asyncio.wait(self._handlers)
        await self.server.wait_closed()
        self.server = None

    async def _connected(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._handlers.add(task)
        task.add_done_callback(self._handlers.discard)
        self._open[writer] = 0
        try:
            await self._client(reader, writer)
        finally:
            del self._open[writer]
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):  # pragma: no cover
                pass

    def _busy(self, writer, delta: int) -> None:
        """Count a request read from (+1) or answered on (-1) a
        connection; once stopping, close it after its last answer."""
        if writer in self._open:
            self._open[writer] += delta
            if self._closing and not self._open[writer]:
                writer.close()


class HttpFrontend(_Frontend):
    """Minimal HTTP/1.1 server over the daemon."""

    async def _client(self, reader, writer) -> None:
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, path, headers, body, parse_failure = request
                if parse_failure is not None:
                    await self._respond(writer, 400, parse_failure, close=True)
                    await _close_after_refusal(reader, writer)
                    break
                close = (
                    headers.get("connection", "").lower() == "close"
                )
                self._busy(writer, 1)
                status, doc = await self._route(method, path, headers, body)
                await self._respond(writer, status, doc, close)
                self._busy(writer, -1)
                if close:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionError,
            asyncio.CancelledError,
        ):
            pass

    async def _read_request(self, reader):
        """One request: (method, path, headers, body, failure) or None."""
        try:
            line = await reader.readline()
            if not line:
                return None
            parts = line.decode("latin-1").strip().split()
            if len(parts) != 3:
                return None, None, None, None, self._failure(
                    "malformed request line"
                )
            method, path, _version = parts
            headers = {}
            count = 0
            while True:
                raw = await reader.readline()
                if raw in (b"\r\n", b"\n", b""):
                    break
                count += 1
                if count > MAX_HEADERS:
                    return None, None, None, None, self._failure(
                        "more than %d header lines" % MAX_HEADERS
                    )
                name, _, value = raw.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
        except ValueError:  # a line past the stream limit, dropped
            return None, None, None, None, self._failure(
                "request or header line longer than %d bytes" % MAX_LINE_BYTES
            )
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            return None, None, None, None, self._failure(
                "malformed Content-Length"
            )
        if length > MAX_BODY_BYTES:
            return None, None, None, None, self._failure(
                "request body too large"
            )
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body, None

    @staticmethod
    def _failure(message: str, kind: str = BAD_REQUEST) -> dict:
        return {
            "id": None,
            "ok": False,
            "error": {"kind": kind, "message": message},
            "cached": False,
            "wall_ms": 0.0,
            "attempts": 0,
            "tier": "front",
        }

    async def _route(
        self, method: str, path: str, headers: dict, body: bytes
    ) -> Tuple[int, dict]:
        if method == "GET":
            if path == "/healthz":
                return 200, {
                    "ok": not self.daemon.draining,
                    "draining": self.daemon.draining,
                    "uptime_seconds": self.daemon.metrics.uptime_seconds(),
                    "queue_depth": self.daemon.metrics.queue_depth(),
                }
            if path == "/stats":
                snap = stats.engine_snapshot()
                snap["serve"] = self.daemon.metrics.snapshot()
                return 200, snap
            return 404, self._failure("no such endpoint: %s" % path, "not_found")
        if method != "POST":
            return 405, self._failure("method %s not allowed" % method)
        if path not in _JOB_PATHS and path != "/job":
            return 404, self._failure("no such endpoint: %s" % path, "not_found")
        try:
            obj = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            return 400, self._failure("invalid JSON body: %s" % (exc,))
        if path != "/job" and isinstance(obj, dict):
            obj["kind"] = path[1:]
        tenant = headers.get("x-repro-tenant", "")
        response = await self.daemon.handle(obj, tenant)
        return response_status(response), response

    async def _respond(
        self, writer, status: int, doc: dict, close: bool
    ) -> None:
        body = json.dumps(doc, sort_keys=True).encode("utf-8")
        head = (
            "HTTP/1.1 %d %s\r\n"
            "Content-Type: application/json\r\n"
            "Content-Length: %d\r\n"
            "Connection: %s\r\n"
            "\r\n" % (
                status,
                _STATUS_TEXT.get(status, "Unknown"),
                len(body),
                "close" if close else "keep-alive",
            )
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()


class JsonlFrontend(_Frontend):
    """JSONL-over-TCP front end: one request/response object per line."""

    # A line may be as long as an HTTP body; asyncio's default stream
    # limit (64 KiB) would refuse longer ones.
    LIMIT = MAX_BODY_BYTES

    async def _client(self, reader, writer) -> None:
        lock = asyncio.Lock()
        tasks = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:  # longer than MAX_BODY_BYTES: dropped
                    refusal = HttpFrontend._failure(
                        "line longer than %d bytes" % MAX_BODY_BYTES
                    )
                    await self._send(refusal, writer, lock)
                    if tasks:
                        await asyncio.gather(*tasks, return_exceptions=True)
                    await _close_after_refusal(reader, writer)
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                self._busy(writer, 1)
                task = asyncio.ensure_future(
                    self._serve_line(line, writer, lock)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
                task.add_done_callback(lambda _: self._busy(writer, -1))
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
        except (ConnectionError, asyncio.CancelledError):
            for task in tasks:
                task.cancel()

    async def _serve_line(self, line: bytes, writer, lock) -> None:
        try:
            obj = json.loads(line.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            response = HttpFrontend._failure("invalid JSON line: %s" % (exc,))
        else:
            tenant = ""
            if isinstance(obj, dict):
                tenant = str(obj.pop("tenant", "") or "")
            response = await self.daemon.handle(obj, tenant)
        await self._send(response, writer, lock)

    @staticmethod
    async def _send(response: dict, writer, lock) -> None:
        async with lock:
            writer.write(
                (json.dumps(response, sort_keys=True) + "\n").encode("utf-8")
            )
            try:
                await writer.drain()
            except ConnectionError:  # client went away mid-response
                pass


async def _serve(config: ServeConfig, ready_stream=None) -> int:
    daemon = CountingDaemon(config)
    daemon.start()
    http = HttpFrontend(daemon, config.host, config.http_port)
    await http.start()
    jsonl = None
    if config.jsonl_port is not None:
        jsonl = JsonlFrontend(daemon, config.host, config.jsonl_port)
        await jsonl.start()

    # Handlers must be live before the ready line goes out: a
    # supervisor that reacts to the line by signalling immediately
    # (tests do) must hit the drain path, not the default handler.
    stop = asyncio.Event()
    loop = asyncio.get_event_loop()
    for signame in ("SIGTERM", "SIGINT"):
        loop.add_signal_handler(getattr(signal, signame), stop.set)

    stream = ready_stream if ready_stream is not None else sys.stderr
    ready = "repro serve: listening on http://%s:%d" % (config.host, http.port)
    if jsonl is not None:
        ready += ", jsonl on %s:%d" % (config.host, jsonl.port)
    print(ready, file=stream, flush=True)
    await stop.wait()

    print("repro serve: draining...", file=stream, flush=True)
    fronts = [front for front in (http, jsonl) if front is not None]
    for front in fronts:
        front.server.close()  # no new connections
    snapshot = daemon.metrics.snapshot()
    await daemon.drain()
    for front in fronts:
        await front.stop()
    counters = snapshot["counters"]
    print(
        "repro serve: drained; %d requests (%d warm, %d coalesced,"
        " %d cold, %d shed)"
        % (
            counters["requests"],
            counters["warm_hits"]
            + counters["artifact_hits"]
            + counters["automaton_hits"],
            counters["coalesced"],
            counters["cold_jobs"],
            counters["shed"] + counters["rate_limited"],
        ),
        file=stream,
        flush=True,
    )
    return 0


def serve_main(args) -> int:
    """Entry point behind ``python -m repro serve`` (parsed argparse ns)."""
    import os

    if getattr(args, "answer_cache", None):
        # Worker processes inherit the environment at fork, so this
        # points every cold job's answer memo at one persistent store.
        os.environ["REPRO_ANSWER_DB"] = args.answer_cache
    if getattr(args, "automaton_cache", None):
        # Same trick for built automata: the persistent store keeps
        # resident member/count_below sets across daemon restarts.
        os.environ["REPRO_AUTOMATON_DB"] = args.automaton_cache
    config = ServeConfig(
        host=args.host,
        http_port=args.http_port,
        jsonl_port=args.jsonl_port,
        cache_path=None if args.no_cache else args.cache,
        cache_limit=args.cache_limit,
        **{
            k: v
            for k, v in (
                ("workers", args.workers),
                ("queue_limit", args.queue_limit),
                ("rate", args.rate),
                ("burst", args.burst),
                ("tenant_budget", args.tenant_budget),
                ("default_timeout", args.timeout),
                ("default_budget", args.budget),
                ("drain_timeout", args.drain_timeout),
            )
            if v is not None
        }
    )
    return asyncio.run(_serve(config))


__all__ = [
    "HttpFrontend",
    "JsonlFrontend",
    "MAX_BODY_BYTES",
    "MAX_HEADERS",
    "MAX_LINE_BYTES",
    "response_status",
    "serve_main",
]
