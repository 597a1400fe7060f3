"""JSONL batch front end for the counting service.

``python -m repro batch requests.jsonl --workers 4 --cache cache.sqlite``
reads one JSON request per line, answers one JSON response per line on
stdout (same order as the input), and prints an end-of-batch summary
to stderr.  The pipeline per job:

1. parse + canonical content hash (a malformed line or formula becomes
   a structured ``bad_request`` / ``parse_error`` response, never an
   abort);
2. disk-cache lookup by content hash -- hits are answered from the
   stored payload with ``"cached": true`` and deterministic timing
   fields, so a fully cached re-run is byte-identical to the previous
   run apart from the ``cached`` flag itself;
3. misses are deduplicated within the batch (identical jobs compute
   once) and run on the worker pool with per-job timeouts and work
   budgets;
4. successful payloads are written back to the cache.  Failures are
   *not* cached: timeouts and crashes may succeed on retry with a
   longer budget, and parse errors are cheap to re-derive.

Exit codes separate three failure planes: per-job failures (timeout,
budget, engine error) are data -- they become structured error
responses and the process still exits 0; *input-line* failures (a line
that is not valid JSON, or cannot even be decoded as UTF-8) also get a
structured per-line error response but flip the exit code to 1, since
the batch file itself was malformed; a batch file that cannot be read
at all exits 2.  Blank lines (a trailing newline, spacer lines between
sections) are tolerated and skipped.
"""

import json
import os
import sqlite3
import sys
import time
from typing import List, Optional, Sequence, Tuple, Union

from repro.service.diskcache import DiskCache
from repro.service.executor import (
    BAD_REQUEST,
    PARSE_ERROR,
    JobError,
    run_jobs,
)
from repro.service.request import (
    JobRequest,
    ParseError,
    PolynomialParseError,
    RequestError,
)

#: Response keys that may differ between a computed run and a cached
#: re-run of the same batch; strip them to compare runs byte-for-byte.
#: ``stats`` joined the list with the persistent answer memo: a warm
#: run that answers a clause from the answer store does genuinely less
#: engine work, so its per-job counters differ while the result is
#: byte-identical.  ``tier`` is the serve daemon's annotation of which
#: serving tier answered (warm/coalesced/cold/...); the batch CLI does
#: not emit it, so it must be volatile for daemon-vs-batch
#: byte-identity checks to hold.
VOLATILE_RESPONSE_KEYS = (
    "cached",
    "wall_ms",
    "attempts",
    "stats",
    "tier",
)

#: Payload keys not echoed into response lines (bulky; clients that
#: want the full serialized result can read the cache).
_PAYLOAD_ONLY_KEYS = ("result_json",)

Entry = Union[JobRequest, JobError]


class BatchSummary:
    """End-of-batch accounting: job counts, failure taxonomy, cache."""

    def __init__(
        self,
        jobs: int,
        ok: int,
        errors: dict,
        cache_hits: int,
        cache_misses: int,
        cache_corrupt: int,
        deduped: int,
        workers: int,
        wall_seconds: float,
    ):
        self.jobs = jobs
        self.ok = ok
        self.errors = dict(errors)
        self.cache_hits = cache_hits
        self.cache_misses = cache_misses
        self.cache_corrupt = cache_corrupt
        self.deduped = deduped
        self.workers = workers
        self.wall_seconds = wall_seconds

    def to_json(self) -> dict:
        return {
            "jobs": self.jobs,
            "ok": self.ok,
            "errors": self.errors,
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "corrupt": self.cache_corrupt,
            },
            "deduped": self.deduped,
            "workers": self.workers,
            "wall_seconds": self.wall_seconds,
        }

    def __str__(self) -> str:
        errors = (
            ", ".join(
                "%s=%d" % (k, v) for k, v in sorted(self.errors.items())
            )
            or "none"
        )
        return (
            "batch: %d jobs, %d ok, errors: %s | cache: %d hits,"
            " %d misses, %d corrupt | %d deduped | %d workers | %.3fs"
            % (
                self.jobs,
                self.ok,
                errors,
                self.cache_hits,
                self.cache_misses,
                self.cache_corrupt,
                self.deduped,
                self.workers,
                self.wall_seconds,
            )
        )


def response_core(payload: dict) -> dict:
    """An ok payload with bulky payload-only keys stripped.

    Shared by the batch settle path and the serve daemon so both wire
    formats carry exactly the same response fields for the same job.
    """
    return {
        k: v for k, v in payload.items() if k not in _PAYLOAD_ONLY_KEYS
    }


_response_core = response_core


def run_batch(
    entries: Sequence[Entry],
    workers: int = 1,
    cache: Optional[DiskCache] = None,
    default_timeout: Optional[float] = None,
    default_budget: Optional[int] = None,
    emit=None,
) -> Tuple[List[dict], BatchSummary]:
    """Answer every entry; returns (responses-in-order, summary).

    ``entries`` holds :class:`JobRequest` objects plus
    :class:`JobError` placeholders for input lines that already failed
    upstream parsing (they produce error responses in place).

    ``emit(response)``, when given, is called with each response *in
    input order as soon as it is ready* -- a response is held back
    only while an earlier job is still running, so the CLI streams
    output while the pool works.
    """
    start = time.monotonic()
    n = len(entries)
    responses: List[Optional[dict]] = [None] * n
    hits0 = cache.hits if cache else 0
    misses0 = cache.misses if cache else 0
    corrupt0 = cache.corrupt if cache else 0
    next_emit = [0]

    def record(index: int, response: dict) -> None:
        responses[index] = response
        if emit is None:
            return
        while next_emit[0] < n and responses[next_emit[0]] is not None:
            emit(responses[next_emit[0]])
            next_emit[0] += 1

    def ident(index: int) -> object:
        eid = getattr(entries[index], "id", None)
        return eid if eid is not None else index

    # Phase 1: hash + cache lookup; collect misses, deduplicated.
    to_run: List[JobRequest] = []
    run_index_of = {}  # content hash -> position in to_run
    waiting = {}  # position in to_run -> [entry indices]
    deduped = 0
    for i, entry in enumerate(entries):
        if isinstance(entry, JobError):
            record(
                i,
                {
                    "id": ident(i),
                    "ok": False,
                    "error": entry.to_json(),
                    "cached": False,
                    "wall_ms": 0.0,
                    "attempts": 0,
                },
            )
            continue
        try:
            key = entry.content_hash()
        except (ParseError, PolynomialParseError) as exc:
            record(
                i,
                {
                    "id": ident(i),
                    "ok": False,
                    "error": JobError(PARSE_ERROR, str(exc)).to_json(),
                    "cached": False,
                    "wall_ms": 0.0,
                    "attempts": 0,
                },
            )
            continue
        except Exception as exc:
            record(
                i,
                {
                    "id": ident(i),
                    "ok": False,
                    "error": JobError(
                        BAD_REQUEST,
                        "%s: %s" % (type(exc).__name__, exc),
                    ).to_json(),
                    "cached": False,
                    "wall_ms": 0.0,
                    "attempts": 0,
                },
            )
            continue
        payload = cache.get(key) if cache is not None else None
        if payload is not None and "result" in payload:
            response = {"id": ident(i), "ok": True}
            response.update(_response_core(payload))
            response["cached"] = True
            response["wall_ms"] = 0.0
            response["attempts"] = 0
            record(i, response)
            continue
        if key in run_index_of:
            deduped += 1
            waiting[run_index_of[key]].append(i)
        else:
            run_index_of[key] = len(to_run)
            waiting[len(to_run)] = [i]
            to_run.append(entry)

    # Phase 2: run the misses on the pool, streaming as jobs settle.
    if to_run:
        key_of = {pos: key for key, pos in run_index_of.items()}

        def settle(pos: int, outcome: dict) -> None:
            if outcome["ok"] and cache is not None:
                # A cache-write failure (disk full, db locked past the
                # busy timeout) must not sink the batch: the result is
                # already computed, so serve it and just skip caching.
                try:
                    cache.put(key_of[pos], outcome["payload"])
                except (sqlite3.Error, OSError) as exc:
                    print(
                        "repro batch: cache write failed for job %s"
                        " (%s: %s); result served uncached"
                        % (ident(waiting[pos][0]), type(exc).__name__, exc),
                        file=sys.stderr,
                    )
            for i in waiting[pos]:
                response = {"id": ident(i), "ok": outcome["ok"]}
                if outcome["ok"]:
                    response.update(_response_core(outcome["payload"]))
                else:
                    response["error"] = outcome["error"]
                response["cached"] = False
                response["wall_ms"] = outcome["wall_ms"]
                response["attempts"] = outcome["attempts"]
                record(i, response)

        run_jobs(
            to_run,
            workers=workers,
            default_timeout=default_timeout,
            default_budget=default_budget,
            on_outcome=settle,
        )

    errors = {}
    n_ok = 0
    for response in responses:
        if response["ok"]:
            n_ok += 1
        else:
            kind = response["error"].get("kind", "unknown")
            errors[kind] = errors.get(kind, 0) + 1
    summary = BatchSummary(
        jobs=n,
        ok=n_ok,
        errors=errors,
        cache_hits=(cache.hits - hits0) if cache else 0,
        cache_misses=(cache.misses - misses0) if cache else 0,
        cache_corrupt=(cache.corrupt - corrupt0) if cache else 0,
        deduped=deduped,
        workers=workers,
        wall_seconds=round(time.monotonic() - start, 6),
    )
    return responses, summary


def _line_error(line_no: int, message: str) -> JobError:
    """A structured record for an input line that is not a request.

    ``line_error`` marks the failure as belonging to the *input file*
    (truncated record, stray bytes) rather than to a well-formed but
    unservable request; :func:`batch_main` turns any such line into a
    nonzero exit code while still answering every other line.
    """
    error = JobError(BAD_REQUEST, "line %d: %s" % (line_no, message), id=line_no)
    error.line_error = True
    return error


def parse_request_line(line: str, line_no: int) -> Entry:
    """One JSONL line -> JobRequest, or a JobError placeholder."""
    try:
        obj = json.loads(line)
    except ValueError as exc:
        return _line_error(line_no, "invalid JSON: %s" % (exc,))
    try:
        return JobRequest.from_json(obj, default_id=line_no)
    except RequestError as exc:
        return JobError(
            BAD_REQUEST,
            "line %d: %s" % (line_no, exc),
            id=obj.get("id", line_no) if isinstance(obj, dict) else line_no,
        )


def batch_main(args) -> int:
    """Entry point behind ``python -m repro batch`` (parsed argparse ns)."""
    if args.input == "-":
        # Read raw bytes when stdin has them (the real CLI path);
        # text-only stand-ins (tests monkeypatching sys.stdin) lack
        # ``.buffer`` and are re-encoded so the per-line decode below
        # is the single code path.
        stream = getattr(sys.stdin, "buffer", sys.stdin)
        raw = stream.read()
        if isinstance(raw, str):
            raw = raw.encode("utf-8")
    else:
        try:
            with open(args.input, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            print("repro batch: cannot read %s: %s" % (args.input, exc), file=sys.stderr)
            return 2

    # Decode line by line: one undecodable record must not take down
    # the rest of the batch (it becomes a structured per-line error
    # like any other malformed line, instead of a UnicodeDecodeError
    # traceback for the whole file).
    entries: List[Entry] = []
    for line_no, line_bytes in enumerate(raw.splitlines(), start=1):
        try:
            line = line_bytes.decode("utf-8")
        except UnicodeDecodeError as exc:
            entries.append(_line_error(line_no, "undecodable bytes: %s" % (exc,)))
            continue
        if not line.strip():
            continue
        entries.append(parse_request_line(line, line_no))
    line_errors = sum(
        1 for e in entries if getattr(e, "line_error", False)
    )

    if getattr(args, "answer_cache", None):
        # Workers inherit the environment at fork, so setting the
        # variable here points every worker's answer memo at the same
        # persistent root store.
        os.environ["REPRO_ANSWER_DB"] = args.answer_cache
    cache = None
    if not args.no_cache:
        cache = DiskCache(args.cache, max_entries=args.cache_limit)
    out = sys.stdout

    def emit(response: dict) -> None:
        out.write(json.dumps(response, sort_keys=True))
        out.write("\n")
        out.flush()

    try:
        _, summary = run_batch(
            entries,
            workers=args.workers,
            cache=cache,
            default_timeout=args.timeout,
            default_budget=args.budget,
            emit=emit,
        )
    finally:
        if cache is not None:
            cache.close()
    print(summary, file=sys.stderr)
    if args.summary_json:
        with open(args.summary_json, "w") as fh:
            json.dump(summary.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    if line_errors:
        print(
            "repro batch: %d malformed input line%s (see bad_request"
            " responses above)"
            % (line_errors, "" if line_errors == 1 else "s"),
            file=sys.stderr,
        )
        return 1
    return 0


__all__ = [
    "BatchSummary",
    "VOLATILE_RESPONSE_KEYS",
    "batch_main",
    "parse_request_line",
    "response_core",
    "run_batch",
]
