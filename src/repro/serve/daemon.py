"""The long-lived counting daemon: a three-tier async serve path.

One :class:`CountingDaemon` instance lives in an asyncio event loop
and answers count/sum/simplify/evaluate requests for many concurrent
clients (HTTP and JSONL front ends in :mod:`repro.serve.http`; the
load generator drives :meth:`CountingDaemon.handle` directly).  Every
request is canonicalized through :mod:`repro.core.canon` content
hashing, then served through the cheapest possible tier:

1. **warm** -- the persistent results store (the same sqlite
   :class:`~repro.service.diskcache.DiskCache` the batch CLI uses)
   already holds this content hash: answer straight from disk, zero
   engine work.  In front of the store sits a bounded in-memory map
   from content hash to the settled response body, filled on every
   store hit and every stored cold result, so a repeat skips the
   sqlite read and the JSON decode too.  Entries are content-addressed
   like the store rows, so the map can lack an answer but never hold
   a stale one; it is used only when a store is configured.
   ``evaluate`` jobs get a second warm source: a
   bounded in-daemon artifact map from *point-free* formula hash to
   the serialized symbolic answer, so a new point set for an
   already-computed formula is served by the compiled
   :mod:`repro.evalc` evaluator without forking a worker.  ``member``
   and ``count_below`` jobs get a third: when the formula's binary
   automaton is already resident in the process-global
   :mod:`repro.automaton.cache`, the query is an O(bits) walk or a
   path DP on a worker thread -- no admission control, no fork.
2. **coalesced** -- an identical computation (same content hash, so
   including every alpha-renamed variant) is already in flight: join
   it.  One executor job settles every waiter; waiters hold the shared
   task through :func:`asyncio.shield`, so a client that disconnects
   mid-flight cancels only its own response, never the computation the
   other waiters (and the cache) are relying on.
3. **cold** -- dispatch a fresh fork-per-job executor run
   (:func:`repro.service.executor.run_jobs`: wall-clock timeout, work
   budget, crash retry) on a bounded thread pool.  Cold dispatch is
   the only tier that passes **admission control**: a bounded
   in-flight queue (load-shed with a structured 429-style
   ``overloaded`` error), and per-tenant token-bucket rate limits plus
   sat-call budget clamps (:mod:`repro.serve.admission`).

Responses are shaped exactly like ``python -m repro batch`` responses
plus one extra ``"tier"`` key (which is in
:data:`~repro.service.batch.VOLATILE_RESPONSE_KEYS`), so a daemon
answer is byte-identical to the batch CLI's answer for the same
request once volatile fields are stripped -- the serve bench asserts
this.

Graceful drain: :meth:`CountingDaemon.drain` stops admitting work
(late requests are shed with an ``overloaded`` error), waits for every
in-flight computation up to ``drain_timeout``, flushes them to the
results store, and releases the pools and the cache.  The CLI wires
SIGTERM/SIGINT to it.

Every answer the daemon settles (a cold result, an evaluate served
from the artifact map, a resident-automaton query) is written through
to the results store.  A write that fails does not fail the request:
the answer is served uncached and counted as ``store_write_errors``.
"""

import asyncio
import sqlite3
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Mapping, Optional

from repro.core import stats
from repro.core.result import SymbolicSum
from repro.presburger.parser import ParseError
from repro.qpoly.parse import PolynomialParseError
from repro.serve.admission import TenantTable
from repro.serve.metrics import ServeMetrics
from repro.service.batch import response_core
from repro.service.diskcache import DiskCache
from repro.service.executor import (
    BAD_REQUEST,
    ENGINE_ERROR,
    PARSE_ERROR,
    JobError,
    _evaluate_points,
    execute_request,
    run_jobs,
)
from repro.service.request import JobRequest, RequestError

#: Admission-control failure kinds (429-style; join the executor's
#: taxonomy on the wire).
OVERLOADED = "overloaded"
RATE_LIMITED = "rate_limited"

#: Cap on each in-daemon map: formula hash -> symbolic answer, and
#: content hash -> settled response body.
ARTIFACT_CAP = 1024

#: Request kinds answered by the resident binary automaton.  They run
#: in the daemon process (thread pool, not a forked worker) so the
#: automaton built for one request stays resident for the next.
AUTOMATON_KINDS = ("member", "count_below")


class ServeConfig:
    """Daemon tuning knobs; ``repro serve`` builds one from its flags."""

    __slots__ = (
        "host",
        "http_port",
        "jsonl_port",
        "workers",
        "queue_limit",
        "rate",
        "burst",
        "tenant_budget",
        "default_timeout",
        "default_budget",
        "cache_path",
        "cache_limit",
        "drain_timeout",
    )

    def __init__(
        self,
        host: str = "127.0.0.1",
        http_port: int = 8722,
        jsonl_port: Optional[int] = None,
        workers: int = 4,
        queue_limit: int = 64,
        rate: Optional[float] = None,
        burst: float = 16.0,
        tenant_budget: Optional[int] = None,
        default_timeout: Optional[float] = 60.0,
        default_budget: Optional[int] = None,
        cache_path: Optional[str] = ".repro-cache.sqlite",
        cache_limit: int = 100000,
        drain_timeout: float = 30.0,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        self.host = host
        self.http_port = http_port
        self.jsonl_port = jsonl_port
        self.workers = workers
        self.queue_limit = queue_limit
        self.rate = rate
        self.burst = burst
        self.tenant_budget = tenant_budget
        self.default_timeout = default_timeout
        self.default_budget = default_budget
        self.cache_path = cache_path
        self.cache_limit = cache_limit
        self.drain_timeout = drain_timeout


class _InFlight:
    """A shared cold computation plus how many clients are on it."""

    __slots__ = ("task", "waiters")

    def __init__(self, task):
        self.task = task
        self.waiters = 1


class CountingDaemon:
    """The serve core: three-tier request handling over the executor."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        cache: Optional[DiskCache] = None,
    ):
        self.config = config or ServeConfig()
        self.metrics = ServeMetrics()
        self.metrics.queue_probe = lambda: len(self._inflight)
        self.tenants = TenantTable(
            rate=self.config.rate,
            burst=self.config.burst,
            budget_ceiling=self.config.tenant_budget,
        )
        self._owns_cache = cache is None and self.config.cache_path is not None
        if cache is not None:
            self.cache: Optional[DiskCache] = cache
        elif self.config.cache_path is not None:
            self.cache = DiskCache(
                self.config.cache_path, max_entries=self.config.cache_limit
            )
        else:
            self.cache = None
        self._inflight: "dict[str, _InFlight]" = {}
        self._artifacts = stats.BoundedLRU(ARTIFACT_CAP)
        self._bodies = stats.BoundedLRU(ARTIFACT_CAP)
        self._pool: Optional[ThreadPoolExecutor] = None
        self._io: Optional[ThreadPoolExecutor] = None
        self._draining = False
        self._started = False

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        """Create the worker pools."""
        if self._started:
            return
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="repro-serve-cold",
        )
        # A single dedicated thread serializes all disk-cache traffic,
        # so sqlite contention inside the daemon is impossible by
        # construction (cross-process contention is absorbed by the
        # cache's WAL + busy-timeout configuration).
        self._io = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-io"
        )
        self._draining = False
        self._started = True

    @property
    def draining(self) -> bool:
        return self._draining

    async def drain(self) -> None:
        """Stop admitting work, settle in-flight jobs, release resources."""
        self._draining = True
        tasks = [entry.task for entry in self._inflight.values()]
        if tasks:
            done, pending = await asyncio.wait(
                tasks, timeout=self.config.drain_timeout
            )
            for task in pending:
                task.cancel()
        if self._pool is not None:
            self._pool.shutdown(wait=False)
            self._pool = None
        if self._io is not None:
            self._io.shutdown(wait=True)
            self._io = None
        if self._owns_cache and self.cache is not None:
            self.cache.close()
            self.cache = None
        self._started = False

    # -- the serve path ---------------------------------------------------

    async def handle(self, obj, tenant: str = "") -> dict:
        """Answer one raw request object; never raises for bad input.

        Returns a batch-shaped response dict plus a ``"tier"`` key
        (``warm`` / ``coalesced`` / ``cold`` for answers, ``shed`` for
        admission refusals, ``front`` for requests that failed before
        reaching any tier).
        """
        t0 = time.monotonic()
        m = self.metrics
        m.bump("requests")
        if not isinstance(obj, Mapping):
            m.bump("front_errors")
            return self._error_response(
                None, BAD_REQUEST, "request must be a JSON object", t0, "front"
            )
        rid = obj.get("id")
        if self._draining:
            m.bump("shed")
            return self._error_response(
                rid, OVERLOADED, "daemon is draining", t0, "shed"
            )
        try:
            req = JobRequest.from_json(obj)
        except RequestError as exc:
            m.bump("front_errors")
            return self._error_response(rid, BAD_REQUEST, str(exc), t0, "front")
        try:
            key = req.content_hash()
        except (ParseError, PolynomialParseError) as exc:
            m.bump("front_errors")
            return self._error_response(
                req.id, PARSE_ERROR, str(exc), t0, "front"
            )
        except Exception as exc:
            m.bump("front_errors")
            return self._error_response(
                req.id,
                BAD_REQUEST,
                "%s: %s" % (type(exc).__name__, exc),
                t0,
                "front",
            )

        loop = asyncio.get_event_loop()

        # Tier 1: warm -- settled bodies in memory, then the results store.
        if self.cache is not None and self._io is not None:
            core = self._bodies.get(key)
            if core is None:
                payload = await loop.run_in_executor(
                    self._io, self.cache.get, key
                )
                if payload is not None and "result" in payload:
                    core = response_core(payload)
                    self._bodies.put(key, core)
            if core is not None:
                m.bump("warm_hits")
                return self._ok_response(req.id, core, t0, "warm", cached=True)
        if req.kind == "evaluate":
            response = await self._from_artifact(req, key, t0)
            if response is not None:
                return response
        if req.kind in AUTOMATON_KINDS:
            response = await self._from_automaton(req, key, t0)
            if response is not None:
                return response

        # Tier 2: coalesce onto an identical in-flight computation.
        entry = self._inflight.get(key)
        if entry is not None:
            entry.waiters += 1
            m.bump("coalesced")
            outcome = await self._await_shared(entry)
            return self._outcome_response(req.id, outcome, t0, "coalesced")

        # Tier 3: cold dispatch, admission-controlled.
        if len(self._inflight) >= self.config.queue_limit:
            m.bump("shed")
            return self._error_response(
                req.id,
                OVERLOADED,
                "cold queue full (%d computations in flight)"
                % len(self._inflight),
                t0,
                "shed",
            )
        if not self.tenants.admit(tenant):
            m.bump("rate_limited")
            return self._error_response(
                req.id,
                RATE_LIMITED,
                "tenant %r is over its cold-dispatch rate" % tenant,
                t0,
                "shed",
            )
        budget = self.tenants.clamp_budget(
            req.budget, self.config.default_budget
        )
        entry = _InFlight(loop.create_task(self._compute(key, req, budget)))
        self._inflight[key] = entry
        outcome = await self._await_shared(entry)
        return self._outcome_response(req.id, outcome, t0, "cold")

    async def _await_shared(self, entry: _InFlight) -> dict:
        """Wait on a shared computation without being able to kill it.

        ``asyncio.shield`` detaches the waiter's fate from the task's:
        cancelling this coroutine (client disconnect) raises here but
        leaves the computation running for the other waiters and the
        cache.
        """
        try:
            return await asyncio.shield(entry.task)
        except asyncio.CancelledError:
            self.metrics.bump("cancelled_waiters")
            raise

    async def _compute(self, key: str, req: JobRequest, budget) -> dict:
        """The single shared cold computation for one content hash."""
        m = self.metrics
        m.bump("cold_jobs")
        loop = asyncio.get_event_loop()
        try:
            outcome = await loop.run_in_executor(
                self._pool, self._run_cold, req, budget
            )
            if outcome["ok"]:
                payload = outcome["payload"]
                if await self._write_through(key, payload):
                    self._bodies.put(key, response_core(payload))
                self._remember_artifact(req, payload)
            return outcome
        finally:
            # Unregister only after the result is cached, so a
            # duplicate arriving during settle finds the warm tier (or
            # the still-registered task), never a second cold dispatch.
            self._inflight.pop(key, None)

    async def _write_through(self, key: str, payload: dict) -> bool:
        """Store an answer under its content hash; True if it landed.

        A failed write must not sink the response: the answer is
        computed, so it is served uncached, and the failure is counted.
        """
        if self.cache is None or self._io is None:
            return False
        loop = asyncio.get_event_loop()
        try:
            await loop.run_in_executor(self._io, self.cache.put, key, payload)
        except (sqlite3.Error, OSError):
            self.metrics.bump("store_write_errors")
            return False
        return True

    def _run_cold(self, req: JobRequest, budget) -> dict:
        """Blocking executor dispatch (runs on the cold thread pool)."""
        if budget is not None:
            req.budget = budget
        if req.kind in AUTOMATON_KINDS:
            return self._run_resident(req)
        outcomes = run_jobs(
            [req],
            workers=1,
            default_timeout=self.config.default_timeout,
            default_budget=self.config.default_budget,
        )
        return outcomes[0]

    def _run_resident(self, req: JobRequest) -> dict:
        """Run an automaton-kind job in-process (no fork).

        A forked worker would build the automaton in a child that dies
        with the job; running on the cold thread pool instead means the
        build lands in the daemon's resident cache, so the next query
        against the same formula takes the warm
        :meth:`_from_automaton` path.  The fork-level isolation knobs
        (wall-clock timeout, crash retry, work budget) do not apply --
        automaton-fragment queries are bounded by the builder's state
        budget instead.
        """
        t0 = time.monotonic()
        try:
            outcome = {"ok": True, "payload": execute_request(req)}
        except JobError as exc:
            outcome = {"ok": False, "error": exc.to_json()}
        except Exception as exc:
            outcome = {
                "ok": False,
                "error": {
                    "kind": ENGINE_ERROR,
                    "message": "%s: %s" % (type(exc).__name__, exc),
                },
            }
        outcome["wall_ms"] = round((time.monotonic() - t0) * 1000.0, 3)
        outcome["attempts"] = 1
        return outcome

    # -- the evaluate artifact fast path ----------------------------------

    def _remember_artifact(self, req: JobRequest, payload: dict) -> None:
        """Keep the symbolic answer keyed by point-free formula hash."""
        if "result_json" not in payload:
            return
        self._artifacts.put(
            req.formula_hash(),
            {
                "result": payload["result"],
                "result_json": payload["result_json"],
                "exactness": payload["exactness"],
            },
        )

    async def _from_artifact(
        self, req: JobRequest, key: str, t0: float
    ) -> Optional[dict]:
        """Serve an evaluate job from a stored symbolic answer, if any.

        The artifact map is keyed by the request's *point-free* formula
        hash, so an evaluate request with a fresh point set for an
        already-computed formula is answered in-process by the compiled
        :mod:`repro.evalc` evaluator -- no fork, no engine recursion.
        The full response is then written to the results store so the
        identical request is a plain warm hit next time.
        """
        doc = self._artifacts.get(req.formula_hash())
        if doc is None:
            return None
        try:
            result = SymbolicSum.from_json(doc["result_json"])
            points = _evaluate_points(req, result)
        except Exception:
            return None  # fall through to the coalesce/cold tiers
        payload = {
            "kind": req.kind,
            "result": doc["result"],
            "result_json": doc["result_json"],
            "exactness": doc["exactness"],
            "points": points,
            "stats": stats.engine_snapshot(),
        }
        await self._write_through(key, payload)
        self.metrics.bump("artifact_hits")
        return self._ok_response(req.id, payload, t0, "warm", cached=False)

    # -- the resident-automaton fast path ----------------------------------

    async def _from_automaton(
        self, req: JobRequest, key: str, t0: float
    ) -> Optional[dict]:
        """Serve member/count_below from a resident automaton, if any.

        The probe (:func:`repro.automaton.has_resident_automaton`) is
        keyed by the *point-free* alpha-invariant formula key, so any
        spelling of an already-built formula qualifies.  A hit runs the
        query on the cold thread pool -- it is pure CPU for microseconds,
        not a fork -- bypassing admission control, and writes the full
        response through to the results store so the identical request
        is a plain warm hit next time.  A probe miss (or a query that
        errors) returns ``None`` and falls through to the cold tier,
        where :meth:`_run_resident` builds the automaton in-process.
        """
        if self._pool is None:
            return None
        from repro.automaton import has_resident_automaton

        if not has_resident_automaton(req.automaton_key()):
            return None
        loop = asyncio.get_event_loop()
        try:
            payload = await loop.run_in_executor(
                self._pool, execute_request, req
            )
        except Exception:
            return None  # fall through to the coalesce/cold tiers
        await self._write_through(key, payload)
        self.metrics.bump("automaton_hits")
        return self._ok_response(req.id, payload, t0, "warm", cached=False)

    # -- response shaping (mirrors repro.service.batch) -------------------

    def _observe(self, tier: str, t0: float) -> None:
        if tier in self.metrics.tiers:
            self.metrics.observe(tier, (time.monotonic() - t0) * 1000.0)

    def _ok_response(
        self,
        rid,
        payload: dict,
        t0: float,
        tier: str,
        cached: bool,
        attempts: int = 0,
    ) -> dict:
        response = {"id": rid, "ok": True}
        response.update(response_core(payload))
        response["cached"] = cached
        response["wall_ms"] = round((time.monotonic() - t0) * 1000.0, 3)
        response["attempts"] = attempts
        response["tier"] = tier
        self._observe(tier, t0)
        return response

    def _outcome_response(
        self, rid, outcome: dict, t0: float, tier: str
    ) -> dict:
        response = {"id": rid, "ok": outcome["ok"]}
        if outcome["ok"]:
            response.update(response_core(outcome["payload"]))
        else:
            response["error"] = outcome["error"]
            self.metrics.bump("job_errors")
        response["cached"] = False
        response["wall_ms"] = outcome["wall_ms"]
        response["attempts"] = outcome["attempts"]
        response["tier"] = tier
        self._observe(tier, t0)
        return response

    def _error_response(
        self, rid, kind: str, message: str, t0: float, tier: str
    ) -> dict:
        self._observe(tier, t0)
        return {
            "id": rid,
            "ok": False,
            "error": {"kind": kind, "message": message},
            "cached": False,
            "wall_ms": 0.0,
            "attempts": 0,
            "tier": tier,
        }


__all__ = [
    "ARTIFACT_CAP",
    "AUTOMATON_KINDS",
    "CountingDaemon",
    "OVERLOADED",
    "RATE_LIMITED",
    "ServeConfig",
]
