"""Worker-pool executor: one process per job, timeouts, budgets, retry.

Jobs run in freshly forked/spawned worker processes, which buys three
properties the in-process engine cannot provide:

* **Per-job wall-clock timeouts.**  The engine has no preemption
  points, so the only reliable timeout is killing the worker; a
  process per job makes that safe (nothing else shares its state).
* **Crash isolation.**  A worker that dies mid-job (OOM kill, C-level
  fault, the test suite's poison hook) takes down only its own job.
  Crashes are retried once -- transient kills are common in
  production -- then reported as a structured error.
* **Snapshot isolation for stats and budgets.**  ``repro.core.stats``
  is process-global; each worker resets it at job start, arms the
  per-job work budget, and returns an ``engine_snapshot`` with its
  payload, so per-job counters never interleave (see the stats module
  docstring).

Every failure mode -- timeout, parse error, budget exhaustion, engine
failure, worker crash -- degrades to a :class:`JobError` carried in
the job's response slot; the rest of the batch always completes.

Test hooks (both gated on environment variables, inert otherwise):

* ``REPRO_SERVICE_POISON=<token>``: a worker whose formula text
  contains the token dies immediately via ``os._exit`` -- simulates a
  worker killed mid-job.
* ``REPRO_SERVICE_POISON_ONCE=<token>:<flagfile>``: like POISON, but
  the worker creates ``flagfile`` before dying and only dies if the
  file did not already exist -- a *transient* kill, so the retry
  succeeds.  This is the only way to exercise the crash-then-recover
  path deterministically.
* ``REPRO_SERVICE_SLEEP=<token>``: a worker whose formula text
  contains the token sleeps forever -- a deterministic way to force
  the timeout path without a genuinely expensive formula.
"""

import multiprocessing
import os
import signal
import time
from collections import deque
from fractions import Fraction
from multiprocessing.connection import wait
from typing import List, Optional, Sequence

from repro.core import Strategy, SumOptions, count, stats, sum_poly
from repro.omega.affine import Affine
from repro.omega.constraints import Constraint, reset_fresh_counter
from repro.presburger.ast import And, Atom
from repro.presburger.parser import ParseError
from repro.presburger.simplify import simplify as simplify_formula
from repro.qpoly.parse import PolynomialParseError
from repro.service.request import JobRequest

#: Exit code the poison hook dies with (distinguishable in tests).
POISON_EXIT_CODE = 86

#: Structured failure taxonomy (the "error.kind" wire values).
TIMEOUT = "timeout"
PARSE_ERROR = "parse_error"
BUDGET_EXCEEDED = "budget_exceeded"
ENGINE_ERROR = "engine_error"
WORKER_CRASH = "worker_crash"
BAD_REQUEST = "bad_request"


class JobError(Exception):
    """A structured per-job failure (never aborts the batch).

    ``id`` is an optional client-facing job identifier carried so an
    input line that fails before a :class:`JobRequest` even exists
    (bad JSON) still gets a correctly labelled response.
    """

    def __init__(self, kind: str, message: str, id=None):
        super().__init__(message)
        self.kind = kind
        self.message = message
        self.id = id

    def to_json(self) -> dict:
        return {"kind": self.kind, "message": self.message}

    def __repr__(self) -> str:
        return "JobError(%s: %s)" % (self.kind, self.message)


def _encode_value(value) -> object:
    """Exact JSON encoding of an evaluation result (int or Fraction)."""
    if isinstance(value, Fraction):
        return "%d/%d" % (value.numerator, value.denominator)
    return int(value)


def _evaluate_points(req: JobRequest, result) -> List[dict]:
    """Evaluate the request's points against the symbolic answer.

    ``evaluate`` jobs exist to serve many points fast, so they go
    through the :mod:`repro.evalc` compiler (shared artifact keyed by
    the request's point-free formula hash); compiled results are
    bit-for-bit equal to the interpreted path, and any compilation
    failure degrades to interpretation rather than failing the job.
    """
    if not req.at:
        return []
    values = None
    if req.kind == "evaluate":
        from repro.evalc import compile_enabled, compile_sum

        if compile_enabled():
            try:
                compiled = compile_sum(result, cache_key=req.formula_hash())
                values = compiled.many(req.at)
            except Exception:
                values = None
    if values is None:
        values = [result.evaluate(env) for env in req.at]
    return [
        {"at": dict(env), "value": _encode_value(value)}
        for env, value in zip(req.at, values)
    ]


def _execute_resident(req: JobRequest) -> dict:
    """``member`` / ``count_below``: query the resident automaton.

    The formula's automaton comes from the process-global resident
    cache (:mod:`repro.automaton.cache`), so a stream of queries
    against one formula pays for a single build; the queries
    themselves are O(bits) walks / path DPs.  Out-of-fragment formulas
    (free symbols, state-budget blowups) fall back to the engine:
    direct formula evaluation for membership, a boxed recursion count
    for thresholds -- same silent-fallback contract as the router.
    """
    from repro.automaton import UnsupportedFormula, automaton_for, member
    from repro.automaton import count_below as automaton_count_below

    formula = req.parsed()[0]
    over = list(req.over)
    options = SumOptions(
        strategy=Strategy(req.strategy),
        remove_redundant=req.remove_redundant,
    )
    if stats.ENABLED:
        stats.bump("automaton_calls")
    aut = None
    try:
        aut = automaton_for(formula, over, options, key=req.automaton_key())
    except UnsupportedFormula:
        if stats.ENABLED:
            stats.bump("automaton_fallbacks")

    if req.kind == "member":
        points = []
        for env in req.at:
            missing = sorted(v for v in over if v not in env)
            if missing:
                raise JobError(
                    BAD_REQUEST,
                    "member point is missing values for: %s"
                    % ", ".join(missing),
                )
            if aut is not None:
                value = member(aut, [env[v] for v in over])
            else:
                try:
                    value = bool(formula.evaluate(env))
                except KeyError as exc:
                    raise JobError(
                        BAD_REQUEST,
                        "member point is missing a value for %s" % (exc,),
                    )
            points.append({"at": dict(env), "value": bool(value)})
        inside = sum(1 for p in points if p["value"])
        return {
            "kind": req.kind,
            "result": "%d/%d in set" % (inside, len(points)),
            "exactness": "exact",
            "points": points,
            "stats": stats.engine_snapshot(),
        }

    lo = req.lo if req.lo is not None else 0
    hi = req.bound - 1
    if aut is not None:
        total = automaton_count_below(aut, req.bound, lo)
        exactness = "exact"
    else:
        # The formula boxed to lo <= v <= hi in every counted variable.
        box = []
        for v in over:
            var = Affine.var(v)
            box.append(Atom(Constraint.leq(Affine.const_expr(lo), var)))
            box.append(Atom(Constraint.leq(var, Affine.const_expr(hi))))
        result = count(And.of(formula, *box), over, options)
        try:
            total = int(result.evaluate({}))
        except Exception:
            # Symbolic constants survive into the answer: report the
            # symbolic threshold count like a count job would.
            return {
                "kind": req.kind,
                "result": str(result),
                "result_json": result.to_json(),
                "exactness": result.exactness,
                "points": [],
                "stats": stats.engine_snapshot(),
            }
        exactness = result.exactness
    return {
        "kind": req.kind,
        "result": str(total),
        "value": total,
        "exactness": exactness,
        "points": [],
        "stats": stats.engine_snapshot(),
    }


def execute_request(req: JobRequest) -> dict:
    """Run one job in the current process and return its ok payload.

    Raises :class:`JobError` for parse errors and budget exhaustion;
    anything else that escapes is an engine failure the caller wraps.
    The caller is responsible for stats reset/enable when per-job
    isolation is wanted (the pool worker does this).

    A request carrying ``backend`` runs under that counting backend:
    the process-global router default is switched for the duration of
    the job (and restored after), so the ``backend`` key of the
    payload's ``stats`` block reports what the job actually ran with.
    The field is excluded from the content hash, so a cached response
    may have been computed by either backend -- both are exact.
    """
    from repro.core import set_backend
    from repro.core.backend import resolve_backend

    previous_backend = set_backend(resolve_backend(req.backend))
    try:
        formula, poly = req.parsed()
        if req.kind == "simplify":
            clauses = simplify_formula(formula, disjoint=req.disjoint)
            lines = [str(c) for c in clauses] or ["FALSE"]
            return {
                "kind": req.kind,
                "result": "\n".join(lines),
                "clauses": lines,
                "points": [],
                "stats": stats.engine_snapshot(),
            }
        if req.kind in ("member", "count_below"):
            return _execute_resident(req)
        options = SumOptions(
            strategy=Strategy(req.strategy),
            remove_redundant=req.remove_redundant,
        )
        if poly is not None:
            result = sum_poly(formula, list(req.over), poly, options)
        else:
            result = count(formula, list(req.over), options)
        if req.simplify:
            result = result.simplified()
        points = _evaluate_points(req, result)
        return {
            "kind": req.kind,
            "result": str(result),
            "result_json": result.to_json(),
            "exactness": result.exactness,
            "points": points,
            "stats": stats.engine_snapshot(),
        }
    except (ParseError, PolynomialParseError) as exc:
        raise JobError(PARSE_ERROR, str(exc))
    except stats.WorkBudgetExceeded as exc:
        raise JobError(BUDGET_EXCEEDED, str(exc))
    finally:
        set_backend(previous_backend)


def _worker_main(req_json: dict, conn, budget: Optional[int]) -> None:
    """Worker entry point: run one job, send one (status, dict) pair."""
    # A forked worker inherits the serve daemon's asyncio signal
    # handling: run_jobs' timeout SIGTERM would only reach the daemon's
    # wakeup fd (draining the daemon) while the worker ignores it until
    # the SIGKILL a second later.  Restore the default dispositions.
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    req = JobRequest.from_json(req_json)
    for env_var, action in (
        ("REPRO_SERVICE_POISON", "die"),
        ("REPRO_SERVICE_SLEEP", "sleep"),
    ):
        token = os.environ.get(env_var)
        if token and token in req.formula:
            if action == "die":
                os._exit(POISON_EXIT_CODE)
            time.sleep(3600)
    once = os.environ.get("REPRO_SERVICE_POISON_ONCE")
    if once and ":" in once:
        token, flag_path = once.split(":", 1)
        if token in req.formula:
            try:
                # O_EXCL makes create-if-absent atomic, so exactly one
                # attempt dies even if two poisoned workers race.
                fd = os.open(flag_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                pass  # second attempt: run the job normally
            else:
                os.close(fd)
                os._exit(POISON_EXIT_CODE)
    # Per-job isolation: a forked worker inherits whatever the parent
    # (or, on some platforms, a reused interpreter) had cached, so the
    # job's stats block must start from empty caches.  The persistent
    # answer layer (REPRO_ANSWER_DB, inherited through the environment)
    # deliberately survives: that is how warm batch runs answer clauses
    # from disk.
    stats.clear_caches()
    # A forked worker also inherits the daemon's fresh-name counter;
    # restart it so the wildcard names a simplify answer prints do
    # not depend on what the daemon parsed before.
    reset_fresh_counter()
    stats.reset_stats()
    stats.enable_stats()
    stats.set_work_budget(budget)
    try:
        payload = execute_request(req)
        conn.send(("ok", payload))
    except JobError as exc:
        conn.send(("error", exc.to_json()))
    except Exception as exc:  # engine failure: report, don't crash
        conn.send(
            ("error", {"kind": ENGINE_ERROR, "message": "%s: %s" % (type(exc).__name__, exc)})
        )
    finally:
        conn.close()


class _Running:
    __slots__ = (
        "proc", "conn", "index", "req", "started", "attempt", "timeout"
    )

    def __init__(self, proc, conn, index, req, attempt, timeout):
        self.proc = proc
        self.conn = conn
        self.index = index
        self.req = req
        self.started = time.monotonic()
        self.attempt = attempt
        self.timeout = timeout


def run_jobs(
    requests: Sequence[JobRequest],
    workers: int = 1,
    default_timeout: Optional[float] = None,
    default_budget: Optional[int] = None,
    on_outcome=None,
) -> List[dict]:
    """Run jobs on a bounded pool; one outcome dict per request, in order.

    Each outcome is ``{"ok": True, "payload": ..., "wall_ms": ...,
    "attempts": n}`` or ``{"ok": False, "error": {"kind", "message"},
    "wall_ms": ..., "attempts": n}``.  A job's timeout/budget comes
    from the request, falling back to the defaults given here.
    ``on_outcome(index, outcome)``, when given, fires as each job
    settles (completion order, not input order) so callers can stream.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    ctx = multiprocessing.get_context()
    outcomes: List[Optional[dict]] = [None] * len(requests)
    pending = deque((i, req, 1) for i, req in enumerate(requests))
    running: List[_Running] = []

    def finish(slot: _Running, outcome: dict) -> None:
        outcome["wall_ms"] = round(
            (time.monotonic() - slot.started) * 1000.0, 3
        )
        outcome["attempts"] = slot.attempt
        outcomes[slot.index] = outcome
        running.remove(slot)
        slot.conn.close()
        if on_outcome is not None:
            on_outcome(slot.index, outcome)

    def crashed(slot: _Running) -> None:
        """A worker died without reporting: retry once, then record."""
        code = slot.proc.exitcode
        if slot.attempt < 2:
            running.remove(slot)
            slot.conn.close()
            # Requeue at the front so the retry does not starve
            # behind the rest of the batch.
            pending.appendleft((slot.index, slot.req, slot.attempt + 1))
            return
        finish(
            slot,
            {
                "ok": False,
                "error": {
                    "kind": WORKER_CRASH,
                    "message": "worker died with exit code %s (after retry)"
                    % (code,),
                },
            },
        )

    while pending or running:
        while pending and len(running) < workers:
            index, req, attempt = pending.popleft()
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            budget = req.budget if req.budget is not None else default_budget
            proc = ctx.Process(
                target=_worker_main,
                args=(req.to_json(), child_conn, budget),
            )
            proc.daemon = True
            proc.start()
            child_conn.close()
            timeout = (
                req.timeout if req.timeout is not None else default_timeout
            )
            running.append(
                _Running(proc, parent_conn, index, req, attempt, timeout)
            )

        progressed = False
        for slot in list(running):
            if slot.conn.poll():
                try:
                    status, payload = slot.conn.recv()
                except (EOFError, OSError):
                    status = None
                    payload = None
                slot.proc.join()
                if status == "ok":
                    finish(slot, {"ok": True, "payload": payload})
                elif status == "error":
                    finish(slot, {"ok": False, "error": payload})
                else:  # pipe broke mid-message: treat as a crash
                    crashed(slot)
                progressed = True
            elif not slot.proc.is_alive():
                slot.proc.join()
                # Drain the race where the result landed between the
                # poll above and the liveness check.
                if slot.conn.poll():
                    continue  # picked up next loop iteration
                crashed(slot)
                progressed = True
            elif (
                slot.timeout is not None
                and time.monotonic() - slot.started > slot.timeout
            ):
                slot.proc.terminate()
                slot.proc.join(1.0)
                if slot.proc.is_alive():
                    slot.proc.kill()
                    slot.proc.join()
                finish(
                    slot,
                    {
                        "ok": False,
                        "error": {
                            "kind": TIMEOUT,
                            "message": "job exceeded its %.3fs wall-clock timeout"
                            % slot.timeout,
                        },
                    },
                )
                progressed = True
        if not progressed:
            # Block until a result arrives, a worker exits or the
            # nearest deadline passes.
            deadlines = [
                slot.started + slot.timeout
                for slot in running
                if slot.timeout is not None
            ]
            wait(
                [slot.conn for slot in running]
                + [slot.proc.sentinel for slot in running],
                max(0.0, min(deadlines) - time.monotonic())
                if deadlines
                else None,
            )
    return outcomes


__all__ = [
    "BAD_REQUEST",
    "BUDGET_EXCEEDED",
    "ENGINE_ERROR",
    "JobError",
    "PARSE_ERROR",
    "POISON_EXIT_CODE",
    "TIMEOUT",
    "WORKER_CRASH",
    "execute_request",
    "run_jobs",
]
