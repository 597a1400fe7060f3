"""Global engine counters ("observability layer").

The counting engine spends its time in a handful of hot primitives:
satisfiability checks, ``Conjunct.normalize`` fixed-point passes,
Fourier-Motzkin shadow computations, splinters, residue splits and
complete redundancy tests.  This module provides cheap process-global
counters for those events so that slow queries can be diagnosed
without a profiler.

The layer is off by default and designed for near-zero overhead when
disabled: instrumented call sites guard every update with a single
``if stats.ENABLED`` attribute check.  This module deliberately
imports nothing from the rest of the package at import time so the
low-level ``repro.omega`` modules can depend on it without layering
cycles (``engine_snapshot`` imports the sat cache lazily).

Two service-facing facilities also live here:

* **Work budgets.**  ``set_work_budget(n)`` arms a process-global cap
  on engine work, measured in satisfiability calls (the engine's unit
  of forward progress).  Instrumented sites call ``charge_budget``,
  which raises :class:`WorkBudgetExceeded` past the cap.  Like the
  counters, the check behind ``BUDGET_LIMIT is None`` is a single
  attribute load when disarmed.
* **Snapshot isolation.**  All counters are process-global, so
  concurrent jobs in one process would interleave.  The batch service
  therefore runs each job in its own worker process and calls
  :func:`reset_stats` + :func:`enable_stats` at job start; the
  per-job ``stats`` block in a batch response is an
  :func:`engine_snapshot` taken right before the worker returns.

Usage::

    from repro.core import stats

    with stats.collecting_stats() as counters:
        count("1 <= i <= n and 1 <= j <= i", ["i", "j"])
    print(stats.format_stats(counters))

or imperatively with :func:`enable_stats` / :func:`stats_snapshot`.
"""

from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Union

#: Master switch.  Instrumented call sites check this before touching
#: any counter; keep reads as plain module-attribute loads (do *not*
#: ``from ... import ENABLED``, which would freeze the value).
ENABLED = False

#: Names every instrumented call site uses, with their meaning.  The
#: snapshot always contains all of them (zero when never hit) so
#: downstream tooling can rely on the schema.
COUNTER_NAMES = (
    "sat_calls",  # satisfiable() invocations, recursion included
    "sat_cache_hits",  # answered from the LRU memo
    "sat_cache_misses",  # required an actual elimination run
    "sat_cache_evictions",  # LRU entries dropped to respect the limit
    "normalize_calls",  # Conjunct.normalize() invocations
    "normalize_memo_hits",  # answered from the per-instance memo
    "normalize_iterations",  # fixed-point passes actually executed
    "kernel_rows_normalized",  # dense rows swept by normalize_rows
    "fm_eliminations",  # real/dark shadow projections computed
    "fm_rows_reused",  # parent rows carried unchanged through an FM step
    "splinters_taken",  # splinter subproblems generated
    "residue_splits",  # residue-class enumerations of a stride
    "residue_cases",  # total residue cases those splits expanded to
    "redundancy_checks",  # complete single-constraint redundancy tests
    "answer_memo_hits",  # recursion nodes answered from the answer memo
    "answer_memo_misses",  # nodes that had to be computed
    "answer_memo_evictions",  # LRU entries dropped to respect the cap
    "answer_memo_renames",  # hits translated across free-symbol names
    "genfunc_calls",  # queries the router first offered to genfunc
    "genfunc_fallbacks",  # of those, rejected and re-run on the recursion
    "genfunc_clauses",  # clauses the cone pipeline counted
    "genfunc_cones",  # signed unimodular cone terms specialized
    "automaton_calls",  # queries the router first offered to the DFA engine
    "automaton_fallbacks",  # of those, rejected and re-run on the recursion
    "automaton_builds",  # formula automata actually constructed
    "automaton_states",  # states across those constructions (post-minimize)
    "automaton_cache_hits",  # builds avoided by the resident LRU
    "automaton_disk_hits",  # builds restored from the persistent store
    "automaton_disk_writes",  # built automata persisted to the store
)

_counters: Dict[str, int] = {name: 0 for name in COUNTER_NAMES}

#: Work-budget switch.  ``None`` means no budget; otherwise the
#: maximum number of budget units (satisfiability calls) a computation
#: may spend before :class:`WorkBudgetExceeded` is raised.  Call sites
#: guard with ``if stats.BUDGET_LIMIT is not None``.
BUDGET_LIMIT = None
_budget_used = 0


#: Optional provider of serving-layer statistics (see repro.serve).
#: When a long-lived daemon is running in this process it registers a
#: zero-argument callable here and :func:`engine_snapshot` includes its
#: return value under a ``"serve"`` key -- uptime, queue depth,
#: coalesce/shed counters and per-tier latency quantiles.  ``None``
#: (the default, and the state in every batch worker process) adds
#: nothing, so snapshots taken outside a daemon are unchanged.
_SERVE_PROVIDER = None


def set_serve_stats_provider(provider):
    """Register (or, with None, clear) the serving-stats provider.

    Returns the previously registered provider so tests and nested
    daemons can restore it.
    """
    global _SERVE_PROVIDER
    previous = _SERVE_PROVIDER
    _SERVE_PROVIDER = provider
    return previous


class WorkBudgetExceeded(RuntimeError):
    """A computation exceeded its work budget (see set_work_budget)."""

    def __init__(self, used: int, limit: int):
        super().__init__(
            "work budget exceeded: %d units spent, limit %d" % (used, limit)
        )
        self.used = used
        self.limit = limit


def set_work_budget(limit: Optional[int]) -> Optional[int]:
    """Arm (or, with None, disarm) the work budget; returns the old limit.

    Arming resets the spent-unit counter, so a budget always applies to
    the work that follows the call.
    """
    global BUDGET_LIMIT, _budget_used
    if limit is not None and limit < 0:
        raise ValueError("work budget must be >= 0 or None")
    previous = BUDGET_LIMIT
    BUDGET_LIMIT = limit
    _budget_used = 0
    return previous


def budget_spent() -> int:
    """Budget units charged since the budget was last armed."""
    return _budget_used


def charge_budget(n: int = 1) -> None:
    """Spend ``n`` budget units; raises once the armed limit is passed.

    Call sites should guard with ``if stats.BUDGET_LIMIT is not None``
    so the disarmed cost stays one attribute load.
    """
    global _budget_used
    _budget_used += n
    limit = BUDGET_LIMIT
    if limit is not None and _budget_used > limit:
        raise WorkBudgetExceeded(_budget_used, limit)


def enable_stats() -> None:
    """Turn collection on (counters keep their current values)."""
    global ENABLED
    ENABLED = True


def disable_stats() -> None:
    """Turn collection off (counters keep their current values)."""
    global ENABLED
    ENABLED = False


def reset_stats() -> None:
    """Zero every counter."""
    for name in _counters:
        _counters[name] = 0


def bump(name: str, n: int = 1) -> None:
    """Add ``n`` to a counter (call sites should guard with ENABLED)."""
    _counters[name] = _counters.get(name, 0) + n


def stats_snapshot() -> Dict[str, int]:
    """A copy of all counters."""
    return dict(_counters)


def engine_snapshot() -> Dict[str, Union[int, float]]:
    """Counters *and* cache occupancy in one mapping.

    This is the single introspection entry point shared by the CLI's
    ``--stats`` output and the batch service's per-job ``stats`` block:
    everything in :func:`stats_snapshot` plus the satisfiability LRU's
    current ``sat_cache_size`` / ``sat_cache_limit``.  The sat cache is
    imported lazily to keep this module import-cycle free.
    """
    snap = stats_snapshot()
    from repro.omega.satisfiability import sat_cache_info

    info = sat_cache_info()
    snap["sat_cache_size"] = info["size"]
    snap["sat_cache_limit"] = info["limit"]
    from repro.core.memo import answer_memo_info

    memo = answer_memo_info()
    snap["answer_memo_size"] = memo["size"]
    snap["answer_memo_limit"] = memo["limit"]
    from repro.core.backend import current_backend

    snap["backend"] = current_backend()
    if _SERVE_PROVIDER is not None:
        try:
            snap["serve"] = _SERVE_PROVIDER()
        except Exception:  # a broken provider must not sink a snapshot
            pass
    return snap


@contextmanager
def collecting_stats(reset: bool = True) -> Iterator[Dict[str, int]]:
    """Enable collection for the ``with`` body.

    Yields the live counter mapping (read it inside or after the
    block).  By default the counters are zeroed on entry; the previous
    enabled/disabled state is restored on exit.
    """
    global ENABLED
    previous = ENABLED
    if reset:
        reset_stats()
    ENABLED = True
    try:
        yield _counters
    finally:
        ENABLED = previous


def format_stats(snapshot=None) -> str:
    """Human-readable one-counter-per-line rendering.

    Accepts a snapshot mapping; defaults to the live counters.  Hit
    rates are derived for the two caches when their totals are
    nonzero.
    """
    snap = dict(stats_snapshot() if snapshot is None else snapshot)
    lines = []
    for name in COUNTER_NAMES:
        lines.append("%-22s %d" % (name, snap.pop(name, 0)))
    for name in sorted(snap):
        value = snap[name]
        if isinstance(value, float):
            lines.append("%-22s %.6f" % (name, value))
        else:
            lines.append("%-22s %s" % (name, value))
    return "\n".join(lines)
