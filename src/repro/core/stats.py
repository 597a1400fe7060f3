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
cycles.

Three more facilities also live here:

* **Bounded caches.**  :class:`BoundedLRU` is the package's one
  in-memory cache.  Each registered cache reports ``<name>_size`` and
  ``_limit`` in :func:`engine_snapshot` and ``_hits``, ``_misses`` and
  ``_evictions`` among the counters; :func:`clear_caches` empties them.
* **Work budgets.**  ``set_work_budget(n)`` arms a process-global cap
  on engine work, measured in satisfiability calls (the engine's unit
  of forward progress).  Instrumented sites call ``charge_budget``,
  which raises :class:`WorkBudgetExceeded` past the cap.  Like the
  counters, the check behind ``BUDGET_LIMIT is None`` is a single
  attribute load when disarmed.
* **Snapshot isolation.**  All counters are process-global, so
  concurrent jobs in one process would interleave.  The batch service
  therefore runs each job in its own worker process and calls
  :func:`clear_caches`, :func:`reset_stats` and :func:`enable_stats`
  at job start; the per-job ``stats`` block in a batch response is an
  :func:`engine_snapshot` taken right before the worker returns.

Usage::

    from repro.core import stats

    with stats.collecting_stats() as counters:
        count("1 <= i <= n and 1 <= j <= i", ["i", "j"])
    print(stats.format_stats(counters))

or imperatively with :func:`enable_stats` / :func:`stats_snapshot`.
"""

import os
import threading
from collections import OrderedDict
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
    "evalc_cache_hits",  # compile_sum calls answered by a cached evaluator
    "evalc_cache_misses",  # compile_sum calls that compiled
    "evalc_cache_evictions",  # evaluators dropped to respect the cap
    "genfunc_calls",  # queries the router first offered to genfunc
    "genfunc_fallbacks",  # of those, rejected and re-run on the recursion
    "genfunc_clauses",  # clauses the cone pipeline counted
    "genfunc_cones",  # signed unimodular cone terms specialized
    "automaton_calls",  # queries the router first offered to the DFA engine
    "automaton_fallbacks",  # of those, rejected and re-run on the recursion
    "automaton_builds",  # formula automata actually constructed
    "automaton_states",  # states across those constructions (post-minimize)
    "automaton_cache_hits",  # builds avoided by the resident LRU
    "automaton_cache_misses",  # keyed lookups the resident LRU lacked
    "automaton_cache_evictions",  # automata dropped to respect the cap
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
#: (the default) adds nothing, so snapshots taken outside a daemon are
#: unchanged.  A forked executor worker inherits the daemon's provider
#: and clears it before its job, so a job's ``stats`` never carries a
#: copy of the daemon's metrics.
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


#: The process-wide caches, by name (see :class:`BoundedLRU`).
_CACHES: Dict[str, "BoundedLRU"] = {}

#: The four process-wide caches and the limit each starts at; their
#: modules create them with these limits.  Every snapshot reports all
#: four, whatever the process imported: the evalc and automaton
#: packages load on first use (a cold job must not pay to import
#: them), and a cache whose module is not loaded yet is reported
#: empty at its starting limit.
CACHE_LIMITS = {
    "sat_cache": 200000,
    "answer_memo": 50000,
    "evalc_cache": 128,
    "automaton_cache": 256,
}


class BoundedLRU:
    """A bounded least-recently-used map that threads may share.

    One lock guards each map operation, never the computing of a value,
    so no thread can mutate the map while a key's ``__hash__``/``__eq__``
    runs Python code (which must not touch a cache: the lock is not
    re-entrant).  A *named* instance registers for
    :func:`engine_snapshot` and :func:`clear_caches`, and counts every
    eviction, shrinking included, into ``<name>_evictions``; what a hit
    or a miss is differs by cache, so callers count those.
    """

    __slots__ = ("name", "limit", "_map", "_lock")

    def __init__(self, limit: int, name: Optional[str] = None):
        self.name = name
        self.limit = limit
        self._map: "OrderedDict[object, object]" = OrderedDict()
        self._lock = threading.Lock()
        if name is not None:
            _CACHES[name] = self

    def get(self, key):
        """The value under ``key`` or None; marks the key most recent."""
        with self._lock:
            value = self._map.get(key)
            if value is not None:
                self._map.move_to_end(key)
            return value

    def peek(self, key):
        """The value under ``key`` or None, leaving the order alone."""
        with self._lock:
            return self._map.get(key)

    def put(self, key, value) -> None:
        """Store as most recent, then evict past the limit (a limit of
        0 stores nothing)."""
        with self._lock:
            if self.limit > 0:
                self._map[key] = value
                self._map.move_to_end(key)
                self._evict()

    def pop(self, key):
        """Remove ``key``; returns its value or None."""
        with self._lock:
            return self._map.pop(key, None)

    def clear(self) -> None:
        with self._lock:
            self._map.clear()

    def resize(self, limit: int) -> int:
        """Set the limit, evicting the oldest entries past it; returns
        the previous limit."""
        if limit < 0:
            raise ValueError("cache limit must be >= 0")
        with self._lock:
            previous, self.limit = self.limit, limit
            self._evict()
        return previous

    def _evict(self) -> None:
        excess = len(self._map) - self.limit
        for _ in range(excess):
            self._map.popitem(last=False)
        if excess > 0 and ENABLED and self.name is not None:
            bump(self.name + "_evictions", excess)

    def __len__(self) -> int:
        return len(self._map)

    def __iter__(self) -> Iterator[object]:
        with self._lock:
            return iter(list(self._map))


def clear_caches() -> None:
    """Empty every registered cache (a forked worker's fresh start)."""
    for cache in list(_CACHES.values()):
        cache.clear()


def _fresh_locks() -> None:
    # A fork copies each lock as it stands, held or not, but not the
    # thread that held it, so the child takes new ones.
    for cache in _CACHES.values():
        cache._lock = threading.Lock()


os.register_at_fork(after_in_child=_fresh_locks)


def engine_snapshot() -> Dict[str, Union[int, float]]:
    """Counters *and* cache occupancy in one mapping.

    The one introspection entry point behind the CLI's ``--stats``,
    every service response's ``stats`` block and the daemon's
    ``/stats``: :func:`stats_snapshot` plus ``<name>_size`` and
    ``<name>_limit`` of each :data:`CACHE_LIMITS` cache (empty at its
    starting limit until its module is imported) and of any other
    registered :class:`BoundedLRU`.
    """
    snap = stats_snapshot()
    for name, limit in CACHE_LIMITS.items():
        snap[name + "_size"] = 0
        snap[name + "_limit"] = limit
    for name, cache in list(_CACHES.items()):
        snap[name + "_size"] = len(cache)
        snap[name + "_limit"] = cache.limit
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

    Accepts a snapshot mapping; defaults to the live counters.
    """
    snap = dict(stats_snapshot() if snapshot is None else snapshot)
    lines = []
    for name in COUNTER_NAMES:
        lines.append("%-25s %d" % (name, snap.pop(name, 0)))
    for name in sorted(snap):
        value = snap[name]
        if isinstance(value, float):
            lines.append("%-25s %.6f" % (name, value))
        else:
            lines.append("%-25s %s" % (name, value))
    return "\n".join(lines)
