"""The answer memo: a hash-consed conjunct -> SymbolicSum cache.

The memo caches the full answer ``(terms, exactness)`` of a node of
the counting recursion (:func:`repro.core.convex._sum`, its one
client), keyed by an alpha-invariant canonical form of ``(conjunct,
bound vars, mode, polynomial)`` built by
:func:`repro.core.canon.canonical_conjunct_key`, through one
:func:`lookup` / :func:`remember` pair.

Where the hits are.  Structurally identical subproblems recur less
than the recursion's shape suggests.  In one ``nest-analysis`` round
of the repository benchmark (seed 111, five queries per loop nest),
361 lookups give 27 hits, every one a root that a later query of the
same nest asks again: 27 of 65 roots, 0 of 296 inner nodes.  Counting
each of the 4,000 ``perfbench/cold_cases.json`` cases from an empty
memo, 10,241 inner lookups hit 75 times in 17 cases and 4,341 roots
never hit.  Keying every node by signature refinement cost about a
third of a nest round, so lookups are gated:

* **Fingerprint gate.**  A lookup first computes
  :func:`repro.core.canon.conjunct_fingerprint` (mode, variable and
  wildcard counts, masked constraint shapes, summand coefficients).
  Equal keys give equal fingerprints, so a fingerprint never seen
  before cannot match a stored key: the lookup counts a miss, and the
  computed answer is kept *raw* under the fingerprint (the node's and
  the answer's row blocks and a private copy of the summands -- no
  key, no renaming, no constraint view).
  The next lookup with that fingerprint first keys its pending raw
  nodes into the table, then takes the keyed path itself (key, fetch,
  store).  Below the capacity, hits and misses are exactly those of
  keying every node; only nodes whose shape recurs pay for a key.
* **Rename on hit.**  Keys rename bound variables into the ``"\\x02"``
  namespace and free symbols into ``"\\x03"``; entries store the
  answer in that canonical vocabulary.  A hit translates it back
  through the caller's own names (the recorded free-symbol
  permutation), so structurally identical nodes share one entry no
  matter what their variables are called.  Wildcards *minted during*
  the cached computation keep their original fresh names; if one
  collides with a caller name it is renamed to a fresh wildcard first
  (capture guard) -- the deterministic wildcard relabeling in
  :mod:`repro.core.general` erases the resulting name drift from the
  final answer.
* **Soundness.**  The key is a complete serialization, so equal keys
  imply an isomorphism of nodes; renaming a correct answer through an
  isomorphism yields a correct answer.  Every option that can change
  an answer (strategy, redundancy removal, the residue-split cap, the
  disjointification budget) is folded into the key's mode string, and
  failures (unbounded sums, budget exhaustion) are never cached.
* **Fresh results.**  Hits return freshly built terms -- new guard
  conjuncts, new value polynomials -- so callers mutating a returned
  answer (``Polynomial.terms`` is an exposed dict) cannot poison the
  cache.
* **Bounded + instrumented.**  One :class:`~repro.core.stats.BoundedLRU`
  named ``answer_memo`` holds keyed answers and fingerprint records
  (each with its pending raw nodes), at most
  :func:`set_answer_memo` items in all (``REPRO_ANSWER_MEMO`` presets
  it; ``0`` or ``off`` disables).  ``answer_memo_hits / misses /
  evictions / renames`` count every lookup and eviction, and
  ``stats.engine_snapshot()`` reports the occupancy.
* **Persistent roots.**  With ``REPRO_ANSWER_DB=path`` set, the memo
  persists the *root* node of every ``sum_over_conjunct`` call to an
  ``answers`` table managed by the service's sqlite LRU layer
  (:class:`repro.service.diskcache.DiskCache`), and probes it on a
  root miss: a warm service run answers whole clauses from disk and
  skips the recursion entirely.  Such roots always take the keyed
  path.  Per-node persistence would drown in sqlite transactions, and
  a root hit subsumes its subtree anyway.
"""

import hashlib
import os
from typing import Dict, Optional, Sequence, Tuple

from repro.core import stats
from repro.core.canon import (
    FREE_PREFIX,
    canonical_conjunct_key,
    conjunct_fingerprint,
)
from repro.core.result import Term
from repro.omega.constraints import fresh_var
from repro.omega.problem import Conjunct
from repro.qpoly import Polynomial

#: Default in-memory capacity (items: keyed answers and fingerprint
#: records together).
DEFAULT_CAPACITY = stats.CACHE_LIMITS["answer_memo"]

#: Bump when the persisted payload layout changes.
ANSWER_DB_SCHEMA = 1


def _env_capacity() -> int:
    raw = os.environ.get("REPRO_ANSWER_MEMO")
    if raw is None:
        return DEFAULT_CAPACITY
    raw = raw.strip().lower()
    if raw in ("", "0", "off", "false", "no"):
        return 0
    try:
        return max(0, int(raw))
    except ValueError:
        return DEFAULT_CAPACITY


#: The one LRU, holding items of two kinds:
#:
#: * canonical key (str) -> (answer terms in canonical names, flags
#:   ``(inexact_upper, inexact_lower)``, free-symbol signature used to
#:   count cross-vocabulary hits);
#: * fingerprint (tuple) -> list of raw nodes not keyed yet (empty
#:   once the fingerprint has recurred).
#:
#: The daemon's cold thread pool can reach the memo too; the LRU's
#: lock makes each access atomic, and between accesses an item may
#: vanish, which every access tolerates.
_MEMO = stats.BoundedLRU(_env_capacity(), "answer_memo")

_DISK = None
_DISK_PATH: Optional[str] = None


# -- switches ------------------------------------------------------------


def set_answer_memo(capacity) -> int:
    """Set the memo capacity; returns the previous one.

    ``0`` (or ``False``) disables memoization and drops every entry;
    ``True`` restores :data:`DEFAULT_CAPACITY`.  A smaller capacity
    evicts least-recently-used items.  Mirrors
    ``repro.evalc.set_compile_enabled`` so tests can A/B the memo.
    """
    if capacity is True:
        capacity = DEFAULT_CAPACITY
    elif capacity is False:
        capacity = 0
    capacity = int(capacity)
    if capacity == 0:
        _MEMO.clear()
    return _MEMO.resize(capacity)


def answer_memo_enabled() -> bool:
    return _MEMO.limit > 0


def clear_answer_memo() -> None:
    """Drop every in-memory item (the persistent store is untouched)."""
    _MEMO.clear()


def answer_memo_info() -> Dict[str, int]:
    """Occupancy for ``stats.engine_snapshot()``."""
    return {"size": len(_MEMO), "limit": _MEMO.limit}


def _free_signature(back: Dict[str, str]) -> Tuple[Tuple[str, str], ...]:
    return tuple(
        sorted(
            (canon, orig)
            for canon, orig in back.items()
            if canon.startswith(FREE_PREFIX)
        )
    )


# -- renaming ------------------------------------------------------------


def _rename_poly(value: Polynomial, mapping: Dict[str, str]) -> Polynomial:
    used = {v: mapping[v] for v in value.variables() if v in mapping}
    if used:
        return value.rename(used)
    # Fresh copy even without renames: Polynomial.terms is an exposed
    # mutable dict, and cache entries must never alias caller objects.
    return Polynomial(dict(value.terms))


def _rename(payload: Sequence[Term], mapping: Dict[str, str]) -> list:
    return [
        Term(t.guard.rename(mapping), _rename_poly(t.value, mapping))
        for t in payload
    ]


def _rename_back(payload: Sequence[Term], back: Dict[str, str]) -> list:
    """Translate a stored canonical payload into the caller's vocabulary.

    Capture guard: a wildcard minted during the cached computation
    keeps its stored fresh name; if that name collides with one of the
    caller's names it is renamed to a new fresh wildcard first, so the
    rename-back cannot conflate two distinct variables.
    """
    targets = set(back.values())
    mapping = dict(back)
    for t in payload:
        for w in sorted(t.guard.wildcards):
            if w not in mapping and w in targets:
                mapping[w] = fresh_var("r")
    return _rename(payload, mapping)


def _block(conj: Conjunct) -> tuple:
    """A conjunct's row block: ``(index, rows, wildcards)``.

    Pending nodes keep blocks rather than the Conjuncts themselves,
    which would pin their normalize chains and constraint views.
    """
    return conj._index, conj._rows, conj.wildcards


def _raw_copy(payload: Sequence[Term]) -> tuple:
    """A lean private copy of a computed payload for a pending node.

    Row blocks, and a copied coefficient dict because
    ``Polynomial.terms`` is exposed to callers.
    """
    return tuple(
        (_block(t.guard), dict(t.value.terms)) for t in payload
    )


def _from_raw(raw: tuple) -> list:
    return [
        Term(Conjunct._make(*block), Polynomial._make(dict(terms)))
        for block, terms in raw
    ]


# -- the persistent root layer -------------------------------------------


def _disk_store():
    """The ``answers``-table cache named by REPRO_ANSWER_DB, or None.

    Opened lazily and re-checked per call so tests (and forked
    workers) can point the environment at a fresh path; an unusable
    path degrades to no persistence instead of failing the count.
    """
    global _DISK, _DISK_PATH
    path = os.environ.get("REPRO_ANSWER_DB") or None
    if path != _DISK_PATH:
        if _DISK is not None:
            try:
                _DISK.close()
            except Exception:
                pass
        _DISK = None
        _DISK_PATH = path
        if path:
            from repro.service.diskcache import DiskCache

            try:
                _DISK = DiskCache(path, table="answers")
            except Exception:
                _DISK = None
    return _DISK


def _disk_key(key: str) -> str:
    from repro import __version__ as engine_version

    payload = "%d|%s|%s" % (ANSWER_DB_SCHEMA, engine_version, key)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _disk_fetch(key: str):
    disk = _disk_store()
    if disk is None:
        return None
    try:
        payload = disk.get(_disk_key(key))
    except Exception:
        return None
    if payload is None:
        return None
    try:
        terms = tuple(Term.from_json(t) for t in payload["terms"])
        flags = (bool(payload["upper"]), bool(payload["lower"]))
    except Exception:
        return None  # corrupt row: DiskCache.get heals keys, not shapes
    return terms, flags


def _disk_persist(key: str, canonical_terms: Sequence[Term], flags) -> None:
    disk = _disk_store()
    if disk is None:
        return
    payload = {
        "terms": [t.to_json() for t in canonical_terms],
        "upper": flags[0],
        "lower": flags[1],
    }
    try:
        disk.put(_disk_key(key), payload)
    except Exception:
        pass  # persistence is best-effort; never fail the computation


# -- lookup / remember ---------------------------------------------------


def lookup(
    conj: Conjunct,
    cvars: Sequence[str],
    poly: Polynomial,
    mode: str,
    root: bool = False,
):
    """Look one node up; returns ``(found, ticket)``.

    ``found`` is ``(terms, flags)`` renamed into the caller's names, or
    None on a miss.  After a miss the caller computes the node and
    passes ``ticket`` to :func:`remember`.  ``mode`` folds in every
    option that can change the answer; ``root`` marks the root of a
    ``sum_over_conjunct`` call, the only node that probes and persists
    to the ``REPRO_ANSWER_DB`` store.
    """
    fp = conjunct_fingerprint(conj, cvars, poly, mode)
    persist = root and _disk_store() is not None
    pending = _MEMO.peek(fp)
    if pending is None and not persist:
        # First sighting: no stored key can match.
        if stats.ENABLED:
            stats.bump("answer_memo_misses")
        # Snapshot the summand's terms: Polynomial.terms is exposed,
        # and a caller mutating its summand later must not change
        # the node this answer is keyed under.
        node = (_block(conj), tuple(cvars), tuple(poly.terms.items()), mode)
        return None, (fp, node, None)
    _MEMO.put(fp, [])
    for node in pending or ():
        _promote(*node)
    key, names, back = canonical_conjunct_key(conj, cvars, poly, mode)
    found = _fetch(key, back, persist)
    if found is not None:
        return found, None
    return None, (fp, None, (key, names, persist))


def remember(ticket, payload: Sequence[Term], flags) -> None:
    """File the answer terms computed after a missed :func:`lookup`.

    ``flags`` is the node's ``(inexact_upper, inexact_lower)`` pair.
    """
    if not _MEMO.limit:
        return
    fp, node, keyed = ticket
    if keyed is not None:
        key, names, persist = keyed
        _store(key, names, payload, flags, persist)
        return
    raw = node + (_raw_copy(payload), flags)
    pending = _MEMO.peek(fp)
    if pending is not None:
        # The shape recurred while this node was computed; the next
        # sighting keys this node too.
        pending.append(raw)
    else:
        _MEMO.put(fp, [raw])


def _promote(block, cvars, terms, mode, raw, flags) -> None:
    """Key a pending raw node and store it as :func:`remember` would."""
    key, names, _ = canonical_conjunct_key(
        Conjunct._make(*block), cvars, Polynomial._make(dict(terms)), mode
    )
    _store(key, names, _from_raw(raw), flags, False)


def _fetch(key: str, back: Dict[str, str], probe_disk: bool):
    """The stored payload renamed into the caller's names, or None.

    ``probe_disk`` extends a memory miss to the persistent root layer.
    """
    entry = _MEMO.get(key)
    if entry is None and probe_disk:
        found = _disk_fetch(key)
        if found is not None:
            entry = found + (_free_signature(back),)
            _MEMO.put(key, entry)
    if entry is None:
        if stats.ENABLED:
            stats.bump("answer_memo_misses")
        return None
    payload, flags, stored_sig = entry
    if stats.ENABLED:
        stats.bump("answer_memo_hits")
        if stored_sig != _free_signature(back):
            stats.bump("answer_memo_renames")
    return _rename_back(payload, back), flags


def _store(
    key: str,
    names: Dict[str, str],
    payload: Sequence[Term],
    flags,
    persist: bool,
) -> None:
    """Record computed answer terms under their canonical key."""
    canonical = tuple(_rename(payload, names))
    back_sig = tuple(
        sorted(
            (canon, orig)
            for orig, canon in names.items()
            if canon.startswith(FREE_PREFIX)
        )
    )
    _MEMO.put(key, (canonical, flags, back_sig))
    if persist:
        _disk_persist(key, canonical, flags)


__all__ = [
    "DEFAULT_CAPACITY",
    "answer_memo_enabled",
    "answer_memo_info",
    "clear_answer_memo",
    "lookup",
    "remember",
    "set_answer_memo",
]
