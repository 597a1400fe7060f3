"""Canonical request model for the batch counting service.

A :class:`JobRequest` describes one unit of work -- a ``count``,
``sum``, ``simplify``, ``evaluate``, ``member`` or ``count_below``
query plus its options -- and knows how to compute a **content hash**
that is stable across processes and sessions.  The hash is the disk-cache key, so its design rules are:

* **Sound**: two requests share a hash only if they are guaranteed to
  produce the same response.  The hashed payload is a *complete*
  serialization of a canonical form, so distinct canonical forms can
  only collide by SHA-256 collision.
* **Canonical where cheap**: the hash is derived from the parsed AST,
  not the formula text, and is invariant under (a) whitespace and
  other purely lexical variation, (b) the order of the ``over`` list,
  (c) alpha-renaming of the counted and quantifier-bound variables,
  and (d) the order of ``and`` / ``or`` operands.  Free symbolic
  constants keep their names -- they appear in the answer, so renaming
  them *does* change the response.
* **Versioned**: the engine version and a schema version are part of
  the payload, so upgrading the engine invalidates the cache instead
  of serving stale semantics.

The canonicalization itself lives in :mod:`repro.core.canon` (shared
with the counting engine's answer memo): pass one assigns canonical
names (``"\\x02" + index``) to bound variables by iterative signature
refinement, pass two serializes the tree with those names, sorting
``and`` / ``or`` children by their finished serialization.  Free
symbolic constants keep their names in this formula-level key -- they
appear in the answer, so renaming them *does* change the response.
This module re-exports :func:`canonical_formula_key` and keeps the
hash payload layout; the serialized form is byte-identical to what it
was before the extraction, so the schema version is unchanged.

A request parses once.  :meth:`JobRequest.parsed` parses the formula
and summand on first use and keeps them; the first hash builds the
canonical key and names from that parse and keeps them too.  Every
hash (:meth:`~JobRequest.content_hash`, :meth:`~JobRequest.formula_hash`,
:meth:`~JobRequest.automaton_key`) and the execution itself
(:func:`repro.service.executor.execute_request`) share this one memo,
so the serve daemon, the batch front end and a forked worker each
tokenize a request's text at most once.  Decoding
(:meth:`~JobRequest.from_json`) parses nothing, and a worker that only
executes never builds a key it does not need.

The rule that keeps the memo sound: a field that enters a hash is
never reassigned after the first hash.  Only ``budget`` is ever
reassigned (the daemon clamps it per tenant), and it is not hashed.
"""

import hashlib
import json
import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro import __version__ as ENGINE_VERSION
from repro.core.backend import BACKENDS
from repro.core.canon import (
    _BOUND_PREFIX,
    _MASK,
    canonical_formula_key,
    track_order_key,
)
from repro.core.options import Strategy
from repro.core.result import polynomial_to_json
from repro.presburger.ast import Formula
from repro.presburger.parser import ParseError, parse
from repro.qpoly import Polynomial
from repro.qpoly.parse import PolynomialParseError, parse_polynomial

#: Hash-payload schema; bump on any change to the canonical form.
REQUEST_SCHEMA_VERSION = 3

KINDS = ("count", "sum", "simplify", "evaluate", "member", "count_below")


class RequestError(ValueError):
    """A malformed service request (bad kind, missing field, ...)."""


#: The fields a request object may carry on the wire.
_FIELDS = frozenset((
    "id",
    "kind",
    "formula",
    "over",
    "poly",
    "strategy",
    "remove_redundant",
    "simplify",
    "disjoint",
    "at",
    "timeout",
    "budget",
    "backend",
    "bound",
    "lo",
))


# -- the request model ---------------------------------------------------


class JobRequest:
    """One service job: kind, formula, options, evaluation points.

    ``at`` is a list of symbol assignments to evaluate the symbolic
    answer at; the evaluated points ride along in the response (and in
    the content hash, order included -- a request asking for different
    points, or the same points in a different order, is a different
    response because ``points`` mirrors the ``at`` list positionally).
    """

    __slots__ = (
        "id",
        "kind",
        "formula",
        "over",
        "poly",
        "strategy",
        "remove_redundant",
        "simplify",
        "disjoint",
        "at",
        "timeout",
        "budget",
        "backend",
        "bound",
        "lo",
        "_parse_memo",
        "_key_memo",
    )

    def __init__(
        self,
        kind: str,
        formula: str,
        over: Sequence[str] = (),
        poly: Optional[str] = None,
        id: Optional[str] = None,
        strategy: str = "exact",
        remove_redundant: bool = True,
        simplify: bool = False,
        disjoint: bool = False,
        at: Sequence[Mapping[str, int]] = (),
        timeout: Optional[float] = None,
        budget: Optional[int] = None,
        backend: Optional[str] = None,
        bound: Optional[int] = None,
        lo: Optional[int] = None,
    ):
        if kind not in KINDS:
            raise RequestError("unknown job kind %r (want one of %s)" % (kind, "/".join(KINDS)))
        if not isinstance(formula, str) or not formula.strip():
            raise RequestError("job needs a non-empty 'formula' string")
        if not isinstance(over, (list, tuple)):
            raise RequestError(
                "'over' must be a list of variable names, got %r" % (over,)
            )
        for v in over:
            if not isinstance(v, str):
                raise RequestError(
                    "'over' entries must be variable names, got %r" % (v,)
                )
        if kind in ("count", "sum", "evaluate", "member", "count_below") and not over:
            raise RequestError("%s job needs a non-empty 'over' list" % kind)
        if poly is not None and not isinstance(poly, str):
            raise RequestError("'poly' must be a string, got %r" % (poly,))
        if kind == "sum" and not poly:
            raise RequestError("sum job needs a 'poly' summand")
        if kind not in ("sum", "evaluate") and poly:
            raise RequestError("'poly' is only valid for sum/evaluate jobs")
        try:
            Strategy(strategy)
        except ValueError:
            raise RequestError(
                "unknown strategy %r (want one of %s)"
                % (strategy, "/".join(s.value for s in Strategy))
            )
        self.id = id
        self.kind = kind
        self.formula = formula
        self.over = tuple(over)
        self.poly = poly
        self.strategy = strategy
        self.remove_redundant = bool(remove_redundant)
        self.simplify = bool(simplify)
        self.disjoint = bool(disjoint)
        if not isinstance(at, (list, tuple)):
            raise RequestError("'at' must be a list of objects, got %r" % (at,))
        cleaned: List[Dict[str, int]] = []
        for env in at:
            if not isinstance(env, Mapping):
                raise RequestError("'at' entries must be objects, got %r" % (env,))
            point = {}
            for sym, value in env.items():
                if isinstance(value, bool) or not isinstance(value, int):
                    raise RequestError(
                        "'at' value for %r must be an integer, got %r"
                        % (sym, value)
                    )
                point[str(sym)] = value
            cleaned.append(point)
        self.at = tuple(cleaned)
        if kind in ("evaluate", "member") and not self.at:
            raise RequestError("%s job needs a non-empty 'at' list" % kind)
        if kind == "count_below":
            if isinstance(bound, bool) or not isinstance(bound, int):
                raise RequestError(
                    "count_below job needs an integer 'bound'"
                )
            if lo is not None and (
                isinstance(lo, bool) or not isinstance(lo, int)
            ):
                raise RequestError("count_below 'lo' must be an integer")
            if self.at:
                raise RequestError("'at' is not valid for count_below jobs")
        elif bound is not None or lo is not None:
            raise RequestError(
                "'bound'/'lo' are only valid for count_below jobs"
            )
        self.bound = bound
        self.lo = lo
        if timeout is not None and (
            isinstance(timeout, bool)
            or not isinstance(timeout, (int, float))
            or not 0 < timeout < math.inf  # also false for NaN
        ):
            raise RequestError(
                "'timeout' must be a finite number of seconds > 0, got %r"
                % (timeout,)
            )
        self.timeout = float(timeout) if timeout is not None else None
        if budget is not None and (
            isinstance(budget, bool) or not isinstance(budget, int) or budget < 1
        ):
            raise RequestError(
                "'budget' must be an integer >= 1, got %r" % (budget,)
            )
        self.budget = budget
        if backend is not None and backend not in BACKENDS:
            raise RequestError(
                "unknown backend %r (want one of %s)"
                % (backend, "/".join(BACKENDS))
            )
        # Deliberately NOT part of canonical_payload(): all backends
        # are exact, so answers are interchangeable and cross-backend
        # cache hits stay valid.
        self.backend = backend
        self._parse_memo: Optional[Tuple[Formula, Optional[Polynomial]]] = None
        self._key_memo: Optional[tuple] = None

    # -- wire format ------------------------------------------------------

    @classmethod
    def from_json(cls, obj: Mapping, default_id: Optional[str] = None) -> "JobRequest":
        if not isinstance(obj, Mapping):
            raise RequestError("request must be a JSON object, got %r" % (obj,))
        unknown = obj.keys() - _FIELDS
        if unknown:
            raise RequestError(
                "unknown request fields: %s" % ", ".join(sorted(unknown))
            )
        over = obj.get("over", ())
        if isinstance(over, str):
            over = [v.strip() for v in over.split(",") if v.strip()]
        return cls(
            kind=obj.get("kind", "count"),
            formula=obj.get("formula", ""),
            over=over,
            poly=obj.get("poly"),
            id=obj.get("id", default_id),
            strategy=obj.get("strategy", "exact"),
            remove_redundant=obj.get("remove_redundant", True),
            simplify=obj.get("simplify", False),
            disjoint=obj.get("disjoint", False),
            at=obj.get("at", ()),
            timeout=obj.get("timeout"),
            budget=obj.get("budget"),
            backend=obj.get("backend"),
            bound=obj.get("bound"),
            lo=obj.get("lo"),
        )

    def to_json(self) -> dict:
        out = {
            "kind": self.kind,
            "formula": self.formula,
            "strategy": self.strategy,
            "remove_redundant": self.remove_redundant,
            "simplify": self.simplify,
            "disjoint": self.disjoint,
        }
        if self.id is not None:
            out["id"] = self.id
        if self.over:
            out["over"] = list(self.over)
        if self.poly is not None:
            out["poly"] = self.poly
        if self.at:
            out["at"] = [dict(env) for env in self.at]
        if self.timeout is not None:
            out["timeout"] = self.timeout
        if self.budget is not None:
            out["budget"] = self.budget
        if self.backend is not None:
            out["backend"] = self.backend
        if self.bound is not None:
            out["bound"] = self.bound
        if self.lo is not None:
            out["lo"] = self.lo
        return out

    # -- the parse and key memo -------------------------------------------

    def parsed(self) -> Tuple[Formula, Optional[Polynomial]]:
        """The parsed formula and summand, parsed on first use and kept.

        Raises :class:`~repro.presburger.parser.ParseError` /
        :class:`~repro.qpoly.parse.PolynomialParseError` on malformed
        formula or summand text -- callers classify that as a
        ``parse_error`` job failure.
        """
        if self._parse_memo is None:
            formula = parse(self.formula)
            poly = (
                parse_polynomial(self.poly) if self.poly is not None else None
            )
            self._parse_memo = (formula, poly)
        return self._parse_memo

    def _keys(self) -> tuple:
        """(point-free payload, canonical ``at`` entries, automaton key).

        Built from :meth:`parsed` on the first hash and kept; raises
        like :meth:`parsed`.
        """
        if self._key_memo is not None:
            return self._key_memo
        formula, poly = self.parsed()
        key, names = canonical_formula_key(formula, self.over, poly)
        # A summand's role marks may move the canonical names, so only
        # a summand-free request (every member/count_below one) has the
        # names repro.automaton.automaton_key derives.
        automaton = (
            track_order_key(key, names, self.over) if poly is None else None
        )
        payload = {
            "schema": REQUEST_SCHEMA_VERSION,
            "engine": ENGINE_VERSION,
            "kind": self.kind,
            "formula": key,
            "strategy": self.strategy,
            "remove_redundant": self.remove_redundant,
            "simplify": self.simplify,
        }
        if self.kind == "simplify":
            payload["disjoint"] = self.disjoint
        else:
            # Canonical names for counted variables; one not occurring
            # in the formula still needs a stable name for the summand.
            over_names = []
            for v in sorted(self.over):
                if v not in names:
                    names[v] = "%s%d" % (_BOUND_PREFIX, len(names))
            for v in self.over:
                over_names.append(names[v])
            payload["over"] = sorted(over_names)
        if poly is not None:
            renaming = {v: names[v] for v in poly.variables() if v in names}
            payload["poly"] = polynomial_to_json(poly.rename(renaming))
        if self.kind == "count_below":
            payload["bound"] = self.bound
            payload["lo"] = self.lo if self.lo is not None else 0
        # Order is part of the identity: the cached response's 'points'
        # list preserves the order of the request that computed it, so
        # a reordered 'at' must miss, not hit with points misordered
        # relative to its own list.  Keys naming bound/counted
        # variables (member points) go through their canonical names so
        # alpha-renamed requests share a hash; free-symbol keys keep
        # their names like everywhere else.
        at = [
            json.dumps(
                {names.get(k, k): v for k, v in env.items()}, sort_keys=True
            )
            for env in self.at
        ]
        self._key_memo = (payload, at, automaton)
        return self._key_memo

    # -- content identity -------------------------------------------------

    def canonical_payload(self) -> str:
        """The exact string that is hashed (exposed for tests/debugging).

        Raises like :meth:`parsed` on malformed formula or summand text.
        """
        payload, at, _ = self._keys()
        if at:
            payload = dict(payload, at=at)
        return _dumps(payload)

    def content_hash(self) -> str:
        """SHA-256 hex digest of the canonical payload (the cache key)."""
        return _sha256(self.canonical_payload())

    def formula_hash(self) -> str:
        """Content hash with the 'at' points removed.

        The compiled-evaluator cache key: the artifact depends only on
        the symbolic answer, so evaluate jobs that differ solely in
        their points must share one compilation.
        """
        return _sha256(_dumps(self._keys()[0]))

    def automaton_key(self) -> Optional[str]:
        """The resident-automaton key of the formula and ``over``.

        Equal to :func:`repro.automaton.automaton_key` of the parsed
        formula, without parsing or canonicalizing again; ``None`` for a
        request with a summand, which never queries an automaton.
        """
        return self._keys()[2]


def _dumps(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


__all__ = [
    "ENGINE_VERSION",
    "JobRequest",
    "KINDS",
    "ParseError",
    "PolynomialParseError",
    "REQUEST_SCHEMA_VERSION",
    "RequestError",
    "canonical_formula_key",
]
