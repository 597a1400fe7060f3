"""Backend adapters: the automaton engine behind the router.

``automaton_count_value`` / ``automaton_sum`` / ``automaton_count``
mirror the :mod:`repro.genfunc` entry points so the router in
:mod:`repro.core.general` can treat the two accelerated backends
uniformly: anything outside the fragment raises
:class:`UnsupportedFormula` (strategy not exact, free symbolic
constants, non-constant summand, state-budget blowups) and the router
falls back to the recursion; a genuinely infinite set raises
:class:`~repro.core.convex.UnboundedSumError` exactly like the other
two backends.

``automaton_for`` is the build entry every query path shares: it
consults the resident LRU (:mod:`repro.automaton.cache`) under the
point-free canonical key, so counting, membership streams and
threshold queries against one formula all amortize a single build.
"""

from typing import Optional, Sequence

from repro.automaton.build import UnsupportedFormula, build_automaton
from repro.automaton.cache import cache_get, cache_peek, cache_put
from repro.automaton.query import count_exact
from repro.core import stats
from repro.core.options import DEFAULT_OPTIONS, SumOptions
from repro.core.result import SymbolicSum, Term
from repro.omega.problem import Conjunct
from repro.presburger.ast import Formula
from repro.qpoly import Polynomial


def _parsed(formula):
    if isinstance(formula, str):
        from repro.presburger.parser import parse

        return parse(formula)
    return formula


def automaton_key(formula, over: Sequence[str]) -> Optional[str]:
    """Point-free alpha-invariant cache key, or ``None`` if unkeyable.

    Canonical formula key plus the canonical names of ``over`` in
    *query order* (:func:`repro.core.canon.track_order_key`).
    """
    from repro.core.canon import canonical_formula_key, track_order_key

    formula = _parsed(formula)
    if not isinstance(formula, Formula):
        return None
    key, names = canonical_formula_key(formula, over, None)
    return track_order_key(key, names, over)


def automaton_for(formula, over: Sequence[str],
                  options: SumOptions = DEFAULT_OPTIONS,
                  cache: bool = True,
                  key: Optional[str] = None):
    """Build (or fetch resident) the automaton for a formula.

    ``key`` is the formula's :func:`automaton_key` when the caller
    already has it (a service request keeps one); otherwise it is
    derived here.  Raises :class:`UnsupportedFormula` outside the
    fragment.
    """
    if not options.strategy.is_exact:
        raise UnsupportedFormula(
            "strategy %r needs the recursion's bound machinery"
            % options.strategy.value
        )
    formula = _parsed(formula)
    if not cache:
        key = None
    elif key is None:
        key = automaton_key(formula, over)
    if key is not None:
        aut = cache_get(key)
        if aut is not None:
            if stats.ENABLED:
                stats.bump("automaton_cache_hits")
            return aut
        # Second chance: the persistent store (REPRO_AUTOMATON_DB).
        # A daemon restart keeps its working set -- deserializing a
        # minimized DFA is far cheaper than product + projection +
        # minimization, and the hit re-residents it for next time.
        from repro.automaton.store import store_get

        aut = store_get(key)
        if aut is not None:
            cache_put(key, aut)
            return aut
    aut = build_automaton(formula, over)
    if stats.ENABLED:
        stats.bump("automaton_builds")
        stats.bump("automaton_states", aut.n_states)
    if key is not None:
        cache_put(key, aut)
        from repro.automaton.store import store_put

        store_put(key, aut)
    return aut


def has_resident_automaton(key: str) -> bool:
    """Is the automaton under ``key`` already built and available cheaply?

    ``key`` is the formula's :func:`automaton_key`.  The serve
    daemon's fast path: when true, ``member`` / ``count_below``
    requests can be answered on a worker thread without admission
    control or a fork.  "Available" covers the in-process resident LRU
    and the persistent automaton store (:mod:`repro.automaton.store`)
    -- a disk-resident DFA costs one sqlite read + deserialization,
    still orders of magnitude below a rebuild, and the load
    re-residents it.
    """
    if cache_peek(key):
        return True
    from repro.automaton.store import store_contains

    return store_contains(key)


def automaton_count_value(
    formula, over: Sequence[str], options: SumOptions = DEFAULT_OPTIONS
) -> int:
    """Exact integer count of a (symbol-free) formula's solutions.

    Raises :class:`UnsupportedFormula` outside the fragment and
    :class:`~repro.core.convex.UnboundedSumError` on infinite sets.
    """
    return count_exact(automaton_for(formula, over, options))


def automaton_sum(
    formula,
    over: Sequence[str],
    z: Polynomial,
    options: SumOptions = DEFAULT_OPTIONS,
) -> SymbolicSum:
    """The automaton backend's answer to ``sum_poly``.

    Only constant summands are supported (``sum z = z * count``); the
    result is a constant :class:`SymbolicSum` with the same shape the
    genfunc backend produces, so the three backends are
    interchangeable inside the shared fragment.
    """
    if z.variables():
        raise UnsupportedFormula("non-constant summand")
    total = automaton_count_value(formula, over, options)
    value = Polynomial.constant(z.constant_value() * total)
    return SymbolicSum([Term(Conjunct.true(), value)], "exact")


def automaton_count(
    formula, over: Sequence[str], options: SumOptions = DEFAULT_OPTIONS
) -> SymbolicSum:
    """The automaton backend's answer to ``count`` (a constant sum)."""
    return automaton_sum(formula, over, Polynomial.one, options)
