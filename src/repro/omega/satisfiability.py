"""Integer satisfiability of a conjunct (Section 2.2).

The Omega test checks for integer solutions by treating every variable
as existentially quantified and eliminating variables until the problem
is trivial.  Equalities are eliminated first (exact and cheap); for
inequalities we prefer a variable whose elimination is exact, otherwise
we try the dark shadow (sufficient) and fall back to splinters
(complete).
"""

from operator import itemgetter
from typing import Optional

from repro.core import stats
from repro.omega import kernels
from repro.omega.problem import Conjunct
from repro.omega.equalities import mod_hat_eliminate
from repro.omega.eliminate import (
    dark_shadow,
    real_shadow,
    splinters,
)

_MAX_DEPTH = 200

#: Fourier-Motzkin elimination can square the constraint count per
#: step; past this size a single satisfiability call would take
#: minutes, so we fail loudly instead (callers that explore hard
#: search spaces, like the 0-1 stencil encoding, catch this and fall
#: back -- exactly the "prohibitively expensive" regime §2.6 warns
#: about).
_MAX_CONSTRAINTS = 600


class SatBlowupError(RuntimeError):
    """A satisfiability subproblem exceeded the size guard."""

#: Memo for satisfiability results.  Guard evaluation re-solves the
#: same ground conjuncts over and over (every ``SymbolicSum.evaluate``
#: substitutes the same guards), so this cache is a large
#: constant-factor win.  A bounded LRU (dropping the whole cache at
#: once made long evaluations lose their working set at a cliff), keyed
#: by :func:`_cache_key` and shared by the daemon's cold thread pool.
_SAT_CACHE = stats.BoundedLRU(stats.CACHE_LIMITS["sat_cache"], "sat_cache")


def _cache_key(conj: Conjunct) -> tuple:
    """The conjunct's row block with its wildcards relabelled.

    Wildcards get fresh names on every :meth:`Conjunct.merge`, so two
    structurally identical subproblems (the common case in ``implies``
    and guard evaluation) would otherwise never share a cache entry.
    Satisfiability is invariant under renaming of the existentially
    quantified wildcards, so keying on a relabelled block is safe.

    The key is ``(names, rows)``: the block as the conjunct renamed by
    ``wildcard -> "\\x00k"`` would hold it.  Wildcards are numbered in
    order of first occurrence (row by row, each row in name order);
    the columns are ordered by the new names, compared as strings (so
    ``"\\x0010"`` sorts before ``"\\x002"``, and every label before
    every free name); and each EQ row is re-signed so its first
    nonzero coefficient in that order is positive.  ``\\x00`` labels
    cannot collide with user variable names.  A wildcard-free conjunct
    keys on its block as is.  Only tuples, strs and ints.
    """
    index, rows = conj._index, conj._rows
    wilds = conj.wildcards
    if not wilds:
        return (index, rows)
    wild_slots = [j for j, v in enumerate(index, 2) if v in wilds]
    label = {}
    for row in rows:
        for j in wild_slots:
            if row[j] and j not in label:
                label[j] = "\x00%d" % len(label)
        if len(label) == len(wild_slots):
            break
    names = [label.get(j, v) for j, v in enumerate(index, 2)]
    order = sorted(range(len(names)), key=names.__getitem__)
    pick = itemgetter(0, 1, *[j + 2 for j in order])
    return (
        tuple([names[j] for j in order]),
        tuple([kernels.resign(pick(row)) for row in rows]),
    )


def set_sat_cache_limit(limit: int) -> int:
    """Set the LRU capacity; returns the previous limit.

    ``0`` disables caching entirely (used by the differential tests to
    prove memoization never changes results).  Shrinking below the
    current size evicts oldest entries immediately.
    """
    return _SAT_CACHE.resize(limit)


def clear_sat_cache() -> None:
    """Drop every memoized satisfiability result."""
    _SAT_CACHE.clear()


def sat_cache_info() -> dict:
    """Current size and capacity of the satisfiability LRU."""
    return {"size": len(_SAT_CACHE), "limit": _SAT_CACHE.limit}


def satisfiable(conj: Conjunct, depth: int = 0) -> bool:
    """True iff the conjunct has an integer solution.

    All variables (free and wildcard alike) are treated as
    existentially quantified.
    """
    if depth > _MAX_DEPTH:
        raise RecursionError("satisfiability recursion too deep")
    if stats.ENABLED:
        stats.bump("sat_calls")
    key = _cache_key(conj)
    cached = _SAT_CACHE.get(key)
    if cached is not None:
        if stats.ENABLED:
            stats.bump("sat_cache_hits")
        return cached
    if stats.ENABLED:
        stats.bump("sat_cache_misses")
    # Budget units measure *solver* work, so they are charged per cache
    # miss only: a fully-warm run answers every query from the memo and
    # must not burn its service budget doing zero elimination work.
    if stats.BUDGET_LIMIT is not None:
        stats.charge_budget()
    result = _satisfiable_uncached(conj, depth)
    _SAT_CACHE.put(key, result)
    return result


def _satisfiable_uncached(conj: Conjunct, depth: int) -> bool:
    # Normalize *before* the blowup guard: a raw conjunct of hundreds
    # of duplicate or parallel inequalities collapses to a handful of
    # rows in one linear pass, and rejecting it on the raw count would
    # turn a trivially satisfiable problem into a SatBlowupError.
    normalized = conj.normalize()
    if normalized is None:
        return False
    conj = normalized
    rows = conj._rows
    if len(rows) > _MAX_CONSTRAINTS:
        raise SatBlowupError(
            "conjunct grew to %d constraints during elimination"
            % len(rows)
        )
    if not conj._index:
        return True  # normalize() removed everything that was non-trivial

    # Equalities first: exact, never splinters.  The equality with the
    # smallest nonzero |coefficient| goes first (the first such row on
    # ties), solved for its first unit-coefficient name if it has one.
    eq_rows = [row for row in rows if row[0]]
    if eq_rows:
        eq = min(eq_rows, key=lambda row: min(abs(c) for c in row[2:] if c))
        unit = next((j for j in range(2, len(eq)) if eq[j] in (1, -1)), None)
        if unit is not None:
            return satisfiable(conj._solve_unit(eq, unit), depth + 1)
        constraint = kernels.constraint_from_row(conj._index, eq)
        return satisfiable(mod_hat_eliminate(conj, constraint), depth + 1)

    # Pure inequalities: pick the variable with the cheapest elimination.
    # One bounds_profiles sweep covers every variable at once (the
    # dense kernel reads the row block without materializing a single
    # bound); exactness derives from the same facts (every (lower,
    # upper) pair needs a unit coefficient, the sufficient condition
    # in elimination_is_exact).
    best_var, best_cost, best_exact = None, None, False
    profiles = conj.bounds_profiles()
    for var in conj.variables():
        n_lowers, n_uppers, unit_lowers, unit_uppers = profiles[var]
        exact = not n_lowers or not n_uppers or unit_lowers or unit_uppers
        cost = (0 if exact else 1, n_lowers * n_uppers)
        if best_cost is None or cost < best_cost:
            best_var, best_cost, best_exact = var, cost, exact

    if best_exact:
        shadow = real_shadow(conj, best_var)
        return shadow is not None and satisfiable(shadow, depth + 1)

    dark = dark_shadow(conj, best_var)
    if dark is not None and satisfiable(dark, depth + 1):
        return True
    for sp in splinters(conj, best_var):
        if satisfiable(sp, depth + 1):
            return True
    return False


def implies(premise: Conjunct, conclusion: Conjunct) -> bool:
    """premise ⇒ conclusion, both conjuncts over shared free variables.

    Checked constraint by constraint: premise ∧ ¬c must be
    unsatisfiable for each constraint c of the conclusion.  Stride
    constraints (wildcard equalities) are checked through their
    negation as a disjunction of shifted strides.  A conclusion whose
    wildcards are not stride-only is first projected to stride-only
    pieces, which are checked as a disjunction.
    """
    conclusion_n = conclusion.normalize()
    if conclusion_n is None:
        return not satisfiable(premise)
    premise_n = premise.normalize()
    if premise_n is None:
        return True
    from repro.presburger.disjoint import (
        disjoint_negation,
        negate_constraint_in,
        project_to_stride_only,
    )

    if not conclusion_n.stride_only():
        # A wildcard pinned by a plain equality (e.g. ∃w: w = -1 ∧
        # g | x + w) survives normalize when it also feeds a stride;
        # its negation is not expressible constraint-by-constraint.
        # Project the conclusion to stride-only pieces p1 ∨ p2 ∨ ...
        # and check premise ∧ ¬p1 ∧ ¬p2 ∧ ... unsatisfiable instead.
        pieces = project_to_stride_only(conclusion_n)
        if not pieces:
            return not satisfiable(premise_n)
        residue = [premise_n]
        for piece in pieces:
            new_residue = []
            for r in residue:
                for neg in disjoint_negation(piece):
                    merged = r.merge(neg).normalize()
                    if merged is not None and satisfiable(merged):
                        new_residue.append(merged)
            residue = new_residue
            if not residue:
                return True
        return False

    for c in conclusion_n.constraints:
        for piece in negate_constraint_in(conclusion_n, c):
            if satisfiable(premise_n.merge(piece)):
                return False
    return True


def equivalent(a: Conjunct, b: Conjunct) -> bool:
    """Mutual implication of two conjuncts."""
    return implies(a, b) and implies(b, a)


def solve_sample(conj: Conjunct, box: int = 12) -> Optional[dict]:
    """Find one integer solution by bounded search (testing helper).

    Searches free variables in [-box, box]; wildcards are handled by
    the exact satisfiability test.  Returns None when no solution lies
    in the box (the conjunct may still be satisfiable outside it).
    """
    from itertools import product

    from repro.omega.affine import Affine

    free = conj.free_variables()
    for values in product(range(-box, box + 1), repeat=len(free)):
        env = dict(zip(free, values))
        reduced = conj
        for var, val in env.items():
            reduced = reduced.substitute(var, Affine.const_expr(val))
        if satisfiable(reduced):
            return env
    return None
