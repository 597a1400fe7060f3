"""Redundant constraint removal and the gist operator (Section 2.3).

In normal operation the Omega test removes constraints made redundant
by a *single* other constraint (fast, incomplete -- handled by
``Conjunct.normalize``).  On request we use the complete test:
constraint c is redundant in P iff P∖{c} ∧ ¬c has no integer solution.

``gist P given Q`` returns a minimal subset G of P's constraints with
``G ∧ Q  ≡  P ∧ Q`` (what is "interesting" about P when Q is known).
"""

from typing import Iterable, List, Optional

from repro.core import stats
from repro.omega import kernels
from repro.omega.constraints import Constraint
from repro.omega.problem import Conjunct
from repro.omega.satisfiability import satisfiable


def constraint_redundant(
    conj: Conjunct, constraint: Constraint, context: Optional[Conjunct] = None
) -> bool:
    """Is ``constraint`` implied by the rest of ``conj`` (and context)?"""
    if stats.ENABLED:
        stats.bump("redundancy_checks")
    rest = conj.without_constraints((constraint,))
    if context is not None:
        rest = rest.merge(context)
    from repro.presburger.disjoint import negate_constraint_in

    for piece in negate_constraint_in(conj, constraint):
        if satisfiable(rest.merge(piece)):
            return False
    return True


def remove_redundant(
    conj: Conjunct, context: Optional[Conjunct] = None
) -> Conjunct:
    """Drop every GEQ constraint implied by the others (complete test).

    Equalities and strides are kept (they carry the conjunct's
    structure; the elimination machinery consumes them directly).
    An infeasible conjunct canonicalizes to :meth:`Conjunct.false`
    (``-1 >= 0``), matching :func:`gist`.
    """
    normalized = conj.normalize()
    if normalized is None:
        return Conjunct.false()
    conj = normalized
    combined = conj if context is None else conj.merge(context)
    if not satisfiable(combined):
        return Conjunct.false()
    # Try to drop the syntactically largest constraints first so the
    # kept set stays simple.  The candidates are GEQ rows, ordered by
    # their number of variables and constant; each is tested once,
    # against what is left, and built as a Constraint only for that.
    index = conj._index
    order = sorted(
        (row for row in conj._rows if not row[0]),
        key=lambda row: (row[2:].count(0) - len(row), row[1]),
    )
    current = conj
    for row in order:
        c = kernels.constraint_from_row(index, row)
        if constraint_redundant(current, c, context):
            current = current.without_constraints([c])
    return current


def gist(p: Conjunct, q: Conjunct) -> Conjunct:
    """gist P given Q: a subset G of P's constraints with G∧Q ≡ P∧Q.

    None of the returned constraints is implied by Q together with the
    other returned constraints.  If P∧Q is infeasible the result is a
    canonical FALSE conjunct (0 >= 1).
    """
    combined = p.merge(q)
    if not satisfiable(combined):
        return Conjunct.false()
    p_n = p.normalize()
    if p_n is None:
        return Conjunct.false()
    current = p_n
    for c in sorted(
        p_n.constraints,
        key=lambda c: (not c.is_geq(), -len(c.expr.coeffs)),
    ):
        if c not in current.constraints:
            continue
        if c.is_eq() and any(
            v in current.wildcards for v in c.variables()
        ):
            continue  # keep strides intact
        if constraint_redundant(current, c, q):
            current = current.without_constraints([c])
    return current


def keep_nonredundant(
    constraints: Iterable[Constraint], wildcards: Iterable[str] = ()
) -> List[Constraint]:
    """Convenience wrapper returning the surviving constraint list."""
    return list(remove_redundant(Conjunct(constraints, wildcards)).constraints)
