"""Variable elimination: shadows and splintering (Omega test core).

Eliminating an existentially quantified integer variable from a
conjunct of inequalities ("shadow-casting / projection", Section 2.1).

* The **real shadow** combines every lower bound β <= b·z with every
  upper bound a·z <= α into a·β <= b·α: the exact projection over the
  rationals, an over-approximation over the integers.
* The **dark shadow** uses a·β + (a-1)(b-1) <= b·α: any integer point
  of the dark shadow has an integer z above it (an under-approximation).
* When some pair has (a-1)(b-1) > 0 the exact projection is the dark
  shadow plus **splinters**: copies of the problem with an added
  equality ``b·z == β + i``, which eliminate z exactly via the equality
  machinery (Section 5.2, Figure 1).

``eliminate_exact`` returns possibly-overlapping pieces (the paper's
standard algorithm); ``eliminate_exact_disjoint`` returns disjoint
pieces (Figure 1's variant), which is what counting needs.
"""

from typing import List, Optional, Tuple

from repro.core import stats
from repro.intarith import floor_div
from repro.omega import kernels
from repro.omega.affine import Affine
from repro.omega.constraints import Constraint
from repro.omega.problem import Conjunct
from repro.omega.equalities import eliminate_var_from_equality


class SplinterError(RuntimeError):
    """Raised when exact disjoint elimination exceeds its work budget."""


def _shadow(conj: Conjunct, var: str, dark: bool) -> Optional[Conjunct]:
    """Shadow projection on the parent conjunct's row block.

    The incremental FM step: rows not mentioning ``var`` are carried
    into the child block unchanged (counted as ``fm_rows_reused``),
    bound pairs are combined with pure integer arithmetic, and the
    child conjunct is built straight from the combined rows.
    """
    if stats.ENABLED:
        stats.bump("fm_eliminations")
    col = conj._positions().get(var)
    if col is None:
        # Variable absent: ∃z trivially solvable, everything is "rest".
        return conj.normalize()
    new_rows, reused, _ = kernels.fm_combine(conj._rows, col, dark)
    if stats.ENABLED and reused:
        stats.bump("fm_rows_reused", reused)
    if not conj.wildcards:
        # The common FM-recursion shape: no wildcards means the stride
        # tail is a no-op, so the child normalizes at row level.
        return Conjunct._normalized_from_rows(conj._index, new_rows)
    return Conjunct._from_rows(
        conj._index, new_rows, conj.wildcards
    ).normalize()


def real_shadow(conj: Conjunct, var: str) -> Optional[Conjunct]:
    """Rational (Fourier) projection; integer over-approximation."""
    return _shadow(conj, var, dark=False)


def dark_shadow(conj: Conjunct, var: str) -> Optional[Conjunct]:
    """Pugh's dark shadow; integer under-approximation."""
    return _shadow(conj, var, dark=True)


def elimination_is_exact(conj: Conjunct, var: str) -> bool:
    """True when the real shadow equals the exact integer projection.

    Sufficient condition from the paper: every (lower, upper) bound
    pair has (a-1)(b-1) == 0, i.e. at least one unit coefficient.
    """
    col = conj._positions().get(var)
    if col is None:
        return True
    lowers, uppers, _ = kernels.bounds_split(conj._rows, col)
    if not lowers or not uppers:
        return True
    if all(row[col] == 1 for row in lowers):
        return True
    return all(row[col] == -1 for row in uppers)


def splinters(conj: Conjunct, var: str) -> List[Conjunct]:
    """The splinter problems that catch solutions outside the dark shadow.

    Per Pugh 1992: with a_max the largest upper-bound coefficient on
    ``var``, any integer solution not covered by the dark shadow
    satisfies, for some lower bound β <= b·var,

        b·var == β + i   for some 0 <= i <= (a_max·b - a_max - b)/a_max.

    Each returned conjunct retains ``var`` but pins it with an equality.
    """
    lowers, uppers, _ = conj.bounds_on(var)
    if not lowers or not uppers:
        return []
    a_max = max(a for a, _ in uppers)
    out: List[Conjunct] = []
    for b, beta in lowers:
        if b == 1:
            continue  # unit lower bounds never splinter
        top = floor_div(a_max * b - a_max - b, a_max)
        for i in range(top + 1):
            eq = Constraint.equal(Affine({var: b}), beta + i)
            out.append(conj.with_constraints([eq]))
    if stats.ENABLED and out:
        stats.bump("splinters_taken", len(out))
    return out


def eliminate_exact(conj: Conjunct, var: str) -> List[Conjunct]:
    """Exact projection of ``var``: dark shadow plus resolved splinters.

    The returned pieces no longer mention ``var`` but may overlap; their
    union is exactly ``∃ var . conj``.  Splinter pieces are resolved by
    the equality machinery, which may add fresh wildcards.
    """
    conj2 = conj.normalize()
    if conj2 is None:
        return []
    conj = conj2
    col = conj._positions().get(var)
    if col is None:
        return [conj]
    if any(row[0] and row[col] for row in conj._rows):
        return _eliminate_via_equality(conj, var)
    if elimination_is_exact(conj, var):
        shadow = real_shadow(conj, var)
        return [shadow] if shadow is not None else []
    pieces: List[Conjunct] = []
    dark = dark_shadow(conj, var)
    if dark is not None:
        pieces.append(dark)
    for sp in splinters(conj, var):
        pieces.extend(_eliminate_via_equality(sp, var))
    return pieces


def _eliminate_via_equality(conj: Conjunct, var: str) -> List[Conjunct]:
    """Eliminate ``var``, which occurs in an equality, as a wildcard."""
    working = conj.with_wildcards([var])
    final = eliminate_var_from_equality(working, _eq_with(working, var), var)
    final = final.normalize()
    return [final] if final is not None else []


def _eq_with(conj: Conjunct, var: str) -> Constraint:
    for c in conj.constraints:
        if c.is_eq() and c.uses(var):
            return c
    raise ValueError("no equality with %s" % var)


def eliminate_exact_disjoint(
    conj: Conjunct, var: str, budget: int = 2000
) -> List[Conjunct]:
    """Exact projection of ``var`` into *disjoint* pieces (Figure 1).

    Strategy: take the exact (possibly overlapping) pieces, then make
    them disjoint with the Section 5.3 conversion.  Pieces whose
    wildcards cannot be put in stride-only form are themselves
    recursively projected first.
    """
    from repro.presburger.disjoint import disjointify

    pieces = eliminate_exact(conj, var)
    if len(pieces) <= 1:
        return pieces
    return disjointify(pieces, budget=budget)


def project_onto(
    conj: Conjunct, keep: Tuple[str, ...], disjoint: bool = False
) -> List[Conjunct]:
    """Project a conjunct onto the ``keep`` variables.

    Every other free variable is existentially quantified and
    eliminated exactly.  Returns a list of conjuncts (a disjunction);
    with ``disjoint=True`` the pieces are pairwise disjoint.
    """
    keep_set = set(keep)
    pieces = [conj]
    while True:
        target = None
        for piece in pieces:
            for v in piece.free_variables():
                if v not in keep_set:
                    target = v
                    break
            if target:
                break
        if target is None:
            break
        new_pieces: List[Conjunct] = []
        for piece in pieces:
            if piece.uses(target) and target not in piece.wildcards:
                new_pieces.extend(eliminate_exact(piece, target))
            else:
                new_pieces.append(piece)
        pieces = new_pieces
    # Wildcards that ended up free of their conjuncts disappear on
    # normalize; nothing else to do.
    normalized = [p for p in (q.normalize() for q in pieces) if p is not None]
    if disjoint and len(normalized) > 1:
        from repro.presburger.disjoint import disjointify

        return disjointify(normalized)
    return normalized
