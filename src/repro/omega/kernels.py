"""Dense integer constraint kernels: the Omega core's only representation.

The engine spends most of its time in ``Conjunct.normalize`` and the
Fourier-Motzkin elimination loop of ``satisfiable`` -- tiny, repeated
passes over small conjuncts.  Dict-backed :class:`~repro.omega.affine.Affine`
objects would pay for every such pass with object churn, so a
:class:`~repro.omega.problem.Conjunct` holds its constraints as a
*row block* and nothing else: a sorted tuple of the names it uses (the
index), and one flat row of ints per constraint

    ``(kind, const, c0, c1, ..., cn)``

with the kind bit packed into slot 0 (``0`` = GEQ ``e >= 0``, ``1`` =
EQ ``e == 0``), the constant in slot 1 and the coefficient of the
``i``-th index name in slot ``i + 2``.  Rows are plain tuples:
hashable (so dedup is one dict operation on ints), comparable at C
speed, and cheap to combine with integer arithmetic only.
``Constraint``/``Affine`` objects are built from rows only when a
caller reads ``Conjunct.constraints``.

Block invariants, kept by every conjunct:

* EQ rows are sign-canonical: the first nonzero coefficient is
  positive (or the constant, when there is none), exactly like
  :class:`Constraint` (:func:`resign`);
* the index holds exactly the live names: no column is zero in every
  row (:func:`compact`), so two conjuncts with the same constraints
  have the same block.

The kernels are *batched*: one pass over a row block replaces a pass
of per-constraint object rebuilding --

* :func:`normalize_rows` -- gcd-reduce + GEQ constant tightening +
  parallel/opposed-pair merging in a single sweep;
* :func:`bounds_split` / :func:`bounds_profiles` -- classify rows into
  lower/upper/rest for a column (or every column at once) without
  materializing bound expressions;
* :func:`fm_combine` -- one Fourier-Motzkin step (real or dark
  shadow) straight on the parent's row block, reusing the untouched
  rows instead of rebuilding them at every recursion step.
"""

from math import gcd
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.omega.affine import Affine
from repro.omega.constraints import EQ, GEQ, Constraint

#: Row-kind values (slot 0 of every row).
GEQ_ROW = 0
EQ_ROW = 1

#: A row block: (index, name -> column, rows).
Block = Tuple[Tuple[str, ...], Dict[str, int], Tuple[Tuple[int, ...], ...]]


# -- row block construction / materialization ---------------------------


def rows_from_constraints(constraints: Sequence[Constraint]) -> Block:
    """Build the dense row block for a constraint tuple.

    The variable index is the sorted union of the constraints'
    variables, so a row's nonzero entries read off in index order are
    already in :class:`Affine`'s canonical (name-sorted) coefficient
    order.
    """
    names = {v for c in constraints for v, _ in c.expr.coeffs}
    index = tuple(sorted(names))
    pos = {v: i + 2 for i, v in enumerate(index)}
    width = len(index) + 2
    rows: List[Tuple[int, ...]] = []
    for c in constraints:
        row = [0] * width
        if c.kind == EQ:
            row[0] = EQ_ROW
        row[1] = c.expr.const
        for v, cf in c.expr.coeffs:
            row[pos[v]] = cf
        rows.append(tuple(row))
    return index, pos, tuple(rows)


def constraint_from_row(index: Tuple[str, ...], row: Tuple[int, ...]) -> Constraint:
    """Materialize one row back into a :class:`Constraint`.

    Requires the block invariant (EQ rows sign-canonical) so the
    constructor fast path is safe.
    """
    items = tuple(
        [pair for pair in zip(index, row[2:]) if pair[1]]
    )
    expr = Affine._from_sorted(items, row[1])
    return Constraint._make(expr, EQ if row[0] else GEQ)


def row_from_affine(
    pos: Dict[str, int], width: int, expr: Affine, kind: int
) -> Tuple[int, ...]:
    """One row for an affine expression over an existing index."""
    row = [0] * width
    row[0] = kind
    row[1] = expr.const
    for v, cf in expr.coeffs:
        row[pos[v]] = cf
    return tuple(row)


def resign(row: Tuple[int, ...]) -> Tuple[int, ...]:
    """An EQ row in sign-canonical form (GEQ rows are returned as is).

    The first nonzero coefficient must be positive, or the constant
    when the row has no coefficient -- :class:`Constraint`'s rule, so
    a row and the constraint it materializes agree on the sign.
    """
    if not row[0]:
        return row
    for cf in row[2:]:
        if cf:
            if cf > 0:
                return row
            break
    else:
        if row[1] >= 0:
            return row
    return (row[0],) + tuple([-x for x in row[1:]])


def compact(
    index: Tuple[str, ...], rows: Sequence[Tuple[int, ...]]
) -> Tuple[Tuple[str, ...], Tuple[Tuple[int, ...], ...]]:
    """Drop the index columns that are zero in every row.

    Returns ``(index, rows)`` unchanged (as the same objects) when
    every column is live.
    """
    if not index:
        return index, rows
    if not rows:
        return (), rows
    columns = zip(*rows)
    next(columns)  # kinds
    next(columns)  # constants
    flags = list(map(any, columns))
    if all(flags):
        return index, rows
    live = [j for j, flag in enumerate(flags, 2) if flag]
    pick = itemgetter(0, 1, *live)
    return tuple([index[j - 2] for j in live]), tuple(map(pick, rows))


def reindex(
    index: Tuple[str, ...],
    rows: Sequence[Tuple[int, ...]],
    wider: Tuple[str, ...],
) -> Sequence[Tuple[int, ...]]:
    """Rows over ``index`` re-laid over ``wider``, a sorted superset.

    Columns of names new to the block are zero.  Both indexes are
    sorted, so a row's nonzero entries keep their relative order and
    sign-canonical EQ rows stay canonical.
    """
    if wider == index:
        return rows
    old = {v: j for j, v in enumerate(index, 2)}
    zero = len(index) + 2
    pick = itemgetter(0, 1, *[old.get(v, zero) for v in wider])
    return [pick(row + (0,)) for row in rows]


def union_index(a: Tuple[str, ...], b: Tuple[str, ...]) -> Tuple[str, ...]:
    """The sorted union of two sorted indexes."""
    if a == b or not b:
        return a
    if not a:
        return b
    merged = set(a).union(b)
    if len(merged) == len(a):
        return a
    if len(merged) == len(b):
        return b
    return tuple(sorted(merged))


# -- batched kernels ----------------------------------------------------


def normalize_rows(
    rows: Sequence[Tuple[int, ...]],
) -> Optional[Tuple[List[Tuple[int, ...]], List[Tuple[int, ...]]]]:
    """One dense canonicalization pass over a row block.

    The first phase of ``Conjunct._normalize_once``:

    * constant rows are dropped (or kill the conjunct);
    * EQ rows are divided by the gcd of all entries; when the
      coefficient gcd does not divide the constant the conjunct is
      infeasible;
    * GEQ rows are tightened (coefficients divided by their gcd, the
      constant floor-divided) and parallel rows merged keeping the
      tightest constant, in first-occurrence order;
    * opposed parallel GEQ pairs become a single EQ row (emitted once,
      on the representative whose leading coefficient is positive) or
      kill the conjunct when their interval is empty.

    Returns ``None`` when infeasible, else ``(eq_rows, geq_rows)``.
    """
    eq_rows: List[Tuple[int, ...]] = []
    geq_const: Dict[Tuple[int, ...], int] = {}
    for row in rows:
        coeffs = row[2:]
        const = row[1]
        if not any(coeffs):
            if row[0]:
                if const != 0:
                    return None
            elif const < 0:
                return None
            continue  # trivially true
        if row[0]:
            gv = gcd(*coeffs)
            g = gcd(gv, const)
            if g > 1:
                const //= g
                coeffs = tuple([cf // g for cf in coeffs])
                gv //= g
            if const % gv:
                return None
            eq_rows.append((EQ_ROW, const) + coeffs)
        else:
            g = gcd(*coeffs)
            if g > 1:
                # g > 0, so // floors the constant (tightening).
                const //= g
                coeffs = tuple([cf // g for cf in coeffs])
            prev = geq_const.get(coeffs)
            if prev is None or const < prev:
                geq_const[coeffs] = const

    out_geqs: List[Tuple[int, ...]] = []
    new_eqs: List[Tuple[int, ...]] = []
    for coeffs, const in list(geq_const.items()):
        neg = tuple([-cf for cf in coeffs])
        opp = geq_const.get(neg)
        if opp is None:
            out_geqs.append((GEQ_ROW, const) + coeffs)
            continue
        # coeffs·x + const >= 0 and -coeffs·x + opp >= 0:
        # the interval -const <= coeffs·x <= opp.
        if opp < -const:
            return None
        if opp == -const:
            lead = next(cf for cf in coeffs if cf)
            if lead > 0:  # emit the pinned equality only once
                new_eqs.append((EQ_ROW, const) + coeffs)
        else:
            out_geqs.append((GEQ_ROW, const) + coeffs)
    eq_rows.extend(new_eqs)
    return eq_rows, out_geqs


def bounds_split(
    rows: Sequence[Tuple[int, ...]], col: int
) -> Tuple[
    List[Tuple[int, ...]], List[Tuple[int, ...]], List[Tuple[int, ...]]
]:
    """Classify rows by their coefficient in column ``col``.

    ``col`` is an index column (``pos[var]``).  Returns ``(lowers,
    uppers, rest)``: rows whose coefficient on the column is positive
    (lower bounds on the variable), negative (upper bounds), or zero.
    EQ rows touching the column are a caller error, exactly as in
    :meth:`Conjunct.bounds_on`.
    """
    lowers: List[Tuple[int, ...]] = []
    uppers: List[Tuple[int, ...]] = []
    rest: List[Tuple[int, ...]] = []
    for row in rows:
        k = row[col]
        if k == 0:
            rest.append(row)
        elif row[0]:
            raise ValueError(
                "bounds_split(col %d): equality row not eliminated" % col
            )
        elif k > 0:
            lowers.append(row)
        else:
            uppers.append(row)
    return lowers, uppers, rest


def bound_from_row(
    index: Tuple[str, ...], row: Tuple[int, ...], col: int
) -> Tuple[int, Affine]:
    """A row that bounds column ``col``, as ``(k, e)`` with k > 0.

    A positive coefficient reads as the lower bound ``e <= k·var``, a
    negative one as the upper bound ``k·var <= e``; ``e`` is the rest
    of the row, negated for a lower bound.
    """
    k = row[col]
    sign = -1 if k > 0 else 1
    items = tuple(
        [
            (index[j - 2], sign * row[j])
            for j in range(2, len(row))
            if row[j] and j != col
        ]
    )
    return abs(k), Affine._from_sorted(items, sign * row[1])


def bounds_profiles(
    rows: Sequence[Tuple[int, ...]], width: int
) -> List[Tuple[int, int, bool, bool]]:
    """Per-column bound profile in a single sweep over the block.

    For every index column returns ``(n_lowers, n_uppers,
    all_unit_lowers, all_unit_uppers)`` -- exactly the facts the
    satisfiability loop's variable-selection scan derives from one
    ``bounds_on`` call per variable, without materializing a single
    bound expression.  EQ rows are ignored (the caller eliminates
    equalities before scanning inequality bounds).
    """
    n_lo = [0] * width
    n_up = [0] * width
    unit_lo = [True] * width
    unit_up = [True] * width
    for row in rows:
        if row[0]:
            continue
        for col, k in enumerate(row[2:], 2):
            if k == 0:
                continue
            if k > 0:
                n_lo[col] += 1
                if k != 1:
                    unit_lo[col] = False
            else:
                n_up[col] += 1
                if k != -1:
                    unit_up[col] = False
    return [
        (n_lo[c], n_up[c], unit_lo[c], unit_up[c]) for c in range(width)
    ]


def fm_combine(
    rows: Sequence[Tuple[int, ...]], col: int, dark: bool
) -> Tuple[Tuple[Tuple[int, ...], ...], int, bool]:
    """One incremental Fourier-Motzkin step on a row block.

    Combines every lower bound ``L`` (coefficient ``b > 0`` on the
    column) with every upper bound ``U`` (coefficient ``-a``) into the
    row ``b·U + a·L`` -- the dense form of ``b·α - a·β >= 0``; the
    column's entry cancels to zero by construction.  ``dark`` subtracts
    ``(a-1)(b-1)`` from the combined constant (Pugh's dark shadow).

    Rows not mentioning the column are *reused*, not recomputed: they
    are carried into the result block unchanged.  Returns ``(new_rows,
    reused, one_sided)`` where ``reused`` counts the carried rows and
    ``one_sided`` reports that the variable was unbounded on one side
    (the result is then just the carried rows).
    """
    lowers, uppers, rest = bounds_split(rows, col)
    if not lowers or not uppers:
        return tuple(rest), len(rest), True
    out: List[Tuple[int, ...]] = list(rest)
    if dark:
        for low in lowers:
            b = low[col]
            for up in uppers:
                a = -up[col]
                row = [b * u + a * l for u, l in zip(up, low)]
                row[1] -= (a - 1) * (b - 1)
                out.append(tuple(row))
    else:
        for low in lowers:
            b = low[col]
            for up in uppers:
                a = -up[col]
                out.append(tuple([b * u + a * l for u, l in zip(up, low)]))
    return tuple(out), len(rest), False


__all__ = [
    "Block",
    "EQ_ROW",
    "GEQ_ROW",
    "bounds_profiles",
    "bound_from_row",
    "bounds_split",
    "compact",
    "constraint_from_row",
    "fm_combine",
    "normalize_rows",
    "reindex",
    "resign",
    "row_from_affine",
    "rows_from_constraints",
    "union_index",
]
