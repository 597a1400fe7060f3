"""Dense integer constraint kernels for the Omega hot core.

The engine spends most of its time in ``Conjunct.normalize`` and the
Fourier-Motzkin elimination loop of ``satisfiable`` -- tiny, repeated
passes over small conjuncts.  The dict-backed :class:`~repro.omega.affine.Affine`
representation pays for that generality with object churn: every
tightening pass allocates fresh Affine/Constraint objects and hashes
tuples of ``(name, coeff)`` pairs.

This module is the substrate those passes run on: each conjunct gets a
per-conjunct variable index (a sorted tuple of names), and each
constraint becomes one flat row of ints

    ``(kind, const, c0, c1, ..., cn)``

with the kind bit packed into slot 0 (``0`` = GEQ ``e >= 0``, ``1`` =
EQ ``e == 0``), the constant in slot 1 and the coefficient of the
``i``-th index variable in slot ``i + 2``.  Rows are plain tuples:
hashable (so dedup is one dict operation on ints), comparable at C
speed, and cheap to combine with integer arithmetic only.

The kernels are *batched*: one pass over a row block replaces a pass
of per-constraint object rebuilding --

* :func:`normalize_rows` -- gcd-reduce + GEQ constant tightening +
  parallel/opposed-pair merging in a single sweep;
* :func:`bounds_split` / :func:`bounds_profiles` -- classify rows into
  lower/upper/rest for a column (or every column at once) without
  materializing bound expressions;
* :func:`fm_combine` -- one Fourier-Motzkin step (real or dark
  shadow) straight on the parent's row block, reusing the untouched
  rows instead of rebuilding dicts at every recursion step.

Invariant relied on throughout: EQ rows are sign-canonical (first
nonzero coefficient positive), exactly like :class:`Constraint`.
"""

from math import gcd
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
                coeffs = tuple(cf // g for cf in coeffs)
                gv //= g
            if const % gv:
                return None
            eq_rows.append((EQ_ROW, const) + coeffs)
        else:
            g = gcd(*coeffs)
            if g > 1:
                # g > 0, so // floors the constant (tightening).
                const //= g
                coeffs = tuple(cf // g for cf in coeffs)
            prev = geq_const.get(coeffs)
            if prev is None or const < prev:
                geq_const[coeffs] = const

    out_geqs: List[Tuple[int, ...]] = []
    new_eqs: List[Tuple[int, ...]] = []
    for coeffs, const in list(geq_const.items()):
        neg = tuple(-cf for cf in coeffs)
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


def combine_scaled(
    expr: Affine, scale: int, addend: Affine, addend_scale: int, drop: str
) -> Affine:
    """``(expr without drop)·scale + addend·addend_scale`` in one merge.

    The dense form of the ``rest * denominator + numerator * a`` step
    in fractional substitution: both coefficient lists are name-sorted,
    so a single merge join produces the (sorted, zero-free) result
    without intermediate Affine allocations.
    """
    a_items = expr.coeffs
    b_items = addend.coeffs
    out: List[Tuple[str, int]] = []
    i = j = 0
    na, nb = len(a_items), len(b_items)
    while i < na and j < nb:
        va, ca = a_items[i]
        vb, cb = b_items[j]
        if va == vb:
            if va != drop:
                cf = ca * scale + cb * addend_scale
                if cf:
                    out.append((va, cf))
            else:
                cf = cb * addend_scale  # drop only expr's own term
                if cf:
                    out.append((va, cf))
            i += 1
            j += 1
        elif va < vb:
            if va != drop:
                cf = ca * scale
                if cf:
                    out.append((va, cf))
            i += 1
        else:
            cf = cb * addend_scale
            if cf:
                out.append((vb, cf))
            j += 1
    while i < na:
        va, ca = a_items[i]
        if va != drop:
            cf = ca * scale
            if cf:
                out.append((va, cf))
        i += 1
    while j < nb:
        vb, cb = b_items[j]
        cf = cb * addend_scale
        if cf:
            out.append((vb, cf))
        j += 1
    return Affine._from_sorted(
        tuple(out), expr.const * scale + addend.const * addend_scale
    )


__all__ = [
    "Block",
    "EQ_ROW",
    "GEQ_ROW",
    "bounds_profiles",
    "bounds_split",
    "combine_scaled",
    "constraint_from_row",
    "fm_combine",
    "normalize_rows",
    "row_from_affine",
    "rows_from_constraints",
]
