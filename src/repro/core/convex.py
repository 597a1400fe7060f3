"""The summation recursion (Sections 4.4-4.5 of the paper).

``sum_over_conjunct`` computes ``(Σ V : P : z)`` for a single conjunct
P.  The algorithm follows the paper:

1.  eliminate equalities (each elimination is an integer bijection, so
    the count is preserved and the summand is rewritten through it);
2.  project away existential wildcards that interact with the
    summation variables (exact, disjoint);
3.  remove redundant constraints;
4.  pick a summation variable -- preferring variables whose bounds
    need no floors/ceilings and with the fewest bounds;
5.  split on multiple upper/lower bounds (disjoint min/max split);
6.  sum over a single lower/upper bound pair with the closed forms of
    Section 4.1, handling rational bounds per the selected strategy
    (symbolic mod atoms / splintering / approximations, Section 4.2.1);
7.  recurse on the remaining variables.

Strides pinning a summation variable to residue classes are cleared by
residue enumeration (v = M·v' + r), the move the paper makes in
Example 6 ("splinter by considering 3j as even or odd").

The recursion reads a conjunct's rows (:mod:`repro.omega.kernels`):
the kind slot and a variable's column pick the variable, find its
strides and split its bounds, and each child conjunct is built from
rows in the parent's row order.  A ``Constraint`` is materialized only
where one leaves the recursion or an Omega step takes one.
"""

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from repro.omega import kernels
from repro.omega.affine import Affine
from repro.omega.constraints import Constraint, fresh_var
from repro.omega.equalities import (
    eliminate_wildcards_from_equality,
    solve_unit,
    substitute_fractional,
    unimodular_mix,
)
from repro.omega.eliminate import eliminate_exact
from repro.omega.problem import Conjunct
from repro.omega.redundancy import remove_redundant
from repro.core import memo, stats
from repro.core.options import DEFAULT_OPTIONS, Strategy, SumOptions
from repro.core.powersums import sum_over_range
from repro.core.result import Term
from repro.qpoly import ModAtom, Polynomial


class UnboundedSumError(ValueError):
    """The solution set is infinite in some summation variable."""


class _Ctx:
    """Mutable bookkeeping threaded through the recursion."""

    __slots__ = ("opts", "inexact_upper", "inexact_lower")

    def __init__(self, opts: SumOptions):
        self.opts = opts
        self.inexact_upper = False
        self.inexact_lower = False

    @property
    def exactness(self) -> str:
        if self.inexact_upper and self.inexact_lower:
            return "approx"
        if self.inexact_upper:
            return "upper"
        if self.inexact_lower:
            return "lower"
        return "exact"


def sum_over_conjunct(
    conj: Conjunct,
    count_vars: Sequence[str],
    z: Polynomial,
    opts: SumOptions = DEFAULT_OPTIONS,
) -> Tuple[List[Term], str]:
    """(Σ count_vars : conj : z) -> (guarded terms, exactness tag)."""
    ctx = _Ctx(opts)
    terms = _sum(conj, tuple(count_vars), z, ctx, root=True)
    return terms, ctx.exactness


def _memo_mode(opts: SumOptions) -> str:
    """The answer-memo mode of a ``_sum`` node under ``opts``.

    It folds in every option that can change the answer: the strategy,
    redundancy removal, and the residue-split cap (a larger cap can
    answer where a smaller one raises ``UnboundedSumError``, so they
    must not share entries).
    """
    return "sum:%s:%d:%d" % (
        opts.strategy.value,
        1 if opts.remove_redundant else 0,
        opts.max_residue_split,
    )


def _sum(
    conj: Conjunct,
    cvars: Tuple[str, ...],
    z: Polynomial,
    ctx: _Ctx,
    root: bool = False,
) -> List[Term]:
    """Memo shell around :func:`_sum_inner` (see repro.core.memo).

    Every node with summation variables is looked up in (and filed
    to) the answer memo; base cases (no ``cvars``) return immediately
    and are cheaper than the lookup.  The per-node exactness delta
    rides along in the entry through a child context, so a hit
    degrades the caller's exactness exactly as recomputing would.
    Only the *root* node of a ``sum_over_conjunct`` call touches the
    persistent layer.
    """
    if not cvars or not memo.answer_memo_enabled():
        return _sum_inner(conj, cvars, z, ctx)
    found, ticket = memo.lookup(conj, cvars, z, _memo_mode(ctx.opts), root)
    if found is not None:
        terms, (upper, lower) = found
        ctx.inexact_upper |= upper
        ctx.inexact_lower |= lower
        return terms
    child = _Ctx(ctx.opts)
    terms = _sum_inner(conj, cvars, z, child)
    ctx.inexact_upper |= child.inexact_upper
    ctx.inexact_lower |= child.inexact_lower
    memo.remember(ticket, terms, (child.inexact_upper, child.inexact_lower))
    return terms


def _sum_inner(
    conj: Conjunct, cvars: Tuple[str, ...], z: Polynomial, ctx: _Ctx
) -> List[Term]:
    normalized = conj.normalize()
    if normalized is None:
        return []
    conj = normalized
    from repro.omega.satisfiability import satisfiable

    if not satisfiable(conj):
        return []
    cvars = tuple(v for v in cvars if v not in conj.wildcards)

    # -- 1. equality phase -------------------------------------------------
    step = _eliminate_one_equality(conj, cvars, z, ctx)
    if step is not None:
        return step

    # -- 2. wildcards in inequalities that touch summation variables -------
    step = _eliminate_one_wildcard(conj, cvars, z, ctx)
    if step is not None:
        return step

    # -- base case ----------------------------------------------------------
    live = [v for v in cvars if conj.uses(v)]
    if len(live) < len(cvars):
        missing = [v for v in cvars if v not in live]
        raise UnboundedSumError(
            "variables %s are unconstrained (infinite solution set)" % missing
        )
    if not cvars:
        return [Term(conj, z)]

    # -- 3. redundant constraint removal ------------------------------------
    if ctx.opts.remove_redundant:
        conj = remove_redundant(conj)

    # -- 4. pick a summation variable ----------------------------------------
    v = _pick_variable(conj, cvars, z)
    index, rows = conj._index, conj._rows
    col = conj._positions().get(v)
    if col is None:
        lowers, uppers, rest = [], [], list(rows)
    else:
        # -- strides on v: residue enumeration -------------------------------
        strides = [row for row in rows if row[0] and row[col]]
        if strides:
            return _residue_split(conj, cvars, z, ctx, v, strides)
        lowers, uppers, rest = kernels.bounds_split(rows, col)
    if not lowers or not uppers:
        raise UnboundedSumError(
            "variable %s is unbounded %s" % (v, "below" if not lowers else "above")
        )

    # -- 5. multiple-bound splits ---------------------------------------------
    if len(uppers) > 1:
        return _split_bounds(conj, cvars, z, ctx, col, lowers, uppers, rest, True)
    if len(lowers) > 1:
        return _split_bounds(conj, cvars, z, ctx, col, lowers, uppers, rest, False)

    # -- 6. single pair ----------------------------------------------------------
    remaining = tuple(x for x in cvars if x != v)
    b, beta = kernels.bound_from_row(index, lowers[0], col)
    a, alpha = kernels.bound_from_row(index, uppers[0], col)
    if a == 1 and b == 1:
        z2 = sum_over_range(z, v, beta.to_polynomial(), alpha.to_polynomial())
        # beta <= alpha is the sum of the two rows: v's column cancels.
        guard = tuple([x + y for x, y in zip(lowers[0], uppers[0])])
        rest.append(guard)
        conj2 = Conjunct._from_rows(index, rest, conj.wildcards)
        return _sum(conj2, remaining, z2, ctx)
    rest_cons = [kernels.constraint_from_row(index, row) for row in rest]
    return _rational_sum(
        conj, remaining, z, ctx, v, b, beta, a, alpha, rest_cons
    )


# ---------------------------------------------------------------------------
# equality phase
# ---------------------------------------------------------------------------


def _eliminate_one_equality(
    conj: Conjunct, cvars: Tuple[str, ...], z: Polynomial, ctx: _Ctx
) -> Optional[List[Term]]:
    cset = set(cvars)
    index = conj._index
    for row in conj._rows:
        if not row[0]:
            continue
        eq = kernels.constraint_from_row(index, row)
        eq_wilds = [w for w in eq.variables() if w in conj.wildcards]
        eq_cvars = [x for x in eq.variables() if x in cset]
        if eq_wilds:
            if all(conj.is_stride_wildcard(w) for w in eq_wilds):
                continue  # a stride; cleared at summation time
            new_conj = eliminate_wildcards_from_equality(conj, eq).conjunct
            return _sum(new_conj, cvars, z, ctx)
        if not eq_cvars:
            continue  # pure symbol equality: part of the final guard
        if len(eq_cvars) > 1:
            mix = unimodular_mix(conj, eq, eq_cvars)
            z2 = z
            for old, repl in mix.mapping.items():
                z2 = z2.substitute(old, repl.to_polynomial())
            new_cvars = tuple(x for x in cvars if x not in mix.mapping) + tuple(
                mix.new_vars
            )
            return _sum(mix.conjunct, new_cvars, z2, ctx)
        v = eq_cvars[0]
        k = eq.coeff(v)
        remaining = tuple(x for x in cvars if x != v)
        if abs(k) == 1:
            solved, repl = solve_unit(conj, eq, v)
            z2 = z.substitute(v, repl.to_polynomial())
            return _sum(solved, remaining, z2, ctx)
        # k·v + rest == 0, |k| > 1: v is pinned to -sign·rest/|k|;
        # feasibility requires |k| to divide rest (a stride guard).
        sign = 1 if k > 0 else -1
        rest = Affine(
            {x: c for x, c in eq.expr.coeffs if x != v}, eq.expr.const
        )
        others = Conjunct(
            (c for c in conj.constraints if c != eq), conj.wildcards
        )
        pinned = substitute_fractional(others, v, -rest * sign, abs(k))
        pinned = pinned.add_stride(abs(k), rest)
        z2 = z.substitute(
            v, rest.to_polynomial() * Fraction(-sign, abs(k))
        )
        return _sum(pinned, remaining, z2, ctx)
    return None


# ---------------------------------------------------------------------------
# wildcard phase
# ---------------------------------------------------------------------------


def _eliminate_one_wildcard(
    conj: Conjunct, cvars: Tuple[str, ...], z: Polynomial, ctx: _Ctx
) -> Optional[List[Term]]:
    cset = set(cvars)
    target = None
    pos = conj._positions()
    for w in sorted(conj.wildcards):
        if conj.is_stride_wildcard(w):
            continue
        j = pos[w]
        if any(row[0] and row[j] for row in conj._rows):
            continue  # the equality phase owns it
        if _wildcard_touches(conj, w, cset):
            target = w
            break
    if target is None:
        return None
    pieces = eliminate_exact(conj, target)
    if len(pieces) > 1:
        from repro.presburger.disjoint import disjointify

        pieces = disjointify(pieces)
    out: List[Term] = []
    for piece in pieces:
        out.extend(_sum(piece, cvars, z, ctx))
    return out


def _wildcard_touches(conj: Conjunct, w: str, cset) -> bool:
    """Does w's constraint cluster reach a summation variable?"""
    index, pos = conj._index, conj._positions()
    frontier = {w}
    seen = set()
    while frontier:
        var = frontier.pop()
        seen.add(var)
        j = pos[var]
        for row in conj._rows:
            if not row[j]:
                continue
            for other, cf in zip(index, row[2:]):
                if not cf:
                    continue
                if other in cset:
                    return True
                if other in conj.wildcards and other not in seen:
                    frontier.add(other)
    return False


# ---------------------------------------------------------------------------
# variable choice (Section 4.4 step 2)
# ---------------------------------------------------------------------------


def _pick_variable(
    conj: Conjunct, cvars: Tuple[str, ...], z: Polynomial
) -> str:
    pos, rows = conj._positions(), conj._rows
    best, best_key = None, None
    for v in cvars:
        n_strides = lowers = uppers = 0
        unit = True
        col = pos.get(v)
        for row in rows if col is not None else ():
            k = row[col]
            if not k:
                continue
            if row[0]:
                n_strides += 1
            elif k > 0:
                lowers += 1
                unit = unit and k == 1
            else:
                uppers += 1
                unit = unit and k == -1
        key = (
            n_strides,
            0 if unit else 1,
            lowers * uppers,
            z.degree_in(v),
            v,
        )
        if best_key is None or key < best_key:
            best, best_key = v, key
    return best


# ---------------------------------------------------------------------------
# strides on the summation variable: residue enumeration
# ---------------------------------------------------------------------------


def _residue_split(
    conj: Conjunct,
    cvars: Tuple[str, ...],
    z: Polynomial,
    ctx: _Ctx,
    v: str,
    strides: List[Tuple[int, ...]],
) -> List[Term]:
    """Enumerate v's residues modulo the lcm of its stride rows' moduli."""
    from repro.intarith import lcm_list

    index = conj._index
    moduli = []
    for row in strides:
        modulus = next(
            (
                abs(cf)
                for name, cf in zip(index, row[2:])
                if cf and name in conj.wildcards
            ),
            None,
        )
        if modulus is None:
            raise AssertionError(
                "stride without wildcard: %s"
                % kernels.constraint_from_row(index, row)
            )
        moduli.append(modulus)
    modulus = lcm_list(moduli)
    if modulus > ctx.opts.max_residue_split:
        raise UnboundedSumError(
            "residue split of %d cases exceeds the cap (%d); raise "
            "SumOptions.max_residue_split" % (modulus, ctx.opts.max_residue_split)
        )
    if stats.ENABLED:
        stats.bump("residue_splits")
        stats.bump("residue_cases", modulus)
    out: List[Term] = []
    for r in range(modulus):
        v2 = fresh_var("v")
        repl = Affine({v2: modulus}, r)
        conj2 = conj.substitute(v, repl)
        z2 = z.substitute(v, repl.to_polynomial())
        new_cvars = tuple(x for x in cvars if x != v) + (v2,)
        out.extend(_sum(conj2, new_cvars, z2, ctx))
    return out


# ---------------------------------------------------------------------------
# multiple-bound disjoint splits (Section 4.4 steps 3-4)
# ---------------------------------------------------------------------------


def _split_bounds(
    conj: Conjunct,
    cvars: Tuple[str, ...],
    z: Polynomial,
    ctx: _Ctx,
    col: int,
    lowers,
    uppers,
    rest,
    split_uppers: bool,
) -> List[Term]:
    """One piece per bound of the split side, on rows.

    Piece ``i`` keeps ``rest``, every bound of the other side and
    bound ``i``, and orders bound ``i`` against each other bound ``j``
    of its side: with ``c`` the magnitude of a row's coefficient on
    the column, ``c_i·row_j - c_j·row_i >= 0`` (the column cancels)
    says bound ``i`` is the tightest, strictly (constant minus one)
    against the bounds before it.
    """
    bounds = uppers if split_uppers else lowers
    keep = lowers if split_uppers else uppers
    out: List[Term] = []
    for i, row_i in enumerate(bounds):
        ci = abs(row_i[col])
        rows = rest + keep + [row_i]
        for j, row_j in enumerate(bounds):
            if j == i:
                continue
            cj = abs(row_j[col])
            order = [ci * x - cj * y for x, y in zip(row_j, row_i)]
            if j < i:
                order[1] -= 1
            rows.append(tuple(order))
        piece = Conjunct._from_rows(conj._index, rows, conj.wildcards)
        out.extend(_sum(piece, cvars, z, ctx))
    return out


# ---------------------------------------------------------------------------
# rational bounds (Section 4.2.1)
# ---------------------------------------------------------------------------


def _rational_sum(
    conj: Conjunct,
    remaining: Tuple[str, ...],
    z: Polynomial,
    ctx: _Ctx,
    v: str,
    b: int,
    beta: Affine,
    a: int,
    alpha: Affine,
    rest,
) -> List[Term]:
    strategy = ctx.opts.strategy
    cset = set(remaining)
    symbolic_ok = (
        not any(x in cset for x in alpha.variables())
        and not any(x in cset for x in beta.variables())
    )
    if strategy is Strategy.EXACT and symbolic_ok:
        return _symbolic_rational(
            conj, remaining, z, ctx, v, b, beta, a, alpha, rest
        )
    if strategy in (Strategy.EXACT, Strategy.SPLINTER):
        return _splinter_rational(
            conj, remaining, z, ctx, v, b, beta, a, alpha, rest
        )
    return _approx_rational(
        conj, remaining, z, ctx, v, b, beta, a, alpha, rest, strategy
    )


def _symbolic_rational(
    conj, remaining, z, ctx, v, b, beta, a, alpha, rest
) -> List[Term]:
    """Exact closed form with mod atoms: floor(α/a) = (α - α mod a)/a."""
    guard_cons = list(rest)
    wilds = list(conj.wildcards)

    if a == 1:
        upper_poly = alpha.to_polynomial()
        upper_aff = alpha
    else:
        mod_u = ModAtom(alpha.coeff_dict(), alpha.const, a)
        upper_poly = (alpha.to_polynomial() - Polynomial.atom(mod_u)) * Fraction(1, a)
        p = fresh_var("g")
        wilds.append(p)
        pv = Affine.var(p)
        guard_cons.append(Constraint.leq(pv * a, alpha))
        guard_cons.append(Constraint.leq(alpha, pv * a + (a - 1)))
        upper_aff = pv

    if b == 1:
        lower_poly = beta.to_polynomial()
        lower_aff = beta
    else:
        shifted = beta + (b - 1)
        mod_l = ModAtom(shifted.coeff_dict(), shifted.const, b)
        lower_poly = (shifted.to_polynomial() - Polynomial.atom(mod_l)) * Fraction(1, b)
        q = fresh_var("g")
        wilds.append(q)
        qv = Affine.var(q)
        guard_cons.append(Constraint.leq(qv * b, shifted))
        guard_cons.append(Constraint.leq(shifted, qv * b + (b - 1)))
        lower_aff = qv

    guard_cons.append(Constraint.leq(lower_aff, upper_aff))
    z2 = sum_over_range(z, v, lower_poly, upper_poly)
    conj2 = Conjunct(guard_cons, wilds)
    return _sum(conj2, remaining, z2, ctx)


def _splinter_rational(
    conj, remaining, z, ctx, v, b, beta, a, alpha, rest
) -> List[Term]:
    """Exact residue splintering (Section 4.2.1 'splintering')."""
    out: List[Term] = []
    shifted = beta + (b - 1)  # ceil(β/b) == floor((β+b-1)/b)
    for r_u in range(a):
        for r_l in range(b):
            cons = list(rest)
            piece = Conjunct(cons, conj.wildcards)
            if a > 1:
                piece = piece.add_stride(a, alpha - r_u)
            if b > 1:
                piece = piece.add_stride(b, shifted - r_l)
            upper_poly = (alpha.to_polynomial() - r_u) * Fraction(1, a)
            lower_poly = (shifted.to_polynomial() - r_l) * Fraction(1, b)
            # guard: lower <= upper, scaled to integers
            piece = piece.with_constraints(
                [Constraint.leq((shifted - r_l) * a, (alpha - r_u) * b)]
            )
            z2 = sum_over_range(z, v, lower_poly, upper_poly)
            out.extend(_sum(piece, remaining, z2, ctx))
    return out


def _approx_rational(
    conj, remaining, z, ctx, v, b, beta, a, alpha, rest, strategy
) -> List[Term]:
    """Upper / lower / midpoint approximations (Section 4.2.1).

    Sound as bounds for non-negative summands; the guard uses the real
    shadow (upper) or the conservative shadow (lower).
    """
    alpha_p, beta_p = alpha.to_polynomial(), beta.to_polynomial()
    if strategy is Strategy.UPPER:
        upper_poly = alpha_p * Fraction(1, a)
        lower_poly = beta_p * Fraction(1, b)
        guard = Constraint.leq(beta * a, alpha * b)  # real shadow
        if a > 1 or b > 1:
            ctx.inexact_upper = True
    elif strategy is Strategy.LOWER:
        upper_poly = (alpha_p - (a - 1)) * Fraction(1, a)
        lower_poly = (beta_p + (b - 1)) * Fraction(1, b)
        guard = Constraint.leq((beta + (b - 1)) * a, (alpha - (a - 1)) * b)
        if a > 1 or b > 1:
            ctx.inexact_lower = True
    else:  # MIDPOINT
        upper_poly = (alpha_p * 2 - (a - 1)) * Fraction(1, 2 * a)
        lower_poly = (beta_p * 2 + (b - 1)) * Fraction(1, 2 * b)
        guard = Constraint.leq(beta * a, alpha * b)
        if a > 1 or b > 1:
            ctx.inexact_upper = True
            ctx.inexact_lower = True
    z2 = sum_over_range(z, v, lower_poly, upper_poly)
    conj2 = Conjunct(list(rest) + [guard], conj.wildcards)
    return _sum(conj2, remaining, z2, ctx)
