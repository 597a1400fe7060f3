"""Exact elimination of equality constraints.

Eliminating variables bound by equalities is the cheap, exact part of
the Omega test.  Two implementations live here:

* :func:`mod_hat_reduce` -- Pugh's original "mod-hat" reduction from
  the 1992 Omega test paper, kept for fidelity and tested against the
  other path.

* The **unimodular route** used by the engine: given an equality
  ``Σ aᵥ·v + rest == 0`` over eliminable variables v, compute a
  unimodular column reduction of the coefficient row (via Hermite
  normal form) so the equality becomes ``g·u₁ + rest == 0`` in fresh
  variables u with ``old = V·u`` an integer bijection.  Then u₁ either
  solves directly (g = 1) or is pinned to ``-rest/g`` with a stride
  condition (g > 1).  Both moves preserve the integer solution set up
  to an explicit affine bijection, which is what counting needs.
"""

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.intarith import IntMatrix, hermite_normal_form, sym_mod
from repro.omega import kernels
from repro.omega.affine import Affine
from repro.omega.constraints import Constraint, fresh_var
from repro.omega.problem import Conjunct


class MixResult(NamedTuple):
    """Outcome of a unimodular change of variables.

    ``mapping`` sends each old variable to an integer affine expression
    over the fresh variables (a bijection of the integer lattice);
    ``new_vars`` lists the fresh variables in order (the equality's
    reduced variable is ``new_vars[0]``); ``pivot_coeff`` is g, the gcd
    of the old coefficients, now the coefficient of ``new_vars[0]``.
    """

    conjunct: Conjunct
    equality: Constraint
    mapping: Dict[str, Affine]
    new_vars: List[str]
    pivot_coeff: int


def unimodular_mix(
    conj: Conjunct, eq: Constraint, variables: Sequence[str]
) -> MixResult:
    """Mix ``variables`` so ``eq`` mentions only one of the new ones.

    ``variables`` must all appear in ``eq``.  Returns the transformed
    conjunct and equality plus the bijection old = V·new.
    """
    coeffs = [eq.coeff(v) for v in variables]
    if any(c == 0 for c in coeffs):
        raise ValueError("variable absent from equality")
    if len(variables) == 1:
        return MixResult(
            conj, eq, {variables[0]: Affine.var(variables[0])},
            list(variables), coeffs[0],
        )
    row = IntMatrix([coeffs])
    h, v_mat = hermite_normal_form(row)
    g = h[0, 0]
    new_vars = [fresh_var("u") for _ in variables]
    mapping: Dict[str, Affine] = {}
    for i, old in enumerate(variables):
        mapping[old] = Affine(
            {new_vars[j]: v_mat[i, j] for j in range(len(new_vars))}
        )
    new_cons = []
    new_eq = None
    for c in conj.constraints:
        updated = c
        for old, repl in mapping.items():
            updated = updated.substitute(old, repl)
        new_cons.append(updated)
        if c == eq:
            new_eq = updated
    new_conj = Conjunct(new_cons, conj.wildcards)
    if new_eq is None:
        # eq was not part of the conjunct; transform it standalone.
        new_eq = eq
        for old, repl in mapping.items():
            new_eq = new_eq.substitute(old, repl)
    assert abs(new_eq.coeff(new_vars[0])) == abs(g)
    return MixResult(new_conj, new_eq, mapping, new_vars, g)


def solve_unit(
    conj: Conjunct, eq: Constraint, var: str
) -> Tuple[Conjunct, Affine]:
    """Substitute using an equality where ``var`` has coefficient ±1.

    Returns the conjunct with the equality consumed and ``var``
    replaced everywhere by the returned affine expression.
    """
    k = eq.coeff(var)
    if abs(k) != 1:
        raise ValueError("solve_unit: %s has coefficient %d in %s" % (var, k, eq))
    rest = Affine({v: c for v, c in eq.expr.coeffs if v != var}, eq.expr.const)
    replacement = rest if k == -1 else -rest
    new = Conjunct(
        (c for c in conj.constraints if c != eq), conj.wildcards
    ).substitute(var, replacement)
    return new, replacement


def substitute_fractional(
    conj: Conjunct, var: str, numerator: Affine, denominator: int
) -> Conjunct:
    """Replace ``var`` by numerator/denominator in every constraint.

    Valid when ``denominator · var == numerator`` is known to hold:
    constraints mentioning ``var`` are scaled by the (positive)
    denominator so everything stays integral.
    """
    if denominator <= 0:
        raise ValueError("denominator must be positive")
    new_cons = []
    for c in conj.constraints:
        a = c.coeff(var)
        if a == 0:
            new_cons.append(c)
            continue
        # (c without var)·denominator + numerator·a, as one merge join
        # over the two sorted coefficient rows.
        expr = kernels.combine_scaled(c.expr, denominator, numerator, a, var)
        new_cons.append(Constraint(expr, c.kind))
    return Conjunct(new_cons, conj.wildcards)


class WildcardElimination(NamedTuple):
    """Result of clearing wildcards out of one equality."""

    conjunct: Conjunct
    consumed: bool  # the equality is gone (or reduced to a pure stride)


def eliminate_wildcards_from_equality(
    conj: Conjunct, eq: Constraint
) -> WildcardElimination:
    """Remove an equality's wildcards, or turn it into a pure stride.

    After this call the equality either disappears (a wildcard was
    solved for) or survives as ``g·u == rest`` with ``u`` a wildcard
    appearing in no other constraint -- i.e. a stride.
    """
    wilds = [v for v in eq.variables() if v in conj.wildcards]
    if not wilds:
        raise ValueError("equality has no wildcards: %s" % eq)
    mix = unimodular_mix(conj, eq, wilds)
    conj2 = mix.conjunct.with_wildcards(mix.new_vars)
    eq2 = mix.equality
    u1 = mix.new_vars[0]
    g = abs(eq2.coeff(u1))
    rest = Affine(
        {v: c for v, c in eq2.expr.coeffs if v != u1}, eq2.expr.const
    )
    sign = 1 if eq2.coeff(u1) > 0 else -1
    # eq2: sign·g·u1 + rest == 0  =>  u1 == -sign·rest / g
    if g == 1:
        solved, _ = solve_unit(conj2, eq2, u1)
        return WildcardElimination(solved, True)
    # Pin u1 = -sign·rest/g in every *other* constraint; the equality
    # itself remains as the stride g | rest.
    others = Conjunct(
        (c for c in conj2.constraints if c != eq2), conj2.wildcards
    )
    pinned = substitute_fractional(others, u1, -rest * sign, g)
    result = Conjunct(
        tuple(pinned.constraints) + (eq2,),
        tuple(conj2.wildcards) + (u1,),
    )
    return WildcardElimination(result, True)


def eliminate_var_from_equality(
    conj: Conjunct, eq: Constraint, var: str
) -> Conjunct:
    """Eliminate ``var`` (treated existentially) using ``eq``.

    The variable is mixed with the equality's *other* eliminable
    content only implicitly: we treat ``var`` as the sole wildcard of
    interest, so the equality either solves for it or pins it
    fractionally (leaving a stride).  Helper for projection.
    """
    working = conj if var in conj.wildcards else conj.with_wildcards([var])
    k = eq.coeff(var)
    if k == 0:
        raise ValueError("%s not in %s" % (var, eq))
    if abs(k) == 1:
        solved, _ = solve_unit(working, eq, var)
        return solved
    g = abs(k)
    sign = 1 if k > 0 else -1
    rest = Affine({v: c for v, c in eq.expr.coeffs if v != var}, eq.expr.const)
    others = Conjunct((c for c in working.constraints if c != eq), working.wildcards)
    pinned = substitute_fractional(others, var, -rest * sign, g)
    return Conjunct(
        tuple(pinned.constraints) + (eq,),
        tuple(working.wildcards) + (var,),
    )


# ---------------------------------------------------------------------------
# Pugh's original mod-hat reduction, kept for fidelity (Section 2 cites
# the Omega test's equality handling).  Tested equivalent to the
# unimodular route on the cases both handle.
# ---------------------------------------------------------------------------


class EqStep(NamedTuple):
    var: str
    replacement: Affine
    sigma: Optional[str]
    conjunct: Conjunct


def mod_hat_reduce(conj: Conjunct, eq: Constraint, var: str) -> EqStep:
    """One step of Pugh's mod-hat equality reduction.

    With m = |a_k| + 1, the equality taken modulo m solves for ``var``
    with a unit coefficient in terms of the other variables and a fresh
    σ; substituting shrinks the equality's coefficients by ~2/3 per
    round (when the pivot is chosen as the globally smallest
    coefficient).
    """
    a_k = eq.coeff(var)
    if a_k == 0 or abs(a_k) == 1:
        raise ValueError("mod_hat_reduce: bad coefficient %d" % a_k)
    m = abs(a_k) + 1
    s = 1 if a_k > 0 else -1
    sigma = fresh_var("q")
    coeffs = {sigma: -m * s}
    for v, c in eq.expr.coeffs:
        if v != var:
            cm = sym_mod(c, m)
            if cm:
                coeffs[v] = coeffs.get(v, 0) + cm * s
    replacement = Affine(coeffs, s * sym_mod(eq.expr.const, m))
    new = conj.substitute(var, replacement)
    return EqStep(var, replacement, sigma, new)


def mod_hat_eliminate(conj: Conjunct, eq: Constraint) -> Conjunct:
    """Fully eliminate one equality with iterated mod-hat reductions.

    All the equality's variables are treated existentially; the pivot
    is always the variable with the smallest |coefficient| (Pugh's
    rule, which guarantees convergence).
    """
    current, current_eq = conj, eq
    for _ in range(200):
        if current_eq is None or not current_eq.expr.coeffs:
            return current
        pivot, coeff = min(
            current_eq.expr.coeffs, key=lambda vc: abs(vc[1])
        )
        if abs(coeff) == 1:
            solved, _ = solve_unit(current, current_eq, pivot)
            return solved
        step = mod_hat_reduce(current, current_eq, pivot)
        current = step.conjunct.with_wildcards([step.sigma]).normalize()
        if current is None:
            from repro.omega.affine import Affine as _A

            return Conjunct([Constraint.geq(_A.const_expr(-1))])
        current_eq = next(
            (
                c
                for c in current.constraints
                if c.is_eq() and c.uses(step.sigma)
            ),
            None,
        )
    raise RuntimeError("mod-hat elimination failed to converge")
