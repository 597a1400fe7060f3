"""Hypothesis property tests for the Omega substrate."""

import itertools

from hypothesis import given, settings, strategies as st

from repro.omega.affine import Affine
from repro.omega.constraints import Constraint
from repro.omega.eliminate import dark_shadow, eliminate_exact, real_shadow
from repro.omega.problem import Conjunct
from repro.omega.satisfiability import satisfiable
from repro.presburger.disjoint import (
    disjoint_negation,
    disjointify,
    project_to_stride_only,
)

rows2 = st.lists(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-8, 8)),
    min_size=1,
    max_size=4,
)


def boxed_conjunct(rows, vars_=("x", "y"), box=6, eq_first=False):
    cons = []
    for v in vars_:
        cons.append(Constraint.geq(Affine({v: 1}, box)))
        cons.append(Constraint.geq(Affine({v: -1}, box)))
    for i, (a, b, c) in enumerate(rows):
        expr = Affine({vars_[0]: a, vars_[1]: b}, c)
        if eq_first and i == 0:
            cons.append(Constraint.eq(expr))
        else:
            cons.append(Constraint.geq(expr))
    return Conjunct(cons)


def brute(conj, box=6):
    names = conj.variables()
    for vals in itertools.product(range(-box, box + 1), repeat=len(names)):
        if conj.satisfied_by(dict(zip(names, vals))):
            return True
    return False


def solset1(conj, var="x", box=8):
    return {
        v for v in range(-box, box + 1) if conj.is_satisfied({var: v})
    }


@given(rows2, st.booleans())
@settings(max_examples=80, deadline=None)
def test_satisfiable_equals_brute(rows, with_eq):
    conj = boxed_conjunct(rows, eq_first=with_eq)
    assert satisfiable(conj) == brute(conj)


#: Half-width of the normalize property's box.  For x, y within one
#: step of it, a drawn stride ``m·w == a·x + b·y + c`` (|a|, |b| <= 4,
#: |c| <= 8, m >= 2) has |w| <= 20, and so has the canonical stride
#: ``g·s == r`` normalize may rewrite it to (r reduced mod g <= 4):
#: WILD covers every wildcard value a point can need.
NBOX = 3
WILD = range(-20, 21)

coef = st.integers(-3, 3)


@st.composite
def normalize_cases(draw):
    """A boxed x, y conjunct drawn in the shapes normalize rewrites."""
    cons = []
    for v in ("x", "y"):
        cons.append(Constraint.geq(Affine({v: 1}, NBOX)))
        cons.append(Constraint.geq(Affine({v: -1}, NBOX)))
    for _ in range(draw(st.integers(1, 4))):
        shape = draw(st.sampled_from(("geq", "opposed", "scaled", "eq")))
        a, b, c = draw(coef), draw(coef), draw(st.integers(-8, 8))
        if shape == "eq":
            # Scale the coefficients by g: the equality kills the
            # conjunct when their gcd does not divide c.
            g = draw(st.integers(1, 3))
            cons.append(Constraint.eq(Affine({"x": g * a, "y": g * b}, c)))
            continue
        cons.append(Constraint.geq(Affine({"x": a, "y": b}, c)))
        if shape == "opposed":
            # -c <= a·x + b·y <= -c + gap: empty for gap < 0, pinned to
            # an equality for gap == 0.
            gap = draw(st.integers(-2, 2))
            cons.append(Constraint.geq(Affine({"x": -a, "y": -b}, gap - c)))
        elif shape == "scaled":
            k = draw(st.integers(2, 3))
            cons.append(
                Constraint.geq(
                    Affine({"x": k * a, "y": k * b}, draw(st.integers(-8, 8)))
                )
            )
    if not draw(st.booleans()):
        return Conjunct(cons)
    # The stride m | a·x + b·y + c.  Coefficients are multiples of m
    # half the time, so the stride often reduces to its residue alone.
    m = draw(st.integers(2, 4))
    stride_coef = st.one_of(st.integers(-1, 1).map(lambda t: t * m), coef)
    rhs = Affine(
        {"x": draw(stride_coef), "y": draw(stride_coef)},
        draw(st.integers(-8, 8)),
    )
    cons.append(Constraint.equal(Affine({"w": m}), rhs))
    return Conjunct(cons, ["w"])


def integer_points(conj):
    """The (x, y) within one step of the box that satisfy ``conj``.

    Wildcards are existential: a point counts when some assignment of
    them from WILD satisfies every constraint.
    """
    if conj is None:
        return set()
    wilds = sorted(conj.wildcards)
    points = set()
    for x, y in itertools.product(range(-NBOX - 1, NBOX + 2), repeat=2):
        for values in itertools.product(WILD, repeat=len(wilds)):
            env = dict(zip(wilds, values), x=x, y=y)
            if conj.satisfied_by(env):
                points.add((x, y))
                break
    return points


@given(normalize_cases())
@settings(max_examples=150, deadline=None)
def test_normalize_keeps_integer_points(conj):
    """normalize() keeps exactly the integer points (brute force)."""
    assert integer_points(conj.normalize()) == integer_points(conj)


@given(rows2)
@settings(max_examples=60, deadline=None)
def test_shadow_sandwich(rows):
    """dark shadow ⊆ exact projection ⊆ real shadow."""
    conj = boxed_conjunct(rows, vars_=("z", "x"))
    dark = dark_shadow(conj, "z")
    real = real_shadow(conj, "z")
    exact = set()
    for piece in eliminate_exact(conj, "z"):
        exact |= solset1(piece)
    dark_pts = solset1(dark) if dark is not None else set()
    real_pts = solset1(real) if real is not None else set()
    want = {
        x
        for x in range(-8, 9)
        if any(
            conj.satisfied_by({"z": z, "x": x}) for z in range(-10, 11)
        )
    }
    assert dark_pts <= want
    assert want <= real_pts
    assert exact == want


@given(rows2)
@settings(max_examples=40, deadline=None)
def test_project_to_stride_only_disjoint_and_exact(rows):
    conj = boxed_conjunct(rows, vars_=("w", "x")).with_wildcards(["w"])
    want = {
        x
        for x in range(-8, 9)
        if any(conj.satisfied_by({"w": w, "x": x}) for w in range(-10, 11))
    }
    pieces = project_to_stride_only(conj)
    hits = {}
    for i, piece in enumerate(pieces):
        assert piece.stride_only()
        for x in solset1(piece):
            hits.setdefault(x, []).append(i)
    assert set(hits) == want
    assert all(len(v) == 1 for v in hits.values())


@given(
    st.lists(
        st.tuples(st.integers(-4, 4), st.integers(0, 5)),
        min_size=2,
        max_size=3,
    )
)
@settings(max_examples=40, deadline=None)
def test_disjointify_intervals(intervals):
    clauses = [
        Conjunct(
            [
                Constraint.geq(Affine({"x": 1}, -lo)),
                Constraint.geq(Affine({"x": -1}, lo + length)),
            ]
        )
        for lo, length in intervals
    ]
    want = set()
    for lo, length in intervals:
        want |= set(range(lo, lo + length + 1))
    out = disjointify(clauses)
    hits = {}
    for i, piece in enumerate(out):
        for x in solset1(piece, box=12):
            hits.setdefault(x, []).append(i)
    assert set(hits) == want
    assert all(len(v) == 1 for v in hits.values())


@given(
    st.lists(
        st.tuples(st.integers(-3, 3), st.integers(-6, 6)),
        min_size=1,
        max_size=3,
    ),
    st.integers(2, 4),
    st.integers(0, 3),
)
@settings(max_examples=40, deadline=None)
def test_disjoint_negation_partitions(bounds, modulus, residue):
    cons = [
        Constraint.geq(Affine({"x": a}, c)) for a, c in bounds if a
    ]
    conj = Conjunct(cons).add_stride(modulus, Affine({"x": 1}, residue))
    n = conj.normalize()
    if n is None or not n.stride_only():
        return
    pieces = disjoint_negation(n)
    for x in range(-10, 11):
        inside = n.is_satisfied({"x": x})
        matches = sum(1 for p in pieces if p.is_satisfied({"x": x}))
        assert matches == (0 if inside else 1), x
