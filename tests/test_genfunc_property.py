"""Property tests for the generating-function backend (ci profile).

Three invariants over randomly generated *boxed* formulas (every
count variable carries explicit finite bounds, so the whole family is
in the genfunc fragment):

* ``count(backend="genfunc")`` equals the recursion backend equals a
  brute-force enumeration oracle;
* the genfunc answer is byte-identical across two runs after the
  deterministic wildcard relabel (cold caches, reset fresh-name
  counter) -- determinism, not just value equality;
* on formulas with a free symbolic constant the router's fallback
  output is byte-identical to calling the recursion directly.
"""

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import brute_count
from repro.core import SumOptions, count
from repro.core.memo import clear_answer_memo
from repro.genfunc import genfunc_count_value
from repro.omega.constraints import reset_fresh_counter
from repro.omega.satisfiability import clear_sat_cache
from repro.presburger.parser import parse


def reset_engine_state():
    """Cold-run the engine: no memoized answers, no cached sat
    verdicts, wildcard names restarted from zero."""
    clear_sat_cache()
    clear_answer_memo()
    reset_fresh_counter()

BOX = 12

#: The recursion's options for this family.  A residue split's modulus
#: is the lcm of the strides on one variable: three mod atoms (moduli
#: 2-7) alone can need lcm(5, 6, 7) = 210 cases, and dividing by
#: coefficients up to 4 multiplies that further, past the default cap
#: of 64 (the pinned example below needs 84).  With no practical cap no
#: formula the strategy draws can raise; in 5,000 random draws the
#: largest split was 140 cases.
RECURSION = SumOptions(max_residue_split=2**31)


@st.composite
def boxed_atoms(draw, variables):
    """One atom over ``variables``: inequality, stride, or equality."""
    kind = draw(st.sampled_from(["le", "mod", "eq"]))
    coeffs = [draw(st.integers(-4, 4)) for _ in variables]
    const = draw(st.integers(-10, 10))
    lhs = " + ".join(
        "%d*%s" % (c, v) for c, v in zip(coeffs, variables)
    ) or "0"
    if kind == "le":
        return "%s <= %d" % (lhs, const)
    if kind == "eq":
        return "%s == %d" % (lhs, const)
    mod = draw(st.integers(2, 7))
    rem = draw(st.integers(0, mod - 1))
    return "(%s) mod %d == %d" % (lhs, mod, rem)


@st.composite
def boxed_formulas(draw):
    """A concrete formula where every variable is explicitly boxed."""
    nvars = draw(st.integers(1, 2))
    variables = ["i", "j"][:nvars]
    box = " and ".join(
        "-%d <= %s <= %d" % (BOX, v, BOX) for v in variables
    )
    natoms = draw(st.integers(0, 3))
    atoms = [draw(boxed_atoms(variables)) for _ in range(natoms)]
    joiner = draw(st.sampled_from([" and ", " or "]))
    if atoms:
        body = joiner.join(
            ("not (%s)" % a) if draw(st.booleans()) else a for a in atoms
        )
        text = "%s and (%s)" % (box, body)
    else:
        text = box
    return text, variables


@given(boxed_formulas())
@example(
    (
        "-12 <= i <= 12 and -12 <= j <= 12 and ((-3*i + 1*j) mod 7 == 0"
        " or 4*i + -3*j == 0 or -3*i + 4*j <= 0)",
        ["i", "j"],
    )
)
@settings(max_examples=40, deadline=None)
def test_genfunc_matches_recursion_and_brute_force(case):
    text, variables = case
    formula = parse(text)
    want = brute_count(formula, variables, {}, box=BOX + 1)
    routed = count(formula, variables, backend="genfunc").evaluate({})
    direct = genfunc_count_value(formula, variables)
    rec = count(formula, variables, RECURSION).evaluate({})
    assert routed == direct == rec == want


@given(boxed_formulas())
@settings(max_examples=25, deadline=None)
def test_genfunc_answer_is_deterministic(case):
    """Byte-identical serialization across cold runs: the wildcard
    relabel in the answer pipeline must make run order invisible."""
    text, variables = case
    runs = []
    for _ in range(2):
        reset_engine_state()
        answer = count(text, variables, backend="genfunc")
        runs.append(json.dumps(answer.to_json(), sort_keys=True))
    assert runs[0] == runs[1]


@given(boxed_formulas(), st.integers(0, 6))
@settings(max_examples=20, deadline=None)
def test_symbolic_fallback_is_byte_identical(case, shift):
    """Adding a free symbolic bound pushes the formula out of the
    fragment; the router must then defer to the recursion exactly."""
    text, variables = case
    symbolic = "%s and %s <= n + %d" % (text, variables[0], shift)
    reset_engine_state()
    rec = count(symbolic, variables)
    reset_engine_state()
    routed = count(symbolic, variables, backend="genfunc")
    assert json.dumps(routed.to_json(), sort_keys=True) == json.dumps(
        rec.to_json(), sort_keys=True
    )
