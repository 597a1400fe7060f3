"""Shared test helpers: brute-force oracles.

Every symbolic result in this library can be checked by enumerating
integer points.  The helpers here are the referees: slow, obviously
correct counting/summation used to validate the engine.
"""

import itertools
import os
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Sequence, Set, Tuple

import pytest

from repro.core.memo import clear_answer_memo
from repro.omega.constraints import reset_fresh_counter
from repro.omega.problem import Conjunct
from repro.presburger.ast import Formula

try:
    from hypothesis import settings as _hyp_settings
except ImportError:  # pragma: no cover - hypothesis is a test dep
    _hyp_settings = None

if _hyp_settings is not None:
    # ``ci`` pins hypothesis to its derandomized mode: examples are
    # derived from the test body alone, so tier-1 cannot flake on an
    # unlucky random draw.  Select it with HYPOTHESIS_PROFILE=ci (the
    # CI workflow does); the default profile keeps random exploration
    # for local runs, where a fresh failing example is a feature.
    _hyp_settings.register_profile("ci", derandomize=True)
    _hyp_settings.register_profile("dev", _hyp_settings.get_profile("default"))
    _hyp_settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


@pytest.fixture(autouse=True)
def _deterministic_fresh_names():
    """Restart the wildcard-name counter before every test.

    ``fresh_var`` is a process-global counter, so printed guards (and
    anything golden-string asserted) would otherwise depend on which
    tests ran earlier in the session.  Resetting is safe across the
    persistent satisfiability cache: cached answers are pure functions
    of conjunct content, names included.

    The answer memo is cleared for a different reason: tests that
    assert on engine-work counters (sat_calls and friends) must see a
    cold recursion, not an answer served from a formula some earlier
    test already counted.
    """
    reset_fresh_counter()
    clear_answer_memo()
    yield


@pytest.fixture
def tokenized(monkeypatch):
    """Texts the formula tokenizer ran on in this process, in order.

    One entry per parse of formula text, so a test can count how often
    a request is parsed.  A forked worker records into its own copy.
    """
    from repro.presburger import parser

    runs = []

    class Counting(parser._Tokens):
        def __init__(self, text):
            runs.append(text)
            super().__init__(text)

    monkeypatch.setattr(parser, "_Tokens", Counting)
    return runs


def enumerate_conjunct(
    conj: Conjunct, variables: Sequence[str], box: int = 8, env: Mapping[str, int] = ()
) -> Set[Tuple[int, ...]]:
    """Integer solutions of the free variables within [-box, box]^d."""
    env = dict(env)
    out = set()
    for vals in itertools.product(range(-box, box + 1), repeat=len(variables)):
        point = dict(env)
        point.update(zip(variables, vals))
        if conj.is_satisfied(point):
            out.add(vals)
    return out


def enumerate_formula(
    formula: Formula, variables: Sequence[str], box: int = 8, env: Mapping[str, int] = ()
) -> Set[Tuple[int, ...]]:
    env = dict(env)
    out = set()
    for vals in itertools.product(range(-box, box + 1), repeat=len(variables)):
        point = dict(env)
        point.update(zip(variables, vals))
        if formula.evaluate(point):
            out.add(vals)
    return out


def brute_count(
    formula: Formula,
    over: Sequence[str],
    env: Mapping[str, int],
    box: int = 30,
) -> int:
    """Count solutions by enumeration (count variables in [-box, box])."""
    return len(enumerate_formula(formula, over, box, env))


def brute_sum(
    formula: Formula,
    over: Sequence[str],
    z,
    env: Mapping[str, int],
    box: int = 30,
) -> Fraction:
    total = Fraction(0)
    for vals in enumerate_formula(formula, over, box, env):
        point = dict(env)
        point.update(zip(over, vals))
        total += z.evaluate(point)
    return total


def assert_clauses_cover(
    clauses: Iterable[Conjunct],
    expected: Set[Tuple[int, ...]],
    variables: Sequence[str],
    box: int = 8,
    disjoint: bool = False,
    env: Mapping[str, int] = (),
):
    """Union of the clauses equals ``expected``; optionally disjoint."""
    hits: Dict[Tuple[int, ...], int] = {}
    for clause in clauses:
        for point in enumerate_conjunct(clause, variables, box, env):
            hits[point] = hits.get(point, 0) + 1
    assert set(hits) == expected, (
        "missing: %s extra: %s"
        % (sorted(expected - set(hits))[:5], sorted(set(hits) - expected)[:5])
    )
    if disjoint:
        overlaps = {p: n for p, n in hits.items() if n > 1}
        assert not overlaps, "overlapping points: %s" % (
            sorted(overlaps)[:5],
        )


def check_symbolic_count(
    formula_text: str,
    over: Sequence[str],
    symbol_values: Sequence[Mapping[str, int]],
    box: int = 30,
):
    """Engine count vs brute force at each symbol assignment."""
    from repro.core import count
    from repro.presburger import parse

    formula = parse(formula_text)
    result = count(formula, over)
    for env in symbol_values:
        want = brute_count(formula, over, env, box)
        got = result.evaluate(env)
        assert got == want, (formula_text, dict(env), got, want)
    return result


def grid(**ranges) -> list:
    """All symbol assignments over the given ranges: grid(n=range(5))."""
    keys = list(ranges)
    return [
        dict(zip(keys, vals))
        for vals in itertools.product(*(ranges[k] for k in keys))
    ]
