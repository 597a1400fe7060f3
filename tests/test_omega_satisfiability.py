"""Integer satisfiability tests (§2.2) with a brute-force referee."""

import itertools
import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.omega.affine import Affine
from repro.omega.constraints import Constraint
from repro.omega.problem import Conjunct
from repro.omega.satisfiability import (
    equivalent,
    implies,
    satisfiable,
    solve_sample,
)


def geq(coeffs, const=0):
    return Constraint.geq(Affine(coeffs, const))


def eq(coeffs, const=0):
    return Constraint.eq(Affine(coeffs, const))


def boxed(cons, names, box=6):
    extra = []
    for v in names:
        extra.append(geq({v: 1}, box))
        extra.append(geq({v: -1}, box))
    return Conjunct(list(cons) + extra)


def brute(conj, box=6):
    names = conj.variables()
    for vals in itertools.product(range(-box, box + 1), repeat=len(names)):
        if conj.satisfied_by(dict(zip(names, vals))):
            return True
    return False


class TestKnownCases:
    def test_trivial(self):
        assert satisfiable(Conjunct.true())

    def test_empty_interval(self):
        assert not satisfiable(Conjunct([geq({"x": 1}, -5), geq({"x": -1}, 3)]))

    def test_classic_omega_gap(self):
        # 3 <= 3x + 2 <= 4 has no integer solution but a rational one
        c = Conjunct([geq({"x": 3}, -1), geq({"x": -3}, 2)])
        assert not satisfiable(c)

    def test_parity_conflict(self):
        # x even and x odd
        c = (
            Conjunct.true()
            .add_stride(2, Affine.var("x"))
            .add_stride(2, Affine({"x": 1}, 1))
        )
        assert not satisfiable(c)

    def test_crt_solvable(self):
        # x ≡ 1 (mod 3), x ≡ 2 (mod 5): solvable (x = 7)
        c = (
            Conjunct.true()
            .add_stride(3, Affine({"x": 1}, -1))
            .add_stride(5, Affine({"x": 1}, -2))
        )
        assert satisfiable(c)

    def test_dark_shadow_insufficient(self):
        # needs splintering: 0 <= 3b - a <= 7, 1 <= a - 2b <= 5, a == 3
        c = Conjunct(
            [
                geq({"b": 3, "a": -1}),
                geq({"b": -3, "a": 1}, 7),
                geq({"a": 1, "b": -2}, -1),
                geq({"a": -1, "b": 2}, 5),
                eq({"a": 1}, -3),
            ]
        )
        assert satisfiable(c)  # b = 1 works: 3-2=1 ok; 3b-a = 0 ok

    def test_dark_shadow_gap_point(self):
        # same but a == 4: no integer b (the dark shadow misses, and
        # there is genuinely no solution)
        c = Conjunct(
            [
                geq({"b": 3, "a": -1}),
                geq({"b": -3, "a": 1}, 7),
                geq({"a": 1, "b": -2}, -1),
                geq({"a": -1, "b": 2}, 5),
                eq({"a": 1}, -4),
            ]
        )
        assert not satisfiable(c)

    def test_diophantine_equality(self):
        # 6x + 9y == 5: gcd 3 does not divide 5
        assert not satisfiable(Conjunct([eq({"x": 6, "y": 9}, -5)]))
        assert satisfiable(Conjunct([eq({"x": 6, "y": 9}, -3)]))


class TestRandomizedAgainstBrute:
    @given(
        st.lists(
            st.tuples(
                st.integers(-4, 4), st.integers(-4, 4), st.integers(-8, 8)
            ),
            min_size=1,
            max_size=4,
        ),
        st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_two_vars(self, rows, with_eq):
        cons = []
        for i, (a, b, c) in enumerate(rows):
            expr = Affine({"x": a, "y": b}, c)
            if with_eq and i == 0:
                cons.append(Constraint.eq(expr))
            else:
                cons.append(Constraint.geq(expr))
        conj = boxed(cons, ("x", "y"))
        assert satisfiable(conj) == brute(conj)


class TestImplication:
    def test_interval_implication(self):
        narrow = Conjunct([geq({"x": 1}, -3), geq({"x": -1}, 5)])
        wide = Conjunct([geq({"x": 1}), geq({"x": -1}, 10)])
        assert implies(narrow, wide)
        assert not implies(wide, narrow)

    def test_implication_with_stride(self):
        mult4 = Conjunct.true().add_stride(4, Affine.var("x"))
        even = Conjunct.true().add_stride(2, Affine.var("x"))
        assert implies(mult4, even)
        assert not implies(even, mult4)

    def test_conclusion_with_pinned_wildcard(self):
        # ∃w: w = -1 and 0 <= j <= 1 and 4 | (j + w), i.e. j = 1.  The
        # pinned wildcard w survives normalize (it also feeds the
        # stride), so the conclusion is not stride-only; implies must
        # project it to stride-only pieces rather than raise
        # (regression: fuzz seed 60845).
        conclusion = Conjunct(
            [
                eq({"w": 1}, 1),
                eq({"s": 4, "j": -1, "w": -1}),
                geq({"j": 1}),
                geq({"j": -1}, 1),
            ],
            ["w", "s"],
        )
        j_is_1 = Conjunct([eq({"j": 1}, -1)])
        j_is_0 = Conjunct([eq({"j": 1})])
        assert implies(j_is_1, conclusion)
        assert not implies(j_is_0, conclusion)

    def test_false_premise_implies_anything(self):
        false = Conjunct([geq({}, -1)])
        anything = Conjunct([geq({"x": 1}, -100)])
        assert implies(false, anything)

    def test_equivalent(self):
        a = Conjunct([geq({"x": 2}, -4)])   # 2x >= 4
        b = Conjunct([geq({"x": 1}, -2)])   # x >= 2
        assert equivalent(a, b)


class TestSolveSample:
    def test_finds_solution(self):
        c = Conjunct([geq({"x": 1}, -3), geq({"x": -1}, 5)])
        env = solve_sample(c)
        assert env is not None and 3 <= env["x"] <= 5

    def test_no_solution(self):
        c = Conjunct([geq({"x": 1}, -5), geq({"x": -1}, 3)])
        assert solve_sample(c) is None


class TestSatCacheLRU:
    """The satisfiability memo is a bounded LRU, not clear-all."""

    @pytest.fixture(autouse=True)
    def _restore_cache(self):
        from repro.omega import satisfiability as sat

        previous = sat.sat_cache_info()["limit"]
        sat.clear_sat_cache()
        yield
        sat.set_sat_cache_limit(previous)
        sat.clear_sat_cache()

    @staticmethod
    def _point(i):
        # x == i: a family of distinct, trivially satisfiable conjuncts
        return Conjunct([Constraint.eq(Affine({"x": 1}, -i))])

    def test_size_stays_bounded(self):
        from repro.omega import satisfiability as sat

        sat.set_sat_cache_limit(8)
        for i in range(50):
            assert satisfiable(self._point(i))
        assert sat.sat_cache_info()["size"] <= 8

    def test_recently_used_entries_survive_eviction(self):
        from repro.omega import satisfiability as sat

        sat.set_sat_cache_limit(64)
        hot = self._point(0)
        satisfiable(hot)
        # keep `hot` warm while flooding the cache far past its limit
        for i in range(1, 400):
            satisfiable(self._point(i))
            if i % 10 == 0:
                satisfiable(hot)
        from repro.core import stats

        with stats.collecting_stats() as counters:
            satisfiable(hot)
        assert counters["sat_cache_hits"] == 1  # never evicted

    def test_zero_limit_disables_caching(self):
        from repro.omega import satisfiability as sat

        sat.set_sat_cache_limit(0)
        assert satisfiable(self._point(1))
        assert sat.sat_cache_info()["size"] == 0

    def test_shrinking_evicts_immediately(self):
        from repro.omega import satisfiability as sat

        sat.set_sat_cache_limit(100)
        for i in range(20):
            satisfiable(self._point(i))
        sat.set_sat_cache_limit(5)
        assert sat.sat_cache_info()["size"] <= 5

    def test_false_results_are_cached_too(self):
        from repro.core import stats
        from repro.omega import satisfiability as sat

        sat.set_sat_cache_limit(16)
        conj = Conjunct([geq({"x": 1}, -5), geq({"x": -1}, 3)])
        assert not satisfiable(conj)
        with stats.collecting_stats() as counters:
            assert not satisfiable(conj)
        assert counters["sat_cache_hits"] == 1


class TestSatCacheThreads:
    def test_threads_sharing_a_tiny_sat_cache_get_exact_answers(self):
        """The daemon's cold thread pool shares the sat cache.

        Eight threads count through a 4-entry cache, with the answer
        memo off and rapid thread switching, so entries are evicted
        between the steps of other threads' lookups.  Nothing may
        raise, and every answer must equal the single-threaded one.
        """
        from repro.core import count
        from repro.core.memo import set_answer_memo
        from repro.omega import satisfiability as sat

        formulas = ["1 <= i <= %d*n and 3 | (i + n)" % k for k in range(1, 5)]

        def values(k):
            result = count(formulas[k], ["i"])
            return [result.evaluate(n=n) for n in range(10)]

        errors = []
        wrong = []

        def worker(offset):
            try:
                for step in range(40):
                    k = (offset + step) % len(formulas)
                    if values(k) != want[k]:
                        wrong.append(k)
            except Exception as exc:  # reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(8)
        ]
        previous_memo = set_answer_memo(0)
        previous_limit = sat.set_sat_cache_limit(4)
        interval = sys.getswitchinterval()
        try:
            want = [values(k) for k in range(len(formulas))]
            sys.setswitchinterval(1e-6)
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
            sat.set_sat_cache_limit(previous_limit)
            set_answer_memo(previous_memo)
            sat.clear_sat_cache()
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert wrong == []


class TestSatCacheKey:
    """The sat cache keys a conjunct on its rows, wildcards relabelled."""

    @pytest.fixture(autouse=True)
    def _empty_cache(self):
        from repro.omega import satisfiability as sat

        sat.clear_sat_cache()
        yield
        sat.clear_sat_cache()

    @staticmethod
    def _leaves(key):
        if isinstance(key, tuple):
            for part in key:
                yield from TestSatCacheKey._leaves(part)
        else:
            yield key

    @staticmethod
    def _stride(w, coeff=3, wildcards=None):
        # coeff·w == n + 1 with 0 <= n <= 9.
        return Conjunct(
            [
                eq({w: coeff, "n": -1}, -1),
                geq({"n": 1}),
                geq({"n": -1}, 9),
            ],
            [w] if wildcards is None else wildcards,
        )

    @staticmethod
    def _top_level_hit(first, second):
        from repro.core import stats

        satisfiable(first)
        with stats.collecting_stats() as counters:
            satisfiable(second)
        # A hit answers at the top without recursing; a miss recurses.
        return counters["sat_cache_hits"] == 1 and not counters[
            "sat_cache_misses"
        ]

    def test_key_holds_only_tuples_ints_and_strs(self):
        from repro.core import count
        from repro.omega import satisfiability as sat

        for conj in (self._stride("w"), self._stride("w", wildcards=())):
            leaves = list(self._leaves(sat._cache_key(conj)))
            assert leaves and all(type(x) in (int, str) for x in leaves)
        count("1 <= i <= n and 3 | (i + n) and 2*j = i", over=["i"])
        assert sat._SAT_CACHE
        for key in sat._SAT_CACHE:
            assert all(type(x) in (int, str) for x in self._leaves(key))

    def test_wildcard_names_do_not_split_entries(self):
        assert self._top_level_hit(self._stride("_s1"), self._stride("_s2"))

    def test_wildcard_on_either_side_of_a_free_name_shares_entry(self):
        from repro.omega import satisfiability as sat

        # "a" sorts before "n" and "z" after it, so the two equalities
        # are signed differently (3a - n - 1 vs n - 3z + 1) until the
        # wildcard is relabelled.
        before, after = self._stride("a"), self._stride("z")
        assert before.constraints[0].expr.coeffs[0] == ("a", 3)
        assert after.constraints[0].expr.coeffs[0] == ("n", 1)
        assert sat._cache_key(before) == sat._cache_key(after)
        assert self._top_level_hit(before, after)

    def test_different_coefficient_gets_its_own_entry(self):
        assert not self._top_level_hit(
            self._stride("w", coeff=3), self._stride("w", coeff=4)
        )

    def test_different_wildcard_columns_get_their_own_entries(self):
        from repro.omega import satisfiability as sat

        stride = self._stride("w")
        free_w = self._stride("w", wildcards=())
        both = self._stride("w", wildcards=["w", "n"])
        keys = {sat._cache_key(c) for c in (stride, free_w, both)}
        assert len(keys) == 3
        assert not self._top_level_hit(stride, free_w)
        assert not self._top_level_hit(stride, both)
