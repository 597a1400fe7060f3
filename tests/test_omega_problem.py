"""Conjunct normalization and structure tests (Section 2)."""

import pytest

from repro.omega.affine import Affine
from repro.omega.constraints import Constraint
from repro.omega.eliminate import dark_shadow, real_shadow
from repro.omega.kernels import EQ_ROW, GEQ_ROW
from repro.omega.problem import Conjunct


def geq(coeffs, const=0):
    return Constraint.geq(Affine(coeffs, const))


def eq(coeffs, const=0):
    return Constraint.eq(Affine(coeffs, const))


class TestNormalize:
    def test_tightening(self):
        # 2x - 3 >= 0 tightens to x - 2 >= 0 (x >= 3/2 means x >= 2)
        c = Conjunct([geq({"x": 2}, -3)]).normalize()
        assert list(c.constraints) == [geq({"x": 1}, -2)]

    def test_trivial_true_dropped(self):
        c = Conjunct([geq({}, 5)]).normalize()
        assert c.is_trivial_true()

    def test_trivial_false(self):
        assert Conjunct([geq({}, -1)]).normalize() is None

    def test_equality_gcd(self):
        # 2x + 4y - 6 == 0 divides through
        c = Conjunct([eq({"x": 2, "y": 4}, -6)]).normalize()
        assert list(c.constraints) == [eq({"x": 1, "y": 2}, -3)]

    def test_equality_divisibility_contradiction(self):
        # 2x + 4y == 3 has no integer solutions
        assert Conjunct([eq({"x": 2, "y": 4}, -3)]).normalize() is None

    def test_parallel_merge(self):
        c = Conjunct([geq({"x": 1}, -5), geq({"x": 1}, -3)]).normalize()
        assert list(c.constraints) == [geq({"x": 1}, -5)]

    def test_opposed_pair_empty(self):
        # x >= 5 and x <= 3
        assert (
            Conjunct([geq({"x": 1}, -5), geq({"x": -1}, 3)]).normalize()
            is None
        )

    def test_opposed_pair_to_equality(self):
        # x >= 4 and x <= 4 becomes x == 4
        c = Conjunct([geq({"x": 1}, -4), geq({"x": -1}, 4)]).normalize()
        assert len(c.constraints) == 1
        assert c.constraints[0].is_eq()

    def test_idempotent(self):
        cons = [geq({"x": 3, "y": -6}, 2), eq({"x": 2}, -4)]
        once = Conjunct(cons).normalize()
        twice = once.normalize()
        assert once == twice


class TestStrides:
    def test_stride_canonicalized(self):
        c = Conjunct.true().add_stride(3, Affine({"n": 5}, 7)).normalize()
        others, strides = c.stride_view()
        assert not others
        ((m, e),) = strides
        assert m == 3
        # 5n + 7 ≡ 2n + 1 (mod 3)
        for n in range(-6, 6):
            assert (e.evaluate({"n": n}) % 3 == 0) == ((5 * n + 7) % 3 == 0)

    def test_stride_of_one_vanishes(self):
        c = Conjunct.true().add_stride(1, Affine({"n": 1})).normalize()
        assert c.is_trivial_true()

    def test_duplicate_strides_merge(self):
        c = (
            Conjunct.true()
            .add_stride(2, Affine({"n": 1}))
            .add_stride(2, Affine({"n": 1}))
            .normalize()
        )
        assert len(c.eqs()) == 1

    def test_constant_stride_checked(self):
        sat = Conjunct.true().add_stride(3, Affine({}, 6)).normalize()
        assert sat is not None and sat.is_trivial_true()
        unsat = Conjunct.true().add_stride(3, Affine({}, 7)).normalize()
        assert unsat is None

    def test_two_lone_wildcards_coprime_vanish(self):
        # 2w + 3u == n is solvable for any n: constraint disappears
        c = Conjunct(
            [Constraint.equal(Affine({"w": 2, "u": 3}), Affine.var("n"))],
            ["w", "u"],
        ).normalize()
        assert c.is_trivial_true()

    def test_normalize_reaches_fixed_point_with_strides(self):
        # regression: stride canonicalization must not oscillate between
        # the two sign representatives of the residue class
        c = Conjunct(
            [Constraint.equal(Affine({"w": 3}), Affine({"x": -1}, 0))],
            ["w"],
        )
        n = c.normalize()
        assert n is not None
        assert n.normalize() == n


class TestBounds:
    def test_bounds_on(self):
        c = Conjunct(
            [
                geq({"v": 2, "n": -1}),       # n <= 2v
                geq({"v": -3, "n": 1}, 5),    # 3v <= n + 5
                geq({"m": 1}),
            ]
        )
        lowers, uppers, rest = c.bounds_on("v")
        assert lowers == [(2, Affine({"n": 1}))]
        assert uppers == [(3, Affine({"n": 1}, 5))]
        assert rest == [geq({"m": 1})]

    def test_bounds_on_rejects_equalities(self):
        c = Conjunct([eq({"v": 1, "n": -1})])
        with pytest.raises(ValueError):
            c.bounds_on("v")


class TestEvaluation:
    def test_satisfied_by(self):
        c = Conjunct([geq({"x": 1}, -2), eq({"x": 1, "y": -1})])
        assert c.satisfied_by({"x": 3, "y": 3})
        assert not c.satisfied_by({"x": 1, "y": 1})

    def test_is_satisfied_resolves_wildcards(self):
        # x even
        c = Conjunct.true().add_stride(2, Affine.var("x"))
        assert c.is_satisfied({"x": 4})
        assert not c.is_satisfied({"x": 5})

    def test_is_satisfied_requires_all_free_vars(self):
        c = Conjunct([geq({"x": 1, "y": 1})])
        with pytest.raises(ValueError):
            c.is_satisfied({"x": 0})


class TestCombinators:
    def test_merge_renames_wildcards(self):
        a = Conjunct.true().add_stride(2, Affine.var("x"))
        b = Conjunct.true().add_stride(3, Affine.var("x"))
        m = a.merge(b)
        assert len(m.wildcards) == 2
        assert m.is_satisfied({"x": 6})
        assert not m.is_satisfied({"x": 4})

    def test_substitute(self):
        c = Conjunct([geq({"x": 1}, -2)])
        s = c.substitute("x", Affine({"y": 2}))
        assert s.is_satisfied({"y": 1})
        assert not s.is_satisfied({"y": 0})

    def test_str_shows_strides(self):
        c = Conjunct.true().add_stride(2, Affine({"x": 1}, 1))
        assert "2 | (x + 1)" in str(c)


class TestRowState:
    """Rows are a conjunct's state; constraints are a view of them."""

    CONS = [
        geq({"x": 2, "y": -1}, 3),
        eq({"y": 1, "w": -2}),  # signed 2w - y == 0 (w sorts first)
        geq({"x": -1}, 7),
    ]
    # The same constraints as rows over the index (w, x, y), plus a
    # dead column z that no row uses.
    INDEX = ("w", "x", "y", "z")
    ROWS = [
        (GEQ_ROW, 3, 0, 2, -1, 0),
        (EQ_ROW, 0, 2, 0, -1, 0),
        (GEQ_ROW, 7, 0, -1, 0, 0),
    ]

    def test_rows_and_constraints_build_the_same_conjunct(self):
        from_cons = Conjunct(self.CONS, ["w", "v"])
        from_rows = Conjunct._from_rows(self.INDEX, self.ROWS, ["w", "v"])
        assert from_rows._cons is None  # nothing built yet
        assert from_rows == from_cons
        assert hash(from_rows) == hash(from_cons)
        assert from_rows.constraints == from_cons.constraints
        assert from_rows.constraints == tuple(self.CONS)
        assert from_rows.wildcards == from_cons.wildcards == {"w"}
        assert from_rows._index == ("w", "x", "y")

    def test_equality_is_content_only(self):
        a = Conjunct(self.CONS, ["w"])
        assert a != Conjunct(self.CONS)  # other wildcards
        assert a != Conjunct(self.CONS[::-1], ["w"])  # other order
        assert a == Conjunct(self.CONS + [self.CONS[0]], ["w"])  # dedup
        assert a == Conjunct._from_rows(self.INDEX, self.ROWS * 2, ["w"])

    @pytest.mark.parametrize("shadow", [real_shadow, dark_shadow])
    def test_fm_child_equals_the_same_conjunct_built_fresh(self, shadow):
        # z has one lower and one upper bound, both unit: the real and
        # dark shadows agree, and z's column leaves the child's index.
        parent = Conjunct(
            [
                geq({"z": 1, "x": -1}),
                geq({"z": -1, "y": 1}),
                geq({"x": 1}),
                geq({"y": -1}, 5),
            ]
        )
        child = shadow(parent, "z")
        fresh = Conjunct(
            [geq({"x": 1}), geq({"y": -1}, 5), geq({"x": -1, "y": 1})]
        )
        assert child == fresh
        assert hash(child) == hash(fresh)
        assert child.constraints == fresh.constraints
        assert child._index == ("x", "y")

    def test_fm_child_with_wildcards_equals_fresh(self):
        parent = Conjunct(
            [
                geq({"z": 1, "x": -1}),
                geq({"z": -1, "y": 1}),
                eq({"w": 2, "x": -1}),
                geq({"y": -1}, 5),
            ],
            ["w"],
        )
        child = real_shadow(parent, "z")
        fresh = Conjunct(
            [eq({"w": 2, "x": -1}), geq({"y": -1}, 5), geq({"x": -1, "y": 1})],
            ["w"],
        ).normalize()
        assert child == fresh
        assert child.constraints == fresh.constraints

    def test_rename_re_signs_equalities(self):
        # 2w - y == 0; renamed so the wildcard sorts after y, the
        # equality's first coefficient must stay positive.
        renamed = Conjunct(self.CONS, ["w"]).rename({"w": "zz"})
        assert renamed == Conjunct(
            [geq({"x": 2, "y": -1}, 3), eq({"y": 1, "zz": -2}), geq({"x": -1}, 7)],
            ["zz"],
        )
        assert renamed.constraints[1].expr.coeffs == (("y", 1), ("zz", -2))

    def test_rename_merging_names_adds_columns(self):
        conj = Conjunct([geq({"a": 1, "b": 1}, -1), geq({"a": 1, "b": -1})])
        merged = conj.rename({"b": "a"})
        # a - b becomes the constant row 0 >= 0, kept as a constraint
        # until normalize drops it.
        assert merged == Conjunct([geq({"a": 2}, -1), geq({}, 0)])
        assert merged.normalize() == Conjunct([geq({"a": 1}, -1)])

    def test_substitute_and_solve_match_the_constraint_route(self):
        from repro.omega.equalities import solve_unit

        eq_x = eq({"x": 1, "v": -1}, 2)
        cons = self.CONS + [eq_x, geq({"v": 1})]
        conj = Conjunct(cons, ["w", "v"])
        solved, repl = solve_unit(conj, eq_x, "x")
        assert repl == Affine({"v": 1}, -2)
        want = Conjunct(
            [c.substitute("x", repl) for c in cons if c != eq_x], ["w", "v"]
        )
        assert solved == want
        assert solved.wildcards == {"w", "v"}
        assert conj.substitute("x", repl) == Conjunct(
            [c.substitute("x", repl) for c in conj.constraints], ["w", "v"]
        )

    def test_solve_unit_drops_wildcards_only_the_equality_used(self):
        from repro.omega.equalities import solve_unit

        # w occurs only in the solved equality, so it is no longer a
        # wildcard once the equality is gone, even though the
        # substitution brings it back into x's rows.
        conj = Conjunct([eq({"x": 1, "w": 1, "y": -1}), geq({"x": 1})], ["w"])
        solved, _ = solve_unit(conj, conj.constraints[0], "x")
        assert solved == Conjunct([geq({"w": -1, "y": 1})])
        assert not solved.wildcards

    def test_with_and_without_constraints(self):
        base = Conjunct(self.CONS[:1], ["w"])
        grown = base.with_constraints(self.CONS[1:]).with_wildcards(["w"])
        assert grown == Conjunct(self.CONS, ["w"])
        shrunk = grown.without_constraints([self.CONS[1]])
        assert shrunk == Conjunct([self.CONS[0], self.CONS[2]])
        assert shrunk._index == ("x", "y")
        assert not shrunk.wildcards


class TestNormalizeIterative:
    """normalize() reaches its fixed point by iteration, not recursion.

    Regression: ``return result.normalize()`` recursed once per pass,
    so a chain of wildcard equalities -- each eliminable only after
    the previous one is dropped -- exhausted the interpreter stack.
    """

    @staticmethod
    def _chain(n):
        # w0 == 2*w1, w1 == 2*w2, ..., w_{n-1} == 2*x.  Each pass can
        # only drop the head equality (its wildcard becomes lone), so
        # normalization needs n+1 passes.
        names = ["w%04d" % i for i in range(n)] + ["x"]
        cons = [
            Constraint.eq(Affine({names[i]: 1, names[i + 1]: -2}))
            for i in range(n)
        ]
        return Conjunct(cons, names[:n])

    def test_deep_chain_does_not_recurse(self):
        import sys

        conj = self._chain(300)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(150)
        try:
            out = conj.normalize()
        finally:
            sys.setrecursionlimit(limit)
        assert out is not None and out.is_trivial_true()

    def test_chain_needs_one_pass_per_link(self):
        from repro.core import stats

        with stats.collecting_stats() as counters:
            self._chain(10).normalize()
        assert counters["normalize_iterations"] == 11


class TestNormalizeMemo:
    def test_repeat_call_returns_same_object(self):
        conj = Conjunct([geq({"x": 2}, -3)])
        first = conj.normalize()
        assert conj.normalize() is first

    def test_normalized_result_is_its_own_fixed_point(self):
        conj = Conjunct([geq({"x": 2}, -3)])
        out = conj.normalize()
        assert out.normalize() is out

    def test_infeasible_memoized(self):
        conj = Conjunct([geq({}, -1)])
        assert conj.normalize() is None
        assert conj.normalize() is None

    def test_memo_can_be_disabled(self):
        from repro.omega.problem import set_normalize_memo

        previous = set_normalize_memo(False)
        try:
            conj = Conjunct([geq({"x": 2}, -3)])
            out = conj.normalize()
            assert list(out.constraints) == [geq({"x": 1}, -2)]
            assert conj.normalize() == out
        finally:
            set_normalize_memo(previous)

    def test_memo_not_shared_between_equal_instances(self):
        a = Conjunct([geq({"x": 2}, -3)])
        b = Conjunct([geq({"x": 2}, -3)])
        na, nb = a.normalize(), b.normalize()
        assert na == nb
        assert na is not nb  # per-instance memo, keyed by identity
