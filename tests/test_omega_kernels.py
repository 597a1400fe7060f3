"""Dense row kernels: round-trips, pinned edge cases, building blocks.

``repro.omega.kernels`` is the substrate ``Conjunct.normalize`` and
the Fourier-Motzkin steps run on.  This file pins the normalize edge
cases the row sweep must get right -- opposed-pair collapse, stride
representative tie-breaking, empty-interval kill -- plus the row-level
building blocks.  The brute-force property in
``test_property_omega.py`` checks normalize against integer points.
"""

import pytest

from repro.omega.affine import Affine
from repro.omega.constraints import EQ, GEQ, Constraint
from repro.omega.kernels import (
    EQ_ROW,
    GEQ_ROW,
    bounds_profiles,
    bounds_split,
    compact,
    constraint_from_row,
    fm_combine,
    normalize_rows,
    reindex,
    resign,
    rows_from_constraints,
    union_index,
)
from repro.omega.problem import Conjunct


def geq(coeffs, const=0):
    return Constraint.geq(Affine(coeffs, const))


def eq(coeffs, const=0):
    return Constraint.eq(Affine(coeffs, const))


class TestRowRoundTrip:
    def test_rows_from_constraints_layout(self):
        cons = (geq({"y": 2, "x": -1}, 7), eq({"x": 3, "z": 5}, -4))
        index, pos, rows = rows_from_constraints(cons)
        assert index == ("x", "y", "z")
        assert pos == {"x": 2, "y": 3, "z": 4}
        assert rows == ((GEQ_ROW, 7, -1, 2, 0), (EQ_ROW, -4, 3, 0, 5))

    def test_round_trip_preserves_constraints(self):
        cons = (
            geq({"a": 4, "c": -9}, 1),
            eq({"b": 2, "c": 3}, 0),
            geq({}, 5),
        )
        index, _, rows = rows_from_constraints(cons)
        back = tuple(constraint_from_row(index, row) for row in rows)
        assert back == cons

    def test_materialized_constraints_hash_like_originals(self):
        c = geq({"a": 4, "c": -9}, 1)
        index, _, rows = rows_from_constraints((c,))
        rebuilt = constraint_from_row(index, rows[0])
        assert rebuilt == c and hash(rebuilt) == hash(c)


class TestBlockHelpers:
    def test_resign_matches_constraint_sign_rule(self):
        index = ("x", "y")
        for row in [(EQ_ROW, 4, -2, 3), (EQ_ROW, 4, 0, -3), (EQ_ROW, -2, 0, 0)]:
            expr = Affine(dict(zip(index, row[2:])), row[1])
            want = Constraint.eq(expr)
            assert constraint_from_row(index, resign(row)) == want
        assert resign((EQ_ROW, 1, 2, -3)) == (EQ_ROW, 1, 2, -3)
        assert resign((GEQ_ROW, 1, -2, 3)) == (GEQ_ROW, 1, -2, 3)

    def test_compact_drops_dead_columns_only(self):
        rows = ((GEQ_ROW, 1, 0, 2, 0), (EQ_ROW, 0, 0, 1, -1))
        assert compact(("a", "b", "c"), rows) == (
            ("b", "c"),
            ((GEQ_ROW, 1, 2, 0), (EQ_ROW, 0, 1, -1)),
        )
        live = ((GEQ_ROW, 1, 3, 2),)
        index = ("a", "b")
        assert compact(index, live) == (index, live)
        assert compact(index, ()) == ((), ())

    def test_reindex_into_a_wider_index(self):
        rows = ((EQ_ROW, 5, 1, -2),)
        wider = union_index(("b", "d"), ("a", "c", "d"))
        assert wider == ("a", "b", "c", "d")
        assert list(reindex(("b", "d"), rows, wider)) == [
            (EQ_ROW, 5, 0, 1, 0, -2)
        ]
        assert union_index(("a", "b"), ("b",)) == ("a", "b")


class TestNormalizeRowsKernel:
    def test_gcd_tighten_floor_division(self):
        # 2x - 3 >= 0 tightens to x - 2 >= 0 (floor, not truncation).
        _, _, rows = rows_from_constraints((geq({"x": 2}, -3),))
        eq_rows, geq_rows = normalize_rows(rows)
        assert eq_rows == [] and geq_rows == [(GEQ_ROW, -2, 1)]

    def test_constant_rows(self):
        _, _, rows = rows_from_constraints((geq({}, 3), geq({"x": 1}, 0)))
        assert normalize_rows(rows) == ([], [(GEQ_ROW, 0, 1)])
        _, _, rows = rows_from_constraints((geq({}, -1),))
        assert normalize_rows(rows) is None
        _, _, rows = rows_from_constraints((eq({}, 2),))
        assert normalize_rows(rows) is None

    def test_eq_divisibility_kill(self):
        _, _, rows = rows_from_constraints((eq({"x": 2, "y": 4}, -3),))
        assert normalize_rows(rows) is None

    def test_parallel_merge_keeps_tightest(self):
        _, _, rows = rows_from_constraints(
            (geq({"x": 1}, -5), geq({"x": 1}, -3), geq({"x": 2}, -6))
        )
        assert normalize_rows(rows) == ([], [(GEQ_ROW, -5, 1)])


class TestPinnedEdgeCases:
    """Normalize edge cases the row sweep re-implements."""

    def test_opposed_pair_collapse_single_eq(self):
        # x + 2y >= 4 and x + 2y <= 4 pin the expression: exactly one
        # EQ must come out, sign-canonical, with both GEQs consumed.
        conj = Conjunct(
            [geq({"x": 1, "y": 2}, -4), geq({"x": -1, "y": -2}, 4)]
        ).normalize()
        assert list(conj.constraints) == [eq({"x": 1, "y": 2}, -4)]

    def test_opposed_pair_scaled_copies_still_single_eq(self):
        # The same interval arriving as scaled duplicates collapses to
        # the same single equality.
        conj = Conjunct(
            [
                geq({"x": 2, "y": 4}, -8),
                geq({"x": 1, "y": 2}, -4),
                geq({"x": -3, "y": -6}, 12),
            ]
        ).normalize()
        assert list(conj.constraints) == [eq({"x": 1, "y": 2}, -4)]

    def test_empty_interval_kill(self):
        # x + y >= 5 and x + y <= 3: empty interval, conjunct dies.
        conj = Conjunct(
            [geq({"x": 1, "y": 1}, -5), geq({"x": -1, "y": -1}, 3)]
        ).normalize()
        assert conj is None

    def test_stride_representative_tie_break(self):
        # 3w == n + 1 and 3w' == -n - 1 describe the same stride; the
        # canonical representative is the lexicographically smaller of
        # the residue pair (r0 vs r1 in _finish_normalize), so both
        # spellings normalize to the identical constraint.
        a = Conjunct([eq({"w": 3, "n": -1}, -1)], ["w"]).normalize()
        b = Conjunct([eq({"w": 3, "n": 1}, 1)], ["w"]).normalize()
        (wa,) = a.wildcards
        (wb,) = b.wildcards
        assert [c.rename({wb: wa}) for c in b.constraints] == list(
            a.constraints
        )
        assert a.constraints[0].is_eq()
        # And normalization is a fixed point: no oscillation between
        # the two representatives on repeated passes.
        assert a.normalize() is a


class TestBoundsKernels:
    CONS = (
        geq({"x": 2, "y": 1}, 0),   # lower bound on x
        geq({"x": -3, "z": 1}, 5),  # upper bound on x
        geq({"y": 1, "z": -1}, 2),  # rest
    )

    def test_bounds_split(self):
        _, pos, rows = rows_from_constraints(self.CONS)
        lowers, uppers, rest = bounds_split(rows, pos["x"])
        assert [r[pos["x"]] for r in lowers] == [2]
        assert [r[pos["x"]] for r in uppers] == [-3]
        assert len(rest) == 1

    def test_bounds_split_rejects_eq_rows(self):
        _, pos, rows = rows_from_constraints(
            (eq({"x": 1, "y": 1}, 0), geq({"x": 1}, 0))
        )
        with pytest.raises(ValueError):
            bounds_split(rows, pos["x"])

    def test_bounds_profiles_matches_bounds_on(self):
        # The reference reads every bound straight off the constraint
        # objects' coefficients.  One conjunct is built from
        # constraints, the other from rows, with its constraints a view.
        from_cons = Conjunct(self.CONS)
        from_rows = from_cons.rename({"y": "a"}).rename({"a": "y"})
        assert from_rows._cons is None
        for conj in (from_cons, from_rows):
            self._check_against_coefficients(conj)

    @staticmethod
    def _check_against_coefficients(conj):
        profiles = conj.bounds_profiles()
        assert set(profiles) == {"x", "y", "z"}
        for v in ("x", "y", "z"):
            lower = [c for c in conj.constraints if c.coeff(v) > 0]
            upper = [c for c in conj.constraints if c.coeff(v) < 0]
            assert profiles[v] == (
                len(lower),
                len(upper),
                all(c.coeff(v) == 1 for c in lower),
                all(c.coeff(v) == -1 for c in upper),
            )
            lowers, uppers, rest = conj.bounds_on(v)
            # k·v + e >= 0 is the lower bound -e <= k·v when k > 0,
            # and the upper bound |k|·v <= e when k < 0.
            assert lowers == [
                (c.coeff(v), -(c.expr - Affine({v: c.coeff(v)})))
                for c in lower
            ]
            assert uppers == [
                (-c.coeff(v), c.expr - Affine({v: c.coeff(v)}))
                for c in upper
            ]
            assert rest == [c for c in conj.constraints if not c.coeff(v)]


class TestFmCombine:
    def test_reuses_untouched_rows(self):
        cons = (
            geq({"z": 2, "x": 1}, 0),
            geq({"z": -3, "y": 1}, 0),
            geq({"x": 1, "y": 1}, 6),
            geq({"x": -1}, 9),
        )
        _, pos, rows = rows_from_constraints(cons)
        new_rows, reused, one_sided = fm_combine(rows, pos["z"], False)
        assert not one_sided
        assert reused == 2  # the two z-free rows carried over verbatim
        assert rows[2] in new_rows and rows[3] in new_rows

    def test_one_sided_elimination(self):
        cons = (geq({"z": 1, "x": 1}, 0), geq({"x": 1}, 3))
        _, pos, rows = rows_from_constraints(cons)
        new_rows, reused, one_sided = fm_combine(rows, pos["z"], False)
        assert one_sided
        assert new_rows == (rows[1],)
        assert reused == 1

    def test_dark_shadow_constant(self):
        # 2z >= -x, 3z <= y: real combine 2y - 3(-x) = 3x + 2y >= 0;
        # dark subtracts (a-1)(b-1) = 2.
        cons = (geq({"z": 2, "x": 1}, 0), geq({"z": -3, "y": 1}, 0))
        _, pos, rows = rows_from_constraints(cons)
        real, _, _ = fm_combine(rows, pos["z"], False)
        dark, _, _ = fm_combine(rows, pos["z"], True)
        assert len(real) == len(dark) == 1
        assert real[0][1] - dark[0][1] == 2
        assert real[0][pos["z"]] == 0
