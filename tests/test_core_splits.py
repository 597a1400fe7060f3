"""Internal invariants of the summation recursion's case splits.

The multiple-bound split (Section 4.4 steps 3-4) and the residue split
must partition the region: every point in exactly one piece.  These
tests check the partition property directly, independent of the final
counts.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.core import count
from repro.core.convex import _Ctx, _residue_split, _split_bounds, _sum
from repro.core.options import DEFAULT_OPTIONS
from repro.omega import kernels
from repro.omega.affine import Affine
from repro.omega.constraints import Constraint
from repro.omega.problem import Conjunct
from repro.qpoly import Polynomial


def geq(coeffs, const=0):
    return Constraint.geq(Affine(coeffs, const))


class TestMultiBoundSplitPartition:
    def _pieces(self, conj, v, split_uppers):
        col = conj._positions()[v]
        lowers, uppers, rest = kernels.bounds_split(conj._rows, col)
        captured = []

        import repro.core.convex as cx

        original = cx._sum

        def capture(c, cvars, z, ctx):
            captured.append(c)
            return []

        cx._sum = capture
        try:
            _split_bounds(
                conj, (v,), Polynomial.one, _Ctx(DEFAULT_OPTIONS), col,
                lowers, uppers, rest, split_uppers,
            )
        finally:
            cx._sum = original
        return captured

    @given(
        st.lists(st.integers(-4, 6), min_size=2, max_size=3, unique=True),
        st.integers(-2, 2),
    )
    @settings(max_examples=40, deadline=None)
    def test_upper_split_partitions(self, upper_consts, lo):
        cons = [geq({"v": 1}, -lo)]
        for c in upper_consts:
            cons.append(geq({"v": -1, "m": 1}, c))  # v <= m + c
        conj = Conjunct(cons)
        pieces = self._pieces(conj, "v", True)
        assert len(pieces) == len(upper_consts)
        for m in range(-2, 6):
            for v in range(lo, m + max(upper_consts) + 1):
                inside = conj.satisfied_by({"v": v, "m": m})
                hits = sum(
                    1 for p in pieces if p.is_satisfied({"v": v, "m": m})
                )
                assert hits == (1 if inside else 0), (v, m)

    @given(st.lists(st.integers(-4, 4), min_size=2, max_size=3, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_lower_split_partitions(self, lower_consts):
        cons = [geq({"v": -1}, 10)]
        for c in lower_consts:
            cons.append(geq({"v": 1, "m": -1}, -c))  # v >= m + c
        conj = Conjunct(cons)
        pieces = self._pieces(conj, "v", False)
        for m in range(-2, 4):
            for v in range(m - 6, 11):
                inside = conj.satisfied_by({"v": v, "m": m})
                hits = sum(
                    1 for p in pieces if p.is_satisfied({"v": v, "m": m})
                )
                assert hits == (1 if inside else 0), (v, m)


class TestEndToEndSplitCounting:
    @given(
        st.integers(1, 4),
        st.integers(1, 4),
        st.integers(0, 6),
        st.integers(0, 6),
    )
    @settings(max_examples=40, deadline=None)
    def test_min_of_two_symbolic_uppers(self, a, b, n, m):
        text = "1 <= v and v <= n and v <= m"
        r = count(text, ["v"])
        assert r.evaluate(n=n, m=m) == max(min(n, m), 0)

    @given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_three_uppers(self, n, m, k):
        text = "1 <= v and v <= n and v <= m and v <= k"
        r = count(text, ["v"])
        assert r.evaluate(n=n, m=m, k=k) == max(min(n, m, k), 0)

    @given(st.integers(-4, 6), st.integers(-4, 6))
    @settings(max_examples=30, deadline=None)
    def test_max_of_two_lowers(self, n, m):
        text = "n <= v and m <= v and v <= 8"
        r = count(text, ["v"])
        assert r.evaluate(n=n, m=m) == max(8 - max(n, m) + 1, 0)
