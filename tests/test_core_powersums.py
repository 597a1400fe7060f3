"""Closed-form range summation tests (Section 4.1)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.powersums import (
    count_range,
    faulhaber_polynomial,
    power_sum,
    sum_over_range,
)
from repro.qpoly import ModAtom, Polynomial


class TestFaulhaberPolynomial:
    def test_paper_example(self):
        # (Σ i : 1<=i<=n : i^2) = n(n+1)(2n+1)/6 (§4.1's example form)
        n = Polynomial.variable("n")
        f2 = power_sum(2, n)
        for k in range(0, 20):
            assert f2.evaluate({"n": k}) == sum(i * i for i in range(1, k + 1))

    def test_composition(self):
        # F_1 composed with (m - 1)
        arg = Polynomial.from_affine({"m": 1}, -1)
        f = faulhaber_polynomial(1, arg)
        for m in range(0, 10):
            assert f.evaluate({"m": m}) == (m - 1) * m / 2


class TestSumOverRange:
    @given(st.integers(0, 4), st.integers(-8, 8), st.integers(0, 10))
    @settings(max_examples=60)
    def test_constant_bounds(self, p, lo, length):
        hi = lo + length
        z = Polynomial.variable("v") ** p
        total = sum_over_range(
            z, "v", Polynomial.constant(lo), Polynomial.constant(hi)
        )
        assert total.constant_value() == sum(
            Fraction(v) ** p for v in range(lo, hi + 1)
        )

    def test_symbolic_bounds(self):
        # Σ_{v=a}^{b} v  ==  (b(b+1) - (a-1)a)/2
        z = Polynomial.variable("v")
        total = sum_over_range(
            z, "v", Polynomial.variable("a"), Polynomial.variable("b")
        )
        for a in range(-5, 5):
            for b in range(a, a + 6):
                assert total.evaluate({"a": a, "b": b}) == sum(range(a, b + 1))

    def test_polynomial_summand(self):
        # Σ (3v^2 - v + n): mixes powers and a free symbol
        v, n = Polynomial.variable("v"), Polynomial.variable("n")
        z = 3 * v ** 2 - v + n
        total = sum_over_range(z, "v", Polynomial.constant(1), n)
        for k in range(1, 10):
            want = sum(3 * i * i - i + k for i in range(1, k + 1))
            assert total.evaluate({"n": k}) == want

    def test_fractional_bounds_on_lattice(self):
        # bounds (n - n mod 3)/3 style: exact at integral points
        z = Polynomial.one
        lower = Polynomial.constant(1)
        upper = Polynomial.variable("n") * Fraction(1, 3)
        total = sum_over_range(z, "v", lower, upper)
        for n in range(3, 30, 3):  # only where upper is integral
            assert total.evaluate({"n": n}) == n // 3

    @given(
        st.lists(st.integers(-3, 3), min_size=1, max_size=5),
        st.sampled_from(["n", "m", "mod"]),
        st.sampled_from(
            [
                (Polynomial.one, Polynomial.variable("n")),
                (Polynomial.variable("m") + 2, Polynomial.variable("n") * 2),
                (
                    Polynomial.variable("n") * Fraction(1, 3),
                    Polynomial.variable("m") - Polynomial.variable("n"),
                ),
            ]
        ),
    )
    @settings(max_examples=60)
    def test_matches_the_per_power_faulhaber_form(self, coeffs, symbol, bounds):
        """Regrouping by powers of the bounds gives exactly the sum of
        ``a_p·(F_p(U) - F_p(L-1))`` over the powers ``p`` of ``v``."""
        v = Polynomial.variable("v")
        if symbol == "mod":
            factor = Polynomial.atom(ModAtom({"n": 1}, 0, 2))
        else:
            factor = Polynomial.variable(symbol)
        z = Polynomial.zero
        for p, c in enumerate(coeffs):
            z = z + v ** p * factor ** (p % 2) * c
        lower, upper = bounds
        want = Polynomial.zero
        for p, a in z.coefficients_in("v").items():
            want = want + a * (
                faulhaber_polynomial(p, upper)
                - faulhaber_polynomial(p, lower - 1)
            )
        assert sum_over_range(z, "v", lower, upper).terms == want.terms

    def test_count_range(self):
        c = count_range(Polynomial.variable("a"), Polynomial.variable("b"))
        assert c.evaluate({"a": 2, "b": 7}) == 6
