"""Polynomial arithmetic and structure tests."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.qpoly import ModAtom, Polynomial
from repro.qpoly.polynomial import _normalize_monomial

envs = st.fixed_dictionaries(
    {"x": st.integers(-8, 8), "y": st.integers(-8, 8), "n": st.integers(-8, 8)}
)


def random_poly():
    x, y, n = (Polynomial.variable(v) for v in "xyn")
    return st.sampled_from(
        [
            x * x + 2 * y - 3,
            (x + y) ** 2,
            x * y * n - Fraction(1, 2) * x,
            Polynomial.constant(7),
            Polynomial.zero,
            x ** 3 - y ** 3,
            Polynomial.atom(ModAtom({"n": 1}, 1, 3)) * x - y * n,
        ]
    )


def in_normal_form(p):
    """What the normalizing constructor would have built."""
    for mono, coef in p.terms.items():
        assert type(coef) is Fraction and coef
        assert _normalize_monomial(mono) == mono
    return p.terms == Polynomial(dict(p.terms)).terms


class TestBasics:
    def test_zero_and_one(self):
        assert Polynomial.zero.is_zero()
        assert Polynomial.one.constant_value() == 1

    def test_constant_value_nonconstant_raises(self):
        with pytest.raises(ValueError):
            Polynomial.variable("x").constant_value()

    def test_equality_ignores_zero_coeffs(self):
        x = Polynomial.variable("x")
        assert x - x == Polynomial.zero

    def test_from_affine(self):
        p = Polynomial.from_affine({"i": 2, "j": -1}, 3)
        assert p.evaluate({"i": 5, "j": 1}) == 12

    def test_fraction_coefficients(self):
        p = Polynomial.variable("x") * Fraction(1, 3)
        assert p.evaluate({"x": 2}) == Fraction(2, 3)

    def test_immutability(self):
        p = Polynomial.variable("x")
        with pytest.raises(AttributeError):
            p.terms = {}


class TestArithmetic:
    @given(random_poly(), random_poly(), envs)
    @settings(max_examples=60)
    def test_add_homomorphic(self, p, q, env):
        assert (p + q).evaluate(env) == p.evaluate(env) + q.evaluate(env)

    @given(random_poly(), random_poly(), envs)
    @settings(max_examples=60)
    def test_mul_homomorphic(self, p, q, env):
        assert (p * q).evaluate(env) == p.evaluate(env) * q.evaluate(env)

    @given(random_poly(), envs)
    @settings(max_examples=40)
    def test_neg_sub(self, p, env):
        assert (p - p).is_zero()
        assert (-p).evaluate(env) == -p.evaluate(env)

    @given(random_poly(), st.integers(0, 4), envs)
    @settings(max_examples=40)
    def test_pow(self, p, k, env):
        assert (p ** k).evaluate(env) == p.evaluate(env) ** k

    def test_pow_negative_raises(self):
        with pytest.raises(ValueError):
            Polynomial.variable("x") ** -1

    def test_scalar_div(self):
        p = Polynomial.variable("x") / 4
        assert p.evaluate({"x": 2}) == Fraction(1, 2)

    @given(
        random_poly(),
        random_poly(),
        st.sampled_from([0, 3, -1, Fraction(0), Fraction(-2, 5)]),
    )
    @settings(max_examples=80)
    def test_results_are_in_normal_form(self, p, q, scalar):
        """Arithmetic builds its results without re-normalizing them,
        so each must already be what ``Polynomial(terms)`` makes."""
        results = [
            p + q, p - q, q - p, -p, p * q, q * p, p * scalar, scalar * p,
            p + scalar, scalar - p, p / 7, p ** 2,
            p.substitute("x", q), p.rename({"x": "y"}),
        ]
        results.extend(p.coefficients_in("y").values())
        for result in results:
            assert in_normal_form(result)


class TestStructure:
    def test_degree(self):
        x, y = Polynomial.variable("x"), Polynomial.variable("y")
        p = x ** 3 * y + y ** 2
        assert p.degree_in("x") == 3
        assert p.degree_in("y") == 2
        assert p.total_degree() == 4

    def test_coefficients_in(self):
        x, n = Polynomial.variable("x"), Polynomial.variable("n")
        p = 3 * x ** 2 + n * x - 5
        by = p.coefficients_in("x")
        assert by[2].constant_value() == 3
        assert by[1] == n
        assert by[0].constant_value() == -5

    def test_coefficients_in_rejects_mod_capture(self):
        p = Polynomial.atom(ModAtom({"x": 1}, 0, 2))
        with pytest.raises(ValueError):
            p.coefficients_in("x")

    def test_substitute(self):
        x, y = Polynomial.variable("x"), Polynomial.variable("y")
        p = x ** 2 + 1
        q = p.substitute("x", y - 1)
        assert q == y ** 2 - 2 * y + 2

    def test_substitute_into_mod_atom(self):
        p = Polynomial.atom(ModAtom({"x": 1}, 0, 4))
        q = p.substitute("x", Polynomial.from_affine({"y": 2}, 1))
        for y in range(-6, 6):
            assert q.evaluate({"y": y}) == (2 * y + 1) % 4

    def test_substitute_nonaffine_into_mod_raises(self):
        p = Polynomial.atom(ModAtom({"x": 1}, 0, 4))
        with pytest.raises(ValueError):
            p.substitute("x", Polynomial.variable("y") ** 2)

    def test_variables_includes_mod_atoms(self):
        p = Polynomial.atom(ModAtom({"n": 1}, 0, 2)) + Polynomial.variable("m")
        assert set(p.variables()) == {"n", "m"}

    def test_rename(self):
        p = Polynomial.variable("x") * Polynomial.atom(ModAtom({"x": 1}, 0, 2))
        q = p.rename({"x": "t"})
        for t in range(-4, 4):
            assert q.evaluate({"t": t}) == t * (t % 2)

    def test_as_integer_affine(self):
        p = Polynomial.from_affine({"i": 2}, -1)
        assert p.as_integer_affine() == ({"i": 2}, -1)

    def test_as_integer_affine_rejects_quadratic(self):
        with pytest.raises(ValueError):
            (Polynomial.variable("i") ** 2).as_integer_affine()

    def test_as_integer_affine_rejects_fractions(self):
        with pytest.raises(ValueError):
            (Polynomial.variable("i") / 2).as_integer_affine()


class TestDisplay:
    def test_str_sorted_by_degree(self):
        x = Polynomial.variable("x")
        assert str(x ** 2 - x) == "x**2 - x"

    def test_str_zero(self):
        assert str(Polynomial.zero) == "0"

    def test_str_mod_atom(self):
        p = Polynomial.atom(ModAtom({"n": 1}, 0, 2))
        assert "mod 2" in str(p)
