"""Polynomial summand parser tests."""

import pytest

from repro.qpoly.parse import (
    TERM_PRODUCT_LIMIT,
    PolynomialParseError,
    parse_polynomial,
)
from repro.qpoly.polynomial import Polynomial


class TestParse:
    def test_affine(self):
        p = parse_polynomial("2*i - 3*j + 7")
        assert p.evaluate({"i": 1, "j": 2}) == 3

    def test_product(self):
        p = parse_polynomial("i*i + i*j")
        assert p.evaluate({"i": 2, "j": 3}) == 10

    def test_power(self):
        p = parse_polynomial("i**3 - 1")
        assert p.evaluate({"i": 2}) == 7

    def test_parentheses(self):
        p = parse_polynomial("(i + j)**2")
        assert p.evaluate({"i": 1, "j": 2}) == 9

    def test_unary_minus(self):
        p = parse_polynomial("-i * -j")
        assert p.evaluate({"i": 2, "j": 3}) == 6

    def test_constant(self):
        assert parse_polynomial("42").constant_value() == 42

    def test_precedence(self):
        p = parse_polynomial("1 + 2*i**2")
        assert p.evaluate({"i": 3}) == 19

    def test_trailing_garbage(self):
        with pytest.raises(PolynomialParseError):
            parse_polynomial("i + )")

    def test_bad_exponent(self):
        with pytest.raises(PolynomialParseError):
            parse_polynomial("i**j")

    def test_unclosed_paren(self):
        with pytest.raises(PolynomialParseError):
            parse_polynomial("(i + j")

    def test_empty(self):
        with pytest.raises(PolynomialParseError):
            parse_polynomial("")

    @pytest.mark.parametrize(
        "text, char, pos",
        [("i + $", "$", 4), ("i*j # 2", "#", 4), ("@i", "@", 0)],
    )
    def test_bad_character_reported_at_its_position(self, text, char, pos):
        with pytest.raises(PolynomialParseError) as err:
            parse_polynomial(text)
        assert str(err.value) == "unexpected character %r at %d" % (char, pos)


class TestExpansionBound:
    @pytest.mark.parametrize(
        "text",
        [
            "(i+j+k)**20",
            "(i+j+k)**30",
            "(i+j+k)**80",
            "(i+1)**100000",
            pytest.param(
                "*".join(["(a+b+c+d+e+f+g+h)"] * 6), id="six-sum-product"
            ),
        ],
    )
    def test_oversized_expansion_rejected(self, text):
        with pytest.raises(PolynomialParseError) as err:
            parse_polynomial(text)
        assert "%d term products" % TERM_PRODUCT_LIMIT in str(err.value)

    def test_largest_power_under_the_bound_parses(self):
        # 9 + 36 + 225 + 2025 + 153 term products.
        p = parse_polynomial("(i+j+k)**16")
        assert len(p.terms) == 153
        assert p.evaluate({"i": 1, "j": 1, "k": 1}) == 3 ** 16

    def test_power_of_a_monomial_stays_cheap(self):
        p = parse_polynomial("2*i**100000000000000000000")
        assert p == Polynomial.variable("i") ** 100000000000000000000 * 2


class TestPow:
    @pytest.mark.parametrize(
        "base", ["i + 2*j - 1", "3", "0", "i*j - j**2 + 5"]
    )
    def test_equals_repeated_multiplication(self, base):
        poly = parse_polynomial(base)
        want = Polynomial.constant(1)
        for exp in range(10):
            assert poly ** exp == want
            assert parse_polynomial("(%s)**%d" % (base, exp)) == want
            want = want * poly
