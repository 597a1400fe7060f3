"""Formula parser tests."""

import pytest

from repro.presburger.parser import ParseError, parse, parse_expr


class TestChains:
    def test_simple_bound(self):
        f = parse("1 <= i <= 10")
        assert {i for i in range(-5, 20) if f.evaluate({"i": i})} == set(
            range(1, 11)
        )

    def test_strict(self):
        f = parse("0 < i < 4")
        assert {i for i in range(-5, 10) if f.evaluate({"i": i})} == {1, 2, 3}

    def test_mixed_chain(self):
        f = parse("1 <= i < j <= 5")
        sols = {
            (i, j)
            for i in range(0, 7)
            for j in range(0, 7)
            if f.evaluate({"i": i, "j": j})
        }
        assert sols == {(i, j) for i in range(1, 5) for j in range(i + 1, 6)}

    def test_equality(self):
        f = parse("x = 2*y + 1")
        assert f.evaluate({"x": 5, "y": 2})
        assert not f.evaluate({"x": 4, "y": 2})

    def test_not_equal(self):
        f = parse("x != 3")
        assert f.evaluate({"x": 2}) and not f.evaluate({"x": 3})

    def test_greater(self):
        f = parse("x >= 3 and y > x")
        assert f.evaluate({"x": 3, "y": 4})
        assert not f.evaluate({"x": 3, "y": 3})


class TestConnectives:
    def test_precedence_and_binds_tighter(self):
        f = parse("x = 1 and x = 2 or x = 3")
        assert f.evaluate({"x": 3})
        assert not f.evaluate({"x": 1})

    def test_not(self):
        f = parse("not x = 3")
        assert f.evaluate({"x": 2})

    def test_parenthesized_formula(self):
        f = parse("(x = 1 or x = 2) and x != 1")
        assert f.evaluate({"x": 2}) and not f.evaluate({"x": 1})

    def test_true_false(self):
        assert parse("true").evaluate({})
        assert not parse("false").evaluate({})


class TestQuantifiers:
    def test_exists(self):
        f = parse("exists a: x = 2*a and 0 <= a <= 3")
        assert {x for x in range(-2, 10) if f.evaluate({"x": x})} == {0, 2, 4, 6}

    def test_exists_multi(self):
        f = parse("exists a, b: x = 2*a + 3*b and 0 <= a <= 1 and 0 <= b <= 1")
        assert {x for x in range(-1, 8) if f.evaluate({"x": x})} == {0, 2, 3, 5}

    def test_forall(self):
        # all t in 0..3 satisfy x >= t  <=>  x >= 3
        f = parse("forall t: not (0 <= t <= 3) or x >= t")
        assert {x for x in range(-2, 6) if f.evaluate({"x": x})} == {3, 4, 5}

    def test_body_extends_right(self):
        f = parse("exists a: x = 2*a and 0 <= a <= 4")
        assert sorted(f.free_variables()) == ["x"]


class TestNonlinear:
    def test_floor(self):
        f = parse("floor(x/3) = 2")
        assert {x for x in range(0, 12) if f.evaluate({"x": x})} == {6, 7, 8}

    def test_ceil(self):
        f = parse("ceil(x/3) = 2")
        assert {x for x in range(0, 12) if f.evaluate({"x": x})} == {4, 5, 6}

    def test_mod(self):
        f = parse("x mod 4 = 1")
        assert {x for x in range(-4, 10) if f.evaluate({"x": x})} == {-3, 1, 5, 9}

    def test_mod_of_expression(self):
        f = parse("(2*x + 1) mod 3 = 0")
        assert {x for x in range(0, 10) if f.evaluate({"x": x})} == {1, 4, 7}

    def test_divides(self):
        f = parse("3 divides (x + 1)")
        assert {x for x in range(0, 10) if f.evaluate({"x": x})} == {2, 5, 8}

    def test_pipe_divides(self):
        f = parse("3 | x + 1")
        assert f.evaluate({"x": 2}) and not f.evaluate({"x": 3})

    def test_floor_in_equality_with_vars(self):
        # the paper's HPF mapping: l = t - 4p - 32*floor(t/32)
        f = parse("c = floor(t/32)")
        assert f.evaluate({"t": 65, "c": 2})
        assert not f.evaluate({"t": 65, "c": 1})


class TestErrors:
    def test_unexpected_token(self):
        with pytest.raises(ParseError):
            parse("x #")

    def test_missing_comparison(self):
        with pytest.raises(ParseError):
            parse("x + 1")

    def test_nonlinear_product(self):
        with pytest.raises(ParseError):
            parse("x*y = 3")

    def test_nonconstant_stride(self):
        with pytest.raises(ParseError):
            parse("n | x")

    def test_keyword_as_variable(self):
        with pytest.raises(ParseError):
            parse("exists and: true")

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse("x = 1 y")

    def test_constant_times_expr_ok(self):
        f = parse("2*(x + 1) = 6")
        assert f.evaluate({"x": 2})

    @pytest.mark.parametrize(
        "text,char,pos",
        [("i <= $", "$", 5), ("1 <= i <= n and j # 2", "#", 18), ("i <=$", "$", 4)],
    )
    def test_bad_character_reported_at_its_own_position(self, text, char, pos):
        # Not at the whitespace before it, where the previous token ended.
        with pytest.raises(ParseError) as info:
            parse(text)
        assert str(info.value) == "unexpected character %r at %d" % (char, pos)
