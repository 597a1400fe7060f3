"""A tiny parser for polynomial summands.

``parse_polynomial("i*i + 2*j - 3")`` builds the
:class:`~repro.qpoly.polynomial.Polynomial` used as the summand z of
``(Σ V : P : z)``.  Supports +, -, *, **, integer literals, variables
and parentheses (full polynomial arithmetic, unlike the affine
expressions of the constraint language).

Parsing expands products and powers, and a short text can expand to
a huge polynomial (``(i+j+k)**80`` has 3,321 terms).  The parser
therefore counts the term products of every multiplication it does,
``len(a.terms) * len(b.terms)``, and rejects the summand once their
total passes :data:`TERM_PRODUCT_LIMIT`.
"""

import re
from typing import List, Optional

from repro.qpoly.polynomial import Polynomial

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9']*)"
    r"|(?P<op>\*\*|[-+*()])|(?P<bad>\S))"
)

#: Most term products one summand's expansion may take.
TERM_PRODUCT_LIMIT = 4000


class PolynomialParseError(ValueError):
    pass


def parse_polynomial(text: str) -> Polynomial:
    tokens: List[str] = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise PolynomialParseError(
                "unexpected character %r at %d"
                % (m.group(kind), m.start(kind))
            )
        tokens.append(m.group(kind))
    state = _State(tokens)
    poly = _sum(state)
    if state.peek() is not None:
        raise PolynomialParseError("trailing input %r" % state.peek())
    return poly


class _State:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.products = 0

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise PolynomialParseError("unexpected end of input")
        self.pos += 1
        return tok

    def mul(self, a: Polynomial, b: Polynomial) -> Polynomial:
        """``a * b``, its term products charged before it is expanded."""
        self.products += len(a.terms) * len(b.terms)
        if self.products > TERM_PRODUCT_LIMIT:
            raise PolynomialParseError(
                "summand too large: expanding it takes more than %d"
                " term products" % TERM_PRODUCT_LIMIT
            )
        return a * b

    def power(self, base: Polynomial, exp: int) -> Polynomial:
        """``base ** exp``, squaring as ``Polynomial.__pow__`` does.

        Each product is charged through :meth:`mul`, so a rejected
        power stops before its largest squaring.
        """
        result = Polynomial.constant(1)
        while exp:
            if exp & 1:
                result = self.mul(result, base)
            exp >>= 1
            if exp:
                base = self.mul(base, base)
        return result


def _sum(s: _State) -> Polynomial:
    value = _product(s)
    while s.peek() in ("+", "-"):
        op = s.next()
        rhs = _product(s)
        value = value + rhs if op == "+" else value - rhs
    return value


def _product(s: _State) -> Polynomial:
    value = _power(s)
    while s.peek() == "*":
        s.next()
        value = s.mul(value, _power(s))
    return value


def _power(s: _State) -> Polynomial:
    # Unary minus binds looser than **, so -x**2 means -(x**2) (the
    # usual mathematical and Python convention, and what str(Polynomial)
    # means when it prints a leading minus).
    if s.peek() == "-":
        s.next()
        return -_power(s)
    base = _atom(s)
    if s.peek() == "**":
        s.next()
        exp = s.next()
        if not exp.isdigit():
            raise PolynomialParseError("exponent must be an integer")
        return s.power(base, int(exp))
    return base


def _atom(s: _State) -> Polynomial:
    tok = s.peek()
    if tok is None:
        raise PolynomialParseError("unexpected end of input")
    if tok == "(":
        s.next()
        inner = _sum(s)
        if s.next() != ")":
            raise PolynomialParseError("expected )")
        return inner
    s.next()
    if tok.isdigit():
        return Polynomial.constant(int(tok))
    if re.match(r"^[A-Za-z_]", tok):
        return Polynomial.variable(tok)
    raise PolynomialParseError("unexpected token %r" % tok)
