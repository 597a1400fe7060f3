"""A small text syntax for Presburger formulas.

Grammar (informal)::

    formula  := disj
    disj     := conj ('or' conj)*
    conj     := unary ('and' unary)*
    unary    := 'not' unary | quantifier | primary
    quantifier := ('exists' | 'forall') names ':' unary
    primary  := '(' formula ')' | chain | stride | 'true' | 'false'
    chain    := expr (relop expr)+          relop: <= < >= > = == !=
    stride   := INT 'divides' expr          (also INT '|' expr)
    expr     := term (('+'|'-') term)* ('mod' INT)?
    term     := factor ('*' factor)* ('mod' INT)?
    factor   := INT | NAME | '-' factor | '(' expr ')'
              | 'floor(' expr '/' INT ')' | 'ceil(' expr '/' INT ')'

Examples::

    parse("1 <= i <= n and 2*i <= 3*j")
    parse("exists a: 5 <= a <= 27 and x = 3*a - 1")
    parse("x mod 16 = 0 or 3 divides (n - 1)")
    parse("l = t - 4*p - 32*floor(t/32) and 0 <= l <= 3")
"""

import re
from typing import List, Optional

from repro.omega.affine import Affine
from repro.omega.constraints import Constraint
from repro.presburger.ast import (
    And,
    Exists,
    FalseF,
    Forall,
    Formula,
    Not,
    Or,
    StrideAtom,
    TrueF,
)
from repro.presburger.nonlinear import (
    NLCeil,
    NLExpr,
    NLFloor,
    NLLin,
    NLMod,
    lower,
    lowered_atom,
)

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9']*)"
    r"|(?P<op><=|>=|==|!=|[-+*/()=<>:,|])|(?P<bad>\S))"
)

_KEYWORDS = {
    "and",
    "or",
    "not",
    "exists",
    "forall",
    "mod",
    "floor",
    "ceil",
    "divides",
    "true",
    "false",
}


class ParseError(ValueError):
    """Raised on malformed formula text."""


class _Tokens:
    """A token stream with one-token lookahead.

    One ``finditer`` pass splits the text and records each token's
    kind (``num``, ``name`` or ``op``); a character no token starts
    with is reported at its own position.  Both lists end in a
    ``None`` sentinel, which nothing consumes, so a lookahead needs no
    bounds check.
    """

    def __init__(self, text: str):
        self.tokens: List[Optional[str]] = []
        self.kinds: List[Optional[str]] = []
        for m in _TOKEN.finditer(text):
            kind = m.lastgroup
            if kind == "bad":
                raise ParseError(
                    "unexpected character %r at %d"
                    % (m.group(kind), m.start(kind))
                )
            self.kinds.append(kind)
            self.tokens.append(m.group(kind))
        self.tokens.append(None)
        self.kinds.append(None)
        self.pos = 0

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos]

    def kind(self) -> Optional[str]:
        """The kind of the next token, ``None`` at the end."""
        return self.kinds[self.pos]

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        self.pos += 1
        return tok

    def accept(self, token: str) -> bool:
        if self.peek() == token:
            self.pos += 1
            return True
        return False

    def expect(self, token: str) -> None:
        got = self.peek()
        if got != token:
            raise ParseError("expected %r, got %r" % (token, got))
        self.pos += 1


def parse(text: str) -> Formula:
    """Parse a formula from text."""
    toks = _Tokens(text)
    formula = _parse_disj(toks)
    if toks.peek() is not None:
        raise ParseError("trailing input at token %r" % toks.peek())
    return formula


def parse_expr(text: str) -> NLExpr:
    """Parse just an expression (possibly with floor/ceil/mod)."""
    toks = _Tokens(text)
    expr = _parse_sum(toks)
    if toks.peek() is not None:
        raise ParseError("trailing input at token %r" % toks.peek())
    return expr


def _parse_disj(toks: _Tokens) -> Formula:
    parts = [_parse_conj(toks)]
    while toks.accept("or"):
        parts.append(_parse_conj(toks))
    return Or.of(*parts)


def _parse_conj(toks: _Tokens) -> Formula:
    parts = [_parse_unary(toks)]
    while toks.accept("and"):
        parts.append(_parse_unary(toks))
    return And.of(*parts)


def _parse_unary(toks: _Tokens) -> Formula:
    if toks.accept("not"):
        return Not(_parse_unary(toks))
    if toks.peek() in ("exists", "forall"):
        kind = toks.next()
        names = [_parse_name(toks)]
        while toks.accept(","):
            names.append(_parse_name(toks))
        toks.expect(":")
        # The quantifier body extends as far right as possible (to the
        # closing paren or end of input), matching the paper's usage.
        body = _parse_disj(toks)
        return (Exists if kind == "exists" else Forall)(names, body)
    return _parse_primary(toks)


def _parse_name(toks: _Tokens) -> str:
    kind = toks.kind()
    tok = toks.next()
    if kind != "name" or tok in _KEYWORDS:
        raise ParseError("expected a variable name, got %r" % tok)
    return tok


_RELOPS = {"<=", "<", ">=", ">", "=", "==", "!="}


def _parse_primary(toks: _Tokens) -> Formula:
    if toks.accept("true"):
        return TrueF
    if toks.accept("false"):
        return FalseF
    if toks.peek() == "(":
        # Could be a parenthesized formula or a parenthesized expression
        # beginning a chain; try formula first, backtracking on failure.
        save = toks.pos
        try:
            toks.expect("(")
            inner = _parse_disj(toks)
            toks.expect(")")
            if toks.peek() not in _RELOPS:
                return inner
        except ParseError:
            pass
        toks.pos = save
    return _parse_chain(toks)


def _parse_chain(toks: _Tokens) -> Formula:
    exprs = [_parse_sum(toks)]
    ops: List[str] = []
    # Stride syntax: INT divides expr   /   INT | expr
    if toks.peek() in ("divides", "|"):
        toks.next()
        modulus_expr = exprs[0]
        affine, side, wilds = lower(modulus_expr)
        if not affine.is_constant() or side:
            raise ParseError("stride modulus must be a constant")
        target = _parse_sum(toks)
        t_affine, t_side, t_wilds = lower(target)
        stride = StrideAtom(affine.const, t_affine)
        if t_side:
            from repro.presburger.ast import Atom

            body = And.of(*(Atom(c) for c in t_side), stride)
            return Exists(t_wilds, body)
        return stride
    while toks.peek() in _RELOPS:
        ops.append(toks.next())
        exprs.append(_parse_sum(toks))
    if not ops:
        raise ParseError("expected a comparison")
    atoms = []
    for left, op, right in zip(exprs, ops, exprs[1:]):
        atoms.append(_comparison(left, op, right))
    return And.of(*atoms)


def _comparison(left: NLExpr, op: str, right: NLExpr) -> Formula:
    def build(la: Affine, ra: Affine) -> List[Constraint]:
        if op == "<=":
            return [Constraint.leq(la, ra)]
        if op == "<":
            return [Constraint.leq(la + 1, ra)]
        if op == ">=":
            return [Constraint.leq(ra, la)]
        if op == ">":
            return [Constraint.leq(ra + 1, la)]
        if op in ("=", "=="):
            return [Constraint.equal(la, ra)]
        raise AssertionError(op)

    if op == "!=":
        return Not(lowered_atom(
            lambda la, ra: [Constraint.equal(la, ra)], left, right
        ))
    return lowered_atom(build, left, right)


def _parse_sum(toks: _Tokens) -> NLExpr:
    expr = _parse_term(toks)
    while toks.peek() in ("+", "-"):
        op = toks.next()
        rhs = _parse_term(toks)
        expr = expr + rhs if op == "+" else expr - rhs
    if toks.accept("mod"):
        expr = NLMod(expr, _parse_int(toks))
    return expr


def _parse_term(toks: _Tokens) -> NLExpr:
    expr = _parse_factor(toks)
    while toks.peek() == "*":
        toks.next()
        rhs = _parse_factor(toks)
        expr = _nl_multiply(expr, rhs)
    if toks.peek() == "mod":
        toks.next()
        expr = NLMod(expr, _parse_int(toks))
    return expr


def _nl_multiply(a: NLExpr, b: NLExpr) -> NLExpr:
    for first, second in ((a, b), (b, a)):
        la, lc, lw = lower(first)
        if la.is_constant() and not lc:
            return second * la.const
    raise ParseError("nonlinear product (only constant * expr allowed)")


def _parse_factor(toks: _Tokens) -> NLExpr:
    tok = toks.peek()
    if tok is None:
        raise ParseError("unexpected end of expression")
    if tok == "-":
        toks.next()
        return -_parse_factor(toks)
    if tok == "(":
        toks.next()
        inner = _parse_sum(toks)
        toks.expect(")")
        return inner
    if tok in ("floor", "ceil"):
        kind = toks.next()
        toks.expect("(")
        inner = _parse_sum(toks)
        toks.expect("/")
        divisor = _parse_int(toks)
        toks.expect(")")
        return (NLFloor if kind == "floor" else NLCeil)(inner, divisor)
    kind = toks.kind()
    if kind == "num":
        toks.next()
        return NLLin(Affine.const_expr(int(tok)))
    if kind == "name" and tok not in _KEYWORDS:
        toks.next()
        return NLLin(Affine.var(tok))
    raise ParseError("unexpected token %r in expression" % tok)


def _parse_int(toks: _Tokens) -> int:
    kind = toks.kind()
    tok = toks.next()
    if kind != "num":
        raise ParseError("expected an integer, got %r" % tok)
    return int(tok)
