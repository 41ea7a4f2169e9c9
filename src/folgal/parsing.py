"""Text syntax for polynomials and rational expressions.

Grammar: ``+ - * / ^`` with integer literals, parentheses, named variables,
and field generators referenced by their declared names.  ``/`` builds exact
rational expressions, so ``3/4*x`` and ``(x^2+1)/(x-1)`` both parse.
"""

from __future__ import annotations

import re

from .multipoly import MultiPoly
from .numberfield import NumberField
from .ratfunc import RationalFunction

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|(\*\*)|([()+\-*/^]))")


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (column {position + 1})")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos]!r}", pos)
            break
        number, name, dstar, op = m.groups()
        if number is not None:
            tokens.append(("num", int(number), m.start(1)))
        elif name is not None:
            tokens.append(("name", name, m.start(2)))
        elif dstar is not None:
            tokens.append(("op", "^", m.start(3)))
        else:
            tokens.append(("op", op, m.start(4)))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, field, variables: tuple[str, ...]):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.field = field
        self.vars = tuple(variables)
        self.gen_lookup = {}
        if isinstance(field, NumberField):
            for layer in field.chain():
                self.gen_lookup[layer.name] = field.coerce(layer.gen())

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, val, at = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", at)
        self.advance()

    def const(self, value) -> RationalFunction:
        return RationalFunction.from_poly(
            MultiPoly.constant(self.field, self.vars, value)
        )

    def parse(self) -> RationalFunction:
        result = self.expr()
        kind, _, at = self.peek()
        if kind != "end":
            raise ParseError("trailing input", at)
        return result

    def expr(self) -> RationalFunction:
        kind, val, _ = self.peek()
        negate = False
        if kind == "op" and val in "+-":
            self.advance()
            negate = val == "-"
        acc = self.term()
        if negate:
            acc = -acc
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                rhs = self.term()
                acc = acc - rhs if val == "-" else acc + rhs
            else:
                return acc

    def term(self) -> RationalFunction:
        acc = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                at = self.peek()[2]
                rhs = self.factor()
                if val == "*":
                    acc = acc * rhs
                else:
                    if rhs.is_zero():
                        raise ParseError("division by zero", at)
                    acc = acc / rhs
            else:
                return acc

    def factor(self) -> RationalFunction:
        start = self.peek()[2]
        base = self.atom()
        kind, val, at = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            kind, expo, at = self.peek()
            neg = False
            if kind == "op" and expo == "-":
                self.advance()
                neg = True
                kind, expo, at = self.peek()
            if kind != "num":
                raise ParseError("expected integer exponent", at)
            self.advance()
            if neg and expo and base.is_zero():
                raise ParseError("zero to a negative power", start)
            return base ** (-expo if neg else expo)
        return base

    def atom(self) -> RationalFunction:
        kind, val, at = self.advance()
        if kind == "num":
            return self.const(val)
        if kind == "name":
            if val in self.vars:
                return RationalFunction.from_poly(
                    MultiPoly.variable(self.field, self.vars, val)
                )
            if val in self.gen_lookup:
                return self.const(self.gen_lookup[val])
            known = list(self.vars) + list(self.gen_lookup)
            raise ParseError(f"unknown name {val!r} (known: {', '.join(known)})", at)
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        if kind == "op" and val == "-":
            return -self.factor()
        if kind == "op" and val == "+":
            return self.factor()
        raise ParseError("unexpected token", at)


def parse_rational(text: str, field, variables) -> RationalFunction:
    return _Parser(text, field, tuple(variables)).parse()


def parse_poly(text: str, field, variables) -> MultiPoly:
    rf = parse_rational(text, field, variables)
    if not rf.is_polynomial():
        raise ParseError("expected a polynomial, got a proper rational function", 0)
    return rf.as_poly()


def parse_min_poly(text: str, gen_name: str):
    """Parse a monic integer/rational polynomial in ``gen_name`` over Q.

    Returns the low-to-high coefficient list of the monic minimal polynomial
    (leading coefficient removed after normalization).
    """
    from fractions import Fraction

    from .numberfield import QQ

    poly = parse_poly(text, QQ, (gen_name,))
    deg = poly.degree_in(gen_name)
    if deg < 1:
        raise ParseError("minimal polynomial must have positive degree", 0)
    coeffs = [Fraction(0)] * (deg + 1)
    for e, c in poly.terms.items():
        coeffs[e[0]] = Fraction(c)
    lc = coeffs[-1]
    coeffs = [c / lc for c in coeffs]
    return coeffs[:-1]
