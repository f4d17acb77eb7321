"""Recursive-descent parser for polynomial expressions.

Grammar: + - * ^ with ^ tightest, then *, then additive; parentheses; unary
minus; integer and a/b rational literals; identifiers must be declared ring
variables.  Exponents are non-negative integer literals.  Whitespace is
insignificant.  Errors carry the offending position.  Parentheses and unary
minus nest at most MAX_DEPTH levels deep, so deep input is a ParseError
rather than an exhausted interpreter stack.  ``[``, ``]`` and ``,`` are
tokens of the skew-element syntax, which ``skew.parse_skew`` reads with it.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .poly import Poly, PolyRing, _power, _product


MAX_DEPTH = 100


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^()\[\],]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", len(text) - len(stripped))
        kind = m.lastgroup
        token, start = m[kind], m.start(kind)
        if kind == "num":
            num, _, den = token.partition("/")
            if den and not int(den):
                raise ParseError(f"zero denominator in {token!r}", start)
            tokens.append((kind, Fraction(int(num), int(den)) if den else int(num), start, not den))
        else:
            tokens.append((kind, token, start, False))
        pos = m.end()
    tokens.append(("end", "", len(text), False))
    return tokens


class _Parser:
    """Builds plain {monomial: coefficient} dicts, with int or Fraction
    coefficients, and normalises them into a Poly once, in ``expr``."""

    def __init__(self, text: str, ring: PolyRing):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0
        self.ring = ring
        self.one = (0,) * ring.n
        self.var_mono = {name: self.one[:i] + (1,) + self.one[i + 1 :] for i, name in enumerate(ring.variables)}

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, value, pos, _ = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", pos)
        self.advance()

    def integer(self) -> int:
        """An integer literal with an optional minus sign."""
        sign = 1
        if self.peek()[:2] == ("op", "-"):
            self.advance()
            sign = -1
        kind, value, pos, is_int = self.advance()
        if kind != "num" or not is_int:
            raise ParseError("expected an integer", pos)
        return sign * int(value)

    def nested(self, parse, pos: int) -> dict:
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels", pos)
        result = parse()
        self.depth -= 1
        return result

    def parse(self) -> Poly:
        result = self.expr()
        kind, value, pos, _ = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {value!r}", pos)
        return result

    def expr(self) -> Poly:
        terms = self.sum()
        if all(type(c) is int for c in terms.values()):
            return Poly.from_ints(self.ring, 1, 1, terms)
        return Poly(self.ring, terms)

    def sum(self) -> dict:
        result = self.term()
        while True:
            kind, value, _, _ = self.peek()
            if kind != "op" or value not in "+-":
                return result
            self.advance()
            sign = 1 if value == "+" else -1
            for m, c in self.term().items():
                result[m] = result.get(m, 0) + sign * c

    def term(self) -> dict:
        result = self.factor()
        while self.peek()[:2] == ("op", "*"):
            self.advance()
            result = _product(result, self.factor())
        return result

    def factor(self) -> dict:
        kind, value, pos, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return {m: -c for m, c in self.nested(self.factor, pos).items()}
        base = self.atom()
        if self.peek()[:2] != ("op", "^"):
            return base
        self.advance()
        kind, k, pos, is_int = self.advance()
        if kind != "num" or not is_int:
            raise ParseError("exponent must be a non-negative integer literal", pos)
        return _power(base, k, {self.one: 1})

    def atom(self) -> dict:
        kind, value, pos, _ = self.advance()
        if kind == "num":
            return {self.one: value}
        if kind == "name":
            mono = self.var_mono.get(value)
            if mono is None:
                raise ParseError(f"unknown variable {value!r}", pos)
            return {mono: 1}
        if kind == "op" and value == "(":
            inner = self.nested(self.sum, pos)
            self.expect_op(")")
            return inner
        raise ParseError(f"unexpected {value!r}" if value else "unexpected end of input", pos)


def parse_poly(text: str, ring: PolyRing) -> Poly:
    """Parse ``text`` into a polynomial of ``ring``."""
    return _Parser(text, ring).parse()
