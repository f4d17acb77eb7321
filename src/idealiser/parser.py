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

from .poly import Poly, PolyRing


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
        if m.group("num") is not None:
            num, _, den = m.group("num").partition("/")
            if den and not int(den):
                raise ParseError(f"zero denominator in {m.group('num')!r}", m.start("num"))
            value = Fraction(int(num), int(den)) if den else int(num)
            tokens.append(("num", value, m.start("num"), not den))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start("name"), False))
        else:
            tokens.append(("op", m.group("op"), m.start("op"), False))
        pos = m.end()
    tokens.append(("end", "", len(text), False))
    return tokens


class _Parser:
    def __init__(self, text: str, ring: PolyRing):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0
        self.ring = ring
        self.var_index = {name: i for i, name in enumerate(ring.variables)}

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

    def nested(self, parse, pos: int) -> Poly:
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
        result = self.term()
        while True:
            kind, value, _, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                result = result + rhs if value == "+" else result - rhs
            else:
                return result

    def term(self) -> Poly:
        result = self.factor()
        while True:
            kind, value, _, _ = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                result = result * self.factor()
            else:
                return result

    def factor(self) -> Poly:
        kind, value, pos, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return -self.nested(self.factor, pos)
        base = self.atom()
        kind, value, pos, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            nkind, nvalue, npos, is_int = self.peek()
            if nkind != "num" or not is_int:
                raise ParseError("exponent must be a non-negative integer literal", npos)
            self.advance()
            return base ** int(nvalue)
        return base

    def atom(self) -> Poly:
        kind, value, pos, _ = self.advance()
        if kind == "num":
            return self.ring.const(value)
        if kind == "name":
            idx = self.var_index.get(value)
            if idx is None:
                raise ParseError(f"unknown variable {value!r}", pos)
            return self.ring.var(idx)
        if kind == "op" and value == "(":
            inner = self.nested(self.expr, pos)
            self.expect_op(")")
            return inner
        raise ParseError(f"unexpected {value!r}" if value else "unexpected end of input", pos)


def parse_poly(text: str, ring: PolyRing) -> Poly:
    """Parse ``text`` into a polynomial of ``ring``."""
    return _Parser(text, ring).parse()
