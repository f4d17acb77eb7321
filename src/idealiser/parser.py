"""Recursive-descent parser for polynomial expressions.

Grammar: + - * ^ with ^ tightest, then *, then additive; parentheses; unary
minus; integer and a/b rational literals; identifiers must be declared ring
variables.  Exponents are non-negative integer literals.  Whitespace is
insignificant.  Errors carry the offending position.  Parentheses and unary
minus nest at most MAX_DEPTH levels deep, so deep input is a ParseError
rather than an exhausted interpreter stack.  A product or power is refused
before it is expanded when its total degree passes MAX_DEGREE, or a bound
on its number of terms passes MAX_TERMS, or a bound on its coefficients
passes the bits of MAX_DIGITS decimal digits; so is an exponent above
MAX_DEGREE.  A literal, or a coefficient of the whole expression, whose
numerator or denominator has more than MAX_DIGITS digits is refused too.
``[``, ``]`` and ``,`` are tokens of the skew-element syntax, which
``skew.parse_skew`` reads with it.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .poly import _DIGITS_BOUND, _MAX_LOG2, MAX_DIGITS, Poly, PolyRing, _power, _product


MAX_DEPTH = 100
MAX_DEGREE = 1000
MAX_TERMS = 10_000


class InputError(ValueError):
    """Input the program refuses; the command line exits 1 with its message."""


class ParseError(InputError):
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
            digits = max(len(num), len(den))
            if digits > MAX_DIGITS:
                raise ParseError(f"a literal of {digits} digits exceeds the coefficient limit of {MAX_DIGITS} digits", start)
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

    def bounded(self, degree: int, terms: int, log2: int, pos: int) -> None:
        """Refuse an expansion of this total degree, at most ``terms`` terms
        and coefficients of at most 2^``log2`` (``_size``) when any of them
        passes its limit; no more terms than monomials of degree at most
        ``degree`` can appear."""
        if degree > MAX_DEGREE:
            raise ParseError(f"total degree {degree} exceeds the degree limit of {MAX_DEGREE}", pos)
        if terms > MAX_TERMS:
            terms = min(terms, math.comb(self.ring.n + degree, degree))
        if terms > MAX_TERMS:
            message = f"an expansion of up to {terms} terms exceeds the term limit of {MAX_TERMS}"
            raise ParseError(message, pos)
        if log2 > _MAX_LOG2:
            message = f"coefficients of up to 2^{log2} exceed the coefficient limit of {MAX_DIGITS} digits"
            raise ParseError(message, pos)

    def parse(self) -> Poly:
        result = self.expr()
        kind, value, pos, _ = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {value!r}", pos)
        return result

    def expr(self) -> Poly:
        terms = self.sum()
        values = terms.values()
        integral = all(type(c) is int for c in values)
        # the bounds let a coefficient pass the limit by a few bits, and a sum adds a few more
        parts = values if integral else [x for c in values for x in (c.numerator, c.denominator)]
        if max(map(abs, parts), default=0) >= _DIGITS_BOUND:
            message = f"a coefficient of more than {MAX_DIGITS} digits exceeds the coefficient limit"
            raise ParseError(message, self.peek()[2])
        return Poly.from_ints(self.ring, 1, 1, terms) if integral else Poly(self.ring, terms)

    def sum(self) -> dict:
        result = self.term()
        while True:
            kind, value, pos, _ = self.peek()
            if kind != "op" or value not in "+-":
                return result
            self.advance()
            sign = 1 if value == "+" else -1
            for m, c in self.term().items():
                result[m] = result.get(m, 0) + sign * c
            if len(result) > MAX_TERMS:
                raise ParseError(f"a sum of more than {MAX_TERMS} terms exceeds the term limit", pos)

    def term(self) -> dict:
        result = self.factor()
        while self.peek()[:2] == ("op", "*"):
            pos = self.advance()[2]
            other = self.factor()
            (d, t, h), (e, u, k) = _size(result), _size(other)
            # a coefficient of the product sums at most min(t, u) products of two
            self.bounded(d + e, t * u, h + k + _log2(min(t, u)), pos)
            result = _product(result, other)
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
        if k > MAX_DEGREE:
            raise ParseError(f"exponent {k} exceeds the degree limit of {MAX_DEGREE}", pos)
        d, t, h = _size(base)
        t = max(t, 1)
        # the products of k of the t terms, each coefficient at most (t * the largest)^k
        self.bounded(k * d, math.comb(t + k - 1, k), k * (h + _log2(t)), pos)
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


def _size(terms: dict) -> tuple[int, int, int]:
    """The total degree and the number of terms of a parsed dict, counting
    the zero coefficients that cancellation leaves, as expansion reads them,
    and a bound 2^h on every numerator and denominator of the dict over
    one denominator L: h is ``_log2`` of L and of the largest |c * L|."""
    values = terms.values()
    try:
        top = max(map(int.__abs__, values), default=0)
    except TypeError:  # a Fraction among them
        lcm = math.lcm(*(c.denominator for c in values))
        top = max(lcm, *(abs(c.numerator) * (lcm // c.denominator) for c in values))
    return max(map(sum, terms), default=0), len(terms), _log2(top)


def _log2(n: int) -> int:
    """The least h >= 0 with n <= 2^h."""
    return (n - 1).bit_length() if n > 1 else 0


def parse_poly(text: str, ring: PolyRing) -> Poly:
    """Parse ``text`` into a polynomial of ``ring``."""
    return _Parser(text, ring).parse()
