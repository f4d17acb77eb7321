"""Exact sparse polynomials over Q, for the benchmark's own checks.

This module shares no code with the package under test, so the checks it
backs cannot inherit a defect of the package.  A polynomial is a dict from
exponent tuples to nonzero Fractions.  Terms are ordered by graded reverse
lex with the variables in ring order, the package's default order.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction

_TOKEN = re.compile(r"\s*(?:(\d+(?:/\d+)?)|([A-Za-z_][A-Za-z0-9_]*)|([-+*^()]))")


def _clean(terms: dict) -> dict:
    return {m: c for m, c in terms.items() if c}


def const(c, n: int) -> dict:
    return _clean({(0,) * n: Fraction(c)})


def add(p: dict, q: dict, scale=1) -> dict:
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, 0) + scale * c
    return _clean(out)


def mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return _clean(out)


def power(p: dict, k: int, n: int) -> dict:
    out = const(1, n)
    for _ in range(k):
        out = mul(out, p)
    return out


def evaluate(p: dict, point) -> Fraction:
    total = Fraction(0)
    for m, c in p.items():
        v = c
        for x, e in zip(point, m):
            v *= Fraction(x) ** e
        total += v
    return total


def translate(p: dict, shift) -> dict:
    """p(x + shift), by expanding each power binomially."""
    out: dict = {}
    for m, c in p.items():
        parts = [{m: c}]
        for i, e in enumerate(m):
            s = Fraction(shift[i])
            if not e or not s:
                continue
            expanded = []
            for part in parts:
                for mm, cc in part.items():
                    base = list(mm)
                    for j in range(e + 1):
                        base[i] = j
                        expanded.append({tuple(base): cc * math.comb(e, j) * s ** (e - j)})
            parts = expanded
        for part in parts:
            for mm, cc in part.items():
                out[mm] = out.get(mm, 0) + cc
    return _clean(out)


def grevlex(m: tuple) -> tuple:
    return (sum(m), tuple(-e for e in reversed(m)))


def remainder(p: dict, basis: list[dict]) -> dict:
    """Full remainder of p on division by ``basis`` in graded reverse lex.

    A zero remainder proves membership in the ideal the basis generates;
    when the basis is a Groebner basis a nonzero remainder disproves it.
    """
    leads = []
    for g in basis:
        lm = max(g, key=grevlex)
        leads.append((lm, g[lm], g))
    work = dict(p)
    rem: dict = {}
    while work:
        m = max(work, key=grevlex)
        c = work[m]
        for lm, lc, g in leads:
            if all(a >= b for a, b in zip(m, lm)):
                q = tuple(a - b for a, b in zip(m, lm))
                work = add(work, mul({q: c / lc}, g), -1)
                break
        else:
            rem[m] = c
            del work[m]
    return rem


def parse(text: str, variables) -> dict:
    """Parse + - * ^, parentheses, unary minus and a or a/b literals."""
    n = len(variables)
    index = {v: i for i, v in enumerate(variables)}
    tokens = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        tok = _TOKEN.match(text, pos)
        if tok is None:
            raise ValueError(f"cannot parse {text!r} at {pos}")
        tokens.append(tok.groups())
        pos = tok.end()
    tokens.append((None, None, "$"))
    at = 0

    def peek():
        return tokens[at][2]

    def take():
        nonlocal at
        at += 1
        return tokens[at - 1]

    def expr():
        out = term()
        while peek() in ("+", "-"):
            sign = -1 if take()[2] == "-" else 1
            out = add(out, term(), sign)
        return out

    def term():
        out = unary()
        while peek() == "*":
            take()
            out = mul(out, unary())
        return out

    def unary():
        if peek() == "-":
            take()
            return add({}, unary(), -1)
        if peek() == "+":
            take()
            return unary()
        return pow_()

    def pow_():
        base = atom()
        if peek() == "^":
            take()
            num, _, _ = take()
            if num is None or "/" in num:
                raise ValueError(f"bad exponent in {text!r}")
            base = power(base, int(num), n)
        return base

    def atom():
        num, name, op = take()
        if num is not None:
            return const(Fraction(num), n)
        if name is not None:
            if name not in index:
                raise ValueError(f"unknown variable {name!r} in {text!r}")
            return {tuple(int(i == index[name]) for i in range(n)): Fraction(1)}
        if op == "(":
            inner = expr()
            if take()[2] != ")":
                raise ValueError(f"unbalanced parentheses in {text!r}")
            return inner
        raise ValueError(f"unexpected {op!r} in {text!r}")

    out = expr()
    if peek() != "$":
        raise ValueError(f"trailing input in {text!r}")
    return out


def parse_ideal(text: str, variables) -> list[dict] | None:
    """Generators of an ideal printed as ``<g1, g2>``; None for ``<1>``."""
    body = text.strip()
    if not (body.startswith("<") and body.endswith(">")):
        raise ValueError(f"not an ideal: {text!r}")
    body = body[1:-1].strip()
    if body == "1":
        return None
    return [parse(part, variables) for part in body.split(",")]


def integer_zeros(polys: list[dict], n: int, box: int):
    """Integer points of the sup-norm box where every poly vanishes, in
    lexicographic order, evaluated in integer arithmetic."""
    scaled = []
    for p in polys:
        denom = math.lcm(*(c.denominator for c in p.values()))
        scaled.append([(m, int(c * denom)) for m, c in p.items()])
    for q in itertools.product(range(-box, box + 1), repeat=n):
        if all(sum(c * math.prod(x**e for x, e in zip(q, m)) for m, c in p) == 0 for p in scaled):
            yield q
