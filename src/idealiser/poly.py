"""Sparse multivariate polynomials over Q with exact rational coefficients.

A polynomial is a map from exponent tuples to nonzero Fractions.  The ring
fixes the variable names and a monomial order; every stored polynomial keeps
its term dict in descending order of that order, so iteration, printing and
leading-term extraction are deterministic.  Coefficients are plain
``fractions.Fraction`` values: always reduced, positive denominator, one zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from operator import add, le, sub
from typing import Callable, Mapping, Sequence

Monomial = tuple[int, ...]

NEG_INFINITY = float("-inf")
ZERO = Fraction(0)


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    """True when a | b, i.e. b - a is componentwise non-negative."""
    return all(map(le, a, b))


def mono_div(b: Monomial, a: Monomial) -> Monomial:
    return tuple(map(sub, b, a))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def mono_degree(a: Monomial) -> int:
    return sum(a)


def _integral(terms: Mapping[Monomial, Fraction]) -> tuple[dict, Fraction]:
    """(P, s) with ``terms`` = s*P, P primitive with int coefficients in the
    order of ``terms``, and s = gcd(numerators) / lcm(denominators)."""
    den = math.lcm(*[c.denominator for c in terms.values()])
    content = math.gcd(*[c.numerator for c in terms.values()])
    ints = {m: c.numerator // content * (den // c.denominator) for m, c in terms.items()}
    return ints, Fraction(content, den)


def _scaled(ring: "PolyRing", terms: Mapping[Monomial, int], scale: Fraction) -> "Poly":
    """The Poly of the integer ``terms`` times ``scale``."""
    num, den = scale.numerator, scale.denominator
    return Poly(ring, {m: Fraction(c * num, den) for m, c in terms.items()})


def _lex_key(perm: tuple[int, ...], exps: Monomial):
    return tuple(exps[i] for i in perm)


def _grevlex_key(perm: tuple[int, ...], exps: Monomial):
    # compare by total degree, ties broken by the smallest exponent on the
    # least significant variable (negated, reversed)
    return (sum(exps), tuple(-exps[i] for i in reversed(perm)))


def _elim_key(block: int, inner_key, exps: Monomial):
    head = exps[:block]
    return (sum(head), head, inner_key(exps[block:]))


class _KeyMemo(dict):
    """Order keys by monomial, each computed on its first lookup."""

    __slots__ = ("compute",)

    def __init__(self, compute):
        super().__init__()
        self.compute = compute

    def __missing__(self, exps: Monomial):
        k = self[exps] = self.compute(exps)
        return k


@dataclass(frozen=True)
class MonomialOrder:
    """Total monomial order: lex or graded reverse lex, up to a permutation.

    ``perm`` lists variable indices from most to least significant.  ``key``
    maps an exponent tuple to a tuple that compares the same way the order
    does, so max() and sorted() can be used directly.  It is the lookup of a
    memo that lives as long as the order (and so its ring) and takes no part
    in equality or hashing; monomials must be tuples.
    """

    kind: str
    perm: tuple[int, ...]
    key: Callable[[Monomial], tuple] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in ("lex", "grevlex"):
            raise ValueError(f"unknown order kind {self.kind!r}")
        if sorted(self.perm) != list(range(len(self.perm))):
            raise ValueError("perm must be a permutation of the variable indices")
        compute = _lex_key if self.kind == "lex" else _grevlex_key
        object.__setattr__(self, "key", _KeyMemo(partial(compute, self.perm)).__getitem__)

    @classmethod
    def lex(cls, n: int, perm: Sequence[int] | None = None) -> "MonomialOrder":
        return cls("lex", tuple(perm) if perm is not None else tuple(range(n)))

    @classmethod
    def grevlex(cls, n: int, perm: Sequence[int] | None = None) -> "MonomialOrder":
        return cls("grevlex", tuple(perm) if perm is not None else tuple(range(n)))


class _ElimOrder:
    """Block order eliminating the first ``block`` variables.

    Used internally for intersections: the auxiliary variables dominate, the
    remaining block is compared by an inner order on the original ring.
    ``key`` is memoised as in ``MonomialOrder``.
    """

    def __init__(self, block: int, inner: MonomialOrder):
        self.block = block
        self.inner = inner
        self.key = _KeyMemo(partial(_elim_key, block, inner.key)).__getitem__


@dataclass(frozen=True)
class PolyRing:
    variables: tuple[str, ...]
    order: MonomialOrder

    def __init__(self, variables: Sequence[str], order: MonomialOrder | None = None):
        variables = tuple(variables)
        if not variables:
            raise ValueError("ring needs at least one variable")
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        if order is None:
            order = MonomialOrder.grevlex(len(variables))
        if len(order.perm) != len(variables):
            raise ValueError("order size does not match variable count")
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "order", order)

    @property
    def n(self) -> int:
        return len(self.variables)

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return self.const(1)

    def const(self, c) -> "Poly":
        return Poly(self, {(0,) * self.n: Fraction(c)})

    def var(self, i: int) -> "Poly":
        exps = [0] * self.n
        exps[i] = 1
        return Poly(self, {tuple(exps): Fraction(1)})

    def parse(self, text: str) -> "Poly":
        from .parser import parse_poly

        return parse_poly(text, self)


class Poly:
    """Immutable-by-convention sparse polynomial attached to a ring."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: Mapping[Monomial, Fraction]):
        cleaned = {}
        for mono, coeff in terms.items():
            if type(coeff) is not Fraction:
                coeff = Fraction(coeff)
            if coeff:
                cleaned[mono if type(mono) is tuple else tuple(mono)] = coeff
        self.ring = ring
        self.terms = {m: cleaned[m] for m in sorted(cleaned, key=ring.order.key, reverse=True)}

    # -- basic structure -------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(mono_degree(m) == 0 for m in self.terms)

    def constant_value(self) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return next(iter(self.terms.values()))

    def degree(self):
        """Total degree; the zero polynomial gets -inf."""
        if not self.terms:
            return NEG_INFINITY
        return max(mono_degree(m) for m in self.terms)

    def degree_in(self, i: int):
        if not self.terms:
            return NEG_INFINITY
        return max(m[i] for m in self.terms)

    def leading(self, order: MonomialOrder | None = None) -> tuple[Monomial, Fraction]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        if order is None or order is self.ring.order or order == self.ring.order:
            mono = next(iter(self.terms))
        else:
            mono = max(self.terms, key=order.key)
        return mono, self.terms[mono]

    def coefficient(self, mono: Monomial) -> Fraction:
        return self.terms.get(tuple(mono), ZERO)

    def monic(self, order: MonomialOrder | None = None) -> "Poly":
        """The Poly with leading coefficient 1, on Fraction coefficients also
        when its own are ints (a basis run's)."""
        if self.is_zero:
            return self
        _, lc = self.leading(order)
        return _scaled(self.ring, self.terms, Fraction(1, lc))

    # -- arithmetic ------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    __hash__ = None

    def __neg__(self) -> "Poly":
        return Poly(self.ring, {m: -c for m, c in self.terms.items()})

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, ZERO) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Poly(self.ring, out)

    def __radd__(self, other) -> "Poly":
        return self.__add__(other)

    def __sub__(self, other) -> "Poly":
        return self.__add__(-self._coerce(other))

    def __rsub__(self, other) -> "Poly":
        return (-self).__add__(other)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return Poly(self.ring, {m: cc * c for m, cc in self.terms.items()})
        other = self._coerce(other)
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                s = out.get(m, ZERO) + c1 * c2
                if s:
                    out[m] = s
                else:
                    del out[m]
        return Poly(self.ring, out)

    def __rmul__(self, other) -> "Poly":
        return self.__mul__(other)

    def __pow__(self, k: int) -> "Poly":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = self.ring.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.ring != self.ring:
                raise ValueError("polynomials from different rings")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        raise TypeError(f"cannot combine Poly with {type(other).__name__}")

    # -- calculus and substitution ---------------------------------------

    def partial(self, i: int) -> "Poly":
        out = {}
        for m, c in self.terms.items():
            if m[i]:
                mm = list(m)
                mm[i] -= 1
                out[tuple(mm)] = c * m[i]
        return Poly(self.ring, out)

    def eval_at(self, point: Sequence[Fraction]) -> Fraction:
        if len(point) != self.ring.n:
            raise ValueError("point dimension mismatch")
        point = [Fraction(p) for p in point]
        pows: list[dict[int, Fraction]] = [{0: Fraction(1)} for _ in point]
        total = Fraction(0)
        for m, c in self.terms.items():
            val = c
            for i, e in enumerate(m):
                if e:
                    cache = pows[i]
                    if e not in cache:
                        cache[e] = point[i] ** e
                    val *= cache[e]
            total += val
        return total

    def compose(self, images: Sequence["Poly"]) -> "Poly":
        """Substitute x_i -> images[i]; the images share one ring, and the
        result lives in it.  Each power of an image is multiplied out once."""
        if len(images) != self.ring.n:
            raise ValueError("one image per variable is needed")
        ring = images[0].ring
        powers = [[ring.one()] for _ in images]

        def power(i: int, e: int) -> Poly:
            row = powers[i]
            while len(row) <= e:
                row.append(row[-1] * images[i])
            return row[e]

        out: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            term = math.prod((power(i, e) for i, e in enumerate(m) if e), start=ring.const(c))
            for mm, cc in term.terms.items():
                out[mm] = out.get(mm, ZERO) + cc
        return Poly(ring, out)

    def translate(self, shift: Sequence[Fraction]) -> "Poly":
        """Substitute x_i -> x_i + shift_i: a Taylor shift in one variable at a
        time (von zur Gathen and Gerhard, 1997), in integers when every shift is."""
        shift = [Fraction(s) for s in shift]
        if len(shift) != self.ring.n:
            raise ValueError("shift dimension mismatch")
        if not any(shift):
            return self
        integral = all(s.denominator == 1 for s in shift)
        terms, scale = _integral(self.terms) if integral else (self.terms, None)
        shift = [s.numerator for s in shift] if integral else shift
        for i, s in [(i, s) for i, s in enumerate(shift) if s]:
            d = max((m[i] for m in terms), default=0)
            rows: dict = {}  # the coefficients of x_i^0, ..., x_i^d per monomial in the rest
            for m, c in terms.items():
                rows.setdefault(m[:i] + m[i + 1 :], [0] * (d + 1))[m[i]] = c
            terms = {}
            for rest, row in rows.items():
                for j in range(d):
                    for k in range(d - 1, j - 1, -1):
                        row[k] += s * row[k + 1]
                terms.update((rest[:i] + (e,) + rest[i:], c) for e, c in enumerate(row) if c)
        return Poly(self.ring, terms) if scale is None else _scaled(self.ring, terms, scale)

    # -- printing ---------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for idx, (m, c) in enumerate(self.terms.items()):
            sign = "-" if c < 0 else "+"
            mag = -c if c < 0 else c
            factors = []
            for i, e in enumerate(m):
                if e == 1:
                    factors.append(self.ring.variables[i])
                elif e > 1:
                    factors.append(f"{self.ring.variables[i]}^{e}")
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = str(mag) + "*" + "*".join(factors)
            if idx == 0:
                parts.append(body if sign == "+" else "-" + body)
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self})"
