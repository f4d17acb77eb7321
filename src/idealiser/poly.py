"""Sparse multivariate polynomials over Q, each a rational content times a
primitive integer polynomial (Geddes, Czapor and Labahn, Algorithms for
Computer Algebra, 1992, ch. 2).

The ring fixes the variable names and a monomial order.  A Poly is its
content num/den, two ints in lowest terms with den > 0, times ``ints``, a
dict from exponent tuples to nonzero ints with gcd 1 whose monomials descend
in the ring's order and whose leading coefficient is positive; zero is 0/1
times the empty dict.  Each value has exactly one such form, so iteration,
printing and equality are deterministic.  Arithmetic, derivatives, Taylor
shifts and printing run on ints, and ``fractions.Fraction`` appears only at
the boundary: the ``Poly(ring, terms)`` constructor, the ``terms`` view,
``coefficient`` and ``eval_at``.  ``_product`` and ``_power`` are the one
product kernel of ``*``, ``**``, ``compose`` and the parser.  Dense lists of
ints are the one univariate layer over Z: ``taylor_shift``,
``row_coefficients`` (a restriction to a line), ``primitive_gcd`` and
``is_squarefree``.  ``translate_ints`` is the Taylor shift of an integer
polynomial, left unnormalised for a caller that reads only its terms, and
``Poly.translate`` normalises it.  ``translate_ints`` and ``compose`` refuse,
before they expand, a result whose coefficients may pass MAX_DIGITS digits,
the program's one digit budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial, reduce
from itertools import accumulate, repeat
from operator import add, getitem, le, sub
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

Monomial = tuple[int, ...]

NEG_INFINITY = float("-inf")

# the most decimal digits of a number the program builds by substitution, parses
# or prints as a Pell solution: those str(int) prints by default since Python 3.11
MAX_DIGITS = 4300
_DIGITS_BOUND = 10**MAX_DIGITS
# every number of at most MAX_DIGITS digits is at most 2 to this power
_MAX_LOG2 = _DIGITS_BOUND.bit_length()


class ResourceLimitError(RuntimeError):
    """A computation past one of its budgets; the command line exits 1 with its message."""


def _norm_log2(ints: Mapping[Monomial, int]) -> int:
    """An h with the sum of |c| over ``ints`` below 2^h."""
    return max(map(abs, ints.values()), default=0).bit_length() + len(ints).bit_length()


def _substitution_bounded(log2: int) -> None:
    """Refuse a substitution whose coefficients are bounded by 2^``log2`` only
    when that bound passes every number of MAX_DIGITS digits."""
    if log2 > _MAX_LOG2:
        message = f"a substitution with coefficients of up to 2^{log2} exceeds the coefficient limit of {MAX_DIGITS} digits"
        raise ResourceLimitError(message)


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
    """Block order eliminating the first ``block`` variables: the ring order
    of an elimination (``groebner.eliminate``).  Those variables dominate,
    by total degree and then lex; the remaining ones are compared by
    ``inner``.  ``perm`` lists every variable index, the block first, and
    ``key`` is memoised as in ``MonomialOrder``.
    """

    def __init__(self, block: int, inner: MonomialOrder):
        self.block = block
        self.inner = inner
        self.perm = tuple(range(block)) + tuple(block + i for i in inner.perm)
        self.key = _KeyMemo(partial(_elim_key, block, inner.key)).__getitem__


@dataclass(frozen=True)
class PolyRing:
    variables: tuple[str, ...]
    order: MonomialOrder | _ElimOrder

    def __init__(self, variables: Sequence[str], order: MonomialOrder | _ElimOrder | None = None):
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
        c = c if isinstance(c, (int, Fraction)) else Fraction(c)
        return Poly.from_ints(self, c.numerator, c.denominator, {(0,) * self.n: 1})

    def var(self, i: int) -> "Poly":
        exps = [0] * self.n
        exps[i] = 1
        return Poly.from_ints(self, 1, 1, {tuple(exps): 1})

    def parse(self, text: str) -> "Poly":
        from .parser import parse_poly

        return parse_poly(text, self)


def _product(a: Mapping[Monomial, int], b: Mapping[Monomial, int]) -> dict[Monomial, int]:
    """The product of two coefficient dicts (the parser's may hold Fractions), not normalised."""
    out: dict[Monomial, int] = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = mono_mul(m1, m2)
            out[m] = out.get(m, 0) + c1 * c2
    return out


def _power(a: Mapping[Monomial, int], k: int, one: Mapping[Monomial, int]) -> Mapping[Monomial, int]:
    """a^k by square and multiply, where ``one`` is the dict of the constant 1."""
    result = one
    while k:
        if k & 1:
            result = _product(result, a)
        k >>= 1
        if k:
            a = _product(a, a)
    return result


def taylor_shift(coeffs: list[int], a: int) -> list[int]:
    """p(t + a) in place, for p = sum_k coeffs[k] * t^k and an integer a, by
    d(d + 1)/2 integer steps in degree d."""
    d = len(coeffs) - 1
    for j in range(d):
        for k in range(d - 1, j - 1, -1):
            coeffs[k] += a * coeffs[k + 1]
    return coeffs


def translate_ints(ints: Mapping[Monomial, int], shift: Sequence[Fraction]) -> tuple[int, dict[Monomial, int]]:
    """(den, out) with ints(x + shift) = out / den, out neither divided by its
    content nor sorted: a Taylor shift in one variable at a time (von zur
    Gathen and Gerhard, 1997).  For shift_i = a/b and degree d in x_i,
    f(x_i + a/b) = b^-d * g(b*x_i + a), where g's coefficient of x_i^k is
    b^(d-k) times f's: so g is shifted by the integer a, and its coefficient
    of x_i^k scaled by b^k.  Each such coefficient is at most (d + 1) *
    (|a| + b)^d times the sum of f's |c|, and a shift whose coefficients may
    pass MAX_DIGITS digits by that bound raises ResourceLimitError before it
    expands.  ``out`` holds no zero, and is ``ints`` itself for a zero shift."""
    den, log2 = 1, _norm_log2(ints)
    for i, s in enumerate(shift):
        if not s:
            continue
        a, b = s.numerator, s.denominator
        d = max((m[i] for m in ints), default=0)
        log2 += (d + 1).bit_length() + d * (abs(a) + b).bit_length()
        _substitution_bounded(log2)
        pw = [b**k for k in range(d + 1)]
        rows: dict = {}  # g's coefficients of x_i^0, ..., x_i^d per monomial in the rest
        for m, c in ints.items():
            rows.setdefault(m[:i] + m[i + 1 :], [0] * (d + 1))[m[i]] = c * pw[d - m[i]]
        ints = {}
        for rest, row in rows.items():
            taylor_shift(row, a)
            ints.update((rest[:i] + (e,) + rest[i:], c * pw[e]) for e, c in enumerate(row) if c)
        den *= pw[d]
    return den, ints


def row_coefficients(terms, degree: int, point: Sequence[int]) -> list[int]:
    """The coefficients, by powers of t, of the sum of c * t^k * the product
    of point[j]^e_j over ``terms`` (c, [(j, e_j)], k): a polynomial of
    degree at most ``degree`` restricted to the line through ``point`` along
    the coordinate t, with every other coordinate fixed."""
    coeffs = [0] * (degree + 1)
    for v, factors, k in terms:
        for j, e in factors:
            v *= point[j] ** e
        coeffs[k] += v
    return coeffs


def _primitive(coeffs: list[int]) -> list[int]:
    """coeffs with its trailing zeros dropped, divided by its content, with
    a positive leading coefficient; [] for the zero polynomial."""
    while coeffs and not coeffs[-1]:
        coeffs = coeffs[:-1]
    if not coeffs:
        return []
    c = math.gcd(*coeffs) * (1 if coeffs[-1] > 0 else -1)
    return [v // c for v in coeffs]


def primitive_gcd(a: list[int], b: list[int]) -> list[int]:
    """The primitive part of gcd(sum_k a[k] t^k, sum_k b[k] t^k) over Z, as a
    dense list in increasing powers with a positive leading coefficient, []
    when both are zero: the primitive polynomial remainder sequence (Geddes,
    Czapor and Labahn, Algorithms for Computer Algebra, 1992, ch. 7).  Each
    pseudo-remainder of the higher by the lower degree is made primitive
    before the next step, which keeps the integers small, and a nonzero
    constant remainder ends the sequence with the gcd [1]."""
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        lead, top, body = b[-1], len(b) - 1, b[:-1]
        while len(a) > top:  # lead * a less c * t^shift * b drops the degree of a
            c = a.pop()
            a = [v * lead for v in a]
            for k, v in enumerate(body, len(a) - top):
                a[k] -= c * v
            while a and not a[-1]:
                a.pop()
        a, b = b, _primitive(a)
    return [1] if b else a


def is_squarefree(coeffs: list[int]) -> bool:
    """Whether sum_k coeffs[k] t^k has no repeated root over C: exactly when
    its gcd with its derivative is constant (Yun, 1976).  A nonzero
    constant is squarefree, the zero polynomial is not."""
    return len(primitive_gcd(coeffs, [k * v for k, v in enumerate(coeffs)][1:])) == 1


def fixed_points(n: int) -> list[list[int]]:
    """The integer points at which the univariate gcd certificates fix every
    coordinate but the one they keep: (2, 4, 8, ...), (-3, -9, -27, ...)
    and (4, 16, 64, ...); in one variable there is nothing to fix, so one."""
    return [[(-1) ** k * (k + 2) ** (j + 1) for j in range(n)] for k in range(3 if n > 1 else 1)]


class Poly:
    """Immutable-by-convention sparse polynomial attached to a ring: the
    content num/den times the primitive integer polynomial ``ints``."""

    __slots__ = ("ring", "num", "den", "ints", "_terms")

    def __init__(self, ring: PolyRing, terms: Mapping[Monomial, Fraction]):
        items = [(tuple(m), Fraction(c)) for m, c in terms.items()]
        den = math.lcm(*[c.denominator for _, c in items])
        self._normalise(ring, 1, den, {m: c.numerator * (den // c.denominator) for m, c in items})

    @classmethod
    def from_ints(cls, ring: PolyRing, num: int, den: int, ints: Mapping[Monomial, int]) -> "Poly":
        """num/den times the int coefficients ``ints``, which may hold zeros."""
        p = object.__new__(cls)
        p._normalise(ring, num, den, ints)
        return p

    def _normalise(self, ring: PolyRing, num: int, den: int, ints: Mapping[Monomial, int]) -> None:
        # sort, drop zeros, and divide out the gcd with the sign of the leading coefficient
        monos = sorted([m for m, c in ints.items() if c], key=ring.order.key, reverse=True)
        g = math.gcd(*ints.values())
        if monos and ints[monos[0]] < 0:
            g = -g
        self._set(ring, num * g, den, {m: ints[m] // g for m in monos})

    def _set(self, ring: PolyRing, num: int, den: int, ints: dict) -> None:
        """Set the parts from normalised ``ints``, reducing the content num/den."""
        if not num or not ints:
            num, den, ints = 0, 1, {}
        elif den < 0:
            num, den = -num, -den
        g = math.gcd(num, den)
        self.ring, self.num, self.den, self.ints, self._terms = ring, num // g, den // g, ints, None

    def _times(self, num: int, den: int) -> "Poly":
        """This polynomial times num/den: only the content changes."""
        p = object.__new__(Poly)
        p._set(self.ring, self.num * num, self.den * den, self.ints)
        return p

    @property
    def terms(self) -> Mapping[Monomial, Fraction]:
        """The coefficients as Fractions, in order: a read-only view built on first use."""
        if self._terms is None:
            num, den = self.num, self.den
            self._terms = MappingProxyType({m: Fraction(c * num, den) for m, c in self.ints.items()})
        return self._terms

    # -- basic structure -------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.ints

    def is_constant(self) -> bool:
        return all(mono_degree(m) == 0 for m in self.ints)

    def degree(self):
        """Total degree; the zero polynomial gets -inf."""
        if not self.ints:
            return NEG_INFINITY
        return max(mono_degree(m) for m in self.ints)

    def degree_in(self, i: int):
        if not self.ints:
            return NEG_INFINITY
        return max(m[i] for m in self.ints)

    def leading_monomial(self) -> Monomial:
        if not self.ints:
            raise ValueError("zero polynomial has no leading term")
        return next(iter(self.ints))

    def coefficient(self, mono: Monomial) -> Fraction:
        return Fraction(self.num * self.ints.get(tuple(mono), 0), self.den)

    def monic(self) -> "Poly":
        """The Poly with leading coefficient 1: a change of content."""
        if self.is_zero:
            return self
        return self._times(self.den, self.num * self.ints[self.leading_monomial()])

    # -- arithmetic ------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.ring == other.ring
            and (self.num, self.den) == (other.num, other.den)
            and self.ints == other.ints
        )

    __hash__ = None

    def __neg__(self) -> "Poly":
        return self._times(-1, 1)

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        if not other.ints:
            return self
        # over the common denominator, with the gcd of the numerators kept out
        g, den = math.gcd(self.num, other.num), math.lcm(self.den, other.den)
        a, b = self.num // g * (den // self.den), other.num // g * (den // other.den)
        out = {m: a * c for m, c in self.ints.items()}
        for m, c in other.ints.items():
            out[m] = out.get(m, 0) + b * c
        return Poly.from_ints(self.ring, g, den, out)

    def __radd__(self, other) -> "Poly":
        return self.__add__(other)

    def __sub__(self, other) -> "Poly":
        return self.__add__(-self._coerce(other))

    def __rsub__(self, other) -> "Poly":
        return (-self).__add__(other)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return self._times(other.numerator, other.denominator)
        other = self._coerce(other)
        # the contents multiply: by Gauss's lemma the product of the integer parts is primitive
        return Poly.from_ints(self.ring, self.num * other.num, self.den * other.den, _product(self.ints, other.ints))

    def __rmul__(self, other) -> "Poly":
        return self.__mul__(other)

    def __pow__(self, k: int) -> "Poly":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        return Poly.from_ints(self.ring, self.num**k, self.den**k, _power(self.ints, k, {(0,) * self.ring.n: 1}))

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
        for m, c in self.ints.items():
            if m[i]:
                mm = list(m)
                mm[i] -= 1
                out[tuple(mm)] = c * m[i]
        return Poly.from_ints(self.ring, self.num, self.den, out)

    def eval_at(self, point: Sequence[Fraction]) -> Fraction:
        if len(point) != self.ring.n:
            raise ValueError("point dimension mismatch")
        point = [Fraction(p) for p in point]
        pows: list[dict[int, Fraction]] = [{0: 1} for _ in point]
        total = 0
        for m, c in self.ints.items():
            val = c
            for i, e in enumerate(m):
                if e:
                    cache = pows[i]
                    if e not in cache:
                        cache[e] = point[i] ** e
                    val *= cache[e]
            total += val
        return total * Fraction(self.num, self.den)

    def compose(self, images: Sequence["Poly"]) -> "Poly":
        """Substitute x_i -> images[i]; the images share one ring, and the
        result lives in it.  For image i = num_i/den_i * ints_i and d_i the
        degree of f in x_i, a term c*x^e adds c * prod num_i^e_i * den_i^(d_i
        - e_i) * ints_i^e_i in ints, over the content num/(den * prod den_i^d_i).
        A substitution whose coefficients may pass MAX_DIGITS digits, by
        that sum's bound from bit lengths, raises ResourceLimitError before
        anything expands."""
        if len(images) != self.ring.n:
            raise ValueError("one image per variable is needed")
        ring = images[0].ring
        one = (0,) * ring.n
        degrees = [max((m[i] for m in self.ints), default=0) for i in range(self.ring.n)]
        # the sum of |c| over f's terms, times prod max(|num_i|, den_i)^d_i * (sum of |c| over ints_i)^d_i
        log2 = _norm_log2(self.ints)
        for p, d in zip(images, degrees):
            if d:
                log2 += d * (max(abs(p.num), p.den).bit_length() + _norm_log2(p.ints))
        _substitution_bounded(log2)
        scales = [[p.num**e * p.den ** (d - e) for e in range(d + 1)] for p, d in zip(images, degrees)]
        powers = [list(accumulate(repeat(p.ints, d), _product, initial={one: 1})) for p, d in zip(images, degrees)]
        out: dict[Monomial, int] = {}
        for m, c in self.ints.items():
            c *= math.prod(map(getitem, scales, m))
            for t, v in reduce(_product, [row[e] for row, e in zip(powers, m) if e], {one: c}).items():
                out[t] = out.get(t, 0) + v
        return Poly.from_ints(ring, self.num, self.den * math.prod(row[0] for row in scales), out)

    def translate(self, shift: Sequence[Fraction]) -> "Poly":
        """Substitute x_i -> x_i + shift_i (``translate_ints``), normalised."""
        if len(shift) != self.ring.n:
            raise ValueError("shift dimension mismatch")
        if not any(shift):
            return self
        den, ints = translate_ints(self.ints, shift)
        return Poly.from_ints(self.ring, self.num, self.den * den, ints)

    # -- printing ---------------------------------------------------------

    def __str__(self) -> str:
        """Each coefficient c*num/den reduced by gcd(c, den), as num and den are coprime."""
        if not self.ints:
            return "0"
        names, num, den = self.ring.variables, self.num, self.den
        parts = []
        for m, c in self.ints.items():
            g = math.gcd(c, den)
            p, q = c // g * num, den // g
            mag = str(abs(p)) if q == 1 else f"{abs(p)}/{q}"
            factors = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(names, m) if e)
            body = mag if not factors else factors if mag == "1" else mag + "*" + factors
            parts.append((" - " if p < 0 else " + ") + body)
        text = "".join(parts)
        return text[3:] if text[1] == "+" else "-" + text[3:]

    def __repr__(self) -> str:
        return f"Poly({self})"
