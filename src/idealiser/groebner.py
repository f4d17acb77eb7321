"""Buchberger-based Groebner calculus over Q.

The engine is deliberately small: sugar-ordered pair queue, the
Gebauer-Moeller pair update (JSC 6, 1988), full normal forms, canonical
reduced bases (monic, inter-reduced, sorted by leading monomial), all in
the order of the polynomials' ring; ``eliminate`` and ``is_radical`` move
their generators into a ring with the order they need.  Every run is capped
by a budget of processed pairs, those that survive the update, so runaway
eliminations fail loudly instead of hanging.  The budget is the context
variable ``PAIR_LIMIT``, ``DEFAULT_PAIR_LIMIT`` unless set.

Ideal-level operations (sum, product, intersection via an elimination block
order, colon quotient by its definition, equality, containment, dimension
probes, Krull dimension) all reduce to the same basis machinery.
"""

from __future__ import annotations

import contextvars
import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .poly import (
    MonomialOrder,
    Poly,
    PolyRing,
    ResourceLimitError,
    _ElimOrder,
    fixed_points,
    is_squarefree,
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    row_coefficients,
    row_terms,
    translate_ints,
)

DEFAULT_PAIR_LIMIT = 100_000
PAIR_LIMIT = contextvars.ContextVar("pair_limit", default=DEFAULT_PAIR_LIMIT)


def _prepare(basis: Sequence[Poly]) -> list[tuple[tuple[int, ...], int, dict]]:
    """(leading monomial, its int coefficient, int coefficients) per nonzero divisor."""
    return [(lm, g.ints[lm], g.ints) for g in basis if g.ints for lm in [g.leading_monomial()]]


def _pseudo_reduce(f: Poly, prepared, quotient: dict | None = None):
    """Pseudo-reduction of f's integer part ``work`` by ``prepared`` (Geddes,
    Czapor and Labahn, 1992, ch. 10): (R, lam), lam*work = R modulo the
    divisors, lam = num/den returned as the two ints.  Each step scales by
    lc/gcd(c, lc) and divides out the content; with one divisor,
    ``quotient`` collects lam*work's quotient."""
    work, out = dict(f.ints), {}
    num = den = 1
    key = f.ring.order.key
    parts = (work, out) if quotient is None else (work, out, quotient)
    while work:
        m = max(work, key=key)
        for lm, lc, gterms in prepared:
            if mono_divides(lm, m):
                c = work[m]
                d = math.gcd(c, lc)
                a, b = (lc // d, c // d) if lc > 0 else (-lc // d, -c // d)  # a*c == b*lc
                if a != 1:
                    num *= a
                    for part in parts:
                        part.update({k: v * a for k, v in part.items()})
                q = mono_div(m, lm)
                if quotient is not None:
                    quotient[q] = b
                for gm, gc in gterms.items():  # the leading term cancels: a*c - b*lc == 0
                    tm = mono_mul(q, gm)
                    s = work.get(tm, 0) - b * gc
                    if s:
                        work[tm] = s
                    else:
                        del work[tm]
                content = math.gcd(*work.values(), *out.values(), *(quotient or {}).values())
                if content > 1:
                    den *= content
                    for part in parts:
                        part.update({k: v // content for k, v in part.items()})
                break
        else:
            out[m] = work.pop(m)
    return out, num, den


def normal_form(f: Poly, basis: Sequence[Poly]) -> Poly:
    """Full remainder of f on division by ``basis``, exact."""
    prepared = _prepare(basis)
    if not any(mono_divides(lm, m) for lm, _, _ in prepared for m in f.ints):
        return f
    rem, num, den = _pseudo_reduce(f, prepared)
    return Poly.from_ints(f.ring, f.num * den, f.den * num, rem)


def s_polynomial(f: Poly, g: Poly) -> Poly:
    """The S-polynomial of f and g times lc(f)*lc(g): the S-polynomial of
    their integer parts times both contents."""
    lmf, lmg = f.leading_monomial(), g.leading_monomial()
    lcf, lcg = f.ints[lmf], g.ints[lmg]
    lcm = mono_lcm(lmf, lmg)
    qf = mono_div(lcm, lmf)
    qg = mono_div(lcm, lmg)
    # the leading terms cancel; shift and scale the rest of each term dict
    out = {mono_mul(qf, m): lcg * c for m, c in f.ints.items() if m != lmf}
    for m, c in g.ints.items():
        if m != lmg:
            tm = mono_mul(qg, m)
            out[tm] = out.get(tm, 0) - lcf * c
    return Poly.from_ints(f.ring, f.num * g.num, f.den * g.den, out)


def buchberger(gens: Sequence[Poly]) -> list[Poly]:
    """A Groebner basis of ``gens``: the active elements, those whose leading
    monomial no later element divides.  Pairs are taken in sugar order and
    filtered by the Gebauer-Moeller update; the pair budget counts the pairs
    that survive it.  S-polynomials are reduced against every element found
    so far: the inactive ones are often the smaller reducers, and under lex
    orders reducing against the active ones alone swells the coefficients.
    Reduction reads the elements' integer parts alone."""
    limit = PAIR_LIMIT.get()
    polys: list[Poly] = []
    sugars: list[int] = []
    lms: list[tuple[int, ...]] = []
    active: list[int] = []
    pairs: list = []  # heap of (sugar, key(lcm), i, j, lcm), i < j

    def add(h: Poly, sugar: int) -> None:
        j, key = len(polys), h.ring.order.key
        lmh = h.leading_monomial()
        polys.append(h)
        sugars.append(sugar)
        lms.append(lmh)
        # new pairs (i, j): drop each whose lcm another new lcm divides,
        # keeping one per lcm, then those with coprime leading monomials
        new = [(i, mono_lcm(lms[i], lmh)) for i in active]
        kept = []
        for n, (i, lcm) in enumerate(new):
            coprime = lcm == mono_mul(lms[i], lmh)
            if coprime or not (
                any(mono_divides(other, lcm) for _, other in new[n + 1 :])
                or any(mono_divides(other, lcm) for _, other, _ in kept)
            ):
                kept.append((i, lcm, coprime))
        # old pairs (a, b): drop those whose lcm lm(h) divides and that is a
        # proper multiple of both lcm(a, h) and lcm(b, h)
        pairs[:] = [
            p
            for p in pairs
            if not mono_divides(lmh, p[4])
            or mono_lcm(lms[p[2]], lmh) == p[4]
            or mono_lcm(lms[p[3]], lmh) == p[4]
        ]
        for i, lcm, coprime in kept:
            if not coprime:
                excess = max(sugars[i] - mono_degree(lms[i]), sugar - mono_degree(lmh))
                pairs.append((mono_degree(lcm) + excess, key(lcm), i, j, lcm))
        heapq.heapify(pairs)
        active[:] = [i for i in active if not mono_divides(lmh, lms[i])]
        active.append(j)

    for g in gens:
        if not g.is_zero:
            add(g, int(g.degree()))

    processed = 0
    while pairs:
        processed += 1
        if processed > limit:
            raise ResourceLimitError(f"pair budget exceeded ({limit} processed pairs)")
        sugar, _, i, j, _ = heapq.heappop(pairs)
        r = normal_form(s_polynomial(polys[i], polys[j]), polys)
        if not r.is_zero:
            add(r, max(sugar, int(r.degree())))
    return [polys[k] for k in active]


def reduced_groebner_basis(gens: Sequence[Poly]) -> tuple[Poly, ...]:
    """Canonical reduced basis: minimal, monic, fully inter-reduced, sorted."""
    G = buchberger(gens)
    if not G:
        return ()
    key = G[0].ring.order.key
    # minimalise: ascending sweep keeps only elements with undominated lm
    minimal: list[Poly] = []
    for g in sorted(G, key=lambda g: key(g.leading_monomial())):
        lm = g.leading_monomial()
        if not any(mono_divides(h.leading_monomial(), lm) for h in minimal):
            minimal.append(g)
    # a single full-reduction pass leaves every monomial irreducible
    reduced = [normal_form(g, minimal[:k] + minimal[k + 1 :]).monic() for k, g in enumerate(minimal)]
    reduced.sort(key=lambda g: key(g.leading_monomial()), reverse=True)
    return tuple(reduced)


def exact_divide(g: Poly, f: Poly) -> Poly:
    """Quotient g/f for g in the principal ideal of f; errors otherwise."""
    if f.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    quotient: dict = {}
    rem, num, den = _pseudo_reduce(g, _prepare([f]), quotient)
    if rem:
        raise ValueError("polynomial is not divisible")
    # num/den * g's integer part = quotient * f's integer part
    return Poly.from_ints(g.ring, g.num * f.den * den, g.den * f.num * num, quotient)


class Ideal:
    """Finitely generated ideal of a polynomial ring with optional flags.

    ``claimed_prime``/``claimed_maximal`` are caller assertions, which the
    ideal's analyses (``noether.analysis``, kept per action) check and refuse
    when cheaply false.  The reduced basis in the ring's order is cached.
    """

    __slots__ = ("ring", "gens", "claimed_prime", "claimed_maximal", "_gb", "_analyses")

    def __init__(
        self,
        ring: PolyRing,
        gens: Iterable[Poly],
        claimed_prime: bool = False,
        claimed_maximal: bool = False,
    ):
        kept = []
        for g in gens:
            if not isinstance(g, Poly) or g.ring != ring:
                raise ValueError("generator from the wrong ring")
            if not g.is_zero:
                kept.append(g)
        self.ring = ring
        self.gens = tuple(kept)
        self.claimed_prime = bool(claimed_prime)
        self.claimed_maximal = bool(claimed_maximal)
        self._gb: tuple[Poly, ...] | None = None
        self._analyses: dict = {}

    def __repr__(self) -> str:
        return "Ideal<" + ", ".join(str(g) for g in self.gens) + ">"

    def groebner_basis(self) -> tuple[Poly, ...]:
        if self._gb is None:
            self._gb = reduced_groebner_basis(self.gens)
        return self._gb

    def normal_form(self, f: Poly) -> Poly:
        return normal_form(f, self.groebner_basis())

    def contains_poly(self, f: Poly) -> bool:
        return self.normal_form(f).is_zero

    def is_zero_ideal(self) -> bool:
        return not self.groebner_basis()

    def is_unit_ideal(self) -> bool:
        gb = self.groebner_basis()
        return len(gb) == 1 and gb[0].is_constant()

    def is_principal(self) -> bool:
        return len(self.groebner_basis()) == 1


def unit_ideal(ring: PolyRing) -> Ideal:
    return Ideal(ring, [ring.one()])


def ideal_sum(I: Ideal, J: Ideal) -> Ideal:
    return Ideal(I.ring, I.gens + J.gens)


def ideal_product(I: Ideal, J: Ideal) -> Ideal:
    return Ideal(I.ring, [f * g for f in I.gens for g in J.gens])


def _fresh_aux_name(ring: PolyRing) -> str:
    """A name that begins no variable of ``ring``, so numbered ones are fresh too."""
    name = "_t"
    while any(v.startswith(name) for v in ring.variables):
        name = "_" + name
    return name


def eliminate(raw: Sequence[Poly], block: int, ring: PolyRing) -> tuple[Poly, ...]:
    """The reduced basis of <raw> cap ``ring``, for nonempty ``raw`` in a
    ring with ``block`` more variables, first.  Moved into a ring under
    _ElimOrder(block, ring.order), ``raw`` has a reduced basis whose part
    free of them generates it (Cox, Little and O'Shea, IVA, section 3.1).
    On that part the block order is ``ring``'s, so it is monic,
    inter-reduced and, coming last, in descending order."""
    elim = PolyRing(raw[0].ring.variables, _ElimOrder(block, ring.order))
    basis = reduced_groebner_basis([Poly.from_ints(elim, p.num, p.den, p.ints) for p in raw])
    return tuple(
        Poly.from_ints(ring, p.num, p.den, {m[block:]: c for m, c in p.ints.items()})
        for p in basis
        if not any(any(m[:block]) for m in p.ints)
    )


def ideal_intersect(I: Ideal, J: Ideal) -> Ideal:
    """I cap J via the auxiliary variable t: eliminate t from t*I + (1-t)*J.
    The result's basis cache holds the elimination's reduced basis."""
    ring = I.ring
    if not I.gens or not J.gens:
        return Ideal(ring, [])
    ext = PolyRing((_fresh_aux_name(ring),) + ring.variables)

    def lift(p: Poly, e: int) -> Poly:  # t^e * p
        return Poly.from_ints(ext, p.num, p.den, {(e,) + m: c for m, c in p.ints.items()})

    raw = [lift(f, 1) for f in I.gens] + [lift(g, 0) - lift(g, 1) for g in J.gens]
    result = Ideal(ring, eliminate(raw, 1, ring))
    result._gb = result.gens
    return result


def primary_point(J: Ideal) -> tuple[Fraction, ...] | None:
    """The point p when the reduced basis of J holds a power (x_i - p_i)^k
    for every i, else None.  A monic g of degree k in x_i alone is such a
    power exactly when g(x_i + p_i), with p_i = -(coefficient of
    x_i^(k-1))/k, is the single term x_i^k; for k = 1 it always is."""
    n = J.ring.n
    point: list = [None] * n
    for g in J.groebner_basis():
        support = {i for m in g.ints for i, e in enumerate(m) if e}
        if len(support) == 1:
            (i,) = support
            k = g.degree_in(i)
            shift = [0] * n
            shift[i] = -g.coefficient(tuple(k - 1 if j == i else 0 for j in range(n))) / k
            if k == 1 or len(translate_ints(g.ints, shift)[1]) == 1:
                point[i] = shift[i]
    return None if None in point else tuple(point)


def ideal_quotient(J: Ideal, L: Ideal) -> Ideal:
    """(J : L) by the definition: (J : f) = (J cap (f))/f per generator f of
    L, and the intersection of those (Cox, Little and O'Shea, IVA, section
    4.4); <1> for L = 0.  ``noether.colon_components`` settles most colons
    of a table without it."""
    ring = J.ring
    result = None
    for f in L.gens:
        colon_f = Ideal(ring, [exact_divide(g, f) for g in ideal_intersect(Ideal(ring, [f]), J).gens])
        result = colon_f if result is None else ideal_intersect(result, colon_f)
    return unit_ideal(ring) if result is None else result


def ideal_equal(I: Ideal, J: Ideal) -> bool:
    return I.groebner_basis() == J.groebner_basis()


def ideal_contains(I: Ideal, J: Ideal) -> bool:
    """True when J is a subset of I: every generator of J reduces to 0 mod I."""
    return all(I.contains_poly(g) for g in J.gens)


@dataclass(frozen=True)
class DimensionProbe:
    """Counting report for C/I: cumulative dims by degree, finiteness flag."""

    cumulative: tuple[int, ...]
    zero_dimensional: bool
    total_dimension: int | None


def pure_powers(monomials: Sequence[tuple[int, ...]], n: int) -> tuple[int, ...]:
    """Per variable x_i, the least e with x_i^e among ``monomials``, else 0."""
    return tuple(
        min((m[i] for m in monomials if m[i] and sum(m) == m[i]), default=0) for i in range(n)
    )


def dimension_probe(I: Ideal, bound: int = 8) -> DimensionProbe:
    ring = I.ring
    gb = I.groebner_basis()
    if gb and gb[0].is_constant():
        return DimensionProbe(tuple(0 for _ in range(bound + 1)), True, 0)
    lms = [g.leading_monomial() for g in gb]

    def standard(m) -> bool:
        return not any(mono_divides(lm, m) for lm in lms)

    counts = [0] * (bound + 1)
    for m in itertools.product(range(bound + 1), repeat=ring.n):
        degree = mono_degree(m)
        if degree <= bound and standard(m):
            counts[degree] += 1
    cumulative = tuple(itertools.accumulate(counts))

    powers = pure_powers(lms, ring.n)  # all nonzero iff C/I is finite-dimensional
    total = None
    if all(powers):
        total = sum(1 for m in itertools.product(*map(range, powers)) if standard(m))
    return DimensionProbe(cumulative, total is not None, total)


def krull_dimension(I: Ideal) -> int:
    """dim C/I, read off the leading monomials of the cached basis: the size
    of the largest set of variables that contains the support of no leading
    monomial, which is dim C/in(I) = dim C/I; -1 for the unit ideal.  Sets
    of variables are bit masks."""
    n = I.ring.n
    supports = [sum(1 << i for i, e in enumerate(g.leading_monomial()) if e) for g in I.groebner_basis()]
    return max((free.bit_count() for free in range(1 << n) if all(s & ~free for s in supports)), default=-1)


def _repeated_by_gcds(f: Poly) -> bool | None:
    """Univariate gcds on f's lines: False when they prove f squarefree,
    True when they prove a repeated factor, None when they do neither.  For
    each variable x_i of f, fix the other coordinates at an integer point a
    with lc_{x_i}(f)(a) != 0 (``poly.fixed_points``), and write f|_a for the
    polynomial in x_i left.  A factor h of f has lc_{x_i}(h) dividing
    lc_{x_i}(f), so h|_a keeps its degree in x_i, and h^2 | f gives
    h|_a^2 | f|_a.  So a squarefree f|_a at one point frees every repeated
    factor of x_i, and f is squarefree when that holds for every x_i.  When
    f has one variable, f|_a is f and the test is exact both ways."""
    n = f.ring.n
    involved = [i for i in range(n) if any(m[i] for m in f.ints)]
    points = fixed_points(n)[: 3 if len(involved) > 1 else 1]
    for i in involved:
        d, terms = row_terms(f.ints, i)
        if not any(at[d] and is_squarefree(at) for at in (row_coefficients(terms, d, a) for a in points)):
            return True if len(involved) == 1 else None
    return False


def has_repeated_factor(f: Poly) -> bool:
    """Nonconstant f has a repeated factor: decided by univariate gcds where
    they can (``_repeated_by_gcds``), else by the fact that in
    characteristic 0 this holds exactly when f and all its partials share a
    nonconstant factor, and then V(f, df/dx_1, ..., df/dx_n) has a
    component of dimension n - 1."""
    found = _repeated_by_gcds(f)
    if found is not None:
        return found
    n = f.ring.n
    return krull_dimension(Ideal(f.ring, [f] + [f.partial(i) for i in range(n)])) == n - 1


def is_radical(I: Ideal) -> bool:
    """Whether a zero-dimensional I is radical: by Seidenberg's lemma, exactly
    when, for every i, the generator of I cap Q[x_i] (the last element of a
    reduced lex basis with x_i least) has no repeated factor, which is
    gcd(g, g') = 1 in one variable (``_repeated_by_gcds``)."""
    n = I.ring.n
    for i in range(n):
        lex = PolyRing(I.ring.variables, MonomialOrder.lex(n, [j for j in range(n) if j != i] + [i]))
        gens = [Poly.from_ints(lex, g.num, g.den, g.ints) for g in I.gens]
        if has_repeated_factor(reduced_groebner_basis(gens)[-1]):
            return False
    return True


def rational_point_of(I: Ideal) -> tuple[Fraction, ...] | None:
    """The rational point p with I = m_p, else None.  The reduced basis of
    m_p is {x_i - p_i} in every order, so I = m_p exactly when the basis has
    n elements, all of degree 1: their n leading variables are distinct and,
    the basis being reduced, each element is a monic x_i + c, so p_i = -c."""
    basis = I.groebner_basis()
    n = I.ring.n
    if len(basis) != n or any(g.degree() != 1 for g in basis):
        return None
    point: list = [None] * n
    for g in basis:
        point[g.leading_monomial().index(1)] = Fraction(-g.num * g.ints.get((0,) * n, 0), g.den)
    return tuple(point)
