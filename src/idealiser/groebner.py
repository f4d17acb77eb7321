"""Buchberger-based Groebner calculus over Q.

The engine is deliberately small: sugar-ordered pair queue, the
Gebauer-Moeller pair update (JSC 6, 1988), full normal forms, canonical
reduced bases (monic, inter-reduced, sorted by leading monomial).  Every run
is capped by a budget of processed pairs, those that survive the update, so
runaway eliminations fail loudly instead of hanging.  The budget is the
context variable ``PAIR_LIMIT``, ``DEFAULT_PAIR_LIMIT`` unless set.

Ideal-level operations (sum, product, intersection via an elimination block
order, colon quotient, equality, containment, dimension probes, Krull
dimension) all reduce to the same basis machinery.
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
    _ElimOrder,
    _integral,
    _scaled,
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)

DEFAULT_PAIR_LIMIT = 100_000
PAIR_LIMIT = contextvars.ContextVar("pair_limit", default=DEFAULT_PAIR_LIMIT)


class ResourceLimitError(RuntimeError):
    """Raised when a basis computation exceeds its pair budget."""


def _run_poly(ring: PolyRing, terms: dict) -> Poly:
    """A Poly on int coefficients, as they are; only basis runs make these.
    Under the ring's order its terms descend, as a Poly's do."""
    p = object.__new__(Poly)
    p.ring, p.terms = ring, terms
    return p


def _prepare(basis: Sequence[Poly], order) -> list[tuple[tuple[int, ...], int, dict]]:
    prepared = []
    for g in basis:
        if g.terms:
            lm, lc = g.leading(order)
            terms = g.terms if type(lc) is int else _integral(g.terms)[0]
            prepared.append((lm, terms[lm], terms))
    return prepared


def _pseudo_reduce(work: dict, prepared, order, quotient: dict | None = None):
    """Pseudo-reduction of the integer terms ``work`` (consumed) by ``prepared``
    (Geddes, Czapor and Labahn, 1992, ch. 10): (R, lam), lam*work = R modulo
    the divisors.  Each step scales by lc/gcd(c, lc) and divides out the
    content; with one divisor, ``quotient`` collects lam*work's quotient."""
    out: dict = {}
    num = den = 1
    key = order.key
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
    return out, Fraction(num, den)


def normal_form(f: Poly, basis: Sequence[Poly], order=None) -> Poly:
    """Full remainder of f on division by ``basis``, exact; for int
    coefficients (a basis run's) an integer multiple of it."""
    if order is None:
        order = f.ring.order
    prepared = _prepare(basis, order)
    if not any(mono_divides(lm, m) for lm, _, _ in prepared for m in f.terms):
        return f
    work, scale = _integral(f.terms)
    rem, lam = _pseudo_reduce(work, prepared, order)
    if not rem or type(next(iter(f.terms.values()))) is int:
        return _run_poly(f.ring, rem)
    return _scaled(f.ring, rem, scale / lam)


def s_polynomial(f: Poly, g: Poly, order=None) -> Poly:
    """The S-polynomial of f and g times lc(f)*lc(g), which keeps int
    coefficients ints."""
    if order is None:
        order = f.ring.order
    lmf, lcf = f.leading(order)
    lmg, lcg = g.leading(order)
    lcm = mono_lcm(lmf, lmg)
    qf = mono_div(lcm, lmf)
    qg = mono_div(lcm, lmg)
    # the leading terms cancel; shift and scale the rest of each term dict
    out = {mono_mul(qf, m): lcg * c for m, c in f.terms.items() if m != lmf}
    for m, c in g.terms.items():
        if m != lmg:
            tm = mono_mul(qg, m)
            out[tm] = out.get(tm, 0) - lcf * c
    out = {m: out[m] for m in sorted(out, key=order.key, reverse=True) if out[m]}
    return _run_poly(f.ring, out) if type(lcf) is int else Poly(f.ring, out)


def buchberger(gens: Sequence[Poly], order) -> list[Poly]:
    """A Groebner basis of ``gens``: the active elements, those whose leading
    monomial no later element divides.  Pairs are taken in sugar order and
    filtered by the Gebauer-Moeller update; the pair budget counts the pairs
    that survive it.  S-polynomials are reduced against every element found
    so far: the inactive ones are often the smaller reducers, and under lex
    orders reducing against the active ones alone swells the coefficients.
    The elements are integer polynomials, and leave as they are."""
    limit = PAIR_LIMIT.get()
    key = order.key
    polys: list[Poly] = []
    sugars: list[int] = []
    lms: list[tuple[int, ...]] = []
    active: list[int] = []
    pairs: list = []  # heap of (sugar, key(lcm), i, j, lcm), i < j

    def add(h: Poly, sugar: int) -> None:
        j = len(polys)
        lmh = h.leading(order)[0]
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
            add(_run_poly(g.ring, _integral(g.terms)[0]), int(g.degree()))

    processed = 0
    while pairs:
        processed += 1
        if processed > limit:
            raise ResourceLimitError(f"pair budget exceeded ({limit} processed pairs)")
        sugar, _, i, j, _ = heapq.heappop(pairs)
        r = normal_form(s_polynomial(polys[i], polys[j], order), polys, order)
        if not r.is_zero:
            add(r, max(sugar, int(r.degree())))
    return [polys[k] for k in active]


def reduced_groebner_basis(gens: Sequence[Poly], order) -> tuple[Poly, ...]:
    """Canonical reduced basis: minimal, monic, fully inter-reduced, sorted."""
    G = buchberger(gens, order)
    if not G:
        return ()
    # minimalise: ascending sweep keeps only elements with undominated lm
    G_sorted = sorted(G, key=lambda g: order.key(g.leading(order)[0]))
    minimal: list[Poly] = []
    for g in G_sorted:
        lm = g.leading(order)[0]
        if not any(mono_divides(h.leading(order)[0], lm) for h in minimal):
            minimal.append(g)
    # a single full-reduction pass leaves every monomial irreducible
    reduced = [
        normal_form(g, minimal[:k] + minimal[k + 1 :], order).monic(order)
        for k, g in enumerate(minimal)
    ]
    reduced.sort(key=lambda g: order.key(g.leading(order)[0]), reverse=True)
    return tuple(reduced)


def exact_divide(g: Poly, f: Poly) -> Poly:
    """Quotient g/f for g in the principal ideal of f; errors otherwise."""
    if f.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    order = g.ring.order
    prepared = _prepare([f], order)
    work, scale = _integral(g.terms)
    quotient: dict = {}
    rem, lam = _pseudo_reduce(work, prepared, order, quotient)
    if rem:
        raise ValueError("polynomial is not divisible")
    # f is lc(f)/lc(D) times its integer multiple D
    return _scaled(g.ring, quotient, scale * prepared[0][1] / (lam * f.leading(order)[1]))


class Ideal:
    """Finitely generated ideal of a polynomial ring with optional flags.

    ``claimed_prime``/``claimed_maximal`` are caller assertions, which the
    ideal's analyses (``noether.analysis``, kept per action) check and refuse
    when cheaply false.  The reduced basis in the ring's order is cached.
    """

    __slots__ = ("ring", "gens", "claimed_prime", "claimed_maximal", "_gb", "_divisors", "_analyses")

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
        self._divisors: list[Poly] | None = None  # the basis as integer polynomials
        self._analyses: dict = {}

    def __repr__(self) -> str:
        return "Ideal<" + ", ".join(str(g) for g in self.gens) + ">"

    def groebner_basis(self) -> tuple[Poly, ...]:
        if self._gb is None:
            self._gb = reduced_groebner_basis(self.gens, self.ring.order)
        return self._gb

    def normal_form(self, f: Poly) -> Poly:
        if self._divisors is None:
            self._divisors = [_run_poly(g.ring, _integral(g.terms)[0]) for g in self.groebner_basis()]
        return normal_form(f, self._divisors, self.ring.order)

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


def ideal_intersect(I: Ideal, J: Ideal) -> Ideal:
    """I cap J via the auxiliary variable t: eliminate t from t*I + (1-t)*J."""
    ring = I.ring
    if not I.gens or not J.gens:
        return Ideal(ring, [])
    aux = _fresh_aux_name(ring)
    ext = PolyRing((aux,) + ring.variables)
    t = ext.var(0)

    def lift(p: Poly) -> Poly:
        return Poly(ext, {(0,) + m: c for m, c in p.terms.items()})

    raw = [t * lift(f) for f in I.gens] + [(ext.one() - t) * lift(g) for g in J.gens]
    elim = _ElimOrder(1, ring.order)
    basis = reduced_groebner_basis(raw, elim)
    down = []
    for p in basis:
        if all(m[0] == 0 for m in p.terms):
            down.append(Poly(ring, {m[1:]: c for m, c in p.terms.items()}))
    result = Ideal(ring, down)
    # the t-free block of an elimination basis is already a reduced basis
    result._gb = tuple(sorted(down, key=lambda g: ring.order.key(g.leading()[0]), reverse=True))
    return result


def _primary_point(J: Ideal) -> tuple[Fraction, ...] | None:
    """The point p when the reduced basis of J holds a power (x_i - p_i)^k
    for every i, else None.  A monic g of degree k in x_i alone is such a
    power exactly when g(x_i + p_i), with p_i = -(coefficient of
    x_i^(k-1))/k, is the single term x_i^k."""
    n = J.ring.n
    point: list = [None] * n
    for g in J.groebner_basis():
        support = {i for m in g.terms for i, e in enumerate(m) if e}
        if len(support) == 1:
            (i,) = support
            k = g.degree_in(i)
            shift = [0] * n
            shift[i] = -g.coefficient(tuple(k - 1 if j == i else 0 for j in range(n))) / k
            if len(g.translate(shift).terms) == 1:
                point[i] = shift[i]
    return None if None in point else tuple(point)


def ideal_quotient(J: Ideal, I: Ideal) -> Ideal:
    """Colon quotient (J : I) = {c | c*I subset of J}.

    Checks that return J without an elimination rest on one fact: (J : I)
    is J exactly when I lies in no associated prime of C/J (Eisenbud,
    Commutative Algebra, Thm 3.1 and Lemma 3.3).  In order:
    - I in J: the quotient is <1>.
    - J proper with (x_i - p_i)^k in its basis for every i: V(J) = {p}, so
      J is m_p-primary and m_p is its only associated prime.  A generator
      of I that is nonzero at p puts I outside m_p, and the quotient is J.
    - I + J = <1>: it is J, as c*I in J gives c = c*1 in c*I + c*J, in J.
    - J = (f) principal and dim C/(I + J) <= n - 2: C is a UFD, so the
      associated primes of C/(f) are the (p) for the irreducible factors p
      of f, each of height 1.  I in (p) would put I + J in (p), of
      dimension n - 1; so I lies in none, and the quotient is J.  The
      dimension is read off the sum basis of the previous check.
    Any other pair goes on to (J : f) = (J cap (f))/f per generator f of I,
    and to the intersection of those (Cox, Little and O'Shea, IVA, section
    4.4)."""
    ring = J.ring
    if ideal_contains(J, I):
        return unit_ideal(ring)
    point = _primary_point(J)
    if point is not None and any(f.eval_at(point) for f in I.gens):
        return J
    total = Ideal(ring, J.groebner_basis() + I.gens)
    if total.is_unit_ideal():
        return J
    if J.is_principal() and krull_dimension(total) <= ring.n - 2:
        return J
    result: Ideal | None = None
    for f in I.gens:
        meet = ideal_intersect(Ideal(ring, [f]), J)
        colon_f = Ideal(ring, [exact_divide(g, f) for g in meet.gens])
        result = colon_f if result is None else ideal_intersect(result, colon_f)
    return result


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
    lms = [g.leading()[0] for g in gb]

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
    """dim C/I, read off the leading monomials of the cached basis: the
    largest set of variables that contains the support of no leading
    monomial, which is dim C/in(I) = dim C/I; -1 for the unit ideal."""
    n = I.ring.n
    supports = [{i for i, e in enumerate(g.leading()[0]) if e} for g in I.groebner_basis()]
    for k in range(n, -1, -1):
        for free in itertools.combinations(range(n), k):
            if not any(s.issubset(free) for s in supports):
                return k
    return -1


def has_repeated_factor(f: Poly) -> bool:
    """Nonconstant f has a repeated factor: in characteristic 0, exactly when
    f and all its partials share a nonconstant factor, and then
    V(f, df/dx_1, ..., df/dx_n) has a component of dimension n - 1."""
    n = f.ring.n
    return krull_dimension(Ideal(f.ring, [f] + [f.partial(i) for i in range(n)])) == n - 1


def is_radical(I: Ideal) -> bool:
    """Whether a zero-dimensional I is radical: by Seidenberg's lemma, exactly
    when, for every i, the generator of I cap Q[x_i] (the last element of a
    reduced lex basis with x_i least) has no repeated factor."""
    n = I.ring.n
    for i in range(n):
        lex = MonomialOrder.lex(n, [j for j in range(n) if j != i] + [i])
        if has_repeated_factor(reduced_groebner_basis(I.gens, lex)[-1]):
            return False
    return True


def rational_point_of(I: Ideal) -> tuple[Fraction, ...] | None:
    """The rational point p with I = m_p, else None.  When every x_i reduces
    to a constant c_i mod a proper I, m_c lies in I, and m_c is maximal."""
    nfs = [I.normal_form(I.ring.var(i)) for i in range(I.ring.n)]
    if I.is_unit_ideal() or not all(nf.is_constant() for nf in nfs):
        return None
    return tuple(nf.constant_value() for nf in nfs)
