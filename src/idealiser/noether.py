"""Noetherianity decisions for idealiser subrings, with typed certificates.

The right-hand criterion counts, for points p on V(I), the group elements
whose translate of p stays on V(I); the left-hand criterion counts Tor_1
obstructions between I and moved primes.  Both sets are unions of cosets of
the stabiliser K, so reports group their members by K-coset.

The decision ladders only answer yes/no when a theorem-backed rule applies.
Each side lists its rules in one table: RIGHT_RULES (trivial complement,
maximal ideal, rational line, smooth curve of positive genus, Pell conic,
graph curve) and LEFT_RULES (trivial complement, maximal ideal + orbit
density).  A rule is a function of the Analysis that returns (answer,
certificate) when it fires and None otherwise, so a new rule is one
function plus one table entry.  ``_ladder`` runs a table in order; past it,
the left side of a principal prime that is not maximal copies the right
answer by conjugation, and everything else returns unknown together with
exact box evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import add, mul
from typing import Sequence

from .action import (
    GroupElement,
    Lattice,
    TranslationAction,
    act_on_ideal,
    apply_action,
    box_walk,
    complement,
    effective_directions,
    stabiliser,
)
from .diophantine import CurveClass, classify_plane_curve, pell_enumerate, zero_test
from .groebner import (
    Ideal,
    dimension_probe,
    exact_divide,
    has_repeated_factor,
    ideal_contains,
    ideal_equal,
    ideal_intersect,
    ideal_product,
    ideal_quotient,
    ideal_sum,
    is_radical,
    krull_dimension,
    primary_point,
    rational_point_of,
    unit_ideal,
)
from .normalforms import box_bounds
from .poly import Poly, fixed_points, primitive_gcd, row_coefficients, taylor_shift

# ------------------------------------------------------------- analysis


class Analysis:
    """The facts about one (ideal, action) pair that both criteria read.

    Stabiliser K, complement H, effective rank, residue dimension, the two
    flags, primality proved by class, rational point, orbit density, Krull
    dimension, repeated factor, plane-curve class, least integer zero per
    box, section test and, for a principal I, the gcd test against its
    translates, each on first use;
    ``analysis`` keeps one per action on the ideal.
    ``maximal`` and ``prime`` are the only code that refuses a flag, when it
    is cheap to refute.

    ``proved_prime`` never reads a flag.  It holds for a proper I in two
    cases.  The first is a reduced basis all of degree 1: C/I is then a
    polynomial ring, a domain.  The second is a principal plane curve
    (f) with any ``classify_plane_curve`` tag but unknown, each of which
    proves f irreducible over C (Fulton, Algebraic Curves, ch. 5):
    - a rational line has degree 1;
    - a Pell conic a*((u - c1)^2 - n*(w - c2)^2 - 1) has a 3x3 matrix of
      determinant a^3*n != 0, so it is a nondegenerate conic;
    - a graph curve a*x_i + r(x_j) has degree 1 in x_i with a constant
      coefficient, so a factor free of x_i divides a;
    - a smooth projective closure is irreducible, because two components
      of a plane curve meet (Bezout), and a common point is singular.
    An irreducible f is squarefree, so ``prime`` skips the repeated-factor
    test for it.
    """

    def __init__(self, I: Ideal, act: TranslationAction):
        self.I = I
        self.act = act
        self._anchors: dict[int, tuple[int, ...] | None] = {}

    @cached_property
    def K(self) -> Lattice:
        return stabiliser(self.I, self.act)

    @cached_property
    def H(self) -> Lattice:
        return complement(self.K)

    @cached_property
    def effective_rank(self) -> int:
        return len(effective_directions(self.act))

    @cached_property
    def residue_dimension(self) -> int | None:
        """dim_Q C/I, None when it is infinite."""
        return dimension_probe(self.I, bound=1).total_dimension

    @cached_property
    def maximal(self) -> bool:
        """Residue dimension 1, or the caller's flag; the flag is refused
        unless I is zero-dimensional and radical."""
        if not self.I.claimed_maximal:
            return self.residue_dimension == 1
        if self.residue_dimension is None:
            raise ValueError("ideal flagged maximal is not zero-dimensional")
        if self.residue_dimension > 1 and not is_radical(self.I):
            raise ValueError("ideal flagged maximal is not radical")
        return True

    @cached_property
    def prime(self) -> bool:
        """The flag, refused on the unit ideal and on (f) with a repeated
        factor, which a proved prime does not have."""
        if self.I.claimed_prime:
            if self.I.is_unit_ideal():
                raise ValueError("an ideal flagged prime must be proper, not the unit ideal")
            if not self.proved_prime and self.repeated_factor:
                raise ValueError("a principal ideal with a repeated factor is not prime")
        return self.I.claimed_prime

    @cached_property
    def proved_prime(self) -> bool:
        """I is prime by its class, a proper linear ideal or a classified
        plane curve (see the class docstring); False says nothing."""
        if self.I.is_unit_ideal():
            return False
        if all(g.degree() == 1 for g in self.I.groebner_basis()):
            return True
        return self.curve is not None and self.curve.tag != "unknown"

    @cached_property
    def point(self) -> tuple[Fraction, ...] | None:
        return rational_point_of(self.I)

    @cached_property
    def density(self) -> CriticalDensityReport:
        """Critical density of the orbit of the rational point."""
        return critical_density_decide(self.point, self.act)

    @cached_property
    def dim(self) -> int:
        """dim C/I; every translate I^g has the same dimension."""
        return krull_dimension(self.I)

    @cached_property
    def repeated_factor(self) -> bool:
        """I = (f) with f having a repeated factor."""
        return self.I.is_principal() and has_repeated_factor(self.I.groebner_basis()[0])

    @cached_property
    def curve(self) -> CurveClass | None:
        """The class of a principal plane curve; None for any other ideal."""
        if self.I.ring.n == 2 and self.I.is_principal():
            return classify_plane_curve(self.I.groebner_basis()[0])
        return None

    def anchor(self, box: int) -> tuple[int, ...] | None:
        """The least integer zero of I in the sup-norm box, or None."""
        if box not in self._anchors:
            self._anchors[box] = next(box_walk([box] * self.I.ring.n, zero_test(self.I.gens)), None)
        return self._anchors[box]

    @cached_property
    def section(self):
        """For a reduced basis of affine-linear forms and at most one quadric,
        the test g -> "I + I^g is proper" (``component_test``); else None."""
        degrees = [f.degree() for f in self.I.groebner_basis()]
        if any(e not in (1, 2) for e in degrees) or degrees.count(2) > 1:
            return None
        return _section_test(self.I.groebner_basis(), self.act)

    @cached_property
    def coprime(self):
        """For I = (f): the test g -> "gcd(f, f^g) is constant", by univariate
        gcds (``colon_components``); False says nothing."""
        return _coprime_test(self.I.groebner_basis()[0], self.act)

    def target(self, radius: int) -> Ideal:
        """The growth probes' default target: the point ideal of the least
        integer zero of I in the box of ``radius``, else I itself."""
        p = self.anchor(radius)
        return self.I if p is None else point_ideal(self.I.ring, p)


def analysis(I: Ideal, act: TranslationAction) -> Analysis:
    """The analysis of (I, act), kept on the ideal so every caller shares it."""
    found = I._analyses.get(act)
    if found is None:
        found = I._analyses[act] = Analysis(I, act)
    return found


def point_ideal(ring, p) -> Ideal:
    """m_p, flagged prime and maximal.  Its generators x_i - p_i are built
    from ints, as (b*x_i - a)/b for p_i = a/b.  They are monic and reduced
    in every order, so sorted by the order they are its reduced basis, which
    the ideal is handed."""
    one = (0,) * ring.n
    gens = []
    for i in range(ring.n):
        a, b = p[i].numerator, p[i].denominator
        gens.append(Poly.from_ints(ring, 1, b, {one[:i] + (1,) + one[i + 1 :]: b, one: -a}))
    I = Ideal(ring, gens, claimed_prime=True, claimed_maximal=True)
    I._gb = tuple(sorted(gens, key=lambda g: ring.order.key(g.leading_monomial()), reverse=True))
    return I


# ---------------------------------------------------------------- Tor_1


@dataclass(frozen=True)
class Tor1Module:
    """Tor_1(C/I, C/J) presented as (I cap J)/(I*J)."""

    numerator: Ideal
    denominator: Ideal
    is_zero: bool
    dimension_probe: tuple[int, ...]  # cumulative dims of the quotient by degree


def tor1(I: Ideal, J: Ideal, bound: int = 6) -> Tor1Module:
    num = ideal_intersect(I, J)
    den = ideal_product(I, J)
    is_zero = ideal_equal(num, den)
    dims_num = dimension_probe(num, bound).cumulative
    dims_den = dimension_probe(den, bound).cumulative
    dims = tuple(a - b for a, b in zip(dims_den, dims_num))
    return Tor1Module(num, den, is_zero, dims)


def tor1_is_zero(I: Ideal, J: Ideal) -> bool:
    """Tor_1(C/I, C/J) = 0, i.e. I cap J = I*J, by Groebner bases."""
    return ideal_equal(ideal_intersect(I, J), ideal_product(I, J))


# ------------------------------------------------------- box set reports


@dataclass(frozen=True)
class LatticeSubsetReport:
    kind: str  # "S" or "T"
    description: str
    box: int
    sublattice: Lattice
    stabiliser: Lattice
    members: tuple[GroupElement, ...]
    cosets: tuple[tuple[GroupElement, tuple[GroupElement, ...]], ...]


def _group_by_coset(
    members: Sequence[GroupElement], K: Lattice
) -> tuple[tuple[GroupElement, tuple[GroupElement, ...]], ...]:
    """Classes of the members modulo K, each led by its least member, in
    the order of those; K.reduce's remainder keys the class."""
    groups: dict[GroupElement, list[GroupElement]] = {}
    for m in sorted(members):
        groups.setdefault(K.reduce(m)[1], []).append(m)
    return tuple((bucket[0], tuple(bucket)) for bucket in groups.values())


def _label(I: Ideal) -> str:
    """The generators of I as printed, <0> for the zero ideal."""
    return "<" + (", ".join(str(f) for f in I.gens) or "0") + ">"


def _report(kind, description, box, sub, K, members) -> LatticeSubsetReport:
    members = sorted(members)
    return LatticeSubsetReport(
        kind=kind,
        description=description,
        box=box,
        sublattice=sub,
        stabiliser=K,
        members=tuple(members),
        cosets=_group_by_coset(members, K),
    )


def s_set_box(
    I: Ideal,
    target,
    sub: Lattice,
    box: int,
    act: TranslationAction,
) -> LatticeSubsetReport:
    """Members g of ``sub`` whose action sends the target into V(I).

    Point target: g is a member when the moved point g.p lies on V(I); the
    box is a window on the moved point itself, so the report lists exactly
    the variety points reachable from p inside the window.  Ideal target J:
    g is a member when I^g is contained in J; the box then windows g.
    """
    K = analysis(I, act).K
    if isinstance(target, Ideal):
        # I^g in J: for J flagged prime the right component test reads exactly that
        if target.claimed_prime:
            contained = component_test(I, target, act, "right")
        else:
            contained = lambda g: ideal_contains(target, act_on_ideal(I, g, act))
        members = [g for g in sub.points_in_box(box) if contained(g)]
        desc = f"S-set of {_label(I)} against an ideal target"
    else:
        point = tuple(Fraction(c) for c in target)
        # columns: the translations A*b of the sublattice basis vectors b
        columns = [act.translation(b) for b in sub.basis]
        AB = [[col[i] for col in columns] for i in range(act.ring.n)]
        try:
            bounds = box_bounds(AB, box + max(abs(c) for c in point))
        except ValueError:
            raise ValueError(
                "translation action is not injective on the sublattice; the point window is unbounded"
            ) from None
        members = list(map(sub.element, box_walk(bounds, zero_test(I.gens, point, AB, box))))
        desc = f"S-set of {_label(I)} at point ({', '.join(str(c) for c in point)})"
    return _report("S", desc, box, sub, K, members)


def t_set_box(
    I: Ideal,
    J: Ideal,
    sub: Lattice,
    box: int,
    act: TranslationAction,
) -> LatticeSubsetReport:
    """Members h of ``sub`` in the box with Tor_1(C/I, C/J^h) nonzero, by
    the left ``component_test``."""
    K = analysis(I, act).K
    nonzero = component_test(I, J, act, "left")
    members = [h for h in sub.points_in_box(box) if nonzero(h)]
    return _report("T", f"T-set of {_label(I)} against {_label(J)}", box, sub, K, members)


# ------------------------------------------------- orbit critical density


@dataclass(frozen=True)
class CriticalDensityReport:
    dense: bool
    orbit_rank: int
    direction: tuple[int, ...] | None = None
    witness: Ideal | None = None


def critical_density_decide(
    p: Sequence[Fraction], act: TranslationAction
) -> CriticalDensityReport:
    """Is the orbit of p critically dense (finite meet with every proper
    subvariety)?  In one variable an infinite orbit always is; in two or
    more, the line through p along any lattice direction traps infinitely
    many orbit points and witnesses failure."""
    dirs = effective_directions(act)
    if not dirs:
        raise ValueError("critical density needs an infinite orbit")
    ring = act.ring
    p = tuple(Fraction(c) for c in p)
    if ring.n == 1:
        return CriticalDensityReport(dense=True, orbit_rank=len(dirs))
    v = dirs[-1]
    i0 = next(i for i, vi in enumerate(v) if vi)
    # (x_j - p_j) * v_i0 - (x_i0 - p_i0) * v_j for j != i0, built from ints
    # over den, with P = den * p integral
    den = math.lcm(*(c.denominator for c in p))
    P = [c.numerator * (den // c.denominator) for c in p]
    one = (0,) * ring.n
    unit = [one[:i] + (1,) + one[i + 1 :] for i in range(ring.n)]
    gens = [
        Poly.from_ints(ring, 1, den, {unit[j]: v[i0] * den, unit[i0]: -v[j] * den, one: v[j] * P[i0] - v[i0] * P[j]})
        for j in range(ring.n)
        if j != i0
    ]
    witness = Ideal(ring, gens, claimed_prime=True)
    return CriticalDensityReport(
        dense=False, orbit_rank=len(dirs), direction=v, witness=witness
    )


# ---------------------------------------------------------- growth probes


@dataclass(frozen=True)
class GrowthProbe:
    side: str
    radii: tuple[int, ...]
    counts: tuple[int, ...]  # K-coset classes of nonzero components per radius
    flag: str  # "stabilising" | "growing"
    target: str


def growth_probe(
    I: Ideal,
    J: Ideal,
    act: TranslationAction,
    side: str,
    radii: Sequence[int],
) -> GrowthProbe:
    """Count nonzero graded components of the comparison module in growing
    boxes: (J : I^g)/J on the right, Tor_1(C/I, C/J^g) on the left.  Each
    K-coset class enters the count at the least sup-norm of its members.

    Against a point target J = m_p the two sides are mirror images.  The
    right member test is p + A g in V(I), the left one p - A g in V(I)
    (``component_test``), so the left members are the negatives of the
    right ones.  As K = -K, g -> -g maps each K-coset onto a K-coset and
    keeps the sup-norm of every member, hence the least norm of each class:
    the left probe is the right one with ``side="left"``, and ``analyze``
    builds it without a second walk.

    When the member test is membership in K (J = I flagged prime, also
    when J is the point ideal of I's own point, the default target of a
    maximal I with an integer point in the box), the members in a box are K
    itself cut to the box: one class, which holds 0, so its least norm is 0
    and it counts once at every radius.  The probe then reads counts of 1
    with no zero test and no walk."""
    nonzero = component_test(I, J, act, side)
    radii = tuple(sorted(set(int(r) for r in radii)))
    if not radii:
        raise ValueError("need at least one radius")
    K = analysis(I, act).K
    least: dict[GroupElement, int] = {}
    if nonzero == K.contains:  # the bound method of this K, from component_test
        least[(0,) * act.d] = 0
    else:
        for g in box_walk([radii[-1]] * act.d, nonzero):
            key, norm = K.reduce(g)[1], max(map(abs, g))
            least[key] = min(norm, least.get(key, norm))
    counts = [sum(norm <= r for norm in least.values()) for r in radii]
    flag = "growing" if len(counts) >= 2 and counts[-1] > counts[-2] else "stabilising"
    return GrowthProbe(
        side=side,
        radii=radii,
        counts=tuple(counts),
        flag=flag,
        target=_label(J),
    )


def component_test(I: Ideal, J: Ideal, act: TranslationAction, side: str):
    """The test g -> "the g-component is nonzero": of (J : I^g)/J on the
    right, which for J flagged prime says I^g lies in J, and of
    Tor_1(C/I, C/J^g) on the left.  The primality flags of I and J are
    read through their analyses, which refuse false ones first.  Rules, in
    order:
    - J = 0: (0 : I^g) = 0 unless I = 0, and Tor_1(C/I, C) = 0.
    - J = I flagged prime: I^g in I forces I^g = I, so the test is g in K;
      on the left for I = (f) too, as f lies in the prime I^g iff g in K,
      and for I = m_p, by the next rule, as m_p^g = m_p iff A g = 0.  So a
      probe against the ideal's own point compiles no zero test.
    - J = m_p: I^g lies in m_p iff I vanishes at p + A g; m_p^g = m_{p - A g},
      and for I nonzero Tor_1(C/I, C/m) != 0 iff I lies in m (Nakayama).
    - Left, I = m_q: J^g lies in m_q iff J vanishes at q + A g.
    - Left, I = (f) and J flagged prime: Tor_1(C/(f), C/P) != 0 iff f lies
      in the prime P (f is a nonzerodivisor mod P otherwise), and f lies in
      J^g iff f^{-g} lies in J.
    - Left, J = (h) and I flagged prime: likewise iff h^g lies in I.
    - Left, J = I with dim C/I + dim C/J < n (the Tor rule below), whose
      reduced basis is affine-linear forms l_i and at most one quadric q:
      I + I^g = <l_i, l_i^g, q, q - q^g> (``Analysis.section``).  Here
      l_i^g - l_i = L_i(A g) is a constant, for L_i the linear part of l_i,
      and q - q^g = -(grad q . A g + q_2(A g)) is affine-linear, for q_2
      the quadratic part of q.  The basis is reduced, so q holds no leading
      variable of an l_i, and C/<l_i> is a polynomial ring in the others.
      So the sum is proper iff every L_i(A g) = 0 and q, restricted to the
      hyperplane q - q^g = 0, is not a nonzero constant; where that linear
      form is a constant, iff the constant is 0.  No elimination, translate
      or sum basis is built.
    - Left, dim C/I + dim C/J < n: Tor_1(C/I, C/J^g) != 0 iff I + J^g != C.
      If the sum is the unit ideal, I cap J^g = I*J^g and Tor_1 = 0.
      Otherwise localise at a maximal ideal m over I + J^g: C_m is regular
      of dimension n.  Were Tor_1 zero there, rigidity would make every
      higher Tor vanish (Auslander, Illinois J. Math. 5, 1961; Lichtenbaum,
      Illinois J. Math. 10, 1966), and Auslander's depth formula would give
      depth C_m/I + depth C_m/J^g = n + depth(C_m/I tensor C_m/J^g) >= n,
      which the dimensions rule out.  Translations keep dimensions, so each
      ideal's dimension is computed once, in its analysis.
    - Left otherwise: a unit sum I + J^g gives Tor_1 = 0 as above; only a
      proper sum goes on to ``tor1_is_zero``.
    - Right otherwise: containment (J prime), or whether the colon
      component (J : I^g) of ``colon_components`` is larger than J.
    For J = I the last two left rules answer each pair {g, -g} once, for
    T-sets and growth probes alike: f -> f^g maps (I, I^{-g}) onto
    (I^g, I), so Tor_1(C/I, C/I^{-g}) is Tor_1(C/I^g, C/I), which is
    Tor_1(C/I, C/I^g) by the symmetry of Tor."""
    if side not in ("right", "left"):
        raise ValueError("side must be 'right' or 'left'")
    a, b = analysis(I, act), analysis(J, act)
    I_prime, J_prime = a.prime, b.prime  # refuse a false flag before any rule
    if J.is_zero_ideal():
        return lambda g: side == "right" and I.is_zero_ideal()
    if J_prime and (side == "right" or I.is_principal() or b.point is not None) and ideal_equal(I, J):
        return a.K.contains
    if b.point is not None:
        sign = 1 if side == "right" else -1
        return zero_test(I.gens, b.point, [[sign * x for x in row] for row in act.matrix])
    if side == "left":
        if a.point is not None:
            return zero_test(J.gens, a.point, act.matrix)
        if J_prime and I.is_principal():
            f = I.groebner_basis()[0]
            return lambda g: J.contains_poly(apply_action(f, tuple(-x for x in g), act))
        if I_prime and J.is_principal():
            h = J.groebner_basis()[0]
            return lambda g: I.contains_poly(apply_action(h, g, act))
        by_dimension = a.dim + b.dim < I.ring.n

        def tor_nonzero(g):
            Jg = act_on_ideal(J, g, act)
            if ideal_sum(I, Jg).is_unit_ideal():
                return False
            return by_dimension or not tor1_is_zero(I, Jg)

        mirrored = ideal_equal(I, J)
        nonzero = (by_dimension and mirrored and a.section) or tor_nonzero
        return _once_per_pair(nonzero) if mirrored else nonzero
    if J_prime:
        return lambda g: ideal_contains(J, act_on_ideal(I, g, act))
    component = colon_components(J, I, act)
    return lambda g: not ideal_equal(component(g), J)


def _once_per_pair(test):
    """``test`` asked once per pair {g, -g}, at its first member."""
    answers: dict[GroupElement, bool] = {}

    def once(g: GroupElement) -> bool:
        if g not in answers:
            answers[g] = answers[tuple(-x for x in g)] = test(g)
        return answers[g]

    return once


def colon_components(J: Ideal, I: Ideal, act: TranslationAction):
    """The map g -> (J : I^g): the one rule for colon components, which
    reads the basis, point (``primary_point``) and principality of J once.
    A component is <1> when I^g lies in J, and otherwise J exactly when I^g
    lies in no associated prime of C/J (Eisenbud, Commutative Algebra, Thm
    3.1 and Lemma 3.3).  These checks settle components, in order:
    - J = I, proper and nonzero: I^g lies in I iff g lies in the stabiliser
      K.  If I^g is in I, translating by -(k+1)g puts I^{-kg} in
      I^{-(k+1)g} for every k >= 0; this chain of ideals stabilises,
      I^{-kg} = I^{-(k+1)g} for some k, and translating by (k+1)g gives
      I^g = I.  So a component in K is <1> with no normal form, and no
      other is tested for containment.  When I is moreover prime by its class
      (``Analysis.proved_prime``), every component outside K is J, with no
      check at all: x*l in I for some l in I^g outside I forces x in I.
    - J proper with (x_i - p_i)^k in its basis for every i: V(J) = {p}, and
      m_p is the only associated prime.  The component is J when a
      generator f of I has f^g(p) = f(p + A g) nonzero: one compiled
      ``zero_test`` serves every g, and builds no I^g.
    - J = I = (f): C is a UFD, so (f : f^g) = (f / gcd(f, f^g)), which is J
      exactly when f and f^g share no factor.  A pair is J with no I^g, sum
      or elimination when univariate gcds certify that h = gcd(f, f^g) is
      constant (``Analysis.coprime``).  For each variable x_i of f, fix the
      other coordinates at an integer point a with lc_{x_i}(f)(a) != 0, and
      write f|_a and f^g|_a for the polynomials in x_i left.  h divides f,
      so lc_{x_i}(h) divides lc_{x_i}(f) and h|_a keeps its degree in x_i;
      h|_a divides f|_a and f^g|_a.  So a constant primitive gcd of those
      two makes h free of x_i, and h is constant when that holds for every
      x_i.  A specialisation can share a root by accident (for two lines
      l1*l2, when l1 and l2^g cross at the fixed coordinate), so up to three
      fixed points per variable are tried; the test never finds a factor.
    - J + I^g = <1>: c*I^g in J gives c = c*1 in c*I^g + c*J, in J.
    - J = (f) and dim C/(J + I^g) <= n - 2: the associated primes of C/(f)
      are the (p) for the irreducible factors p of f, of height 1 (C is a
      UFD), and I^g in (p) would give J + I^g dimension n - 1.
    - J = I = (f) and a principal sum (f, f^g) = (h): h = gcd(f, f^g), so
      the component is (f / h).
    The last three read one sum basis.  For J = I, f -> f^g maps I + I^{-g}
    onto I^g + I, so the last four settle a pair {g, -g} at its first
    member: the second is J with no I^g when they return J, and (f / h^g)
    with no I^g when the first had the gcd h = gcd(f, f^{-g}), as
    gcd(f, f^g) = gcd(f^{-g}, f)^g.  The other components build I^g and go
    on to ``ideal_quotient``.  K and the primality come from ``analysis``,
    which proves them; no flag is read."""
    ring = J.ring
    K = None
    if not (I.is_zero_ideal() or I.is_unit_ideal()) and ideal_equal(I, J):
        a = analysis(I, act)
        K = a.K
        if a.proved_prime:
            return lambda g: unit_ideal(ring) if K.contains(g) else J
    point = primary_point(J)
    vanishes = None if point is None else zero_test(I.gens, point, act.matrix)
    principal = J.is_principal()
    # per key: True when the checks return J, (g, gcd(f, f^g)) for a principal sum, else False
    settled: dict[GroupElement, bool | tuple[GroupElement, Poly]] = {}

    def component(g: GroupElement) -> Ideal:
        if K is not None and K.contains(g):
            return unit_ideal(ring)
        if vanishes is not None and not vanishes(g):
            return J
        key = g if K is None else min(g, tuple(-x for x in g))
        if key not in settled and K is not None and principal and a.coprime(g):
            settled[key] = True
        Ig = None
        if key not in settled:
            Ig = act_on_ideal(I, g, act)
            if K is None and ideal_contains(J, Ig):
                return unit_ideal(ring)
            total = Ideal(ring, J.groebner_basis() + Ig.gens)
            dim = krull_dimension(total)
            if dim < 0 or (principal and dim <= ring.n - 2):
                settled[key] = True
            elif K is not None and principal and total.is_principal():
                settled[key] = (g, total.groebner_basis()[0])
            else:
                settled[key] = False
        found = settled[key]
        if found is True:
            return J
        if found:
            first, h = found  # h = gcd(f, f^first), and g is first or -first
            h = h if g == first else apply_action(h, g, act)
            return Ideal(ring, [exact_divide(J.groebner_basis()[0], h)])
        return ideal_quotient(J, act_on_ideal(I, g, act) if Ig is None else Ig)

    return component


def _coprime_test(f: Poly, act: TranslationAction):
    """The gcd test of ``colon_components`` for I = (f), compiled in ints
    from F(X) = den^D * f(X / den), for den = act.den and D the degree of f,
    whose value at X = den*x + act.ints*g is den^D * f^g(x).  Per variable
    x_i of f it keeps f|_a, F at X = den*a as a polynomial in X_i, for each
    point a of ``poly.fixed_points`` with lc_{x_i}(f)(a) != 0.  At g,
    f^g|_a is F at X = den*a + act.ints*g off x_i, Taylor-shifted by the
    i-th entry of act.ints*g.  Both are f|_a and f^g|_a with x_i scaled by
    den, which keeps the degree of their gcd."""
    n, den, D = f.ring.n, act.den, f.degree()
    points = [[den * v for v in a] for a in fixed_points(n)]  # den*a, entry i unused
    checks = []
    for i in range(n):
        d = max(m[i] for m in f.ints)
        if d:
            terms = [
                (c * den ** (D - sum(m)), [(j, e) for j, e in enumerate(m) if e and j != i], m[i])
                for m, c in f.ints.items()
            ]
            specs = [(X, at) for X in points for at in [row_coefficients(terms, d, X)] if at[d]]
            checks.append((i, d, terms, specs))

    def coprime(g: GroupElement) -> bool:
        u = [sum(map(mul, row, g)) for row in act.ints]
        for i, d, terms, specs in checks:
            for X, at in specs:  # the first point with a constant gcd certifies x_i
                moved = row_coefficients(terms, d, list(map(add, X, u)))
                if len(primitive_gcd(at, taylor_shift(moved, u[i]))) == 1:
                    break
            else:
                return False
        return True

    return coprime


def _section_test(basis: Sequence[Poly], act: TranslationAction):
    """The section test of ``component_test``, in ints.  For U = act.ints*g
    = den*A g, L_i(A g) = 0 iff L_i(U) = 0; for Q = q.ints, with Hessian H,
    linear part b and constant e, den^2*(q^g - q) = a.x + c, for a = den*H U
    and c = den*b.U + Q_2(U).  With a_j != 0, Q on a.x + c = 0 is Q at
    x0 + sum t_k w_k, for x0 = -c/a_j e_j and w_k = a_j e_k - a_k e_j; it is
    the constant Q(x0) iff a_j*grad Q(x0) = a_j*b - c*H e_j and H vanish on
    every w_k.  Without q, H, b and e are 0, and so is c."""
    n, den = act.ring.n, act.den
    unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    linear = [[f.ints.get(m, 0) for m in unit] for f in basis if f.degree() == 1]
    Q = next((f.ints for f in basis if f.degree() == 2), {})
    H = [[Q.get(tuple(map(add, unit[k], unit[l])), 0) * (1 + (k == l)) for l in range(n)] for k in range(n)]
    b, e = [Q.get(m, 0) for m in unit], Q.get((0,) * n, 0)

    def proper(g: GroupElement) -> bool:
        U = [sum(map(mul, row, g)) for row in act.ints]
        if any(sum(map(mul, L, U)) for L in linear):
            return False
        HU = [sum(map(mul, row, U)) for row in H]
        a, c = [den * x for x in HU], den * sum(map(mul, b, U)) + sum(map(mul, U, HU)) // 2
        j = next((k for k in range(n) if a[k]), None)
        if j is None:
            return c == 0
        aj, grad = a[j], [a[j] * b[k] - c * H[k][j] for k in range(n)]
        constant = all(
            aj * grad[k] == a[k] * grad[j]
            and aj * aj * H[k][l] - aj * (a[l] * H[k][j] + a[k] * H[j][l]) + a[k] * a[l] * H[j][j] == 0
            for k in range(n)
            for l in range(n)
        )
        return not constant or H[j][j] * c * c - 2 * b[j] * c * aj + 2 * e * aj * aj == 0  # 2*a_j^2*Q(x0)

    return proper


# ------------------------------------------------------ decision ladders


@dataclass(frozen=True)
class Certificate:
    rule: str
    payload: dict


@dataclass(frozen=True)
class Verdict:
    right: str
    left: str
    certificates: tuple[Certificate, ...]


def _require_decidable(a: Analysis) -> None:
    if a.I.is_zero_ideal() or a.I.is_unit_ideal():
        raise ValueError("decision needs a proper nonzero ideal")
    maximal, prime = a.maximal, a.prime  # each refuses a false flag
    if not (maximal or prime):
        raise ValueError("decision requires an ideal flagged prime")


def lattice_payload(L: Lattice) -> list[list[int]]:
    return [list(v) for v in L.basis]


def trivial_complement(a: Analysis) -> tuple[str, Certificate] | None:
    """K of full rank: the complement is trivial, and both sides are yes."""
    if a.K.rank != a.act.d:
        return None
    payload = {"stabiliser": lattice_payload(a.K), "ambient_rank": a.act.d}
    return "yes", Certificate("TrivialComplement", payload)


def maximal_right(a: Analysis) -> tuple[str, Certificate] | None:
    if not a.maximal:
        return None
    payload: dict = {"stabiliser": lattice_payload(a.K)}
    if a.point is not None:
        payload["point"] = [str(c) for c in a.point]
    else:
        payload["residue_dimension"] = a.residue_dimension
    return "yes", Certificate("MaximalRight", payload)


def rational_line(a: Analysis) -> tuple[str, Certificate] | None:
    if a.curve is None or a.curve.tag != "rational_line":
        return None
    payload = {"line": str(a.I.groebner_basis()[0]), "stabiliser": lattice_payload(a.K)}
    return "yes", Certificate("RationalLine", payload)


def genus_at_least_one(a: Analysis) -> tuple[str, Certificate] | None:
    cls = a.curve
    if cls is None or cls.tag != "smooth_high_degree":
        return None
    payload = {
        "curve": str(a.I.groebner_basis()[0]),
        "degree": cls.degree,
        "genus": cls.genus,
        "jacobian_pure_powers": list(cls.jacobian_pure_powers),
    }
    return "yes", Certificate("GenusAtLeastOne", payload)


def pell_conic(a: Analysis) -> tuple[str, Certificate] | None:
    cls = a.curve
    if cls is None or cls.tag != "pell_conic" or a.effective_rank != 2:
        return None
    sols = pell_enumerate(cls.pell_n, 3, fitting=True)  # at least the fundamental
    payload = {
        "n": cls.pell_n,
        "centre": list(cls.pell_centre),
        "axis": a.I.ring.variables[cls.pell_axis],
        "fundamental": [sols[0].x, sols[0].y],
        "solutions": [[s.x, s.y] for s in sols],
    }
    return "no", Certificate("PellConic", payload)


def graph_curve(a: Analysis) -> tuple[str, Certificate] | None:
    cls = a.curve
    if cls is None or cls.tag != "graph_curve" or a.effective_rank != 2:
        return None
    q, axis = cls.graph_poly, cls.graph_axis
    step = math.lcm(*(c.denominator for m, c in q.terms.items() if m[1 - axis] >= 1), 1)
    samples = []
    for k in range(3):
        pt = [str(k * step)] * 2
        pt[axis] = str(q.eval_at([Fraction(0 if i == axis else k * step) for i in range(2)]))
        samples.append(pt)
    payload = {
        "axis": a.I.ring.variables[axis],
        "graph_poly": str(q),
        "step": step,
        "curve_samples": samples,
    }
    return "no", Certificate("GraphCurve", payload)


def maximal_left_critical_density(a: Analysis) -> tuple[str, Certificate] | None:
    """A maximal ideal with a rational point p is left yes iff the orbit of
    p is critically dense; otherwise the witness line shows no."""
    if not a.maximal or a.point is None:
        return None
    density = a.density
    payload = {
        "point": [str(c) for c in a.point],
        "dense": density.dense,
        "orbit_rank": density.orbit_rank,
    }
    if not density.dense:
        payload["direction"] = list(density.direction)
        payload["witness_line"] = [str(g) for g in density.witness.gens]
    return ("yes" if density.dense else "no"), Certificate("MaximalLeftCriticalDensity", payload)


RIGHT_RULES = (
    trivial_complement, maximal_right, rational_line, genus_at_least_one, pell_conic, graph_curve
)
LEFT_RULES = (trivial_complement, maximal_left_critical_density)


def _ladder(a: Analysis, side: str, H: Lattice | None, box: int, right=None):
    """The first rule of the side's table that fires; else conjugation,
    copying ``right`` (or a run of the right ladder); else unknown, with the
    S-set of the least integer zero of I (or of I) or the T-set of I."""
    _require_decidable(a)
    for rule in RIGHT_RULES if side == "right" else LEFT_RULES:
        fired = rule(a)
        if fired is not None:
            answer, cert = fired
            return answer, [cert], []
    if side == "left" and a.I.is_principal() and not a.maximal:
        answer, certs, sets = right or decide_right(a.I, a.act, H, box)
        payload = {"copied_from": "right", "right_rules": [c.rule for c in certs]}
        return answer, [Certificate("PrincipalConjugation", payload)] + certs, sets
    H = a.H if H is None else H
    if side == "right":
        report = s_set_box(a.I, a.anchor(box) or a.I, H, box, a.act)
    else:
        report = t_set_box(a.I, a.I, H, box, a.act)
    payload = {
        "side": side,
        "box": report.box,
        "members": [list(m) for m in report.members],
        "coset_classes": len(report.cosets),
    }
    if side == "left" and a.maximal:
        payload["note"] = "maximal ideal without a rational point; orbit density undecided"
    return "unknown", [Certificate("BoxEvidenceOnly", payload)], [report]


def decide_right(
    I: Ideal,
    act: TranslationAction,
    complement_lattice: Lattice | None = None,
    box: int = 8,
) -> tuple[str, list[Certificate], list[LatticeSubsetReport]]:
    """Right noetherianity of the idealiser of IB, by the table RIGHT_RULES.
    Its no-verdicts need a rank-2 translation image for the integer-point
    argument; unknown comes with the S-set as box evidence.  A new rule is
    one function plus one table entry."""
    return _ladder(analysis(I, act), "right", complement_lattice, box)


def decide_left(
    I: Ideal,
    act: TranslationAction,
    complement_lattice: Lattice | None = None,
    box: int = 8,
) -> tuple[str, list[Certificate], list[LatticeSubsetReport]]:
    """Left noetherianity, by the table LEFT_RULES, then conjugation, which
    gives a principal prime that is not maximal the right ladder's answer,
    certificates and sets; unknown comes with the T-set as box evidence.  A
    new rule is one function plus one table entry."""
    return _ladder(analysis(I, act), "left", complement_lattice, box)


def decide(
    I: Ideal,
    act: TranslationAction,
    complement_lattice: Lattice | None = None,
    box: int = 8,
) -> tuple[Verdict, list[LatticeSubsetReport]]:
    a = analysis(I, act)
    right, right_certs, right_sets = outcome = decide_right(I, act, complement_lattice, box)
    left, left_certs, left_sets = _ladder(a, "left", complement_lattice, box, outcome)
    # conjugation and the trivial complement repeat the right's certificates and sets
    certs = right_certs + [c for c in left_certs if c not in right_certs]
    sets = right_sets + [s for s in left_sets if s not in right_sets]
    return Verdict(right, left, tuple(certs)), sets
