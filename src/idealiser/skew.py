"""Skew group algebra B = C # Z^d for a translation action on C = Q[x..].

Elements are finite sums sum_g r_g * g with left coefficients r_g in C, and
multiplication twists the right factor: (r*g)(s*h) = (r * s^g)*(g+h).  The
idealiser of the right ideal IB collects, degree by degree, the colon ideals
(I : I^g); for prime I each of those is either everything or I itself, which
is what makes the subring computable.

Text syntax for elements: a sum of terms "(<poly>)*g[a1,...,ad]", with "e"
for the identity group element, e.g. "(x)*g[1,0] + (3)*e"; whitespace is
insignificant, as in polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .action import (
    GroupElement,
    Lattice,
    TranslationAction,
    act_on_ideal,
    apply_action,
    box_walk,
)
from .diophantine import zero_test
from .groebner import (
    Colon,
    DimensionProbe,
    Ideal,
    dimension_probe,
    ideal_equal,
    ideal_quotient,
    unit_ideal,
)
from .noether import analysis, component_test
from .parser import ParseError, _Parser
from .poly import Poly


class SkewElement:
    """Finite left-coefficient sum over group elements, zero terms dropped."""

    __slots__ = ("action", "components")

    def __init__(self, action: TranslationAction, components: Mapping[GroupElement, Poly]):
        cleaned = {}
        for g, p in components.items():
            g = tuple(int(x) for x in g)
            if len(g) != action.d:
                raise ValueError("group element has wrong rank")
            if p.ring != action.ring:
                raise ValueError("coefficient from the wrong ring")
            if not p.is_zero:
                cleaned[g] = p
        self.action = action
        self.components = {g: cleaned[g] for g in sorted(cleaned)}

    @property
    def is_zero(self) -> bool:
        return not self.components

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SkewElement)
            and self.action == other.action
            and self.components == other.components
        )

    __hash__ = None

    def __add__(self, other: "SkewElement") -> "SkewElement":
        out = dict(self.components)
        for g, p in other.components.items():
            s = out.get(g)
            out[g] = p if s is None else s + p
        return SkewElement(self.action, out)

    def __neg__(self) -> "SkewElement":
        return SkewElement(self.action, {g: -p for g, p in self.components.items()})

    def __sub__(self, other: "SkewElement") -> "SkewElement":
        return self + (-other)

    def __mul__(self, other: "SkewElement") -> "SkewElement":
        out: dict[GroupElement, Poly] = {}
        for g, r in self.components.items():
            for h, s in other.components.items():
                twisted = r * apply_action(s, g, self.action)
                key = tuple(a + b for a, b in zip(g, h))
                acc = out.get(key)
                out[key] = twisted if acc is None else acc + twisted
        return SkewElement(self.action, out)

    def __str__(self) -> str:
        if not self.components:
            return "(0)*e"
        parts = []
        for g, p in self.components.items():
            if any(g):
                label = "g[" + ",".join(str(x) for x in g) + "]"
            else:
                label = "e"
            # coefficients render compactly so terms stay single tokens
            parts.append(f"({str(p).replace(' ', '')})*{label}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"SkewElement({self})"


def parse_skew(text: str, action: TranslationAction) -> SkewElement:
    """Parse "(poly)*g[a,...] + (poly)*e - ..." into a skew element.  The
    outer parentheses are syntax: they do not count toward ``MAX_DEPTH``."""
    p = _Parser(text, action.ring)
    components: dict[GroupElement, Poly] = {}
    sign = 1
    while True:
        p.expect_op("(")
        term = p.expr() * sign
        p.expect_op(")")
        p.expect_op("*")
        kind, value, pos, _ = p.advance()
        if (kind, value) == ("name", "e"):
            g = (0,) * action.d
        elif (kind, value) == ("name", "g"):
            p.expect_op("[")
            coords = [p.integer()]
            while p.peek()[:2] == ("op", ","):
                p.advance()
                coords.append(p.integer())
            p.expect_op("]")
            g = tuple(coords)
            if len(g) != action.d:
                raise ParseError(f"group element needs {action.d} coordinates", pos)
        else:
            raise ParseError("expected 'e' or 'g[a1,...,ad]'", pos)
        prev = components.get(g)
        components[g] = term if prev is None else prev + term
        kind, value, pos, _ = p.advance()
        if kind == "end":
            return SkewElement(action, components)
        if kind != "op" or value not in "+-":
            raise ParseError("expected '+' or '-' between terms", pos)
        sign = 1 if value == "+" else -1


def idealiser_component(I: Ideal, g: GroupElement, act: TranslationAction) -> Ideal:
    """(I : I^g): for prime I this is everything when g stabilises I, so
    that I^g lies inside I, otherwise I itself; else a colon quotient."""
    if analysis(I, act).prime:
        return unit_ideal(I.ring) if component_test(I, I, act, "right")(g) else I
    return ideal_quotient(I, act_on_ideal(I, g, act))


def quotient_table(
    J: Ideal, I: Ideal, act: TranslationAction, box: int
) -> dict[GroupElement, Ideal]:
    """(J : I^g) for all g in the sup-norm box, by one ``Colon(J)``, which
    reads the basis, point and principality of J once.  Three exact facts
    settle entries before I^g is built, or spare it a check:
    - J = I, proper and nonzero: I^g lies in I iff g lies in the stabiliser
      K.  If I^g is in I, translating by -(k+1)g puts I^{-kg} in
      I^{-(k+1)g} for every k >= 0; this chain of ideals stabilises,
      I^{-kg} = I^{-(k+1)g} for some k, and translating by (k+1)g gives
      I^g = I.  So an entry in
      K is <1> with no normal form, and no other entry is tested for
      containment.  When I is moreover prime by its class
      (``Analysis.proved_prime``), every entry outside K is J, with no
      check at all: x*l in I for some l in I^g outside I forces x in I.
    - J primary to a rational point p: the entry is J when a generator f of
      I has f^g(p) = f(p + A g) nonzero (``Colon``'s point check).  One
      compiled ``zero_test`` of the generators of I at p + A g serves the
      whole table, so no such g builds I^g.
    - J = I: the automorphism f -> f^g of C maps I + I^{-g} onto I^g + I,
      so the two sums are both <1> or neither is, and they have the same
      dimension.  So ``Colon``'s two sum checks settle a pair {g, -g} at
      once, and the pair's sum is specialised from the one elimination of
      (I, I) under the action (``Analysis.sum_test``) at its first member,
      which gives its dimension with no I^g.  Only where that test answers
      None does the pair build one sum basis; when the sum returns J, the
      second member of the pair is J with no I^g.
    Only the other entries build I^g and go on through ``Colon``.  K and
    the primality come from ``analysis``, which proves them; no input flag
    is read."""
    K = None
    if not (I.is_zero_ideal() or I.is_unit_ideal()) and ideal_equal(I, J):
        a = analysis(I, act)
        K = a.K
        if a.proved_prime:
            return {g: unit_ideal(J.ring) if K.contains(g) else J for g in box_walk([box] * act.d)}
    colon = Colon(J)
    vanishes = None if colon.point is None else zero_test(I.gens, colon.point, act.matrix)
    table = {}
    for g in box_walk([box] * act.d):
        if K is not None and K.contains(g):
            table[g] = unit_ideal(J.ring)
        elif vanishes is not None and not vanishes(g):
            table[g] = J
        elif K is None:
            table[g] = colon(act_on_ideal(I, g, act))
        else:
            pair = min(g, tuple(-x for x in g))
            if pair not in colon.outside:
                dim = analysis(I, act).sum_test(I)(g)
                if dim is not None:
                    colon.outside[pair] = colon.settles(dim)
            if colon.outside.get(pair):
                table[g] = J
            else:
                table[g] = colon(act_on_ideal(I, g, act), contained=False, key=pair)
    return table


def idealiser_membership(b: SkewElement, I: Ideal, act: TranslationAction) -> bool:
    """b * IB inside IB, tested component by component against (I : I^g)."""
    for g, coeff in b.components.items():
        comp = idealiser_component(I, g, act)
        if not comp.contains_poly(coeff):
            return False
    return True


@dataclass(frozen=True)
class IdealiserPresentation:
    """R/IB as the skew group algebra of the stabiliser over the residue ring.

    The idealiser R = sum over g of (I:I^g)*g surjects onto (C/I) # K with
    K the stabiliser of I; components away from K die in the quotient.
    """

    ideal: Ideal
    stabiliser: Lattice
    action: TranslationAction
    residue_probe: DimensionProbe


def presentation_R_mod_IB(I: Ideal, act: TranslationAction) -> IdealiserPresentation:
    if not analysis(I, act).prime:
        raise ValueError("presentation requires an ideal flagged prime")
    return IdealiserPresentation(I, analysis(I, act).K, act, dimension_probe(I))
