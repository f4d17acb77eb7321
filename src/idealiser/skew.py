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
from .groebner import (
    DimensionProbe,
    Ideal,
    dimension_probe,
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
    """(J : I^g) for all g in the sup-norm box, each from J and I^g alone by
    ``ideal_quotient``: C when I^g lies in J, and J with no elimination when
    a check shows that I^g lies in no associated prime of C/J (J primary to
    a rational point where I^g does not vanish, J + I^g = C, or J principal
    with J + I^g of height at least 2); one elimination per generator of
    I^g otherwise."""
    return {g: ideal_quotient(J, act_on_ideal(I, g, act)) for g in box_walk([box] * act.d)}


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
