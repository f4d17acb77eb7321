#!/usr/bin/env python3
"""Multiply elements of the skew group ring and test idealiser membership.

The group element g acts on coefficients by translating variables, so
moving a polynomial past g twists it: (p*g)(q*h) = (p * q^g)*(g+h).
"""

from idealiser import (
    Ideal,
    PolyRing,
    TranslationAction,
    colon_components,
    idealiser_membership,
    parse_skew,
)

ring = PolyRing(("x", "y"))
x, y = ring.var(0), ring.var(1)
act = TranslationAction.standard(ring)


def main():
    a = parse_skew("(x)*g[1,0]", act)
    b = parse_skew("(x)*g[0,1]", act)
    print(f"a = {a}")
    print(f"b = {b}")
    print(f"a*b = {a * b}")
    print(f"b*a = {b * a}")
    print("commute:", a * b == b * a)

    I = Ideal(ring, [2 * x - 3 * y - 1], claimed_prime=True)
    print("\nline ideal:", str(I.gens[0]))
    component = colon_components(I, I, act)
    for g in [(3, 2), (1, 0), (-3, -2)]:
        comp = component(g)
        kind = "everything" if comp.is_unit_ideal() else "the line ideal itself"
        print(f"component at g={g}: {kind}")

    member = parse_skew("(2*x - 3*y - 1)*g[1,0] + (5)*g[3,2]", act)
    outsider = parse_skew("(x)*g[1,0]", act)
    print("\nmember check:", idealiser_membership(member, I, act))
    print("outsider check:", idealiser_membership(outsider, I, act))


if __name__ == "__main__":
    main()
