"""Reference shape recognisers for the classifier tests.  They are the
Pell-conic and graph-curve recognisers ``idealiser.diophantine`` had before
it read each shape from the integer rows of f: Fraction arithmetic on the
coefficients, one equality with the rebuilt conic, and the graph function
built from the Fraction view.  They are kept as the oracles that the
current recognisers are compared against.
"""

import math
from fractions import Fraction

from idealiser.diophantine import CurveClass
from idealiser.poly import Poly


def fraction_try_pell(f):
    """Detect a*((u - c1)^2 - n*(w - c2)^2 - 1) with integer centre, n
    a positive nonsquare integer, up to swapping the two variables.  The
    square and linear terms fix a, n and the centre, and one equality with
    the rebuilt conic checks the cross and constant terms."""
    if f.ring.n != 2 or f.degree() != 2:
        return None
    for axis in (0, 1):
        lin = tuple(int(i == axis) for i in range(2))  # u; lin[::-1] is w
        sq = tuple(2 * e for e in lin)
        alpha = f.coefficient(sq)
        if alpha == 0:
            continue
        ratio = -f.coefficient(sq[::-1]) / alpha
        if ratio.denominator != 1 or ratio <= 0 or math.isqrt(int(ratio)) ** 2 == ratio:
            continue
        n = int(ratio)
        c1 = -f.coefficient(lin) / (2 * alpha)
        c2 = f.coefficient(lin[::-1]) / (2 * alpha * n)
        if c1.denominator != 1 or c2.denominator != 1:
            continue
        u, w = f.ring.var(axis), f.ring.var(1 - axis)
        if f != alpha * ((u - c1) ** 2 - n * (w - c2) ** 2 - 1):
            continue
        return CurveClass(
            tag="pell_conic",
            degree=2,
            pell_n=n,
            pell_centre=(int(c1), int(c2)),
            pell_axis=axis,
        )
    return None


def fraction_try_graph(f):
    """Detect a*x_i + r(x_j) with deg r >= 2."""
    if f.ring.n != 2:
        return None
    for axis in (0, 1):
        other = 1 - axis
        a = None
        rest = {}
        ok = True
        for mono, c in f.terms.items():
            if mono[axis] == 1 and mono[other] == 0:
                a = c
            elif mono[axis] == 0:
                rest[mono] = c
            else:
                ok = False
                break
        if not ok or a is None:
            continue
        r = Poly(f.ring, rest)
        if r.degree_in(other) < 2:
            continue
        graph = r * (Fraction(-1) / a)
        return CurveClass(tag="graph_curve", degree=int(f.degree()), graph_axis=axis, graph_poly=graph)
    return None
