"""Reference Pell-conic recogniser for the classifier tests.  It is the
recogniser ``idealiser.diophantine`` had before it read the Pell shape from
the integer coefficients: Fraction arithmetic on the coefficients, and one
equality with the rebuilt conic.  It is kept as the oracle that the current
recogniser is compared against.
"""

import math

from idealiser.diophantine import CurveClass


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
