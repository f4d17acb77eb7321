"""Brute-force oracle for the skew group ring tests."""

from idealiser import Lattice, SkewElement


def right_ideal_truncation(I, act, radius):
    """Generators i*g of IB with support in the sup-norm box of ``radius``."""
    return [
        SkewElement(act, {g: f})
        for g in Lattice.standard(act.d).points_in_box(radius)
        for f in I.gens
    ]
