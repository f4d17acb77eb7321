"""Small exact linear algebra helpers over Fraction matrices (lists of rows)."""

from __future__ import annotations

import math
from fractions import Fraction


def rref(matrix: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form and pivot column indices."""
    m = [[Fraction(x) for x in row] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def mat_mul(a, b):
    return [
        [sum((Fraction(x) * Fraction(y) for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)]
        for row in a
    ]


def fraction_inverse(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(matrix)
    aug = [[Fraction(x) for x in row] + [Fraction(i == j) for j in range(n)] for i, row in enumerate(matrix)]
    reduced, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in reduced[:n]]


def box_bounds(matrix, radius) -> list[int]:
    """Bounds b_j with |c_j| <= b_j for every c whose image matrix * c has
    sup-norm at most ``radius``.  The matrix needs full column rank: c is
    recovered by the pseudo-inverse (M^T M)^-1 M^T, whose row sums of
    absolute values bound each coordinate."""
    t = [list(col) for col in zip(*matrix)]
    pinv = mat_mul(fraction_inverse(mat_mul(t, matrix)), t)
    return [math.floor(sum(abs(x) for x in row) * radius) for row in pinv]
