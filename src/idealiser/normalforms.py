"""Exact integer column Hermite and Smith normal forms with transforms.

Everything here works on small dense integer matrices (lists of rows) and
tracks unimodular transforms explicitly, so lattice kernels, saturations and
complements come out canonical and certified: M*V = H for the column Hermite
form, U*M*V = D for Smith, with det(U), det(V) in {+1, -1}.
"""

from __future__ import annotations

from dataclasses import dataclass


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def identity_matrix(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


@dataclass(frozen=True)
class ColumnHermite:
    h: list[list[int]]
    v: list[list[int]]
    pivots: tuple[tuple[int, int], ...]  # (row, column) per pivot

    @property
    def rank(self) -> int:
        return len(self.pivots)


def column_hermite(matrix: list[list[int]]) -> ColumnHermite:
    """Canonical column staircase: M*V = H, pivots positive, left entries
    reduced into [0, pivot) on pivot rows, zero columns pushed right."""
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    H = [[int(x) for x in row] for row in matrix]
    V = identity_matrix(n)

    def combine(j: int, k: int, a: int, b: int, c: int, d: int) -> None:
        for mat in (H, V):
            for row in mat:
                row[j], row[k] = a * row[j] + b * row[k], c * row[j] + d * row[k]

    def add_multiple(j: int, k: int, q: int) -> None:  # col_j -= q*col_k
        for mat in (H, V):
            for row in mat:
                row[j] -= q * row[k]

    pivots = []
    r = 0
    for i in range(m):
        if r == n:
            break
        if all(H[i][j] == 0 for j in range(r, n)):
            continue
        for j in range(r + 1, n):
            if H[i][j]:
                g, s, t = xgcd(H[i][r], H[i][j])
                u, w = H[i][r] // g, H[i][j] // g
                combine(r, j, s, t, -w, u)
        if H[i][r] < 0:
            for mat in (H, V):
                for row in mat:
                    row[r] = -row[r]
        for j in range(r):
            q = H[i][j] // H[i][r]
            if q:
                add_multiple(j, r, q)
        pivots.append((i, r))
        r += 1
    return ColumnHermite(H, V, tuple(pivots))


def kernel_basis(matrix: list[list[int]], cols: int | None = None) -> list[tuple[int, ...]]:
    """Basis of {v integer | M v = 0} from the zero columns of the Hermite V."""
    if not matrix:
        n = cols or 0
        return [tuple(int(i == j) for j in range(n)) for i in range(n)]
    ch = column_hermite(matrix)
    n = len(matrix[0])
    return [tuple(row[j] for row in ch.v) for j in range(ch.rank, n)]


@dataclass(frozen=True)
class SmithForm:
    d: list[list[int]]
    u: list[list[int]]
    v: list[list[int]]
    u_inv: list[list[int]]


def smith_normal_form(matrix: list[list[int]]) -> SmithForm:
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    D = [[int(x) for x in row] for row in matrix]
    U = identity_matrix(m)
    Uinv = identity_matrix(m)
    V = identity_matrix(n)

    def row_swap(i, k):
        D[i], D[k] = D[k], D[i]
        U[i], U[k] = U[k], U[i]
        for row in Uinv:
            row[i], row[k] = row[k], row[i]

    def row_add(i, k, q):  # row_i += q*row_k
        D[i] = [a + q * b for a, b in zip(D[i], D[k])]
        U[i] = [a + q * b for a, b in zip(U[i], U[k])]
        for row in Uinv:
            row[k] -= q * row[i]

    def row_neg(i):
        D[i] = [-a for a in D[i]]
        U[i] = [-a for a in U[i]]
        for row in Uinv:
            row[i] = -row[i]

    def col_swap(j, k):
        for row in D:
            row[j], row[k] = row[k], row[j]
        for row in V:
            row[j], row[k] = row[k], row[j]

    def col_add(j, k, q):  # col_j += q*col_k
        for row in D:
            row[j] += q * row[k]
        for row in V:
            row[j] += q * row[k]

    t = 0
    while t < min(m, n):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if D[i][j] and (best is None or abs(D[i][j]) < abs(D[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        if best[0] != t:
            row_swap(t, best[0])
        if best[1] != t:
            col_swap(t, best[1])
        while True:
            i = next((i for i in range(t + 1, m) if D[i][t]), None)
            if i is not None:
                q = D[i][t] // D[t][t]
                row_add(i, t, -q)
                if D[i][t]:
                    row_swap(t, i)
                continue
            j = next((j for j in range(t + 1, n) if D[t][j]), None)
            if j is not None:
                q = D[t][j] // D[t][t]
                col_add(j, t, -q)
                if D[t][j]:
                    col_swap(t, j)
                continue
            bad = next(
                (
                    i
                    for i in range(t + 1, m)
                    if any(D[i][j] % D[t][t] for j in range(t + 1, n))
                ),
                None,
            )
            if bad is not None:
                row_add(t, bad, 1)
                continue
            break
        if D[t][t] < 0:
            row_neg(t)
        t += 1
    return SmithForm(D, U, V, Uinv)

