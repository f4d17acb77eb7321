"""Translation actions of Z^d on Q[x_1..x_n] and their lattice calculus.

A group element g acts on polynomials by f^g(x) = f(x + A g), where the
columns of the rational n x d matrix A are the translation vectors of the d
generators.  On points the induced action is g.p = p + A g, so moving an
ideal moves its zero set the opposite way: V(I^g) = V(I) - A g.

The stabiliser of an ideal is computed exactly: a translation direction v
preserves I iff the derivative along v of every basis element lies in I
(char 0: f(x + tv) is a finite Taylor sum, and finitely many integer
translates pin every Taylor coefficient into I by Vandermonde inversion).
That makes the stabiliser the integer kernel of an explicit rational matrix,
which Hermite forms solve exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from . import linalg
from .diophantine import ZeroTest
from .groebner import (
    Ideal,
    ResourceLimitError,
    _fresh_aux_name,
    ideal_equal,
    reduced_groebner_basis,
)
from .normalforms import column_hermite, kernel_basis, smith_normal_form
from .poly import MonomialOrder, Poly, PolyRing, _ElimOrder

GroupElement = tuple[int, ...]

# the most integer vectors one box walk may visit; the largest walks of the
# tests, goldens and demos visit about 70,000
WALK_LIMIT = 10**6


@dataclass(frozen=True)
class TranslationAction:
    ring: PolyRing
    matrix: tuple[tuple[Fraction, ...], ...]  # n rows, d columns

    def __init__(self, ring: PolyRing, matrix: Sequence[Sequence]):
        rows = tuple(tuple(Fraction(x) for x in row) for row in matrix)
        if len(rows) != ring.n:
            raise ValueError("matrix must have one row per ring variable")
        if not rows or not rows[0]:
            raise ValueError("action needs at least one group generator")
        if len({len(r) for r in rows}) != 1:
            raise ValueError("ragged action matrix")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "matrix", rows)

    @classmethod
    def standard(cls, ring: PolyRing) -> "TranslationAction":
        n = ring.n
        return cls(ring, [[Fraction(i == j) for j in range(n)] for i in range(n)])

    @property
    def d(self) -> int:
        return len(self.matrix[0])

    def translation(self, g: GroupElement) -> tuple[Fraction, ...]:
        if len(g) != self.d:
            raise ValueError("group element has wrong rank")
        return tuple(
            sum((a * gi for a, gi in zip(row, g)), Fraction(0)) for row in self.matrix
        )


def apply_action(f: Poly, g: GroupElement, act: TranslationAction) -> Poly:
    """f^g with f^g(x) = f(x + A g)."""
    return f.translate(act.translation(g))


def act_on_ideal(I: Ideal, g: GroupElement, act: TranslationAction) -> Ideal:
    return Ideal(
        I.ring,
        [apply_action(f, g, act) for f in I.gens],
        claimed_prime=I.claimed_prime,
        claimed_maximal=I.claimed_maximal,
    )


def difference_ideal(I: Ideal, J: Ideal, act: TranslationAction) -> tuple[Poly, ...]:
    """The reduced basis of E = (I(x) + J(x + A s)) cap Q[s_1..s_d], in the
    variables s: one elimination under the block order that puts x first.
    V(E) is the Zariski closure of the s in C^d with A s in V(J) - V(I)."""
    ring, n, d = I.ring, I.ring.n, act.d
    aux = _fresh_aux_name(ring)
    ext = PolyRing(ring.variables + tuple(f"{aux}{j}" for j in range(d)))
    moved = [
        sum((a * ext.var(n + j) for j, a in enumerate(row) if a), ext.var(i))
        for i, row in enumerate(act.matrix)
    ]
    raw = [Poly(ext, {m + (0,) * d: c for m, c in f.terms.items()}) for f in I.gens]
    raw += [h.compose(moved) for h in J.gens]
    basis = reduced_groebner_basis(raw, _ElimOrder(n, MonomialOrder.grevlex(d)))
    sring = PolyRing(ext.variables[n:])
    # the x-free block of an elimination basis is a reduced basis of E, in order
    return tuple(
        Poly(sring, {m[n:]: c for m, c in p.terms.items()})
        for p in basis
        if not any(any(m[:n]) for m in p.terms)
    )


def box_walk(
    bounds: Sequence[int], test: Callable[[tuple[int, ...]], bool] | ZeroTest | None = None
) -> Iterator[tuple[int, ...]]:
    """Integer vectors c with |c_j| <= bounds[j], lazily and in increasing
    order; with ``test``, only those that pass it.  A box of more than
    WALK_LIMIT vectors raises ResourceLimitError before any is made.  When
    the test is a ``ZeroTest``, only the integer roots of the last
    coordinate along each row (``ZeroTest.roots``) get the exact test; no
    other vector of the row passes, so the walk yields the same vectors."""
    count = math.prod(2 * b + 1 for b in bounds)
    if count > WALK_LIMIT:
        raise ResourceLimitError(f"box walk of {count} points exceeds the budget of {WALK_LIMIT}")
    ranges = [range(-b, b + 1) for b in bounds]
    if test is None:
        return itertools.product(*ranges)
    if not isinstance(test, ZeroTest) or not ranges:
        return filter(test, itertools.product(*ranges))
    *heads, last = ranges
    return (
        head + (t,)
        for head in itertools.product(*heads)
        for t in test.roots(head, last)
        if test.exact(head + (t,))
    )


class Lattice:
    """Finitely generated subgroup of Z^d in canonical column-Hermite basis."""

    __slots__ = ("ambient", "basis", "_pivots")

    def __init__(self, ambient: int, vectors: Sequence[Sequence[int]]):
        vectors = [tuple(int(x) for x in v) for v in vectors]
        for v in vectors:
            if len(v) != ambient:
                raise ValueError("vector dimension mismatch")
        vectors = [v for v in vectors if any(v)]
        self.ambient = ambient
        if not vectors:
            self.basis: tuple[GroupElement, ...] = ()
            self._pivots: tuple[tuple[int, int], ...] = ()
            return
        matrix = [[v[i] for v in vectors] for i in range(ambient)]
        ch = column_hermite(matrix)
        self.basis = tuple(
            tuple(ch.h[i][j] for i in range(ambient)) for j in range(ch.rank)
        )
        self._pivots = ch.pivots

    @classmethod
    def standard(cls, d: int) -> "Lattice":
        return cls(d, [[int(i == j) for j in range(d)] for i in range(d)])

    @property
    def rank(self) -> int:
        return len(self.basis)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Lattice)
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    __hash__ = None

    def __repr__(self) -> str:
        vecs = " ".join("(" + ",".join(str(x) for x in v) + ")" for v in self.basis)
        return f"Lattice[{vecs or 'trivial'}]"

    def reduce(self, v: Sequence[int]) -> tuple[tuple[int, ...], GroupElement]:
        """q and r with v = sum_j q_j basis[j] + r and r in [0, pivot) on each
        pivot row.  Basis vector j is zero above its pivot row, so r is the
        same for every member of the coset v + L, and zero exactly on L."""
        work = [int(x) for x in v]
        if len(work) != self.ambient:
            raise ValueError("vector dimension mismatch")
        coords = []
        for b, (prow, _) in zip(self.basis, self._pivots):
            q = work[prow] // b[prow]
            coords.append(q)
            work = [w - q * x for w, x in zip(work, b)]
        return tuple(coords), tuple(work)

    def coords(self, v: Sequence[int]) -> tuple[int, ...] | None:
        """Integer coordinates of v in the canonical basis, or None."""
        coords, remainder = self.reduce(v)
        return None if any(remainder) else coords

    def contains(self, v: Sequence[int]) -> bool:
        return self.coords(v) is not None

    def element(self, coeffs: Sequence[int]) -> GroupElement:
        """The lattice element sum_j coeffs[j] * basis[j]."""
        return tuple(sum(c * b[i] for c, b in zip(coeffs, self.basis)) for i in range(self.ambient))

    def points_in_box(self, radius: int) -> list[GroupElement]:
        """All lattice elements of sup-norm at most ``radius``, sorted."""
        if radius < 0:
            return []
        columns = [[v[i] for v in self.basis] for i in range(self.ambient)]
        points = map(self.element, box_walk(linalg.box_bounds(columns, radius)))
        return sorted(v for v in points if all(abs(x) <= radius for x in v))


def stabiliser(I: Ideal, act: TranslationAction) -> Lattice:
    """Lattice of group elements g with I^g = I."""
    if I.is_zero_ideal() or I.is_unit_ideal():
        raise ValueError("stabiliser requires a proper nonzero ideal")
    ring = I.ring
    gb = I.groebner_basis()
    rows: list[list[Fraction]] = []
    for f in gb:
        residues = [I.normal_form(f.partial(j)) for j in range(ring.n)]
        monomials = sorted({m for r in residues for m in r.terms})
        for mono in monomials:
            rows.append([r.coefficient(mono) for r in residues])
    if not rows:
        lattice = Lattice.standard(act.d)
    else:
        constraint = linalg.mat_mul(rows, [list(r) for r in act.matrix])
        int_rows = []
        for row in constraint:
            denom = math.lcm(*(x.denominator for x in row))
            int_rows.append([int(x * denom) for x in row])
        lattice = Lattice(act.d, kernel_basis(int_rows, cols=act.d))
    for v in lattice.basis:
        if not ideal_equal(act_on_ideal(I, v, act), I):
            raise AssertionError("stabiliser certificate failed on a basis vector")
    return lattice


def complement(K: Lattice) -> Lattice:
    """Canonical free complement H with H + K of finite index and H cap K = 0.

    From U B V = D (Smith form of the basis matrix B): the columns of U^{-1}
    are a Z^d basis whose first rank(K) members span the saturation of K, so
    the remaining columns span a valid complement.
    """
    d = K.ambient
    if K.rank == 0:
        return Lattice.standard(d)
    B = [[v[i] for v in K.basis] for i in range(d)]
    sf = smith_normal_form(B)
    cols = [tuple(sf.u_inv[i][j] for i in range(d)) for j in range(K.rank, d)]
    return Lattice(d, cols)


def effective_directions(act: TranslationAction) -> list[tuple[int, ...]]:
    """Primitive integer directions spanning the translation image A(Z^d)."""
    denom = math.lcm(*(a.denominator for row in act.matrix for a in row))
    int_matrix = [[int(a * denom) for a in row] for row in act.matrix]
    ch = column_hermite(int_matrix)
    dirs = []
    for j in range(ch.rank):
        col = [ch.h[i][j] for i in range(len(int_matrix))]
        g = math.gcd(*(abs(x) for x in col))
        dirs.append(tuple(x // g for x in col))
    return dirs
