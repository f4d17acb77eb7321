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
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Callable, Iterator, Sequence

from .diophantine import ZeroTest
from .groebner import Ideal, ResourceLimitError, ideal_equal
from .normalforms import box_bounds, column_hermite, kernel_basis, smith_normal_form
from .poly import Poly, PolyRing

GroupElement = tuple[int, ...]

# the most integer vectors one box walk may visit; the largest walks of the
# tests, goldens and demos visit about 70,000
WALK_LIMIT = 10**6


@dataclass(frozen=True)
class TranslationAction:
    ring: PolyRing
    ints: tuple[tuple[int, ...], ...]  # den*A, n rows and d columns, for den the lcm of A's denominators
    den: int
    matrix: tuple[tuple[int | Fraction, ...], ...] = field(compare=False, repr=False)  # A as ints and Fractions

    def __init__(self, ring: PolyRing, matrix: Sequence[Sequence]):
        rows = tuple(tuple(x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row) for row in matrix)
        if len(rows) != ring.n:
            raise ValueError("matrix must have one row per ring variable")
        if not rows or not rows[0]:
            raise ValueError("action needs at least one group generator")
        if len({len(r) for r in rows}) != 1:
            raise ValueError("ragged action matrix")
        den = math.lcm(*(a.denominator for row in rows for a in row))
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "ints", tuple(tuple(a.numerator * den // a.denominator for a in row) for row in rows))
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "matrix", rows)

    @classmethod
    def standard(cls, ring: PolyRing) -> "TranslationAction":
        """The identity matrix, each variable translated by its own generator,
        set in its final form: int entries over the denominator 1."""
        identity = tuple(tuple(int(i == j) for j in range(ring.n)) for i in range(ring.n))
        act = object.__new__(cls)
        for name, value in (("ring", ring), ("ints", identity), ("den", 1), ("matrix", identity)):
            object.__setattr__(act, name, value)
        return act

    @property
    def d(self) -> int:
        return len(self.matrix[0])

    def translation(self, g: GroupElement) -> tuple[Fraction, ...]:
        if len(g) != self.d:
            raise ValueError("group element has wrong rank")
        return tuple(Fraction(sum(map(mul, row, g)), self.den) for row in self.ints)


def apply_action(f: Poly, g: GroupElement, act: TranslationAction) -> Poly:
    """f^g with f^g(x) = f(x + A g)."""
    return f.translate(act.translation(g))


def act_on_ideal(I: Ideal, g: GroupElement, act: TranslationAction) -> Ideal:
    shift = act.translation(g)
    return Ideal(
        I.ring,
        [f.translate(shift) for f in I.gens],
        claimed_prime=I.claimed_prime,
        claimed_maximal=I.claimed_maximal,
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
        """Z^d: the unit vectors are its column-Hermite basis, pivot j on row j."""
        L = object.__new__(cls)
        L.ambient = d
        L.basis = tuple(tuple(int(i == j) for i in range(d)) for j in range(d))
        L._pivots = tuple((j, j) for j in range(d))
        return L

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
        """All lattice elements of sup-norm at most ``radius``, sorted (of Z^d, the box walk)."""
        if radius < 0:
            return []
        if self.rank == self.ambient and all(b[row] == 1 for b, (row, _) in zip(self.basis, self._pivots)):
            return list(box_walk([radius] * self.ambient))
        columns = [[v[i] for v in self.basis] for i in range(self.ambient)]
        points = map(self.element, box_walk(box_bounds(columns, radius)))
        return sorted(v for v in points if all(abs(x) <= radius for x in v))


def stabiliser(I: Ideal, act: TranslationAction) -> Lattice:
    """Lattice of group elements g with I^g = I.  A basis element f of
    degree 1 gives the one row L_f * act.ints, for L_f its integer linear
    part: its partials are constants, each its own normal form modulo the
    proper I, so the general rows of f are that row up to scale."""
    if I.is_zero_ideal() or I.is_unit_ideal():
        raise ValueError("stabiliser requires a proper nonzero ideal")
    columns = list(zip(*act.ints))
    unit = [tuple(int(i == j) for j in range(I.ring.n)) for i in range(I.ring.n)]
    rows: list[list[int]] = []
    for f in I.groebner_basis():
        if f.degree() == 1:
            L = [f.ints.get(m, 0) for m in unit]
            rows.append([sum(map(mul, L, col)) for col in columns])
            continue
        # v stabilises iff sum_j (A v)_j * NF(df/dx_j) = 0: a row per monomial, over one denominator
        residues = [I.normal_form(f.partial(j)) for j in range(I.ring.n)]
        den = math.lcm(*(r.den for r in residues))
        scales = [r.num * (den // r.den) for r in residues]
        for mono in sorted({m for r in residues for m in r.ints}):
            coeffs = [s * r.ints.get(mono, 0) for s, r in zip(scales, residues)]
            rows.append([sum(map(mul, coeffs, col)) for col in columns])
    lattice = Lattice(act.d, kernel_basis(rows, cols=act.d))
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
    ch = column_hermite(act.ints)
    dirs = []
    for j in range(ch.rank):
        col = [ch.h[i][j] for i in range(act.ring.n)]
        g = math.gcd(*(abs(x) for x in col))
        dirs.append(tuple(x // g for x in col))
    return dirs
