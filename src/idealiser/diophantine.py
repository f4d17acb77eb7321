"""Integer points on plane curves: Pell solutions, the zero test, classification.

Pell fundamentals come from the continued fraction of sqrt(n), entirely in
integer arithmetic (convergents are tested against the equation directly, no
floating point).  The curve classifier is syntactic: it recognises rational
lines, Pell conics up to variable swap / overall scale / integer translation
of the centre, graph curves a*x + r(y), and smooth projective plane curves of
degree >= 3 via the Jacobian criterion; everything else is left unclassified
rather than guessed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Callable, Sequence

from .groebner import _fresh_aux_name, pure_powers, reduced_groebner_basis
from .poly import Poly, PolyRing, _integral, mono_degree


@dataclass(frozen=True)
class PellSolution:
    n: int
    x: int
    y: int

    def __post_init__(self):
        if self.x * self.x - self.n * self.y * self.y != 1:
            raise ValueError(f"({self.x},{self.y}) does not solve x^2-{self.n}y^2=1")


def pell_fundamental(n: int) -> PellSolution:
    """Least positive solution of x^2 - n y^2 = 1 for nonsquare n >= 2."""
    if n < 2:
        raise ValueError("n must be at least 2")
    a0 = math.isqrt(n)
    if a0 * a0 == n:
        raise ValueError("n must not be a perfect square")
    # continued fraction expansion of sqrt(n); convergents h/k
    m, d, a = 0, 1, a0
    h_prev, h = 1, a0
    k_prev, k = 0, 1
    while h * h - n * k * k != 1:
        m = d * a - m
        d = (n - m * m) // d
        a = (a0 + m) // d
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev
    return PellSolution(n, h, k)


def pell_enumerate(n: int, count: int) -> list[PellSolution]:
    """First ``count`` positive solutions in increasing x, each verified."""
    if count < 0:
        raise ValueError("count must be non-negative")
    out: list[PellSolution] = []
    if count == 0:
        return out
    fund = pell_fundamental(n)
    x, y = fund.x, fund.y
    out.append(fund)
    while len(out) < count:
        x, y = fund.x * x + n * fund.y * y, fund.x * y + fund.y * x
        out.append(PellSolution(n, x, y))
    return out


def zero_test(
    gens: Sequence[Poly],
    base: Sequence[Fraction] | None = None,
    matrix: Sequence[Sequence[Fraction]] | None = None,
    box: int | None = None,
) -> ZeroTest:
    """The test c -> do all ``gens`` vanish at the point base + matrix * c,
    which with ``box`` must also lie in the sup-norm box of that radius.
    Without base and matrix, c is the point itself.

    The exact work is done once, when the test is built.  Each generator f
    is composed with the affine map into g_f(c) = f(base + matrix * c) and
    scaled by the lcm of its denominators to integer coefficients; its zeros
    on Z^d are the c whose point is a zero of f.  For the identity matrix
    and an integral base, g_f is f translated by the base (``Poly.translate``,
    an integer Taylor shift).  A g_f that vanishes identically is dropped, so
    no generators pass every c, and a nonzero constant g_f rejects every c,
    as the constant 1 does.  With D the common denominator of base and
    matrix, the point is (P + M c) / D with integral P and M, so the box
    check compares |P_i + M_i c| with D * box.  The test evaluates integer
    polynomials at the integer vector c and builds no Fraction.  It is a
    ``ZeroTest``, which also gives the residues mod a prime of the last
    coordinate of c at which every g_f vanishes.
    """
    inside = None if box is None else (lambda c: all(abs(x) <= box for x in c))
    if matrix is None:
        composites = [_integral(f.terms)[0] for f in gens]
    else:
        base = [Fraction(b) for b in base]
        matrix = [[Fraction(a) for a in row] for row in matrix]
        if box is not None:
            D = math.lcm(*(x.denominator for row in [base, *matrix] for x in row))
            rows = [(int(b * D), [int(a * D) for a in row]) for b, row in zip(base, matrix)]
            bound = D * box
            inside = lambda c: all(abs(p + sum(map(mul, row, c))) <= bound for p, row in rows)
        identity = [[int(i == j) for j in range(len(base))] for i in range(len(base))]
        if matrix == identity and all(b.denominator == 1 for b in base):
            composites = [_integral(f.translate(base).terms)[0] for f in gens]
        else:
            # a ring needs a variable even for an empty sublattice, where c = ()
            coords = PolyRing(tuple(f"c{j}" for j in range(max(len(matrix[0]), 1))))
            images = [
                sum((a * coords.var(j) for j, a in enumerate(row) if a), coords.const(b))
                for b, row in zip(base, matrix)
            ]
            composites = [_integral(f.compose(images).terms)[0] for f in gens]
    compiled = []
    for terms in composites:
        if not terms:
            continue
        if not any(map(any, terms)):  # a nonzero constant
            compiled = [[(1, [])]]
            break
        compiled.append([(c, [(i, e) for i, e in enumerate(m) if e]) for m, c in terms.items()])

    def test(c: Sequence[int]) -> bool:
        if inside is not None and not inside(c):
            return False
        for terms in compiled:
            total = 0
            for v, factors in terms:
                for i, e in factors:
                    v *= c[i] ** e
                total += v
            if total:
                return False
        return True

    def residues(q: int, head: Sequence[int]) -> list[int]:
        last, found = len(head), range(q)
        for terms in compiled:
            row: dict[int, int] = {}  # the coefficients of g_f(head, t) by powers of t
            for v, factors in terms:
                k = 0
                for i, e in factors:
                    if i == last:
                        k = e
                    else:
                        v *= head[i] ** e
                row[k] = row.get(k, 0) + v
            kept = []
            for t in found:
                total = 0
                for k, v in row.items():
                    total += v * t**k
                if not total % q:
                    kept.append(t)
            found = kept
        return found

    return ZeroTest(test, residues)


@dataclass(frozen=True)
class ZeroTest:
    """A compiled ``zero_test``.  Calling it, or ``exact``, is the exact test
    of c.  ``residues(q, head)`` lists the t in 0..q-1 at which every
    integer composite vanishes mod the prime q at c = head + (t,); the list
    depends on head mod q only.  An integer zero is a zero mod every q, so
    a walk that skips the other residues (``box_walk``, as Stoll's ratpoints
    does) drops no c that passes."""

    exact: Callable[[Sequence[int]], bool]
    residues: Callable[[int, Sequence[int]], list[int]]

    def __call__(self, c: Sequence[int]) -> bool:
        return self.exact(c)


@dataclass(frozen=True)
class CurveClass:
    """Outcome of the syntactic plane-curve classifier."""

    tag: str  # rational_line | pell_conic | graph_curve | smooth_high_degree | unknown
    degree: int
    pell_n: int | None = None
    pell_centre: tuple[int, int] | None = None
    pell_axis: int | None = None  # index of the variable carrying the +x^2
    graph_axis: int | None = None  # index of the linear variable in a*x + r(y)
    graph_poly: Poly | None = None  # the graph function q with x_axis = q(other)
    genus: int | None = None
    jacobian_pure_powers: tuple[int, ...] | None = None  # per-variable exponents


def _try_pell(f: Poly) -> CurveClass | None:
    """Detect a*((u - c1)^2 - n*(w - c2)^2 - 1) with integer centre, n
    a positive nonsquare integer, up to swapping the two variables."""
    if f.ring.n != 2 or f.degree() != 2:
        return None
    for axis in (0, 1):
        other = 1 - axis
        sq = [0, 0]
        sq[axis] = 2
        alpha = f.coefficient(tuple(sq))
        sq_other = [0, 0]
        sq_other[other] = 2
        beta = f.coefficient(tuple(sq_other))
        if alpha == 0 or beta == 0:
            continue
        cross = [0, 0]
        cross[axis] = 1
        cross[other] = 1
        if f.coefficient(tuple(cross)) != 0:
            continue
        ratio = -beta / alpha
        if ratio.denominator != 1 or ratio <= 0:
            continue
        n = int(ratio)
        if math.isqrt(n) ** 2 == n or n < 2:
            continue
        lin_axis = [0, 0]
        lin_axis[axis] = 1
        lin_other = [0, 0]
        lin_other[other] = 1
        u = -f.coefficient(tuple(lin_axis)) / (2 * alpha)
        w = f.coefficient(tuple(lin_other)) / (2 * alpha * n)
        if u.denominator != 1 or w.denominator != 1:
            continue
        const_needed = alpha * (u * u - n * w * w - 1)
        if f.coefficient((0, 0)) != const_needed:
            continue
        return CurveClass(
            tag="pell_conic",
            degree=2,
            pell_n=n,
            pell_centre=(int(u), int(w)),
            pell_axis=axis,
        )
    return None


def _try_graph(f: Poly) -> CurveClass | None:
    """Detect a*x_i + r(x_j) with deg r >= 2."""
    if f.ring.n != 2:
        return None
    for axis in (0, 1):
        other = 1 - axis
        a = None
        rest: dict = {}
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


def _projective_smoothness(f: Poly) -> tuple[int, ...] | None:
    """Pure-power witness exponents when the projective closure is smooth.

    Homogenise, take the Jacobian ideal of the partials, and demand that its
    basis exhibits a pure power of every projective variable: the singular
    cone is then the origin only, over any field extension.
    """
    ring = f.ring
    d = int(f.degree())
    pring = PolyRing(ring.variables + (_fresh_aux_name(ring),))
    F = Poly(
        pring,
        {m + (d - mono_degree(m),): c for m, c in f.terms.items()},
    )
    partials = [F.partial(i) for i in range(pring.n)]
    basis = reduced_groebner_basis(partials, pring.order)
    powers = pure_powers([g.leading()[0] for g in basis], pring.n)
    return powers if all(powers) else None


def classify_plane_curve(f: Poly) -> CurveClass:
    """Classify an (assumed irreducible) plane curve generator.

    Dispatch order matters: lines first, then Pell conics, then graph curves
    (a smooth graph like x - y^3 must land here, its closure is singular at
    infinity anyway), then the smooth high-degree branch.
    """
    if f.ring.n != 2:
        raise ValueError("classifier works on two-variable polynomials")
    if f.is_zero or f.is_constant():
        raise ValueError("classifier needs a nonconstant polynomial")
    degree = int(f.degree())
    if degree == 1:
        return CurveClass(tag="rational_line", degree=1)
    pell = _try_pell(f)
    if pell is not None:
        return pell
    graph = _try_graph(f)
    if graph is not None:
        return graph
    if degree >= 3:
        powers = _projective_smoothness(f)
        if powers is not None:
            genus = (degree - 1) * (degree - 2) // 2
            if genus >= 1:
                return CurveClass(
                    tag="smooth_high_degree",
                    degree=degree,
                    genus=genus,
                    jacobian_pure_powers=powers,
                )
    return CurveClass(tag="unknown", degree=degree)
