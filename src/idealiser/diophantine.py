"""Integer points on plane curves: Pell solutions, the zero test, classification.

Pell fundamentals come from the continued fraction of sqrt(n), entirely in
integer arithmetic (convergents are tested against the equation directly, no
floating point).  The curve classifier is syntactic: it recognises rational
lines, Pell conics up to variable swap / overall scale / integer translation
of the centre, graph curves a*x + r(y), and smooth projective plane curves of
degree >= 3 via the Jacobian criterion, once a univariate discriminant has
not already shown a singular point; everything else is left unclassified
rather than guessed.  The shape tests read f through one reader, ``_rows``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Callable, Sequence

from .groebner import ResourceLimitError, _fresh_aux_name, pure_powers, reduced_groebner_basis
from .poly import _DIGITS_BOUND as _PELL_BOUND
from .poly import MAX_DIGITS as PELL_DIGITS  # the most decimal digits of a Pell solution
from .poly import Poly, PolyRing, is_squarefree, mono_degree, row_coefficients, row_terms, translate_ints


def _pell_budget(x: int) -> None:
    """Refuse an x of more than PELL_DIGITS digits, before any is printed."""
    if x >= _PELL_BOUND:
        raise ResourceLimitError(f"Pell solution exceeds the budget of {PELL_DIGITS} digits")


@dataclass(frozen=True)
class PellSolution:
    n: int
    x: int
    y: int

    def __post_init__(self):
        if self.x * self.x - self.n * self.y * self.y != 1:
            raise ValueError(f"({self.x},{self.y}) does not solve x^2-{self.n}y^2=1")


def pell_fundamental(n: int) -> PellSolution:
    """Least positive solution of x^2 - n y^2 = 1 for nonsquare n >= 2; the
    convergents grow, so one past the digit budget ends the search."""
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
        _pell_budget(h)
    return PellSolution(n, h, k)


def pell_enumerate(n: int, count: int, fitting: bool = False) -> list[PellSolution]:
    """First ``count`` positive solutions in increasing x, each verified.
    One past the digit budget raises ResourceLimitError, or with
    ``fitting`` ends the list, which still needs the fundamental to fit."""
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
        if fitting and x >= _PELL_BOUND:
            break
        _pell_budget(x)
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
    read as integer terms, a nonzero multiple of g_f; their zeros on Z^d
    are the c whose point is a zero of f.  For the identity matrix, the
    terms are those of f translated by the base (``poly.translate_ints``, an
    integer Taylor shift), read as the shift leaves them, with no Poly
    built.  A g_f that vanishes identically is dropped, so no generators
    pass every c, and a nonzero constant g_f rejects every c, so it is then
    the only one kept.
    With D the common denominator of the int and Fraction entries of base
    and matrix, the point is (P + M c) / D with integral P and M: each
    image (P_i + M_i c) / D is built from those ints at once, and the box
    check compares |P_i + M_i c| with D * box.  The test evaluates integer
    polynomials at the integer vector c and builds no Fraction.  It is a
    ``ZeroTest``, which also gives, for the first coordinates of c fixed,
    the integer roots in the last coordinate of the first g_f that is not
    identically zero there.
    """
    inside = None if box is None else (lambda c: all(abs(x) <= box for x in c))
    if matrix is None:
        composites = [f.ints for f in gens]
    else:
        D = math.lcm(*(x.denominator for row in [base, *matrix] for x in row))
        rows = [
            (b.numerator * (D // b.denominator), [a.numerator * (D // a.denominator) for a in row])
            for b, row in zip(base, matrix)
        ]
        if box is not None:
            bound = D * box
            inside = lambda c: all(abs(p + sum(map(mul, row, c))) <= bound for p, row in rows)
        identity = [[int(i == j) for j in range(len(base))] for i in range(len(base))]
        if [list(row) for row in matrix] == identity:
            composites = [translate_ints(f.ints, base)[1] for f in gens]
        else:
            # a ring needs a variable even for an empty sublattice, where c = ()
            coords = PolyRing(tuple(f"c{j}" for j in range(max(len(matrix[0]), 1))))
            unit = [tuple(int(i == j) for i in range(coords.n)) for j in range(coords.n)]
            images = [Poly.from_ints(coords, 1, D, {(0,) * coords.n: p, **dict(zip(unit, row))}) for p, row in rows]
            composites = [f.compose(images).ints for f in gens]
    composites = [terms for terms in composites if terms]
    constants = [terms for terms in composites if not any(map(any, terms))]
    if constants:  # a nonzero constant rejects every c
        composites = constants[:1]
    compiled = [[(c, [(i, e) for i, e in enumerate(m) if e]) for m, c in terms.items()] for terms in composites]
    # the same terms along a row of c, the last coordinate t (``poly.row_terms``)
    by_row = [row_terms(terms, len(next(iter(terms))) - 1) for terms in composites]

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

    def roots(head: Sequence[int], last: range) -> Sequence[int]:
        for degree, terms in by_row:
            coeffs = row_coefficients(terms, degree, head)  # of g_f(head, t)
            while coeffs and not coeffs[-1]:
                coeffs.pop()
            if coeffs:
                return _integer_roots(coeffs, last)
        return last

    return ZeroTest(test, roots)


def _integer_roots(coeffs: list[int], window: range) -> list[int]:
    """The t in ``window`` with sum_k coeffs[k] * t^k = 0, in increasing
    order, for a nonzero leading coefficient coeffs[-1]: one exact division
    in degree 1, the integer square root of the discriminant in degree 2,
    and Horner's rule at every t of the window above that."""
    degree, a = len(coeffs) - 1, coeffs[-1]
    if degree == 0:
        return []
    if degree == 1:
        t, r = divmod(-coeffs[0], a)
        return [t] if not r and t in window else []
    if degree == 2:
        c, b = coeffs[0], coeffs[1]
        disc = b * b - 4 * a * c
        if disc < 0:
            return []
        s = math.isqrt(disc)
        if s * s != disc:
            return []
        found = {num // (2 * a) for num in (-b - s, -b + s) if not num % (2 * a)}
        return sorted(t for t in found if t in window)
    found = []
    for t in window:
        total = 0
        for v in reversed(coeffs):
            total = total * t + v
        if not total:
            found.append(t)
    return found


@dataclass(frozen=True)
class ZeroTest:
    """A compiled ``zero_test``.  Calling it, or ``exact``, is the exact test
    of c.  ``roots(head, last)`` fixes the first coordinates of c = head +
    (t,) and takes the first integer composite that is not the zero
    polynomial in t there; it lists, in increasing order, the t in the
    range ``last`` at which that composite vanishes.  A row on which every
    composite is zero gives every t, a nonzero constant none.  A zero of
    the test is a zero of that composite, so a walk that gives only these
    t the exact test (``box_walk``) drops no c that passes."""

    exact: Callable[[Sequence[int]], bool]
    roots: Callable[[Sequence[int], range], Sequence[int]]

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


def _rows(f: Poly, y: int) -> list[list[int]]:
    """f's integer coefficients as sum_k rows[k](x) * y^k, for y the variable of
    that index and x the other: each row a dense int list of length deg_x f + 1.
    The content of f, which is no part of a shape, is left out."""
    exps = tuple(zip(*f.ints))  # the exponents of each variable, term by term
    rows = [[0] * (max(exps[1 - y]) + 1) for _ in range(max(exps[y]) + 1)]
    for k, j, v in zip(exps[y], exps[1 - y], f.ints.values()):
        rows[k][j] = v
    return rows


def _try_pell(f: Poly) -> CurveClass | None:
    """Detect a*((u - c1)^2 - n*(w - c2)^2 - 1), n a positive nonsquare, for
    (u, w) = (x, y) or (y, x): rows c + cx*x + cxx*x^2, cy and cyy in y, with
    A, B, U, W those of u^2, w^2, u, w, and integers n = -B/A, c1 = -U/2A and
    c2 = W/2An with c = A*(c1^2 - n*c2^2 - 1)."""
    rows = _rows(f, 1)
    if len(rows) != 3 or len(rows[0]) != 3:
        return None
    (c, cx, cxx), (cy, *mixed), (cyy, *top) = rows
    if any(mixed) or any(top):
        return None
    for axis, (a, b, u, w) in enumerate(((cxx, cyy, cx, cy), (cyy, cxx, cy, cx))):
        n, r = divmod(-b, a)
        if r or n <= 0 or math.isqrt(n) ** 2 == n:
            continue
        (c1, r1), (c2, r2) = divmod(-u, 2 * a), divmod(w, 2 * a * n)
        if r1 or r2 or c != a * (c1 * c1 - n * c2 * c2 - 1):
            continue
        return CurveClass(tag="pell_conic", degree=2, pell_n=n, pell_centre=(c1, c2), pell_axis=axis)
    return None


def _try_graph(f: Poly) -> CurveClass | None:
    """Detect a*x_i + r(x_j) with deg r >= 2: rows r and a constant a in x_i."""
    for axis in (0, 1):
        rows = _rows(f, axis)
        if len(rows) != 2:
            continue
        r, (a, *rest) = rows
        if any(rest) or len(r) < 3:
            continue
        q = Poly.from_ints(f.ring, -1, a, {(0, k) if axis == 0 else (k, 0): v for k, v in enumerate(r)})
        return CurveClass(tag="graph_curve", degree=len(r) - 1, graph_axis=axis, graph_poly=q)
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
    homogeneous = {m + (d - mono_degree(m),): c for m, c in f.ints.items()}
    F = Poly.from_ints(pring, f.num, f.den, homogeneous)
    partials = [F.partial(i) for i in range(pring.n)]
    basis = reduced_groebner_basis(partials)
    powers = pure_powers([g.leading_monomial() for g in basis], pring.n)
    return powers if all(powers) else None


def _singular_by_discriminant(f: Poly) -> bool:
    """True when f = c*y^2 + b(x)*y + a(x), its rows a, b and a constant c
    in y for y either variable, has a singular affine point; False says
    nothing.  With D = b^2 - 4*c*a, f = c*(y + b/2c)^2 - D/4c, so on
    f_y = 2*c*y + b = 0 f is -D/4c and f_x is -D'/4c.  A singular point is
    therefore a common root of D and D', which exists over C exactly when D
    is zero or gcd(D, D') is nonconstant: when D is not squarefree."""
    for y in (0, 1):
        if f.degree_in(y) != 2:
            continue
        rows = _rows(f, y)
        if any(rows[2][1:]):
            continue
        a, b, (c, *_) = rows
        D = [-4 * c * v for v in a] + [0] * (len(a) - 1)
        for j, u in enumerate(b):
            for k, v in enumerate(b):
                D[j + k] += u * v
        return not is_squarefree(D)
    return False


def classify_plane_curve(f: Poly) -> CurveClass:
    """Classify an (assumed irreducible) plane curve generator.

    Dispatch order matters: lines first, then Pell conics, then graph curves
    (a smooth graph like x - y^3 must land here, its closure is singular at
    infinity anyway), then the smooth high-degree branch.  A curve of
    degree >= 3 whose discriminant shows a singular affine point has a
    singular closure, and is unknown without the Jacobian basis.
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
    if degree >= 3 and not _singular_by_discriminant(f):
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
