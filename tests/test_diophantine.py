import itertools
import math
import random
import sys
import time
from fractions import Fraction

import pytest

from idealiser import (
    Ideal,
    Poly,
    PolyRing,
    ResourceLimitError,
    classify_plane_curve,
    pell_enumerate,
    pell_fundamental,
)
from idealiser.action import box_walk
from idealiser import diophantine
from idealiser.diophantine import PELL_DIGITS, _projective_smoothness, _singular_by_discriminant, zero_test
from idealiser.poly import primitive_gcd
from pool_inputs import benchmark_cases
from reference_shapes import fraction_try_graph, fraction_try_pell

RING = PolyRing(("x", "y"))
X, Y = RING.var(0), RING.var(1)


# ----------------------------------------------------------------- pell


def test_pell_fundamental_seven():
    s = pell_fundamental(7)
    assert (s.x, s.y) == (8, 3)
    assert s.x**2 - 7 * s.y**2 == 1


def test_pell_fundamental_two():
    assert (pell_fundamental(2).x, pell_fundamental(2).y) == (3, 2)


def test_pell_recurrence_step():
    sols = pell_enumerate(7, 2)
    assert [(s.x, s.y) for s in sols] == [(8, 3), (127, 48)]
    assert pell_enumerate(7, 1)[0].x == 8


def test_pell_enumerate_checks_equation_and_growth():
    for n in (2, 3, 7, 13, 61):
        sols = pell_enumerate(n, 5)
        x1, y1 = sols[0].x, sols[0].y
        for s in sols:
            assert s.x**2 - n * s.y**2 == 1
        for a, b in zip(sols, sols[1:]):
            assert b.x > a.x
            assert (b.x, b.y) == (x1 * a.x + n * y1 * a.y, x1 * a.y + y1 * a.x)


def test_pell_hard_instance_is_fast():
    t0 = time.perf_counter()
    s = pell_fundamental(61)
    assert (s.x, s.y) == (1766319049, 226153980)
    assert time.perf_counter() - t0 < 1.0


def test_pell_digit_budget():
    """A fundamental solution of more than PELL_DIGITS digits ends the
    continued fraction, and an enumeration ends at the first solution past
    the budget; every solution within it is returned."""
    with pytest.raises(ResourceLimitError, match=f"budget of {PELL_DIGITS} digits"):
        pell_fundamental(1000000007)
    sols = pell_enumerate(61, 450)
    assert len(str(sols[-1].x)) <= PELL_DIGITS < len(str(sols[-1].x)) + 10  # x grows ~9.2 digits a step
    with pytest.raises(ResourceLimitError, match=f"budget of {PELL_DIGITS} digits"):
        pell_enumerate(61, 451)


def test_pell_enumeration_that_fits_keeps_the_fundamental():
    """With ``fitting``, an enumeration stops before the first solution past
    the budget instead of raising."""
    sols = pell_enumerate(61, 451, fitting=True)
    assert sols == pell_enumerate(61, 450)
    assert [(s.x, s.y) for s in pell_enumerate(7, 3, fitting=True)] == [(8, 3), (127, 48), (2024, 765)]
    (fund,) = pell_enumerate(30000001, 3, fitting=True)
    assert fund == pell_fundamental(30000001) and len(str(fund.x)) == 2776
    with pytest.raises(ResourceLimitError, match=f"budget of {PELL_DIGITS} digits"):
        pell_enumerate(30000001, 2)


def test_pell_rejects_bad_n():
    for bad in (0, 1, -3, 4, 9, 16):
        with pytest.raises(ValueError):
            pell_fundamental(bad)


# ------------------------------------------------------- box enumeration

IDENTITY = [[1, 0], [0, 1]]


def test_lattice_points_on_graph_curve():
    f = X - 7 * Y**2 - 1
    shifts = list(box_walk([10, 10], zero_test([f], (1, 0), IDENTITY)))
    assert shifts == sorted([(0, 0), (7, -1), (7, 1)])


def test_lattice_points_on_pell_curve():
    f = X**2 - 7 * Y**2 - 1
    shifts = list(box_walk([8, 8], zero_test([f], (1, 0), IDENTITY)))
    assert shifts == sorted([(-2, 0), (0, 0), (7, -3), (7, 3)])


def test_lattice_points_fraction_offset():
    f = 2 * X - 1
    assert list(box_walk([3, 3], zero_test([f], (Fraction(1, 2), 0), IDENTITY))) == [
        (0, -3), (0, -2), (0, -1), (0, 0), (0, 1), (0, 2), (0, 3),
    ]
    assert list(box_walk([3, 3], zero_test([f], (0, 0), IDENTITY))) == []


def _random_poly(rng, ring, degree):
    monos = [m for m in itertools.product(range(degree + 1), repeat=ring.n) if sum(m) <= degree]
    picked = rng.sample(monos, min(3, len(monos)))
    return Poly(ring, {m: Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3))) for m in picked})


def test_zero_test_agrees_with_exact_evaluation():
    """The compiled test against Poly.eval_at at base + matrix * c in Fractions."""
    rng = random.Random(20261018)
    entries = (0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3))
    checked = passed = 0
    for trial in range(60):
        n = rng.randint(1, 3)
        d = rng.randint(1, n + 1)
        ring = PolyRing(tuple("xyz"[:n]))
        rational = trial % 2
        pick = (lambda: rng.choice(entries)) if rational else (lambda: rng.randint(-2, 2))
        base = [Fraction(pick()) for _ in range(n)]
        matrix = [[Fraction(pick()) for _ in range(d)] for _ in range(n)]
        if trial % 3 == 0:
            matrix[rng.randrange(n)] = [Fraction(0)] * d
        box = rng.choice((None, 1, 2, 3))
        c0 = [rng.randint(-2, 2) for _ in range(d)]
        q = [b + sum(a * x for a, x in zip(row, c0)) for b, row in zip(base, matrix)]
        gens = []
        for _ in range(rng.randint(1, 2)):
            f = _random_poly(rng, ring, rng.randint(1, 3))
            # vanish at the image of c0, so that some c pass
            gens.append(f - f.eval_at(q))
        test = zero_test(gens, base, matrix, box)
        for c in box_walk([2] * d):
            point = [b + sum(a * x for a, x in zip(row, c)) for b, row in zip(base, matrix)]
            inside = box is None or all(abs(x) <= box for x in point)
            expected = inside and all(f.eval_at(point) == 0 for f in gens)
            assert test(c) == expected, (gens, base, matrix, box, c)
            checked += 1
            passed += expected
        if n == d:
            # without base and matrix, c is the point itself
            plain = zero_test(gens, box=box)
            for c in box_walk([2] * n):
                inside = box is None or all(abs(x) <= box for x in c)
                assert plain(c) == (inside and all(f.eval_at(c) == 0 for f in gens))
    assert passed > 100 and checked - passed > 2000


def test_zero_test_edge_cases():
    every = list(box_walk([2, 2]))
    # no generators (E = 0): every c passes, inside the window when one is given
    assert all(zero_test([])(c) for c in every)
    assert all(zero_test([], (0, 0), IDENTITY)(c) for c in every)
    assert list(box_walk([2, 2], zero_test([], (Fraction(1, 2), 0), IDENTITY, 1))) == [
        (-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1),
    ]
    # a nonzero constant rejects every c, also one that the affine map makes
    assert not any(zero_test([RING.const(3)])(c) for c in every)
    assert not any(zero_test([X - 5], (1, 0), [[0, 0], [1, 1]])(c) for c in every)
    # a generator that vanishes identically on the image is dropped
    on_axis = [[1, 0], [0, 0]]
    assert all(zero_test([Y], (0, 0), on_axis)(c) for c in every)
    assert list(box_walk([2, 2], zero_test([Y, X - 2], (0, 0), on_axis))) == [
        (2, -2), (2, -1), (2, 0), (2, 1), (2, 2),
    ]
    # an empty sublattice (d = 0): the one element () tests the base point
    pell = X**2 - 7 * Y**2 - 1
    assert zero_test([pell], (1, 0), [[], []])(())
    assert not zero_test([pell], (2, 0), [[], []])(())
    assert not zero_test([pell], (1, 0), [[], []], 0)(())


def test_zero_test_builds_no_fraction_per_point():
    """The walk of a Pell conic under a 1/3 action calls nothing in fractions.py,
    in a wide box (16) and a narrow one (2)."""
    f = X**2 - 7 * Y**2 - 1
    test = zero_test([f], (1, 0), [[Fraction(1, 3), 0], [0, 1]])
    for bounds, expected in (([16, 16], [(-6, 0), (0, 0)]), ([2, 2], [(0, 0)])):
        calls = tests = 0

        def count(frame, event, arg):
            nonlocal calls, tests
            if event == "call":
                calls += frame.f_code.co_filename.endswith("fractions.py")
                tests += frame.f_code is test.exact.__code__

        sys.setprofile(count)
        try:
            zeros = list(box_walk(bounds, test))
        finally:
            sys.setprofile(None)
        assert calls == 0
        assert zeros == expected
        # only the roots of each row get the exact test; with one generator and no window
        # each of them passes
        assert tests == len(zeros)


def test_zero_test_builds_each_image_from_ints(monkeypatch):
    """A rank-one build of a Pell conic normalises each image once and the
    composite once: the images come from the cleared ints P and M over D,
    with no Poly arithmetic on the base and matrix entries."""
    f = X**2 - 7 * Y**2 - 1
    calls = []
    normalise = Poly._normalise
    monkeypatch.setattr(Poly, "_normalise", lambda self, *args: calls.append(args) or normalise(self, *args))
    test = zero_test([f], (Fraction(8), Fraction(3)), [[Fraction(1)], [Fraction(0)]], 16)
    assert len(calls) == 3
    monkeypatch.undo()
    assert list(box_walk([16], test)) == [(-16,), (0,)]  # the points (-8, 3) and (8, 3)


def _proportional(a, b) -> bool:
    """Two int coefficient dicts with no zero entries, equal up to a nonzero rational factor."""
    if a.keys() != b.keys():
        return False
    m0 = next(iter(a))
    return all(c * b[m0] == b[m] * a[m0] for m, c in a.items())


def test_identity_zero_test_reads_the_shift_unnormalised(monkeypatch):
    """Seeded polynomials in two and three variables, translated by integer,
    rational and partly zero bases: each composite an identity build of
    ``zero_test`` reads is f.translate(base).ints up to a nonzero rational
    factor, translate_ints over its den is f.translate(base) exactly, and
    that is f composed with x_i + base_i, by the separate product route.
    No identity build normalises a Poly, and the test passes exactly the c
    in a box at which every f vanishes at base + c."""
    rng = random.Random(37)
    built = []
    shift = diophantine.translate_ints
    monkeypatch.setattr(diophantine, "translate_ints", lambda ints, base: built.append(shift(ints, base)) or built[-1])
    rational = found = 0
    for trial in range(120):
        n = 2 + trial % 2
        ring = PolyRing(("x", "y", "z")[:n])
        kind = trial % 3  # integer, rational, or partly zero
        base = [Fraction(rng.randint(-5, 5), 1 if kind == 0 else rng.randint(1, 4)) for _ in range(n)]
        if kind == 2:
            base[rng.randrange(n)] = Fraction(0)
        rational += any(b.denominator > 1 for b in base)
        root = [b + rng.randint(-2, 2) for b in base]
        gens = []
        for _ in range(rng.randint(1, 2)):
            terms = {}
            for _ in range(rng.randint(1, 6)):
                m = tuple(rng.randint(0, 3) for _ in range(n))
                terms[m] = Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 6)))
            f = Poly(ring, terms)
            f = f - f.eval_at(root)  # vanish at base + c for one c in the box, so some c pass
            gens.append(f if not f.is_zero else ring.var(0) - root[0])
        identity = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        built.clear()
        calls = []
        normalise = Poly._normalise
        monkeypatch.setattr(Poly, "_normalise", lambda self, *args: calls.append(args) or normalise(self, *args))
        test = zero_test(gens, base, identity)
        monkeypatch.setattr(Poly, "_normalise", normalise)
        assert calls == [], (gens, base)
        assert len(built) == len(gens)
        for f, (den, ints) in zip(gens, built):
            moved = f.translate(base)
            assert 0 not in ints.values()
            assert _proportional(ints, moved.ints), (f, base)
            assert Poly.from_ints(ring, f.num, f.den * den, ints) == moved
            assert moved == f.compose([ring.var(i) + base[i] for i in range(n)])
        box = itertools.product(range(-2, 3), repeat=n)
        zeros = [c for c in box if all(f.eval_at([b + x for b, x in zip(base, c)]) == 0 for f in gens)]
        assert list(box_walk([2] * n, test)) == zeros, (gens, base)
        found += len(zeros)
    assert rational >= 50 and found >= 120


def test_identity_zero_test_refuses_an_over_budget_shift_before_it_expands():
    """x^400 - y moved by a 301-digit coordinate is refused by the digit
    budget, on the path that reads the shift unnormalised."""
    base = (Fraction(10**300), Fraction(0))
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="exceeds the coefficient limit of 4300 digits"):
        zero_test([X**400 - Y], base, [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]])
    assert time.perf_counter() - start < 1


def _inverse(matrix):
    """The inverse of an invertible rational 2 x 2 matrix."""
    (p, q), (r, s) = matrix
    det = p * s - q * r
    return [[s / det, -q / det], [-r / det, p / det]]


def test_zero_test_roots_are_the_integer_zeros_of_each_row():
    """Seeded: for one generator f, roots(head, last) is the list of the t in
    last at which f vanishes at base + matrix * (head + (t,)).  At a chosen
    head the row is lead * (product of factors) in t, of degree 0-4: a
    negative or positive lead, integer roots (also double ones and ones at
    both ends of the range), half-integer and irrational roots, or lead 0,
    where the row vanishes identically.  Other heads give random rows.  The
    point is c itself, an integral translate of c, or a rational affine image."""
    rng = random.Random(20261019)
    C = PolyRing(("c0", "c1"))
    c0, c1 = C.var(0), C.var(1)
    last = range(-5, 8)  # not symmetric, so a root must be tested against both ends
    heads = range(-3, 4)
    degrees, modes, found, checked = set(), [], 0, 0
    negative = repeated = ends = 0
    for trial in range(90):
        h = rng.choice(heads)
        factors, room = [], trial % 5
        while room:
            kind = rng.randrange(5)
            if kind == 0 and factors and factors[-1].degree() <= room:
                factor = factors[-1]  # a double root, or a repeated factor
            elif kind == 1:
                factor = c1 - rng.choice((last[0], last[-1]))
            elif kind == 2:
                factor = 2 * c1 - (2 * rng.randint(-4, 4) + 1)  # no integer root
            elif kind == 3 and room >= 2:
                factor = c1**2 - rng.choice((2, 3, 4, 9))
            else:
                factor = c1 - rng.choice(last)
            factors.append(factor)
            room -= factor.degree()
        lead = 0 if trial % 11 == 10 else rng.choice((-3, -2, -1, 1, 2, 5))
        row = math.prod(factors, start=C.const(lead))
        g = row + (c0 - h) * _random_poly(rng, C, 2)
        mode = trial % 3
        if mode == 0:  # c is the point
            base = matrix = None
            f = g.compose([X, Y])
        else:
            if mode == 1:  # an integral translation
                base, matrix = [rng.randint(-3, 3) for _ in range(2)], IDENTITY
            else:
                base = [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(2)]
                matrix = [[0, 0], [0, 0]]
                while matrix[0][0] * matrix[1][1] == matrix[0][1] * matrix[1][0]:
                    matrix = [[Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(2)]
                              for _ in range(2)]
            inverse = _inverse([[Fraction(a) for a in row] for row in matrix])
            # f(base + matrix * c) = g(c)
            f = g.compose([sum((a * (v - b) for a, v, b in zip(row, (X, Y), base)), RING.zero())
                           for row in inverse])
        test = zero_test([f], base, matrix)
        for head in heads:
            if base is None:
                points = [(head, t) for t in last]
            else:
                points = [[b + row[0] * head + row[1] * t for b, row in zip(base, matrix)] for t in last]
            expected = [t for t, q in zip(last, points) if f.eval_at(q) == 0]
            assert list(test.roots((head,), last)) == expected, (g, base, matrix, head)
            found += len(expected)
            checked += 1
            ends += head == h and lead != 0 and bool({last[0], last[-1]} & set(expected))
        degrees.add(row.degree_in(1))
        modes.append(mode)
        negative += lead < 0
        repeated += any(factors.count(factor) > 1 for factor in factors)
    assert degrees == {float("-inf"), 0, 1, 2, 3, 4} and set(modes) == {0, 1, 2}
    assert checked == 90 * len(heads) and found > 200
    assert negative > 10 and repeated > 5 and ends > 5
    # in one variable the row is the composite itself
    one = PolyRing(("x",))
    x = one.var(0)
    window = range(-20, 21)
    for f, roots in (
        (x**3 - x, [-1, 0, 1]),
        (-(x - 20) * (x + 20) * x**2, [-20, 0, 20]),
        (-(x**2) + 2 * x - 1, [1]),
        (4 * x**2 - 1, []),
        (x**2 + 1, []),
        (3 * x + 60, [-20]),
        (3 * x + 61, []),
        (one.const(-5), []),
    ):
        assert list(zero_test([f]).roots((), window)) == roots, f
    assert list(zero_test([]).roots((), window)) == list(window)
    assert list(box_walk([20], zero_test([x**3 - x]))) == [(-1,), (0,), (1,)]
    # in the last of two coordinates, with the first free
    test = zero_test([Y**3 - Y])
    assert list(box_walk([1, 20], test)) == [(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1)]


def test_root_walk_edge_cases():
    wide = [3, 20]
    every = list(itertools.product(range(-3, 4), range(-20, 21)))
    # a nonzero constant composite, also one that the affine map makes, and a larger one
    for test in (
        zero_test([RING.const(3)]),
        zero_test([X - 5], (1, 0), [[0, 0], [1, 1]]),
        zero_test([RING.const(210)]),
    ):
        assert list(box_walk(wide, test)) == []
    # no generators: every c passes, inside the window when one is given
    assert list(box_walk(wide, zero_test([]))) == every
    window = zero_test([], (Fraction(1, 2), 0), [[1, 0], [0, 1]], 6)
    assert list(box_walk(wide, window)) == [c for c in every if abs(c[1]) <= 6]
    # empty bounds: the one element () tests the base point
    pell = X**2 - 7 * Y**2 - 1
    assert list(box_walk([], zero_test([pell], (1, 0), [[], []]))) == [()]
    assert list(box_walk([], zero_test([pell], (2, 0), [[], []]))) == []
    # a first generator that vanishes on a whole row leaves that row to the second one
    assert list(box_walk([3, 3], zero_test([X * Y, X + Y]))) == [(0, 0)]
    assert list(box_walk([3, 3], zero_test([X * (Y - 1), Y - X**2]))) == [(-1, 1), (0, 0), (1, 1)]
    # last ranges of one value and wider ones
    for half in (0, 5, 7):
        test = zero_test([pell], (0, 0), [[1, 0], [0, 1]])
        points = itertools.product(range(-8, 9), range(-half, half + 1))
        assert list(box_walk([8, half], test)) == list(filter(test, points))


def test_zero_test_of_an_integral_translation_agrees_with_exact_evaluation():
    """Identity matrix: the composites come from the Taylor shift by the
    base, integral (the first pass) or rational (the second, whose bases
    have denominators 2 to 5)."""
    rng = random.Random(20261020)
    passed = {False: 0, True: 0}
    for rational in (False, True):
        for n in (1, 2, 3, 3):
            ring = PolyRing(tuple("xyz"[:n]))
            identity = [[int(i == j) for j in range(n)] for i in range(n)]
            for _ in range(5):
                base = [rng.randint(-4, 4) for _ in range(n)]
                if rational:
                    base = [Fraction(b, rng.randint(2, 5)) for b in base]
                c0 = [rng.randint(-2, 2) for _ in range(n)]
                f = _random_poly(rng, ring, rng.randint(1, 4))
                f = f - f.eval_at([b + x for b, x in zip(base, c0)])
                test = zero_test([f], base, identity)
                for c in box_walk([2] * n):
                    expected = f.eval_at([b + x for b, x in zip(base, c)]) == 0
                    assert test(c) == expected, (f, base, c)
                    passed[rational] += expected
    assert passed[False] >= 20 and passed[True] >= 20


# ------------------------------------------------------- univariate gcd


def _euclid(a, b):
    """The monic gcd over Q of two dense coefficient lists (increasing
    powers), by the Euclidean algorithm on Fractions; [] when both are zero."""
    def trim(p):
        p = [Fraction(c) for c in p]
        while p and not p[-1]:
            p.pop()
        return p

    a, b = trim(a), trim(b)
    while b:
        while len(a) >= len(b):
            q, shift = a[-1] / b[-1], len(a) - len(b)
            a = trim([c - q * (b[k - shift] if k >= shift else 0) for k, c in enumerate(a)])
        a, b = b, a
    return [c / a[-1] for c in a] if a else []


def _times(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, c in enumerate(p):
        for j, d in enumerate(q):
            out[i + j] += c * d
    return out


def test_primitive_gcd_matches_euclid_on_products_of_random_factors():
    """primitive_gcd agrees, up to content and sign, with the Euclidean
    algorithm over Q on seeded products of random integer factors of
    degree up to 8, a shared factor planted in about half of them; it is
    primitive with a positive leading coefficient."""
    rng = random.Random(30)

    def factor():
        return [rng.randint(-4, 4) for _ in range(rng.randint(1, 8))] + [rng.choice((-3, -2, -1, 1, 2, 3))]

    def product(count):
        p = [rng.choice((-6, -1, 1, 4))]
        for _ in range(count):
            p = _times(p, factor())
        return p

    shared = 0
    for _ in range(150):
        a, b = product(rng.randint(0, 3)), product(rng.randint(0, 3))
        if rng.random() < 0.5:
            common = product(1)
            a, b = _times(a, common), _times(b, common)
        got = primitive_gcd(a, b)
        assert math.gcd(*got) == 1 and got[-1] > 0, (a, b)
        assert [Fraction(c, got[-1]) for c in got] == _euclid(a, b), (a, b)
        assert primitive_gcd(b, a) == got
        shared += len(got) > 1
    assert shared > 50
    assert primitive_gcd([0, 0], [0]) == []
    assert primitive_gcd([], [6, -4]) == [-3, 2]
    assert primitive_gcd([5], [2, 3]) == [1]
    assert primitive_gcd([0, 0, 7], [0, 14]) == [0, 1]


# -------------------------------------------------------- classification


def test_classify_line():
    cls = classify_plane_curve(2 * X - 3 * Y - 1)
    assert cls.tag == "rational_line"
    assert cls.degree == 1


def test_classify_pell():
    cls = classify_plane_curve(X**2 - 7 * Y**2 - 1)
    assert cls.tag == "pell_conic"
    assert cls.pell_n == 7
    assert cls.pell_centre == (0, 0)


def test_classify_pell_is_translation_invariant():
    f = X**2 - 7 * Y**2 - 1
    for shift in [(1, 0), (-4, 2), (10, -7)]:
        cls = classify_plane_curve(f.translate(shift))
        assert cls.tag == "pell_conic"
        assert cls.pell_n == 7
        assert cls.pell_centre == (-shift[0], -shift[1])


def test_classify_pell_scaling_and_axis_swap():
    assert classify_plane_curve(3 * X**2 - 21 * Y**2 - 3).pell_n == 7
    swapped = classify_plane_curve(Y**2 - 7 * X**2 - 1)
    assert swapped.tag == "pell_conic"
    assert swapped.pell_axis == 1


def test_classify_non_integer_centre_stays_unknown():
    # (x - 1/2)^2 - 7 y^2 = 1 has no integer solutions to witness with
    f = (X - RING.const(Fraction(1, 2))) ** 2 - 7 * Y**2 - 1
    assert classify_plane_curve(f).tag == "unknown"


def test_classify_ellipse_is_not_pell():
    assert classify_plane_curve(X**2 + 7 * Y**2 - 1).tag == "unknown"


def test_classify_pell_needs_its_cross_and_constant_terms():
    # each matches a Pell conic on the square and linear terms only
    for f in (X**2 - 7 * Y**2 - 2, X**2 + X * Y - 7 * Y**2 - 1, (X - 1) ** 2 - 7 * (Y + 2) ** 2 + 1):
        assert classify_plane_curve(f).tag == "unknown", f
    cls = classify_plane_curve(Fraction(-2, 3) * ((Y + 3) ** 2 - 5 * (X - 1) ** 2 - 1))
    assert (cls.tag, cls.pell_n, cls.pell_centre, cls.pell_axis) == ("pell_conic", 5, (-3, 1), 1)


def _random_conic(rng):
    """A seeded plane curve of one of eight kinds, each near a Pell conic:
    Pell, shifted, scaled, with a cross term, two lines, a non-integer
    centre, a linear term added, or a term u*w^2, u^2*w or u^2*w^2 added,
    which makes it no conic; n runs over squares, nonsquares, zero and
    negatives."""
    n = rng.randint(-3, 30)
    u, w = (X, Y) if rng.randint(0, 1) else (Y, X)
    c1, c2 = rng.randint(-5, 5), rng.randint(-5, 5)
    kind = rng.choice(("pell", "shifted", "scaled", "cross", "lines", "centre", "linear", "higher"))
    if kind == "higher":
        return kind, (u - c1) ** 2 - n * (w - c2) ** 2 - 1 + rng.choice((-1, 2)) * rng.choice((u * w**2, u**2 * w, u**2 * w**2))
    if kind == "pell":
        return kind, u**2 - n * w**2 - 1
    if kind == "shifted":
        return kind, (u - c1) ** 2 - n * (w - c2) ** 2 - rng.choice((1, 1, 2, -1))
    if kind == "scaled":
        scale = rng.choice((2, -3, Fraction(1, 2), Fraction(-5, 7), Fraction(4, 9)))
        return kind, scale * ((u - c1) ** 2 - n * (w - c2) ** 2 - 1)
    if kind == "cross":
        return kind, (u - c1) ** 2 + rng.choice((-2, -1, 1, 3)) * u * w - n * (w - c2) ** 2 - 1
    if kind == "linear":  # a linear term off by less than the step that moves the centre
        return kind, (u - c1) ** 2 - n * (w - c2) ** 2 - 1 + rng.choice((-2, -1, 1, 2)) * rng.choice((u, w))
    if kind == "lines":
        k = rng.randint(1, 5)
        return kind, rng.choice((1, -2, 3)) * (u - k * w - c1) * (u + k * w - c2)
    centre = RING.const(Fraction(rng.choice((1, -1, 5)), rng.choice((2, 3, 4))))
    shifts = (c1 + centre, c2) if rng.randint(0, 1) else (c1, c2 + centre)
    return kind, rng.choice((1, 4, 36)) * ((u - shifts[0]) ** 2 - n * (w - shifts[1]) ** 2 - 1)


def test_integer_pell_recogniser_matches_the_fraction_reference():
    """``_try_pell`` reads the integer coefficients; on seeded random conics
    of every kind it gives the reference recogniser's answer, and both
    answers occur."""
    rng = random.Random(35)
    outcomes = {}
    for _ in range(600):
        kind, f = _random_conic(rng)
        expected = fraction_try_pell(f)
        assert diophantine._try_pell(f) == expected, (kind, f)
        outcomes.setdefault(kind, set()).add(expected is not None)
    assert outcomes["pell"] == outcomes["shifted"] == outcomes["scaled"] == {True, False}
    assert outcomes["cross"] == outcomes["lines"] == outcomes["centre"] == outcomes["linear"] == {False}
    assert outcomes["higher"] == {False}


def _pool_and_golden_curves(monkeypatch):
    """Every principal plane curve of the plane2 and colon2 pools at seeds 1
    and 7, and of the golden gallery."""
    from test_golden import GALLERY

    generators = [gens for gens, *_ in GALLERY.values()]
    for seed in (1, 7):
        cases = benchmark_cases(monkeypatch, ("plane2", "colon2"), seed, 100)
        generators += [case.config["ideal"]["generators"] for case in cases]
    return [RING.parse(gens[0]) for gens in generators if len(gens) == 1]


def test_pell_recogniser_on_every_pool_and_golden_curve(monkeypatch):
    """Every pool and golden curve gets the reference recogniser's answer."""
    found = 0
    for f in _pool_and_golden_curves(monkeypatch):
        expected = fraction_try_pell(f)
        assert diophantine._try_pell(f) == expected, f
        found += expected is not None
    assert found > 0


def _random_graph(rng):
    """A seeded plane curve of one of five kinds, each near a graph curve
    a*u + r(w) with u either variable and any content: the graph itself,
    whose r may have degree below 2, or a near miss with a term u^2*w^k,
    a term u^2, a coefficient of u that depends on w, or deg r = 1."""
    u, w = (X, Y) if rng.randint(0, 1) else (Y, X)
    a = rng.choice((1, -1, 2, -3, 5))
    r = sum((rng.randint(-4, 4) * w**k for k in range(rng.randint(2, 5))), RING.zero())
    c, k = rng.choice((-2, -1, 1, 3)), rng.randint(1, 2)
    kind = rng.choice(("graph", "cross", "square", "coefficient", "linear"))
    near = {
        "graph": RING.zero(),
        "cross": c * u**2 * w**k,
        "square": c * u**2,
        "coefficient": c * w**k * u,
        "linear": -r + rng.randint(-3, 3) + rng.choice((-2, 1, 4)) * w,
    }[kind]
    return kind, rng.choice((1, -1, 6, Fraction(1, 2), Fraction(-5, 7))) * (a * u + r + near)


def test_integer_graph_recogniser_matches_the_fraction_reference():
    """``_try_graph`` reads the integer rows of f; on seeded curves of every
    kind it gives the reference recogniser's answer, graph function
    included.  Graphs meet both axes and no answer, each other near miss
    no answer, and deg r = 1 only that."""
    rng = random.Random(36)
    outcomes = {}
    for _ in range(600):
        kind, f = _random_graph(rng)
        expected = fraction_try_graph(f)
        assert diophantine._try_graph(f) == expected, (kind, f)
        outcomes.setdefault(kind, set()).add(None if expected is None else expected.graph_axis)
    assert outcomes["graph"] == {0, 1, None}
    assert all(None in outcomes[kind] for kind in ("cross", "square", "coefficient"))
    assert outcomes["linear"] == {None}


def test_graph_recogniser_on_every_pool_and_golden_curve(monkeypatch):
    """Every pool and golden curve gets the reference recogniser's answer."""
    found = 0
    for f in _pool_and_golden_curves(monkeypatch):
        expected = fraction_try_graph(f)
        assert diophantine._try_graph(f) == expected, f
        found += expected is not None
    assert found > 0


def test_classify_graph_curve():
    cls = classify_plane_curve(X - 7 * Y**2 - 1)
    assert cls.tag == "graph_curve"
    assert cls.graph_axis == 0
    assert str(cls.graph_poly) == "7*y^2 + 1"
    other = classify_plane_curve(Y - X**3)
    assert other.tag == "graph_curve" and other.graph_axis == 1


def test_classify_smooth_cubic():
    cls = classify_plane_curve(Y**2 - X**3 - X - 1)
    assert cls.tag == "smooth_high_degree"
    assert cls.degree == 3
    assert cls.genus == 1
    assert len(cls.jacobian_pure_powers) == 3


def test_classify_smooth_quartic():
    cls = classify_plane_curve(X**4 + Y**4 - 1)
    assert cls.tag == "smooth_high_degree"
    assert cls.genus == 3


def test_classify_singular_cubic_unknown():
    assert classify_plane_curve(Y**2 - X**3).tag == "unknown"
    assert classify_plane_curve(Y**2 - X**2 * (X + 1)).tag == "unknown"


def test_classify_rejects_degenerate_input():
    with pytest.raises(ValueError):
        classify_plane_curve(RING.const(3))
    with pytest.raises(ValueError):
        classify_plane_curve(RING.zero())
    R3 = PolyRing(("x", "y", "z"))
    with pytest.raises(ValueError):
        classify_plane_curve(R3.var(0))


def _affine_singular(f):
    """f has a singular affine point: f, f_x and f_y have a common zero."""
    return not Ideal(f.ring, [f, f.partial(0), f.partial(1)]).is_unit_ideal()


def _quadratic_in_one_variable(rng):
    """(f, whether c is constant, kind) for f = c*y^2 + b(x)*y + a(x),
    with x and y swapped in about half: c a nonzero constant, or in about a
    quarter c(x) of degree 1.  b and a are random (kind "random"), or
    planted so that f is singular at an integer point, every term of f of
    order at least 2 there ("singular"), or so that f is c*(y + e(x))^2 and
    D is zero ("square")."""
    u, w = (X, Y) if rng.random() < 0.5 else (Y, X)

    def poly(degree):
        return sum((rng.randint(-3, 3) * u**k for k in range(degree + 1)), RING.zero())

    c = rng.choice([-3, -2, -1, 1, 2, 3])
    constant = rng.random() < 0.75
    if not constant:
        c = c * u + rng.randint(-2, 2)
    kind = rng.choice(["random", "random", "singular", "square"])
    if kind == "square":
        e = poly(rng.randint(2, 3))
        return c * (w + e) ** 2, constant, kind
    if kind == "singular":
        x0, y0 = rng.randint(-3, 3), rng.randint(-3, 3)
        f = c * (w - y0) ** 2 + (w - y0) * (u - x0) * poly(1) + (u - x0) ** 2 * poly(rng.randint(1, 2))
        return f, constant, kind
    return c * w**2 + poly(rng.randint(0, 3)) * w + poly(rng.randint(3, 5)), constant, kind


def test_discriminant_test_agrees_with_the_jacobian():
    """Over seeded c*y^2 + b(x)*y + a(x) of degree >= 3: with c constant,
    the discriminant test fires exactly where f has a singular affine
    point (by the basis of (f, f_x, f_y)), D = 0 included; with c
    depending on x it never fires; it never fires where the projective
    smoothness basis gives pure powers; and the class is the one that basis
    alone gives."""
    rng = random.Random(34)
    seen = dict.fromkeys(["singular", "smooth affine", "smooth closure", "D = 0", "c(x)"], 0)
    for _ in range(300):
        f, constant, kind = _quadratic_in_one_variable(rng)
        if f.is_zero or f.degree() < 3:
            continue
        singular = _singular_by_discriminant(f)
        if constant:
            assert singular == _affine_singular(f), f
            seen["singular" if singular else "smooth affine"] += 1
        else:
            assert not singular, f
            seen["c(x)"] += 1
        powers = _projective_smoothness(f)
        assert not (singular and powers), f
        seen["smooth closure"] += powers is not None
        seen["D = 0"] += constant and kind == "square"
        expected = "smooth_high_degree" if powers else "unknown"
        assert classify_plane_curve(f).tag == expected, f
    assert all(seen.values()), seen


def test_discriminant_test_on_named_curves():
    """The cusp, the nodal cubic, a double curve (D = 0) and the swapped
    cusp are singular; a smooth Weierstrass cubic says nothing, and so does
    x*y^2 - x^3 - 1, whose y^2 coefficient is x and whose closure is
    smooth."""
    for f in (Y**2 - X**3, Y**2 - X**2 * (X + 1), (Y - X**2) ** 2, X**2 - Y**3, (Y - 3) ** 2 - (X + 2) ** 3):
        assert _singular_by_discriminant(f), f
        assert classify_plane_curve(f).tag == "unknown"
    for f in (Y**2 - X**3 - X - 1, X * Y**2 - X**3 - 1):
        assert not _singular_by_discriminant(f), f
        assert classify_plane_curve(f).tag == "smooth_high_degree"


def test_singular_curve_builds_no_jacobian_basis(monkeypatch):
    """A curve that the discriminant test finds singular is classified
    without a basis in the homogenised ring; a smooth one still builds it,
    as its pure powers are the certificate."""
    rings = []
    original = diophantine.reduced_groebner_basis

    def recording(gens):
        rings.append(gens[0].ring.n)
        return original(gens)

    monkeypatch.setattr(diophantine, "reduced_groebner_basis", recording)
    assert classify_plane_curve((Y + 1) ** 2 - (X - 2) ** 3 - (X - 2) ** 2).tag == "unknown"
    assert rings == []
    assert classify_plane_curve(Y**2 - X**3 - X - 1).tag == "smooth_high_degree"
    assert rings == [3]
