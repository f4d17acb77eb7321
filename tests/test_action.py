import itertools
import math
import random
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

from idealiser import (
    Ideal,
    Lattice,
    Poly,
    PolyRing,
    ResourceLimitError,
    TranslationAction,
    act_on_ideal,
    apply_action,
    column_hermite,
    complement,
    effective_directions,
    ideal_equal,
    kernel_basis,
    smith_normal_form,
    stabiliser,
)
from idealiser.action import WALK_LIMIT, box_walk
from idealiser.diophantine import zero_test
from idealiser.noether import _group_by_coset
from idealiser.normalforms import box_bounds, identity_matrix
from matrix_helpers import det_int, fraction_box_bounds, mat_mul_int

RING = PolyRing(("x", "y"))
X, Y = RING.var(0), RING.var(1)
STD = TranslationAction.standard(RING)


def random_poly(rng, ring=RING, max_deg=3):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        mono = tuple(rng.randint(0, max_deg) for _ in range(ring.n))
        terms[mono] = Fraction(rng.randint(-5, 5))
    f = Poly(ring, terms)
    return f if not f.is_zero else ring.one()


# ------------------------------------------------------------- actions


def test_action_is_a_group_homomorphism():
    rng = random.Random(9)
    for _ in range(25):
        f = random_poly(rng)
        g = (rng.randint(-3, 3), rng.randint(-3, 3))
        h = (rng.randint(-3, 3), rng.randint(-3, 3))
        composed = apply_action(apply_action(f, g, STD), h, STD)
        direct = apply_action(f, tuple(a + b for a, b in zip(g, h)), STD)
        assert composed == direct
        assert apply_action(f, (0, 0), STD) == f
        minus = tuple(-a for a in g)
        assert apply_action(apply_action(f, g, STD), minus, STD) == f


def test_action_evaluation_compatibility():
    # f^g(p) = f(p + A g) = f(g.p)
    rng = random.Random(13)
    act = TranslationAction(RING, [[1, 2], [0, 1]])
    for _ in range(20):
        f = random_poly(rng)
        g = (rng.randint(-3, 3), rng.randint(-3, 3))
        p = tuple(Fraction(rng.randint(-4, 4)) for _ in range(2))
        moved_point = tuple(pi + ti for pi, ti in zip(p, act.translation(g)))
        assert apply_action(f, g, act).eval_at(p) == f.eval_at(moved_point)


def test_rational_action_matrix():
    act = TranslationAction(RING, [[Fraction(1, 2), 0], [0, Fraction(1, 3)]])
    assert act.translation((2, 3)) == (1, 1)
    f = X + Y
    assert apply_action(f, (2, 3), act) == X + Y + 2


def test_action_shape_validation():
    with pytest.raises(ValueError):
        TranslationAction(RING, [[1, 0]])  # needs one row per variable
    with pytest.raises(ValueError):
        TranslationAction(RING, [[1], [1, 2]])
    with pytest.raises(ValueError, match="at least one group generator"):
        TranslationAction(PolyRing(("x",)), [[]])
    with pytest.raises(ValueError, match="wrong rank"):
        STD.translation((1, 2, 3))


def test_act_on_ideal_preserves_membership():
    I = Ideal(RING, [X**2 - Y, X + 1])
    g = (2, -1)
    J = act_on_ideal(I, g, STD)
    for f in I.gens:
        assert J.contains_poly(apply_action(f, g, STD))
    assert ideal_equal(act_on_ideal(J, tuple(-a for a in g), STD), I)


# ------------------------------------------------------------ lattices


def test_lattice_canonical_basis():
    L1 = Lattice(2, [(3, 2)])
    L2 = Lattice(2, [(-3, -2), (6, 4)])
    assert L1 == L2
    assert L1.rank == 1
    assert Lattice.standard(2).rank == 2
    assert Lattice(2, []).rank == 0


def test_lattice_membership_and_coords():
    L = Lattice(2, [(3, 2)])
    assert L.contains((6, 4))
    assert L.contains((0, 0))
    assert not L.contains((3, 1))
    assert L.coords((9, 6)) in (( 3,), (-3,))
    assert L.coords((1, 1)) is None
    with pytest.raises(ValueError, match="dimension mismatch"):
        L.reduce((1, 2, 3))

    full = Lattice(2, [(2, 1), (1, 1)])
    assert full.rank == 2
    assert full.contains((1, 0)) and full.contains((0, 1))


def test_points_in_box():
    assert len(Lattice.standard(2).points_in_box(1)) == 9
    pts = Lattice(2, [(3, 2)]).points_in_box(7)
    assert pts == sorted([(-6, -4), (-3, -2), (0, 0), (3, 2), (6, 4)])
    assert Lattice(2, []).points_in_box(5) == [(0, 0)]
    assert Lattice.standard(2).points_in_box(-1) == []
    # rectangular sublattice of rank 2
    pts2 = Lattice(2, [(2, 0), (0, 3)]).points_in_box(3)
    assert set(pts2) == {(a, b) for a in (-2, 0, 2) for b in (-3, 0, 3)}


def _window(rng):
    """A random window matrix of 1-4 rows, 1 to rows columns (0 or rows + 1
    in one of ten each) and denominators 1-6.  Every third one with a
    column gets a rational combination of its first and last columns in
    place of one of them, so some windows have no full column rank."""
    rows = rng.randint(1, 4)
    u = rng.random()
    cols = 0 if u < 0.1 else rows + 1 if u > 0.9 else rng.randint(1, rows)
    columns = [[Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(rows)] for _ in range(cols)]
    if columns and rng.random() < 1 / 3:
        a, b = Fraction(rng.randint(-3, 3), rng.randint(1, 3)), Fraction(rng.randint(-3, 3))
        columns[rng.randrange(cols)] = [a * x + b * y for x, y in zip(columns[0], columns[-1])]
    return [list(row) for row in zip(*columns)] if columns else [[] for _ in range(rows)]


def test_box_bounds_match_the_fraction_pseudo_inverse():
    rng = random.Random(23)
    refused = empty = 0
    for case in range(2000):
        matrix = _window(rng)
        if case % 5 == 0:  # integer matrices, as Lattice.points_in_box passes them
            matrix = [[int(x * 6) for x in row] for row in matrix]
        radius = rng.randint(0, 20) if case % 2 else Fraction(rng.randint(0, 60), rng.randint(1, 7))
        try:
            expected = fraction_box_bounds(matrix, radius)
        except ValueError:
            refused += 1
            with pytest.raises(ValueError, match="singular"):
                box_bounds(matrix, radius)
            continue
        empty += not expected
        assert box_bounds(matrix, radius) == expected, (matrix, radius)
    # rank 0 windows, full rank ones and refusals all occur
    assert refused >= 100 and empty >= 100 and 2000 - refused - empty >= 1000, (refused, empty)


def _fraction_calls(thunk):
    """thunk() and the number of calls it made into fractions.py."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.endswith("fractions.py"):
            calls += 1

    sys.setprofile(count)
    try:
        result = thunk()
    finally:
        sys.setprofile(None)
    return result, calls


def test_box_bounds_of_an_integer_matrix_make_no_fraction():
    bounds, calls = _fraction_calls(lambda: box_bounds([[3, 1], [-2, 4], [5, 0]], 7))
    assert bounds == fraction_box_bounds([[3, 1], [-2, 4], [5, 0]], 7)
    assert calls == 0


def test_standard_action_makes_no_fraction():
    ring = PolyRing(("x", "y", "z"))
    act, calls = _fraction_calls(lambda: TranslationAction.standard(ring))
    assert (act.ints, act.den, calls) == (((1, 0, 0), (0, 1, 0), (0, 0, 1)), 1, 0)
    # int and Fraction entries are kept as they are, and strings are read as Fractions
    mixed = TranslationAction(RING, [[2, Fraction(1, 3)], ["1/2", 0]])
    assert [[type(a) for a in row] for row in mixed.matrix] == [[int, Fraction], [Fraction, int]]
    assert (mixed.ints, mixed.den) == (((12, 2), (3, 0)), 6)


def test_box_walk_refuses_a_box_over_the_budget():
    # by the count alone: the refused walks are never started
    with pytest.raises(ResourceLimitError):
        box_walk([10**6] * 2)
    with pytest.raises(ResourceLimitError):
        Lattice.standard(3).points_in_box(10**4)
    side = (WALK_LIMIT - 1) // 2
    assert next(box_walk([side])) == (-side,)
    with pytest.raises(ResourceLimitError):
        box_walk([side + 1])
    with pytest.raises(ResourceLimitError):
        box_walk([side, 1], lambda c: True)
    # a walk by a zero test's roots too, before any root is found
    with pytest.raises(ResourceLimitError):
        box_walk([side, 1], zero_test([X - Y]))


def _counting(test):
    """The zero test ``test`` with its exact calls recorded; its roots still
    pick the candidates of the walk."""
    calls = []

    def counted(c):
        calls.append(c)
        return test(c)

    return replace(test, exact=counted), calls


def test_box_walk_sieves_a_zero_test_and_tests_any_other_callable_everywhere():
    test = zero_test([X**2 - 7 * Y**2 - 1])
    counted, calls = _counting(test)
    walked = []

    def wrapped(c):
        walked.append(c)
        return test(c)

    pell = [(-8, -3), (-8, 3), (-1, 0), (1, 0), (8, -3), (8, 3)]
    assert list(box_walk([8, 8], counted)) == list(box_walk([8, 8], wrapped)) == pell
    # the zero test gives only the roots of each row the exact test, here the six zeros
    assert len(walked) == 17 * 17 and 4 * len(calls) < len(walked) and calls == pell


def test_root_walk_yields_the_plain_filter_in_order():
    """Seeded: box_walk with a zero test equals filter(test, product(...)),
    in order, over d = 1..3, integral and rational base and matrix, with and
    without a box window, and last ranges of 3 to 33 values."""
    rng = random.Random(20261018)
    entries = (0, 1, -1, 2, 3, Fraction(1, 2), Fraction(-2, 3))
    rings = [PolyRing(tuple("xyz"[:n])) for n in (1, 2, 3)]
    zeros = tested = walked = 0
    for trial in range(150):
        ring = rings[rng.randrange(3)]
        n, d = ring.n, rng.randint(1, 3)
        rational = trial % 2
        pick = (lambda: rng.choice(entries)) if rational else (lambda: rng.randint(-3, 3))
        base = [Fraction(pick()) for _ in range(n)]
        if trial % 5 == 0 and d == n:
            matrix = [[Fraction(i == j) for j in range(d)] for i in range(n)]  # a pure translation
        else:
            matrix = [[Fraction(pick()) for _ in range(d)] for _ in range(n)]
        box = rng.choice((None, None, 2, 5))
        bounds = [rng.randint(0, 3) for _ in range(d - 1)]
        bounds.append(rng.choice((1, 4, 6, 9, 16)))
        c0 = [rng.randint(-b, b) for b in bounds]
        point = [b + sum(a * x for a, x in zip(row, c0)) for b, row in zip(base, matrix)]
        gens = []
        for _ in range(rng.randint(1, 2)):
            f = random_poly(rng, ring)
            gens.append(f - f.eval_at(point))  # vanishes at the image of c0
        test = zero_test(gens, base, matrix, box)
        expected = list(filter(test, itertools.product(*(range(-b, b + 1) for b in bounds))))
        counted, calls = _counting(test)
        assert list(box_walk(bounds, counted)) == expected, (gens, base, matrix, box, bounds)
        zeros += len(expected)
        tested += len(calls)
        walked += math.prod(2 * b + 1 for b in bounds)
    # the roots spare most of the exact tests
    assert zeros > 200 and 4 * tested < walked


def random_lattices(seed=7, per_rank=4):
    """Seeded lattices in Z^d for d = 1..3 and every rank 0..d; the full-rank
    ones include a sublattice of index above 1."""
    rng = random.Random(seed)
    out = [Lattice(2, [(2, 0), (0, 3)]), Lattice(3, [(2, 1, 0), (0, 2, 1), (1, 0, 2)])]
    for d in (1, 2, 3):
        for rank in range(d + 1):
            found = 0
            while found < per_rank:
                vecs = [[rng.randint(-4, 4) for _ in range(d)] for _ in range(rank)]
                L = Lattice(d, vecs)
                if L.rank == rank:
                    out.append(L)
                    found += 1
    return out


def box(d, radius):
    return list(itertools.product(range(-radius, radius + 1), repeat=d))


def index(L):
    return math.prod(b[prow] for b, (prow, _) in zip(L.basis, L._pivots))


def pairwise_cosets(members, K):
    """The pairwise-membership grouping ``_group_by_coset`` replaced: the
    oracle for it."""
    groups = []
    for m in sorted(members):
        for rep, bucket in groups:
            if K.contains(tuple(a - b for a, b in zip(m, rep))):
                bucket.append(m)
                break
        else:
            groups.append((m, [m]))
    return tuple((rep, tuple(bucket)) for rep, bucket in groups)


LATTICES = random_lattices()


def test_random_lattices_cover_every_rank_and_a_proper_full_rank_index():
    assert {(L.ambient, L.rank) for L in LATTICES} == {
        (d, r) for d in (1, 2, 3) for r in range(d + 1)
    }
    assert any(L.rank == L.ambient and index(L) > 1 for L in LATTICES)


@pytest.mark.parametrize("L", LATTICES, ids=repr)
def test_reduce_remainder_is_a_coset_invariant(L):
    rng = random.Random(repr(L))
    for _ in range(30):
        v = tuple(rng.randint(-20, 20) for _ in range(L.ambient))
        coords, rem = L.reduce(v)
        assert tuple(a + b for a, b in zip(L.element(coords), rem)) == v
        k = L.element([rng.randint(-5, 5) for _ in range(L.rank)])
        assert L.reduce(tuple(a + b for a, b in zip(v, k)))[1] == rem
        assert L.coords(v) == (coords if not any(rem) else None)


@pytest.mark.parametrize("L", LATTICES, ids=repr)
def test_equal_remainders_are_exactly_one_coset(L):
    points = box(L.ambient, 2)
    rem = {v: L.reduce(v)[1] for v in points}
    for v in points:
        for w in points:
            diff = tuple(a - b for a, b in zip(v, w))
            assert (rem[v] == rem[w]) == L.contains(diff)


@pytest.mark.parametrize("L", LATTICES, ids=repr)
def test_group_by_coset_matches_the_pairwise_scan(L):
    rng = random.Random(repr(L))
    points = box(L.ambient, 3)
    for size in (0, 1, 5, 40):
        members = rng.sample(points, min(size, len(points)))
        assert _group_by_coset(members, L) == pairwise_cosets(members, L)


@pytest.mark.parametrize("L", LATTICES, ids=repr)
def test_points_in_box_are_the_lattice_points_of_the_box(L):
    for radius in (0, 1, 3):
        assert L.points_in_box(radius) == [v for v in box(L.ambient, radius) if L.contains(v)]


@pytest.mark.parametrize(
    "L",
    [Lattice.standard(d) for d in (1, 2, 3)]
    + [Lattice(2, [(2, 1), (1, 1)]), Lattice(3, [(1, 2, 0), (0, 1, 0), (0, 0, -1)])],
    ids=repr,
)
def test_points_in_box_of_the_whole_group_is_the_sorted_box(L):
    for radius in (0, 1, 3):
        assert L.points_in_box(radius) == box(L.ambient, radius)


# ---------------------------------------------------------- stabilisers


def test_stabiliser_of_a_line():
    I = Ideal(RING, [2 * X - 3 * Y - 1], claimed_prime=True)
    assert stabiliser(I, STD) == Lattice(2, [(3, 2)])


def test_stabiliser_of_pell_curve_is_trivial():
    I = Ideal(RING, [X**2 - 7 * Y**2 - 1], claimed_prime=True)
    assert stabiliser(I, STD).rank == 0


def test_stabiliser_of_point_is_trivial():
    I = Ideal(RING, [X - 1, Y - 2], claimed_prime=True, claimed_maximal=True)
    assert stabiliser(I, STD).rank == 0


def test_stabiliser_of_sum_line():
    I = Ideal(RING, [X + Y], claimed_prime=True)
    assert stabiliser(I, STD) == Lattice(2, [(1, -1)])


def test_stabiliser_under_scaled_action():
    act = TranslationAction(RING, [[2, 0], [0, 2]])
    I = Ideal(RING, [2 * X - 3 * Y - 1], claimed_prime=True)
    assert stabiliser(I, act) == Lattice(2, [(3, 2)])


def test_stabiliser_under_rank_one_action():
    act = TranslationAction(RING, [[1], [0]])
    pell = Ideal(RING, [X**2 - 7 * Y**2 - 1], claimed_prime=True)
    assert stabiliser(pell, act).rank == 0
    line = Ideal(RING, [Y - 1], claimed_prime=True)
    # translations along x fix the horizontal line
    assert stabiliser(line, act) == Lattice(1, [(1,)])


def test_stabiliser_of_trivial_action_is_everything():
    act = TranslationAction(RING, [[0, 0], [0, 0]])
    I = Ideal(RING, [X - 1, Y], claimed_prime=True, claimed_maximal=True)
    assert stabiliser(I, act) == Lattice.standard(2)


def test_stabiliser_random_lines():
    rng = random.Random(77)
    for _ in range(8):
        while True:
            m, n = rng.randint(-6, 6), rng.randint(-6, 6)
            if (m, n) != (0, 0) and math.gcd(m, n) == 1:
                break
        p = rng.randint(-5, 5)
        I = Ideal(RING, [m * X - n * Y - p], claimed_prime=True)
        assert stabiliser(I, STD) == Lattice(2, [(n, m)])


# ---------------------------------------------------------- complements


def _is_valid_complement(K: Lattice, H: Lattice, d: int) -> bool:
    if K.rank + H.rank != d:
        return False
    combined = [list(v) for v in K.basis] + [list(v) for v in H.basis]
    if len(combined) != d:
        return len(combined) == d
    # trivial intersection + finite index both follow from a nonzero det
    return det_int([[combined[j][i] for j in range(d)] for i in range(d)]) != 0


def test_complement_of_line_stabiliser():
    K = Lattice(2, [(3, 2)])
    H = complement(K)
    assert _is_valid_complement(K, H, 2)


def test_complement_edge_cases():
    assert complement(Lattice(2, [])) == Lattice.standard(2)
    assert complement(Lattice.standard(2)).rank == 0


def test_standard_lattice_is_the_general_constructor_of_the_identity():
    """``Lattice.standard`` sets its basis and pivots with no Hermite run;
    they are what the column-Hermite form of the identity gives."""
    for d in range(5):
        identity = [[int(i == j) for j in range(d)] for i in range(d)]
        built, general = Lattice.standard(d), Lattice(d, identity)
        assert built == general
        assert (built.ambient, built.basis, built._pivots) == (general.ambient, general.basis, general._pivots)
        assert built.points_in_box(1) == general.points_in_box(1)
        assert complement(built).rank == 0


def test_standard_action_is_the_general_constructor_of_the_identity():
    """``TranslationAction.standard`` sets its fields with no coercion:
    equal, of equal hash, and with the same int entries and denominator."""
    for names in (("x",), ("x", "y"), ("x", "y", "z")):
        ring = PolyRing(names)
        n = len(names)
        built = TranslationAction.standard(ring)
        general = TranslationAction(ring, [[int(i == j) for j in range(n)] for i in range(n)])
        assert built == general and hash(built) == hash(general) and repr(built) == repr(general)
        assert (built.ring, built.ints, built.den, built.matrix, built.d) == (
            general.ring, general.ints, general.den, general.matrix, general.d,
        )
        assert {type(a) for row in built.matrix for a in row} == {int}
        assert built.translation((1,) * n) == general.translation((1,) * n)


def test_complement_random_sublattices():
    rng = random.Random(19)
    for _ in range(15):
        vecs = [
            [rng.randint(-4, 4) for _ in range(3)]
            for _ in range(rng.randint(0, 3))
        ]
        K = Lattice(3, vecs)
        H = complement(K)
        assert _is_valid_complement(K, H, 3)


def test_effective_directions():
    assert effective_directions(STD) == [(1, 0), (0, 1)]
    act1 = TranslationAction(RING, [[1], [0]])
    assert effective_directions(act1) == [(1, 0)]
    frac = TranslationAction(RING, [[Fraction(1, 2), 0], [0, Fraction(1, 3)]])
    dirs = frac.matrix and effective_directions(frac)
    assert len(dirs) == 2
    for v in dirs:
        assert math.gcd(*[abs(int(c)) for c in v]) == 1
    zero = TranslationAction(RING, [[0, 0], [0, 0]])
    assert effective_directions(zero) == []


# --------------------------------------------------------- normal forms


def test_column_hermite_transform_identity():
    rng = random.Random(29)
    for _ in range(20):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        M = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        res = column_hermite(M)
        assert mat_mul_int(M, res.v) == res.h
        assert abs(det_int(res.v)) == 1
        # pivots step strictly down and are positive
        for (r, c), (r2, c2) in zip(res.pivots, res.pivots[1:]):
            assert r < r2 and c < c2
        for r, c in res.pivots:
            assert res.h[r][c] > 0


def test_smith_normal_form_identities():
    rng = random.Random(37)
    for _ in range(20):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        M = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        res = smith_normal_form(M)
        assert mat_mul_int(mat_mul_int(res.u, M), res.v) == res.d
        assert abs(det_int(res.u)) == 1
        assert abs(det_int(res.v)) == 1
        assert mat_mul_int(res.u_inv, res.u) == identity_matrix(rows)
        diag = [res.d[i][i] for i in range(min(rows, cols))]
        for a, b in zip(diag, diag[1:]):
            if b != 0:
                assert a != 0 and b % a == 0
        assert all(v >= 0 for v in diag)
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert res.d[i][j] == 0


def test_smith_known_values():
    res = smith_normal_form([[2, 0], [0, 3]])
    assert res.d == [[1, 0], [0, 6]]
    res2 = smith_normal_form([[3], [2]])
    assert res2.d == [[1], [0]]


def test_kernel_basis():
    rng = random.Random(43)
    for _ in range(20):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 4)
        M = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        for v in kernel_basis(M):
            assert all(
                sum(M[i][j] * v[j] for j in range(cols)) == 0 for i in range(rows)
            )

