import itertools
import random
import sys
from fractions import Fraction
from math import prod

import pytest

from idealiser import groebner
from idealiser import (
    Ideal,
    MonomialOrder,
    Poly,
    PolyRing,
    ResourceLimitError,
    TranslationAction,
    act_on_ideal,
    buchberger,
    dimension_probe,
    exact_divide,
    ideal_contains,
    ideal_equal,
    ideal_intersect,
    ideal_product,
    ideal_sum,
    is_radical,
    krull_dimension,
    normal_form,
    rational_point_of,
    reduced_groebner_basis,
    s_polynomial,
    unit_ideal,
)
from idealiser.groebner import ideal_quotient
from idealiser.noether import analysis, colon_components
from idealiser.poly import _ElimOrder
from reference_groebner import chain_reduced_basis, in_order

RING = PolyRing(("x", "y"))
X, Y = RING.var(0), RING.var(1)


def random_poly(rng, ring, max_deg=2, max_terms=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = tuple(rng.randint(0, max_deg) for _ in range(ring.n))
        terms[mono] = Fraction(rng.randint(-4, 4))
    f = Poly(ring, terms)
    return f if not f.is_zero else ring.one()


def test_lex_basis_of_twisted_cubic_slice():
    lex = PolyRing(("x", "y"), MonomialOrder.lex(2))
    x, y = lex.var(0), lex.var(1)
    basis = reduced_groebner_basis([y - x**2, x**3])
    assert [str(g) for g in basis] == ["x^2 - y", "x*y", "y^2"]


def test_buchberger_closes_all_s_pairs():
    rng = random.Random(31)
    for _ in range(12):
        gens = [random_poly(rng, RING) for _ in range(rng.randint(2, 3))]
        gens = [g for g in gens if not g.is_zero]
        basis = reduced_groebner_basis(gens)
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                s = s_polynomial(basis[i], basis[j])
                assert normal_form(s, basis).is_zero


def test_reduced_basis_is_canonical_under_shuffle():
    rng = random.Random(5)
    gens = [X**2 - Y, X * Y - 1, Y**3 + X]
    reference = reduced_groebner_basis(gens)
    for _ in range(6):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        scaled = [Fraction(rng.randint(1, 7)) * g for g in shuffled]
        assert reduced_groebner_basis(scaled) == reference


def test_normal_form_properties():
    basis = reduced_groebner_basis([X**2 - Y, Y**2 - X])
    rng = random.Random(17)
    for _ in range(20):
        f = random_poly(rng, RING, max_deg=4)
        g = random_poly(rng, RING, max_deg=4)
        nf = normal_form(f, basis)
        assert normal_form(nf, basis) == nf
        left = normal_form(f + g, basis)
        right = normal_form(nf + normal_form(g, basis), basis)
        assert left == right


def test_membership_of_multiples():
    I = Ideal(RING, [X**2 + Y, X * Y - 2])
    rng = random.Random(3)
    for _ in range(15):
        f = random_poly(rng, RING)
        g = f * I.gens[0] + random_poly(rng, RING) * I.gens[1]
        assert I.contains_poly(g)


def test_exact_divide():
    f = X**2 - Y**2
    g = X - Y
    assert exact_divide(f, g) == X + Y
    with pytest.raises(ValueError):
        exact_divide(X**2 + 1, X)


def test_exact_divide_recovers_random_quotients():
    rng = random.Random(11)
    remainders = 0
    for n, perm in ((2, (1, 0)), (3, (2, 0, 1))):
        orders = [MonomialOrder.grevlex(n), MonomialOrder.lex(n), MonomialOrder.grevlex(n, perm)]
        for order in orders:
            ring = PolyRing(("x", "y", "z")[:n], order)
            for _ in range(8):
                f, q = random_poly(rng, ring), random_poly(rng, ring)
                assert exact_divide(f * q, f) == q
                r = normal_form(random_poly(rng, ring), [f])
                if not r.is_zero:
                    remainders += 1
                    with pytest.raises(ValueError, match="not divisible"):
                        exact_divide(f * q + r, f)
            with pytest.raises(ZeroDivisionError):
                exact_divide(ring.one(), ring.zero())
    assert remainders >= 20


def test_colon_quotient_oracle():
    I = Ideal(RING, [X**2, X * Y])
    Q = ideal_quotient(I, Ideal(RING, [X]))
    assert [str(g) for g in Q.groebner_basis()] == ["x", "y"]
    assert ideal_quotient(I, Ideal(RING, [])).is_unit_ideal()


def test_quotient_when_divisor_inside():
    # (J : I) = <1> exactly when I lies inside J
    J = Ideal(RING, [X - 1, Y - 2])
    I = Ideal(RING, [(X - 1) * (Y + 1), (Y - 2) * X])
    Q = ideal_quotient(J, I)
    assert Q.is_unit_ideal()
    Q2 = ideal_quotient(J, Ideal(RING, [X]))
    assert ideal_equal(Q2, J)


def test_intersection_oracle():
    got = ideal_intersect(Ideal(RING, [X]), Ideal(RING, [Y]))
    assert [str(g) for g in got.groebner_basis()] == ["x*y"]


def test_intersection_of_coprime_principals_is_product():
    rng = random.Random(41)
    pairs = [(X - 1, Y - 2), (X + Y, X - Y + 1), (X**2 + 1, Y)]
    for f, g in pairs:
        inter = ideal_intersect(Ideal(RING, [f]), Ideal(RING, [g]))
        assert ideal_equal(inter, Ideal(RING, [f * g]))


def test_sum_and_product():
    I = Ideal(RING, [X])
    J = Ideal(RING, [Y])
    assert ideal_equal(ideal_sum(I, J), Ideal(RING, [X, Y]))
    P = ideal_product(I, J)
    assert ideal_equal(P, Ideal(RING, [X * Y]))


def test_contains_and_equal():
    I = Ideal(RING, [X, Y])
    J = Ideal(RING, [X + Y, X - Y])
    assert ideal_equal(I, J)
    assert ideal_contains(I, Ideal(RING, [X**2 + Y**2]))
    assert not ideal_contains(Ideal(RING, [X]), I)


def test_unit_and_zero_ideals():
    assert unit_ideal(RING).is_unit_ideal()
    assert Ideal(RING, []).is_zero_ideal()
    assert Ideal(RING, [RING.zero()]).is_zero_ideal()
    with pytest.raises(ValueError, match="wrong ring"):
        Ideal(RING, [PolyRing(("x", "y", "z")).var(0)])
    assert Ideal(RING, [RING.const(5)]).is_unit_ideal()


def test_dimension_probe():
    point = dimension_probe(Ideal(RING, [X - 1, Y - 2]))
    assert point.zero_dimensional and point.total_dimension == 1
    assert point.cumulative[0] == 1

    fat = dimension_probe(Ideal(RING, [X**2, Y]))
    assert fat.zero_dimensional and fat.total_dimension == 2

    curve = dimension_probe(Ideal(RING, [X]))
    assert not curve.zero_dimensional

    everything = dimension_probe(unit_ideal(RING))
    assert everything.zero_dimensional and everything.total_dimension == 0


def test_krull_dimension():
    R3 = PolyRing(("x", "y", "z"))
    x, y, z = (R3.var(i) for i in range(3))
    cases = [
        (unit_ideal(R3), -1),
        (Ideal(R3, []), 3),
        (Ideal(R3, [x - 1, y + 2, z]), 0),
        (Ideal(R3, [x - y, z - 1]), 1),
        (Ideal(R3, [y - x**2, z - x**3]), 1),  # twisted cubic
        (Ideal(R3, [x + y - z]), 2),  # a plane
        # a plane and a line through it: not equidimensional, the plane wins
        (Ideal(R3, [x * z, y * z]), 2),
    ]
    for I, dim in cases:
        assert krull_dimension(I) == dim, I
    assert krull_dimension(Ideal(RING, [X**2, Y])) == 0


def _point_by_normal_forms(I: Ideal):
    """The reference: when every x_i reduces to a constant c_i mod a proper
    I, m_c lies in I, and m_c is maximal, so I = m_c."""
    nfs = [I.normal_form(I.ring.var(i)) for i in range(I.ring.n)]
    if I.is_unit_ideal() or not all(nf.is_constant() for nf in nfs):
        return None
    return tuple(nf.coefficient((0,) * I.ring.n) for nf in nfs)


def test_rational_point_extraction(monkeypatch):
    half = Fraction(1, 2)
    table = [
        (("x",), ["3*x - 1"], (Fraction(1, 3),)),
        (("x", "y"), ["x - 1", "y - 2"], (1, 2)),
        (("x", "y"), ["2*x - 1", "y"], (half, 0)),
        (("x", "y"), ["x + y - 1/2", "x - y - 1/3"], (Fraction(5, 12), Fraction(1, 12))),
        (("x", "y", "z"), ["2*x - 1", "y - x^2", "z - x*y"], (half, Fraction(1, 4), Fraction(1, 8))),
        # two points, (1/2, 1/3, -1/6) and (-2/3, -1/4, 2/9): radical, not maximal
        (("x", "y", "z"), ["x*y - 1/6", "x - 2*y + 1/6", "3*z + x"], None),
        (("x", "y"), ["(x - 1)^2", "y"], None),  # primary to a point, not maximal
        (("x", "y"), ["x^2 - 2", "y"], None),  # residue field Q(sqrt(2))
        (("x", "y"), ["x - 2*y - 1"], None),  # a line
        (("x", "y"), ["x", "x - 1"], None),  # the unit ideal
        (("x", "y", "z"), [], None),  # the zero ideal
    ]
    cases = []
    for variables, gens, expected in table:
        for order in (MonomialOrder.grevlex, MonomialOrder.lex):
            ring = PolyRing(variables, order(len(variables)))
            cases.append((Ideal(ring, [ring.parse(s) for s in gens]), expected))
    # seeded fuzz: m_p by triangular generators x_i - p_i + sum_{j<i} r_ij*(x_j - p_j),
    # three in four of them perturbed off m_p
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(1, 3)
        ring = PolyRing(("x", "y", "z")[:n], rng.choice((MonomialOrder.grevlex, MonomialOrder.lex))(n))
        lin = [ring.var(i) - Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for i in range(n)]
        gens = [sum((random_poly(rng, ring, max_deg=1) * lin[j] for j in range(i)), lin[i]) for i in range(n)]
        perturb = rng.randrange(4)
        if perturb == 1:
            gens[0] = gens[0] * gens[0]
        elif perturb == 2:
            gens.append(random_poly(rng, ring, max_deg=1))
        elif perturb == 3:
            gens.pop()
        cases.append((Ideal(ring, gens), ...))
    calls = []
    original = groebner.normal_form

    def counting(*args):
        calls.append(args)
        return original(*args)

    for I, _ in cases:
        I.groebner_basis()
    monkeypatch.setattr(groebner, "normal_form", counting)
    points = [rational_point_of(I) for I, _ in cases]
    monkeypatch.undo()
    assert not calls  # read off the cached basis, with no normal form
    for (I, expected), point in zip(cases, points):
        assert point == _point_by_normal_forms(I), I
        assert expected is ... or point == expected, I
        assert point is None or all(type(c) is Fraction for c in point)
    fuzzed = points[2 * len(table) :]
    assert sum(p is None for p in fuzzed) >= 10 and sum(p is not None for p in fuzzed) >= 10


def maximal(I: Ideal) -> bool:
    """The maximality the analysis reads, which refuses a false flag."""
    return analysis(I, TranslationAction.standard(I.ring)).maximal


def test_is_maximal_effective():
    assert maximal(Ideal(RING, [X - 1, Y - 2]))
    assert maximal(Ideal(RING, [X, Y], claimed_maximal=True))
    assert not maximal(Ideal(RING, [X]))
    # zero-dimensional but not maximal: residue dimension 2
    assert not maximal(Ideal(RING, [X**2, Y]))
    # flagged: radical residue rings of dimension above 1 are trusted
    assert maximal(Ideal(RING, [X**2 - 2, Y], claimed_maximal=True))
    assert maximal(Ideal(RING, [X**2 - 1, Y], claimed_maximal=True))
    R3 = PolyRing(("x", "y", "z"))
    X3, Y3, Z3 = R3.var(0), R3.var(1), R3.var(2)
    field = [X3**2 - 2, Y3**2 - 3, Z3 - X3 * Y3]
    assert maximal(Ideal(R3, field, claimed_maximal=True))
    assert is_radical(Ideal(R3, field)) and is_radical(Ideal(RING, [X**2 - 1, Y]))


@pytest.mark.parametrize(
    "gens",
    [
        [X**2, Y],
        [X**2 - 2, (Y - 1) ** 2],  # only the elimination ideal in y is not squarefree
        [(X - Y) ** 2, X + Y],
    ],
)
def test_maximality_flag_on_a_non_radical_ideal_is_refused(gens):
    assert not is_radical(Ideal(RING, gens))
    with pytest.raises(ValueError, match="ideal flagged maximal is not radical"):
        maximal(Ideal(RING, gens, claimed_maximal=True))


def test_maximality_flag_refused_by_the_last_elimination_ideal():
    R3 = PolyRing(("x", "y", "z"))
    X3, Y3, Z3 = R3.var(0), R3.var(1), R3.var(2)
    # I cap Q[z] is generated by (z^2 - 6)^2; x and y eliminate to squarefree polynomials
    fat = Ideal(R3, [X3**2 - 2, Y3**2 - 3, (Z3 - X3 * Y3) ** 2], claimed_maximal=True)
    assert not is_radical(fat)
    with pytest.raises(ValueError, match="not radical"):
        maximal(fat)


def test_pair_limit_raises():
    gens = [X**3 * Y - X, X * Y**3 - Y, X**2 + Y**2 - 1]
    token = groebner.PAIR_LIMIT.set(1)
    try:
        with pytest.raises(ResourceLimitError):
            buchberger(gens)
    finally:
        groebner.PAIR_LIMIT.reset(token)


def test_groebner_cache_reused_across_orders():
    I = Ideal(RING, [X**2 - Y, Y**2 - X])
    first = I.groebner_basis()
    assert I.groebner_basis() is first
    # a basis in another order is computed apart, in a lex ring, and leaves the cache alone
    lex = reduced_groebner_basis(in_order(I.gens, MonomialOrder.lex(2)))
    assert lex == tuple(in_order([X - Y**2, Y**4 - Y], MonomialOrder.lex(2)))
    assert I.groebner_basis() is first


def test_three_variables():
    R3 = PolyRing(("x", "y", "z"))
    x, y, z = (R3.var(i) for i in range(3))
    I = Ideal(R3, [x - y, y - z])
    assert I.contains_poly(x - z)
    Q = ideal_quotient(Ideal(R3, [x * z, y * z]), Ideal(R3, [z]))
    assert ideal_equal(Q, Ideal(R3, [x, y]))


# ------------------------------------------- engine against the reference


def katsura(n):
    """Katsura-n: u_m = x_|m| for |m| <= n, else 0; sum_l u_l u_(m-l) = u_m
    for 0 <= m < n, and sum_l u_l = 1."""
    ring = PolyRing([f"x{i}" for i in range(n + 1)])
    x = [ring.var(i) for i in range(n + 1)]

    def u(m):
        return x[abs(m)] if abs(m) <= n else ring.zero()

    eqs = [sum((u(l) * u(m - l) for l in range(-n, n + 1)), ring.zero()) - u(m) for m in range(n)]
    eqs.append(sum((u(l) for l in range(-n, n + 1)), ring.zero()) - 1)
    return ring, eqs


def cyclic(n):
    """Cyclic-n: the elementary cyclic sums of degree 1..n-1, and x_0...x_(n-1) = 1."""
    ring = PolyRing([f"x{i}" for i in range(n)])
    x = [ring.var(i) for i in range(n)]
    eqs = [
        sum((prod((x[(i + j) % n] for j in range(k)), start=ring.one()) for i in range(n)), ring.zero())
        for k in range(1, n)
    ]
    eqs.append(prod(x, start=ring.one()) - 1)
    return ring, eqs


def counted_basis(monkeypatch, gens):
    """The engine's reduced basis and the number of S-polynomials it formed,
    counted through the module-level ``s_polynomial`` that ``buchberger`` calls."""
    calls = []
    original = groebner.s_polynomial

    def counting(*args):
        calls.append(None)
        return original(*args)

    with monkeypatch.context() as patch:
        patch.setattr(groebner, "s_polynomial", counting)
        basis = reduced_groebner_basis(gens)
    return basis, len(calls)


def _is_elimination(gens):
    """Whether a basis run over ``gens`` is an elimination: their ring carries the block order."""
    return bool(gens) and isinstance(gens[0].ring.order, _ElimOrder)


@pytest.mark.parametrize(
    "family, n", [(katsura, 3), (katsura, 4), (cyclic, 4)], ids=["katsura-3", "katsura-4", "cyclic-4"]
)
def test_engine_matches_the_chain_criterion_reference(monkeypatch, family, n):
    ring, eqs = family(n)
    for order in (ring.order, MonomialOrder.lex(ring.n)):
        counter, gens = {}, in_order(eqs, order)
        reference = chain_reduced_basis(gens, counter)
        basis, spolys = counted_basis(monkeypatch, gens)
        assert basis == reference
        assert 0 < spolys <= counter["spolys"]


def test_engine_matches_the_reference_on_random_ideals():
    rng = random.Random(2024)
    for n, perm in ((2, (1, 0)), (3, (2, 0, 1))):
        ring = PolyRing(("x", "y", "z")[:n])
        monos = [m for m in itertools.product(range(3), repeat=n) if sum(m) <= 3]
        orders = [ring.order, MonomialOrder.lex(n), MonomialOrder.grevlex(n, perm), MonomialOrder.lex(n, perm)]
        for _ in range(10):
            gens = [
                Poly(ring, {m: rng.choice([-3, -2, -1, 1, 2, 3]) for m in rng.sample(monos, 3)})
                for _ in range(rng.randint(2, 3))
            ]
            for order in orders:
                moved = in_order(gens, order)
                assert reduced_groebner_basis(moved) == chain_reduced_basis(moved), (gens, order)


def test_engine_matches_the_reference_on_intersection_inputs(monkeypatch):
    R3 = PolyRing(("x", "y", "z"))
    x, y, z = (R3.var(i) for i in range(3))
    cases = [
        (Ideal(RING, [(X - 2 * Y - 1) * (X + Y - 3)]), Ideal(RING, [(X - 1) * (Y + 2)])),
        (Ideal(RING, [(X - 1) ** 2, (X - 1) * (Y + 2), (Y + 2) ** 2]), Ideal(RING, [X**2 - 7 * Y**2 - 1])),
        (Ideal(RING, [(2 * X - 3 * Y - 1) ** 2]), Ideal(RING, [(2 * X - 3 * Y + 4) ** 2])),
        (Ideal(R3, [x - y, z**2 - 1]), Ideal(R3, [x * z - 1, y - 2])),
    ]
    seen = []
    original = groebner.reduced_groebner_basis

    def recording(gens):
        basis = original(gens)
        if _is_elimination(gens):
            seen.append((gens, basis))
        return basis

    monkeypatch.setattr(groebner, "reduced_groebner_basis", recording)
    for I, J in cases:
        # the eliminations of the colon's general route, J cap (f) per generator f
        meets = [ideal_intersect(Ideal(I.ring, [f]), J) for f in I.gens] + [ideal_intersect(I, J)]
        # the seeded basis cache is the reduced basis of the result's generators
        for meet in meets:
            assert meet.groebner_basis() == reduced_groebner_basis(meet.gens)
    assert len(seen) >= 2 * len(cases)
    for gens, basis in seen:
        assert basis == chain_reduced_basis(gens)


def _fraction_remainder(f, basis):
    """Full remainder of f on division by ``basis`` in Fraction arithmetic:
    the leading term of what is left is divided by the first basis element
    whose leading monomial divides it, else moved to the remainder."""
    work, out = dict(f.terms), {}
    while work:
        m = max(work, key=f.ring.order.key)
        c = work.pop(m)
        for g in basis:
            lm = g.leading_monomial()
            lc = g.coefficient(lm)
            if all(a <= b for a, b in zip(lm, m)):
                q = tuple(b - a for a, b in zip(lm, m))
                for gm, gc in g.terms.items():
                    if gm != lm:
                        tm = tuple(a + b for a, b in zip(q, gm))
                        work[tm] = work.get(tm, 0) - c / lc * gc
                        if not work[tm]:
                            del work[tm]
                break
        else:
            out[m] = c
    return Poly(f.ring, out)


def test_engine_matches_the_reference_on_rational_coefficients(monkeypatch):
    """Generators with denominators 2 to 7: the basis run clears them at its
    boundary, and its bases equal the reference's in every order; the exact
    remainder on division by a non-monic rational basis equals the one that
    Fraction division leaves, for random inputs and for the elements of a
    ``buchberger`` run alike."""
    rng = random.Random(77)

    def rational():
        return Fraction(rng.choice([-5, -3, -2, -1, 1, 2, 3, 5]), rng.randint(2, 7))

    remainders = 0
    for n, perm in ((2, (1, 0)), (3, (2, 0, 1))):
        ring = PolyRing(("x", "y", "z")[:n])
        monos = [m for m in itertools.product(range(3), repeat=n) if sum(m) <= 3]
        orders = [ring.order, MonomialOrder.lex(n), MonomialOrder.grevlex(n, perm), MonomialOrder.lex(n, perm)]
        for _ in range(8):
            gens = [Poly(ring, {m: rational() for m in rng.sample(monos, 3)}) for _ in range(rng.randint(2, 3))]
            assert any(c.denominator > 1 for g in gens for c in g.terms.values())
            for order in orders:
                moved = in_order(gens, order)
                basis = reduced_groebner_basis(moved)
                assert basis == chain_reduced_basis(moved), (gens, order)
                scaled = [rational() * g for g in basis]
                raw = [rational() * g for g in moved]
                inputs = [Poly(ring, {m: rational() for m in rng.sample(monos, 4)}) for _ in range(3)]
                inputs = in_order(inputs, order)
                for f in inputs + buchberger(moved):
                    for divisors in (scaled, raw):
                        nf = normal_form(f, divisors)
                        assert nf == _fraction_remainder(f, divisors), (f, divisors, order)
                        remainders += not nf.is_zero
    assert remainders >= 100

    seen = []
    original = groebner.reduced_groebner_basis

    def recording(gens):
        basis = original(gens)
        if _is_elimination(gens):
            seen.append((gens, basis))
        return basis

    monkeypatch.setattr(groebner, "reduced_groebner_basis", recording)
    I = Ideal(RING, [Fraction(2, 3) * X**2 - Fraction(5, 7) * Y, Fraction(1, 2) * X * Y - Fraction(3, 5)])
    J = Ideal(RING, [Fraction(3, 4) * X - Fraction(1, 6) * Y**2 + Fraction(2, 7)])
    meet = ideal_intersect(I, J)
    assert len(seen) == 1
    gens, basis = seen[0]
    assert basis == chain_reduced_basis(gens)
    assert meet.gens and all(I.contains_poly(g) and J.contains_poly(g) for g in meet.gens)


def test_lex_katsura_3_calls_fractions_only_at_the_boundary():
    """Inside a basis run the coefficients are ints.  The calls into
    fractions.py that the reduced lex basis of Katsura-3 makes come from
    clearing the denominators of what enters and from the monic Fractions
    of what leaves, so they stay within a bound per input and output term."""
    ring, eqs = katsura(3)
    eqs = in_order(eqs, MonomialOrder.lex(ring.n))
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.endswith("fractions.py"):
            calls += 1

    sys.setprofile(count)
    try:
        basis = reduced_groebner_basis(eqs)
    finally:
        sys.setprofile(None)
    assert basis == chain_reduced_basis(eqs)
    terms = sum(len(g.terms) for g in eqs) + sum(len(g.terms) for g in basis)
    assert calls <= 10 * terms, (calls, terms)


def _reference_quotient(J, I):
    """(J : I) by the general route alone: the intersection over the
    generators f of I of (J cap (f))/f."""
    result = None
    for f in I.gens:
        meet = ideal_intersect(Ideal(J.ring, [f]), J)
        colon_f = Ideal(J.ring, [exact_divide(g, f) for g in meet.gens])
        result = colon_f if result is None else ideal_intersect(result, colon_f)
    return result


# the rational point p of an m_p-primary J among the tables below
POINTS = {"point": (1, 2), "fat_point": (1, -2), "(x - 3)^2": (3,)}


def _colon_tables():
    """(label, J, I, act, gs): the colon tables (J : I^g) for g in gs, over
    the box-2 tables (I : I^g) of six plane ideals, two 3-variable tables in
    the box of radius 1, and guard pairs (J : L) at g = 0 that no check
    settles: a height-2 sum with J not principal, an L inside m_p but not in
    an m_p-primary J, J with univariate elements that are not powers of a
    linear form, and a double point on the line."""
    R1 = PolyRing(("x",))
    R3 = PolyRing(("x", "y", "z"))
    x, y, z = (R3.var(i) for i in range(3))
    plane = {
        "line": [2 * X - 3 * Y - 1],
        "conic": [X**2 - 7 * Y**2 - 1],
        "point": [X - 1, Y - 2],
        "fat_point": [(X - 1) ** 2, (X - 1) * (Y + 2), (Y + 2) ** 2],
        "double_line": [(X - 2 * Y - 1) ** 2],
        "two_lines": [(X - 2 * Y - 1) * (X + Y - 3)],
    }
    act = TranslationAction.standard(RING)
    for label, gens in plane.items():
        I = Ideal(RING, gens)
        yield label, I, I, act, list(itertools.product(range(-2, 3), repeat=2))
    J = Ideal(R3, [x - y, z**2 - 1])
    act3 = TranslationAction.standard(R3)
    box3 = list(itertools.product(range(-1, 2), repeat=3))
    yield "space", J, Ideal(R3, [x * z - 1, y - z]), act3, box3
    yield "space", J, J, act3, box3
    yield "guard", Ideal(R3, [x * z, y * z]), Ideal(R3, [x, y]), act3, [(0, 0, 0)]
    yield "guard", Ideal(RING, [X**2, Y**2]), Ideal(RING, [X]), act, [(0, 0)]
    yield "guard", Ideal(RING, [X**2 - 2, Y**2]), Ideal(RING, [X**2 + Y - 2]), act, [(0, 0)]
    yield "guard", Ideal(RING, [X**2 - 1, Y**2 - 1]), Ideal(RING, [X - 1]), act, [(0, 0)]
    t = R1.var(0)
    yield "(x - 3)^2", Ideal(R1, [(t - 3) ** 2]), Ideal(R1, [t - 3]), TranslationAction.standard(R1), [(0,)]


def _branch(J, L, point):
    """The check that should settle (J : L), given the point p of an
    m_p-primary J, or None."""
    if ideal_contains(J, L):
        return "contained"
    if point is not None and any(f.eval_at(point) for f in L.gens):
        return "point"
    total = ideal_sum(J, L)
    if total.is_unit_ideal():
        return "comaximal"
    if J.is_principal() and krull_dimension(total) <= J.ring.n - 2:
        return "principal"
    return "general"


def test_colon_quotient_matches_the_general_route(monkeypatch):
    """In ``colon_components``, only the general pairs and the guards run an
    elimination, and a point-primary J settles its pairs with no basis
    beyond its own; every component's reduced basis equals the general
    route's."""
    calls = []  # the generators of every reduced basis computed
    original = groebner.reduced_groebner_basis

    def recording(gens):
        calls.append(gens)
        return original(gens)

    branches = dict.fromkeys(["contained", "point", "comaximal", "principal", "general"], 0)
    for label, J, I, act, gs in _colon_tables():
        component = colon_components(J, I, act)
        for g in gs:
            L = act_on_ideal(I, g, act)
            branch = _branch(J, L, POINTS.get(label))
            branches[branch] += 1
            if label in ("guard", "(x - 3)^2"):
                assert branch == "general", (label, J, L)
            calls.clear()
            monkeypatch.setattr(groebner, "reduced_groebner_basis", recording)
            got = component(g)
            monkeypatch.undo()
            if branch == "point":
                assert calls == [], (label, L)
            if branch != "general":
                assert not any(map(_is_elimination, calls)), (label, L)
            else:
                assert any(map(_is_elimination, calls)), (label, L)
            assert got.groebner_basis() == _reference_quotient(J, L).groebner_basis(), (label, L)
    assert all(branches.values()), branches


def _random_colon_pair(rng):
    """(J, L, p) in 1-3 variables: J principal, primary to a rational point p
    (else p is None) or random, and L a translate of J, linear forms or
    random."""
    ring = PolyRing(("x", "y", "z")[: rng.randint(1, 3)])
    xs = [ring.var(i) for i in range(ring.n)]

    def linear():
        f = sum((rng.randint(-2, 2) * v for v in xs), ring.const(rng.randint(-2, 2)))
        return f if not f.is_constant() else xs[0] - 1

    point = None
    kind = rng.choice(["principal", "point", "random"])
    if kind == "principal":
        J = Ideal(ring, [prod(linear() for _ in range(rng.randint(1, 2))) ** rng.randint(1, 2)])
    elif kind == "point":
        point = tuple(rng.randint(-2, 2) for _ in xs)
        ms = [v - c for v, c in zip(xs, point)]
        gens = [m ** rng.randint(1, 2) for m in ms] + [prod(ms)] * rng.randint(0, 1)
        J = Ideal(ring, gens)
    else:
        J = Ideal(ring, [random_poly(rng, ring) for _ in range(rng.randint(1, 2))])
    how = rng.choice(["translate", "linear", "random"])
    if how == "translate":
        g = tuple(rng.randint(-1, 1) for _ in xs)
        L = act_on_ideal(J, g, TranslationAction.standard(ring))
    elif how == "linear":
        L = Ideal(ring, [linear() for _ in range(rng.randint(1, 2))])
    else:
        L = Ideal(ring, [random_poly(rng, ring) for _ in range(rng.randint(1, 2))])
    return J, L, point


def test_colon_quotient_fuzz_against_the_general_route():
    rng = random.Random(18)
    branches = dict.fromkeys(["contained", "point", "comaximal", "principal", "general"], 0)
    for _ in range(100):
        J, L, point = _random_colon_pair(rng)
        branches[_branch(J, L, point)] += 1
        got = colon_components(J, L, TranslationAction.standard(J.ring))((0,) * J.ring.n)
        assert got.groebner_basis() == _reference_quotient(J, L).groebner_basis(), (J, L)
        assert ideal_quotient(J, L).groebner_basis() == got.groebner_basis(), (J, L)
    assert all(branches.values()), branches
