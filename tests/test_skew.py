import itertools
import random
from fractions import Fraction

import pytest

from idealiser import (
    Ideal,
    MonomialOrder,
    ParseError,
    Poly,
    PolyRing,
    SkewElement,
    TranslationAction,
    colon_components,
    idealiser_membership,
    ideal_contains,
    ideal_sum,
    krull_dimension,
    parse_skew,
    presentation_R_mod_IB,
    quotient_table,
    unit_ideal,
)
from idealiser import groebner, noether
from idealiser.action import act_on_ideal, box_walk
from idealiser.groebner import ideal_quotient
from idealiser.noether import analysis
from idealiser.poly import _ElimOrder
from skew_oracle import right_ideal_truncation

RING = PolyRing(("x", "y"))
X, Y = RING.var(0), RING.var(1)
ACT = TranslationAction.standard(RING)


def random_skew(rng, max_support=3):
    parts = SkewElement(ACT, {})
    for _ in range(rng.randint(1, max_support)):
        g = (rng.randint(-2, 2), rng.randint(-2, 2))
        terms = {}
        for _ in range(rng.randint(1, 3)):
            mono = (rng.randint(0, 2), rng.randint(0, 2))
            terms[mono] = Fraction(rng.randint(-3, 3))
        coeff = Poly(RING, terms)
        parts = parts + SkewElement(ACT, {g: coeff})
    return parts


def test_twist_law():
    a = parse_skew("(1)*g[1,0]", ACT)
    b = parse_skew("(x)*e", ACT)
    assert str(a * b) == "(x+1)*g[1,0]"
    assert str(b * a) == "(x)*g[1,0]"


def test_group_elements_multiply_additively():
    g = SkewElement(ACT, {(1, 2): RING.one()})
    h = SkewElement(ACT, {(3, -1): RING.one()})
    gh = g * h
    assert list(gh.components) == [(4, 1)]


def test_ring_axioms_on_random_elements():
    rng = random.Random(101)
    for _ in range(20):
        a, b, c = (random_skew(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert a + b == b + a
        assert a - a == SkewElement(ACT, {})
    e = SkewElement(ACT, {(0, 0): RING.one()})
    a = random_skew(random.Random(5))
    assert e * a == a and a * e == a


def test_noncommutativity_witness():
    # x * g[1,0] against g[1,0] * x differ by the translation twist
    a = SkewElement(ACT, {(0, 0): X})
    g = SkewElement(ACT, {(1, 0): RING.one()})
    assert g * a != a * g
    assert g * a - SkewElement(ACT, {(1, 0): X + 1}) == SkewElement(ACT, {})


def test_str_formats():
    assert str(SkewElement(ACT, {})) == "(0)*e"
    assert str(SkewElement(ACT, {(0, 0): RING.one()})) == "(1)*e"
    elt = parse_skew("(x^2 - 1)*g[2,-3] + (1/2)*e", ACT)
    assert str(elt) == "(1/2)*e + (x^2-1)*g[2,-3]"


def test_parse_round_trip():
    rng = random.Random(55)
    for _ in range(25):
        elt = random_skew(rng)
        if elt.is_zero:
            continue
        assert parse_skew(str(elt), ACT) == elt


def test_parse_signs_and_errors():
    a = parse_skew("(x)*e - (y)*g[0,1]", ACT)
    b = parse_skew("(x)*e + (-y)*g[0,1]", ACT)
    assert a == b
    with pytest.raises(ParseError):
        parse_skew("(x)*h[1,0]", ACT)
    with pytest.raises(ParseError):
        parse_skew("(x)*g[1]", ACT)  # wrong arity
    with pytest.raises(ParseError):
        parse_skew("x*e", ACT)  # coefficients need parentheses
    with pytest.raises(ParseError):
        parse_skew("(x*e", ACT)


EGZ = PolyRing(("e", "g", "z"))
EGZ_ACT = TranslationAction(EGZ, [[1], [0], [2]])
NESTED = "(" * 100 + "x" + ")" * 100


@pytest.mark.parametrize(
    "text, action, expected",
    [
        ("(x)*g[ -1 , 2 ] + (3)*e", ACT, {(-1, 2): X, (0, 0): RING.const(3)}),
        ("  (x) * e - ( y ) *g[0,1]  ", ACT, {(0, 0): X, (0, 1): -Y}),
        ("(x)*g[01,0] + (y)*g[1,0]", ACT, {(1, 0): X + Y}),
        # whitespace is free everywhere, as in polynomials
        ("(x)*g [1,0]", ACT, {(1, 0): X}),
        ("(x) *g[- 1,0]", ACT, {(-1, 0): X}),
        ("(x)*e - (x)*e", ACT, {}),
        (f"({NESTED})*e", ACT, {(0, 0): X}),
        (
            "(e*g)*g[-2] + (z)*e",
            EGZ_ACT,
            {(-2,): EGZ.var(0) * EGZ.var(1), (0,): EGZ.var(2)},
        ),
    ],
)
def test_parse_skew_accepts(text, action, expected):
    assert parse_skew(text, action) == SkewElement(action, expected)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "  ",
        "(x)*g[1,0,]",
        "(x)*g[]",
        "(x)*g[1/2,0]",
        "(x)*g[+1,0]",
        "(x)*e+-(y)*e",
        "()*e",
        "(x)*e +",
        "(x)*e (y)*e",
        "(x)*e1",
        "(x)*e*y",
        "(x))*e",
        "((x)*e",
        "(x)e",
        "(x)*g[1,0",
        "(x)*g(1,0)",
        f"(({NESTED}))*e",
    ],
)
def test_parse_skew_refuses(text):
    with pytest.raises(ParseError):
        parse_skew(text, ACT)


def test_idealiser_component_dichotomy_for_lines():
    I = Ideal(RING, [2 * X - 3 * Y - 1], claimed_prime=True)
    component = colon_components(I, I, ACT)
    assert component((3, 2)).is_unit_ideal()
    comp = component((1, 0))
    assert not comp.is_unit_ideal()
    assert comp.groebner_basis() == I.groebner_basis()


def test_idealiser_component_general_quotient_route():
    # no primality flag: the component is the honest colon ideal
    I = Ideal(RING, [2 * X - 3 * Y - 1])
    component = colon_components(I, I, ACT)
    for g in [(3, 2), (0, 1)]:
        assert component(g).groebner_basis() == ideal_quotient(I, act_on_ideal(I, g, ACT)).groebner_basis()
    assert component((3, 2)).is_unit_ideal()
    assert component((0, 1)).groebner_basis() == I.groebner_basis()


def test_quotient_table_matches_componentwise_fast_path():
    I = Ideal(RING, [2 * X - 3 * Y - 1], claimed_prime=True)
    table = quotient_table(I, I, ACT, 3)
    for g, entry in table.items():
        fast = colon_components(I, I, ACT)(g)
        assert entry.groebner_basis() == fast.groebner_basis()


def _table_cases(rng):
    """(label, J, I, act, box, p): colon tables with p the rational point of
    an m_p-primary J (given here, not read from the code), else None.  J = I
    from the same or from other generators, and J != I; lines, two lines
    with one of them stabilised, a double line, a Pell conic, points and fat
    points, in one to three variables, under the lex order and under a
    rational action; the unit and the zero ideal, whose stabiliser is not
    defined."""
    a, b = rng.randint(1, 2), rng.randint(-2, 2)
    p = (rng.randint(-2, 2), rng.randint(-2, 2))
    line = X - a * Y - b  # stabilised by (a, 1)
    m_p = Ideal(RING, [X - p[0], Y - p[1]], claimed_prime=True)
    m_p2 = Ideal(RING, [(X - p[0]) ** 2, (X - p[0]) * (Y - p[1]), (Y - p[1]) ** 2])
    pell = Ideal(RING, [X**2 - 7 * Y**2 - 1], claimed_prime=True)
    two = Ideal(RING, [line * (X + Y - 3)])
    yield "line", Ideal(RING, [line], claimed_prime=True), Ideal(RING, [line]), ACT, 2, None
    other = Ideal(RING, [2 * line, line * (Y + 1)])  # the same ideal from other generators
    yield "line, other generators", other, Ideal(RING, [line]), ACT, 2, None
    yield "point", m_p, m_p, ACT, 2, p
    yield "m_p^2 against m_p", m_p2, m_p, ACT, 2, p
    yield "fat point", m_p2, m_p2, ACT, 2, p
    yield "two lines", two, two, ACT, 2, None
    # the first generator moves along (a, 1), which stabilises the first line only
    along = TranslationAction(RING, [[a, 1], [1, 0]])
    yield "two lines, one stabilised", two, two, along, 2, None
    double = Ideal(RING, [line**2])
    yield "double line", double, double, ACT, 2, None
    yield "pell", pell, pell, ACT, 2, None
    yield "pell against a point on it", pell, Ideal(RING, [X - 8, Y - 3]), ACT, 2, None
    R1 = PolyRing(("x",))
    t = R1.var(0)
    act1 = TranslationAction.standard(R1)
    yield "(x - 3)^2", Ideal(R1, [(t - 3) ** 2]), Ideal(R1, [(t - 3) ** 2]), act1, 2, (3,)
    yield "(x - 3)^2 against x - 3", Ideal(R1, [(t - 3) ** 2]), Ideal(R1, [t - 3]), act1, 2, (3,)
    third = TranslationAction(RING, [["1/3", 0], [0, 1]])
    fat = Ideal(RING, [(X - 1) ** 2, Y**2])
    # vanishes at (1, 0) + (g_1/3, g_2) for g = (1, 0) and (2, 0)
    moving = Ideal(RING, [(3 * X - 4) * (3 * X - 5), Y])
    yield "rational action", fat, moving, third, 2, (1, 0)
    third_point = Ideal(RING, [3 * X - 1, Y + 1], claimed_prime=True)
    yield "rational action, point", third_point, third_point, third, 2, (Fraction(1, 3), -1)
    lex = PolyRing(("x", "y"), MonomialOrder.lex(2))
    u, v = lex.var(0), lex.var(1)
    lex_two = Ideal(lex, [(u - a * v - b) * (u + v - 3)])
    lex_act = TranslationAction(lex, [[a, 1], [1, 0]])
    yield "lex", lex_two, lex_two, lex_act, 2, None
    lex_fat = Ideal(lex, [u - 1, v**2])
    yield "lex point", lex_fat, lex_fat, TranslationAction.standard(lex), 2, (1, 0)
    R3 = PolyRing(("x", "y", "z"))
    x, y, z = (R3.var(i) for i in range(3))
    act3 = TranslationAction.standard(R3)
    lines3 = Ideal(R3, [x - y, z**2 - 1])
    yield "three variables", lines3, lines3, act3, 1, None
    yield "three variables, J != I", lines3, Ideal(R3, [x * z - 1, y - z]), act3, 1, None
    unit, zero = Ideal(RING, [RING.one()]), Ideal(RING, [])
    yield "unit", unit, unit, ACT, 1, None
    yield "zero", zero, zero, ACT, 1, None
    yield "m_p against the unit ideal", m_p, unit, ACT, 1, p
    yield "m_p against the zero ideal", m_p, zero, ACT, 1, p


def _colon_branch(J, L, point):
    """The check of ``colon_components`` that settles (J : L), given the
    point p of an m_p-primary J, or None."""
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


def test_quotient_table_matches_the_colon_of_each_translate(monkeypatch):
    """quotient_table equals (J : I^g) by its definition entry by entry.  It
    builds no I^g for an entry that the stabiliser (J = I) or the zero test
    at the point of J settles.  When J = I is prime by its class it builds
    nothing: no difference elimination, sum basis or translate.  Otherwise,
    when J = I = (f), it runs no difference elimination: the first member of
    each pair {g, -g} asks the gcd test, which never passes where f and f^g
    share a factor, and a sum basis and I^g are built only at pairs that
    test leaves open.  When J = I is not principal, it runs no difference
    elimination either, and the first member of each pair builds I^g and
    the pair's one sum basis; otherwise one sum basis per entry that reaches
    the sum.  Every entry of the general route still eliminates."""
    translated = []  # the g of every I^g that the table builds
    bases = []  # (g of the last I^g built, gens) of every basis computed
    original_act, original_basis = noether.act_on_ideal, groebner.reduced_groebner_basis

    def recording_act(I, g, act):
        translated.append(g)
        return original_act(I, g, act)

    def recording_basis(gens):
        bases.append((translated[-1] if translated else None, gens))
        return original_basis(gens)

    def eliminates(gens):  # an elimination runs in a ring under the block order
        return bool(gens) and isinstance(gens[0].ring.order, _ElimOrder)

    def difference(gens, ring):  # in the variables x and then s; an intersection puts its own first
        return eliminates(gens) and gens[0].ring.variables[: ring.n] == ring.variables

    seen, proved, principal, nonprincipal = set(), set(), set(), set()
    for label, J, I, act, box, p in _table_cases(random.Random(20)):
        moved = {g: act_on_ideal(I, g, act) for g in box_walk([box] * act.d)}
        expected = {g: ideal_quotient(J, L) for g, L in moved.items()}
        branch = {g: _colon_branch(J, L, p) for g, L in moved.items()}
        gb = J.groebner_basis()
        proper = not (I.is_zero_ideal() or I.is_unit_ideal())
        K = analysis(I, act).K if proper and gb == I.groebner_basis() else None
        translated.clear()
        bases.clear()
        monkeypatch.setattr(noether, "act_on_ideal", recording_act)
        monkeypatch.setattr(groebner, "reduced_groebner_basis", recording_basis)
        table = quotient_table(J, I, act, box)
        monkeypatch.undo()
        assert list(table) == list(moved), label
        for g, entry in table.items():
            assert entry.groebner_basis() == expected[g].groebner_basis(), (label, g)
        # no translate where the zero test or, for J = I, the stabiliser settles
        assert not [g for g in translated if branch[g] == "point"], label
        if K is not None:
            assert all(branch[g] == "contained" for g in moved if K.contains(g)), label
            assert not [g for g in translated if K.contains(g)], label
        first = {g: min(g, tuple(-x for x in g)) for g in moved}
        reach = [g for g in moved if branch[g] in ("comaximal", "principal", "general")]
        differences = sum(difference(gens, J.ring) for _, gens in bases)
        sums = [g for g, gens in bases if gens[: len(gb)] == gb and not eliminates(gens)]
        if K is None:
            assert not differences, label
            assert sums == reach, label
            assert translated == [g for g in moved if branch[g] != "point"], label
        elif analysis(I, act).proved_prime:
            # every entry outside K is J, with no elimination, sum or translate
            assert (differences, sums, translated) == (0, [], []), label
            proved.add(label)
        elif J.is_principal():
            # no elimination; at the first member of each pair the gcd test,
            # and a sum basis and I^g only at pairs that it leaves open
            assert not differences, label
            coprime = analysis(I, act).coprime
            left_open = {first[g] for g in reach if not coprime(first[g])}
            for g in reach:
                if first[g] not in left_open:
                    assert krull_dimension(ideal_sum(J, moved[g])) < J.ring.n - 1, (label, g)
            assert sums == sorted(left_open), label
            built = [g for g in reach if branch[g] == "general" or (g == first[g] and g in left_open)]
            assert translated == built, label
            principal.add(label)
            seen.update("coprime" for g in reach if first[g] not in left_open)
        else:
            # no elimination; I^g and one sum basis at the first member of
            # each pair, and I^g on the general route
            assert not differences, label
            assert sums == [g for g in reach if g == first[g]], label
            assert translated == [g for g in reach if branch[g] == "general" or g == first[g]], label
            nonprincipal.add(label)
        # every entry of the general route eliminates, in its own translate
        eliminated = {g for g, gens in bases if eliminates(gens) and not difference(gens, J.ring)}
        assert eliminated == {g for g in moved if branch[g] == "general"}, label
        seen.update(branch[g] for g in translated)
        if K is not None:
            seen.update("stabiliser" for g in moved if K.contains(g) and any(g))
        if K is not None and label not in proved:
            seen.update("mirror" for g in reach if g != first[g])
        if p is not None and label not in proved and any(branch[g] == "point" for g in moved):
            seen.add("zero test")
    kinds = {"stabiliser", "zero test", "mirror", "coprime", "contained", "comaximal", "principal", "general"}
    assert kinds <= seen, seen
    assert proved == {"line", "line, other generators", "point", "pell", "rational action, point"}
    assert principal == {"two lines", "two lines, one stabilised", "double line", "lex", "(x - 3)^2"}
    assert nonprincipal == {"fat point", "lex point", "three variables"}


def _fuzz_ideal(rng, ring):
    """A seeded random ideal: a product of two parallel lines (planes in
    three variables), whose translates can share a factor, so that a sum
    I + I^g is proper of dimension n - 1; the square of a linear or
    quadric form; or a product of two such forms."""
    n = ring.n

    def form(degree):
        monos = [m for m in itertools.product(range(degree + 1), repeat=n) if 0 < sum(m) <= degree]
        terms = {m: rng.choice((-2, -1, 1, 2)) for m in rng.sample(monos, rng.randint(1, 2))}
        terms[(0,) * n] = rng.randint(-2, 2)
        return Poly(ring, terms)

    kind = rng.choice(("parallel", "square", "product"))
    if kind == "parallel":
        direction = {tuple(int(i == j) for j in range(n)): rng.choice((-2, -1, 1, 2)) for i in range(n)}
        b, c = rng.sample(range(-2, 3), 2)
        return Ideal(ring, [Poly(ring, {**direction, (0,) * n: b}) * Poly(ring, {**direction, (0,) * n: c})])
    if kind == "square":
        return Ideal(ring, [form(rng.choice((1, 2))) ** 2])
    return Ideal(ring, [form(1) * form(rng.choice((1, 2)))])


def test_quotient_table_against_the_colon_of_each_translate_on_random_ideals():
    """quotient_table(I, I) equals (I : I^g) by its definition entry by entry on
    seeded random plane and 3-space ideals, under the standard action and a
    rational one; some sums are proper of dimension n - 1, so the general
    route runs."""
    R3 = PolyRing(("x", "y", "z"))
    actions = [
        (ACT, 8),
        (TranslationAction(RING, [["1/2", 0], [1, "1/3"]]), 8),
        (TranslationAction.standard(R3), 3),
        (TranslationAction(R3, [["1/2", 0, 0], [0, 1, 0], [0, 1, "1/3"]]), 3),
    ]
    rng = random.Random(27)
    general = 0
    for act, count in actions:
        n = act.ring.n
        for _ in range(count):
            I = _fuzz_ideal(rng, act.ring)
            table = quotient_table(I, I, act, 2)
            for g, entry in table.items():
                L = act_on_ideal(I, g, act)
                assert entry.groebner_basis() == ideal_quotient(I, L).groebner_basis(), (I, act, g)
                general += krull_dimension(ideal_sum(I, L)) == n - 1 and not ideal_contains(I, L)
    assert general


def _planted_principal(rng, act):
    """A seeded principal ideal (f) that shares a factor with one of its
    translates: f = p * p^h * r, for p a random linear or quadric form, h a
    random group element of sup-norm at most 2 and r = 1 or a random linear
    or (in fewer than three variables) quadric form, so that f^{-h} has the
    factor p (l*(l + c)*q when p is linear); or f = p^2."""
    ring, n = act.ring, act.ring.n

    def form(degree):
        monos = [m for m in itertools.product(range(degree + 1), repeat=n) if 0 < sum(m) <= degree]
        terms = {m: rng.choice((-3, -2, -1, 1, 2, 3)) for m in rng.sample(monos, min(len(monos), rng.randint(1, 3)))}
        terms[(0,) * n] = rng.randint(-3, 3)
        return Poly(ring, terms)

    p = form(rng.choice((1, 2)))
    if rng.random() < 0.2:
        return Ideal(ring, [p**2])
    h = tuple(rng.randint(-2, 2) for _ in range(act.d))
    r = rng.choice((ring.one(), form(1), form(2 if n < 3 else 1)))
    return Ideal(ring, [p * p.translate(act.translation(h)) * r])


def test_gcd_test_of_a_principal_table_never_passes_a_shared_factor():
    """The gcd test of a principal table (``Analysis.coprime``) on seeded
    (f) with a factor shared with a translate, in one, two and three
    variables, under standard, rank-one and rational actions: it never
    passes a g where f and f^g share a factor, which is where
    dim C/(f + f^g) = n - 1, and it passes most other g.  On the same
    ideals quotient_table(I, I) equals (I : I^g) by its definition entry by
    entry."""
    R1, R3 = PolyRing(("x",)), PolyRing(("x", "y", "z"))
    actions = [
        (TranslationAction.standard(R1), 2, 5),
        (TranslationAction(R1, [["1/2", 1]]), 2, 5),
        (ACT, 2, 8),
        (TranslationAction(RING, [[1, 2], [-1, -2]]), 2, 6),
        (TranslationAction(RING, [["1/2", 0], [1, "1/3"]]), 2, 8),
        (TranslationAction.standard(R3), 1, 4),
        (TranslationAction(R3, [[1, 2], [0, 0], [-1, -2]]), 1, 3),
        (TranslationAction(R3, [["1/2", 0, 0], [0, 1, 0], [0, 1, "1/3"]]), 1, 4),
    ]
    rng = random.Random(30)
    passed = shared = free = 0
    for act, box, count in actions:
        n = act.ring.n
        for _ in range(count):
            I = _planted_principal(rng, act)
            a = analysis(I, act)
            table = quotient_table(I, I, act, box)
            for g, entry in table.items():
                L = act_on_ideal(I, g, act)
                common = krull_dimension(ideal_sum(I, L)) == n - 1
                assert not (common and a.coprime(g)), (I, act, g)
                passed += a.coprime(g)
                shared += common and not a.K.contains(g)
                free += not common
                assert entry.groebner_basis() == ideal_quotient(I, L).groebner_basis(), (I, act, g)
    assert shared > 50 and passed > 0.95 * free, (shared, passed, free)


def test_gcd_test_skips_a_point_where_the_leading_coefficient_vanishes():
    """h = L(x)*M(y) + 1, with L and M vanishing at every integer of
    [-16, 16], so that both leading coefficients of h, M(y) in x and L(x) in
    y, vanish at every small integer point, where h specialises to 1.  So
    f = h * h^g, for g = (1, 1), and f^{-g} specialise to 1 at each such
    point, and the test, which must skip them, may not pass the pair of g."""
    L = M = RING.one()
    for v in range(-16, 17):
        L, M = L * (X - v), M * (Y - v)
    h = L * M + 1
    g = (1, 1)
    I = Ideal(RING, [h * h.translate(ACT.translation(g))])
    assert not analysis(I, ACT).coprime(g) and not analysis(I, ACT).coprime((-1, -1))


def test_idealiser_membership():
    I = Ideal(RING, [2 * X - 3 * Y - 1], claimed_prime=True)
    assert idealiser_membership(parse_skew("(x)*e", ACT), I, ACT)
    assert idealiser_membership(parse_skew("(1)*g[3,2]", ACT), I, ACT)
    assert not idealiser_membership(parse_skew("(1)*g[1,0]", ACT), I, ACT)
    assert idealiser_membership(parse_skew("(2*x - 3*y - 1)*g[1,0]", ACT), I, ACT)


def test_idealiser_membership_builds_one_colon(monkeypatch):
    """Two lines l1*l2, not flagged prime, with a trivial stabiliser: g = (2, 1)
    moves l2 along l1, so (I : I^g) = <l2>, and g = (-1, 1) moves l1 along
    l2, so (I : I^g) = <l1>.  Every component of an element is read from
    one ``colon_components(I, I)``: the facts of I are read once, not per g."""
    l1, l2 = X - 2 * Y - 1, X + Y - 3
    I = Ideal(RING, [l1 * l2])
    read = []
    original = noether.primary_point

    def counting(J):
        read.append(J)
        return original(J)

    monkeypatch.setattr(noether, "primary_point", counting)
    member = parse_skew(f"({l2})*g[2,1] + ({l1})*g[-1,1] + ({l1 * l2})*g[1,0]", ACT)
    assert idealiser_membership(member, I, ACT)
    assert read == [I]
    monkeypatch.undo()
    for outsider in (f"({l2})*g[-1,1]", f"({l1})*g[2,1]", f"({l1})*g[1,0]"):
        assert not idealiser_membership(parse_skew(outsider, ACT), I, ACT), outsider


def test_idealiser_membership_of_a_principal_ideal_runs_no_elimination(monkeypatch):
    """A product of two conics, not proved prime by its class, shares no
    factor with any of its translates off 0: every component is read by the
    gcd test, with no elimination and no translate.  Two space quadrics,
    neither principal nor prime by their class, meet their translates by
    (1, 0, 0) and (0, 1, 1) in the unit ideal: each component tested off K
    builds its translate and one sum basis, and no elimination."""
    R3 = PolyRing(("x", "y", "z"))
    act3 = TranslationAction.standard(R3)
    quadrics = Ideal(R3, [R3.parse("x*y - z^2 + 1"), R3.parse("x^2 + y*z - 2")])
    f = (X**2 - 2 * Y**2 - 1) * (X**2 + Y**2 - 5)
    cases = [
        (Ideal(RING, [f]), ACT, "(x)*g[1,0] + (y)*g[0,1] + (1)*g[1,1]", False, 0),
        (Ideal(RING, [f]), ACT, f"({f})*g[1,0] + ({f})*g[0,1] + ({f})*g[1,1] + (x)*e", True, 0),
        # the first component is outside (I : I^g) = I, so the test stops there
        (quadrics, act3, "(x)*g[1,0,0] + (y)*g[0,1,0]", False, 1),
        (quadrics, act3, "(x*y - z^2 + 1)*g[1,0,0] + (x^2 + y*z - 2)*g[0,1,1] + (x)*e", True, 2),
    ]
    translated, eliminations = [], []
    original_act, original_basis = noether.act_on_ideal, groebner.reduced_groebner_basis

    def recording_act(I, g, act):
        translated.append(g)
        return original_act(I, g, act)

    def recording_basis(gens):  # an elimination runs in a ring under the block order
        if gens and isinstance(gens[0].ring.order, _ElimOrder):
            eliminations.append(gens)
        return original_basis(gens)

    monkeypatch.setattr(noether, "act_on_ideal", recording_act)
    monkeypatch.setattr(groebner, "reduced_groebner_basis", recording_basis)
    for I, act, element, member, translates in cases:
        translated.clear()
        assert idealiser_membership(parse_skew(element, act), I, act) == member, element
        assert (eliminations, len(translated)) == ([], translates), element


def test_right_ideal_truncation_sits_inside_graded_ideal():
    I = Ideal(RING, [X**2 - 7 * Y**2 - 1], claimed_prime=True)
    for t in right_ideal_truncation(I, ACT, 2):
        for g, coeff in t.components.items():
            assert I.contains_poly(coeff)


def test_presentation_of_line_idealiser():
    I = Ideal(RING, [2 * X - 3 * Y - 1], claimed_prime=True)
    pres = presentation_R_mod_IB(I, ACT)
    assert pres.stabiliser.basis == ((3, 2),)
    component = colon_components(I, I, ACT)
    assert component((3, 2)).is_unit_ideal()
    assert component((6, 4)).is_unit_ideal()
    assert not pres.stabiliser.contains((1, 0))
    assert pres.stabiliser.contains((3, 2))
    assert pres.stabiliser.contains((0, 0))


def test_presentation_requires_prime_flag():
    I = Ideal(RING, [2 * X - 3 * Y - 1])
    with pytest.raises(ValueError):
        presentation_R_mod_IB(I, ACT)
