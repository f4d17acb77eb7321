import random
from fractions import Fraction

import pytest

from idealiser import (
    Ideal,
    ParseError,
    Poly,
    PolyRing,
    SkewElement,
    TranslationAction,
    idealiser_component,
    idealiser_membership,
    parse_skew,
    presentation_R_mod_IB,
    quotient_table,
    unit_ideal,
)
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
    assert idealiser_component(I, (3, 2), ACT).is_unit_ideal()
    comp = idealiser_component(I, (1, 0), ACT)
    assert not comp.is_unit_ideal()
    assert comp.groebner_basis() == I.groebner_basis()


def test_idealiser_component_general_quotient_route():
    # no primality flag: the component falls back to an honest colon ideal
    I = Ideal(RING, [2 * X - 3 * Y - 1])
    assert idealiser_component(I, (3, 2), ACT).is_unit_ideal()
    comp = idealiser_component(I, (0, 1), ACT)
    assert comp.groebner_basis() == I.groebner_basis()


def test_quotient_table_matches_componentwise_fast_path():
    I = Ideal(RING, [2 * X - 3 * Y - 1], claimed_prime=True)
    table = quotient_table(I, I, ACT, 3)
    for g, entry in table.items():
        fast = idealiser_component(I, g, ACT)
        assert entry.groebner_basis() == fast.groebner_basis()


def test_idealiser_membership():
    I = Ideal(RING, [2 * X - 3 * Y - 1], claimed_prime=True)
    assert idealiser_membership(parse_skew("(x)*e", ACT), I, ACT)
    assert idealiser_membership(parse_skew("(1)*g[3,2]", ACT), I, ACT)
    assert not idealiser_membership(parse_skew("(1)*g[1,0]", ACT), I, ACT)
    assert idealiser_membership(parse_skew("(2*x - 3*y - 1)*g[1,0]", ACT), I, ACT)


def test_right_ideal_truncation_sits_inside_graded_ideal():
    I = Ideal(RING, [X**2 - 7 * Y**2 - 1], claimed_prime=True)
    for t in right_ideal_truncation(I, ACT, 2):
        for g, coeff in t.components.items():
            assert I.contains_poly(coeff)


def test_presentation_of_line_idealiser():
    I = Ideal(RING, [2 * X - 3 * Y - 1], claimed_prime=True)
    pres = presentation_R_mod_IB(I, ACT)
    assert pres.stabiliser.basis == ((3, 2),)
    assert idealiser_component(I, (3, 2), ACT).is_unit_ideal()
    assert idealiser_component(I, (6, 4), ACT).is_unit_ideal()
    assert not pres.stabiliser.contains((1, 0))
    assert pres.stabiliser.contains((3, 2))
    assert pres.stabiliser.contains((0, 0))


def test_presentation_requires_prime_flag():
    I = Ideal(RING, [2 * X - 3 * Y - 1])
    with pytest.raises(ValueError):
        presentation_R_mod_IB(I, ACT)
