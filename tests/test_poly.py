import itertools
import math
import random
import re
import time
from fractions import Fraction

import pytest

from idealiser import MonomialOrder, Poly, PolyRing, ParseError, ResourceLimitError, diophantine, poly
from idealiser.parser import MAX_DEGREE, MAX_DIGITS, MAX_TERMS, InputError
from idealiser.poly import _ElimOrder


RING = PolyRing(("x", "y"))
X, Y = RING.var(0), RING.var(1)


def random_poly(rng, ring, max_deg=3, max_terms=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = tuple(rng.randint(0, max_deg) for _ in range(ring.n))
        terms[mono] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return Poly(ring, terms)


def test_ring_arithmetic_identities():
    rng = random.Random(11)
    for _ in range(40):
        f = random_poly(rng, RING)
        g = random_poly(rng, RING)
        h = random_poly(rng, RING)
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f - f == RING.zero()
        assert f * RING.one() == f
        assert f * RING.zero() == RING.zero()


class _Pairs:
    """A term map whose monomials are lists."""

    def __init__(self, pairs):
        self.pairs = pairs

    def items(self):
        return self.pairs


def test_int_and_fraction_coercion():
    assert 2 * X == X + X
    assert X * Fraction(1, 2) + X * Fraction(1, 2) == X
    assert 1 + X - 1 == X
    assert (3 - X) + (X - 3) == RING.zero()
    f = Poly(RING, _Pairs([([0, 1], 3), ([2, 0], Fraction(1, 2)), ([1, 1], 0), ((0, 0), Fraction(0))]))
    assert f.terms == {(2, 0): Fraction(1, 2), (0, 1): Fraction(3)}
    assert all(type(m) is tuple for m in f.terms)
    assert all(type(c) is Fraction for c in f.terms.values())
    assert f == Fraction(1, 2) * X**2 + 3 * Y


def test_pow():
    assert (X + Y) ** 0 == RING.one()
    assert (X + Y) ** 2 == X**2 + 2 * X * Y + Y**2
    for f in (X - 2 * Y + 1, Fraction(3, 4) * X * Y - Fraction(5, 6) * Y + Fraction(7, 2), RING.zero()):
        power = RING.one()
        for k in range(7):
            assert f**k == power, (f, k)
            power = power * f
    for a, b, c in [(3, 4, 5), (2, 6, 0), (1, 1, 1), (0, 5, 2)]:
        for k in range(7):
            assert RING.parse(f"({a}/{b}*x - {c})^{k}") == (Fraction(a, b) * X - c) ** k, (a, b, c, k)
    with pytest.raises(ValueError):
        (X + Y) ** -1


def test_degree_and_leading():
    f = X**2 - 7 * Y**2 - 1
    assert f.degree() == 2
    assert f.degree_in(0) == 2 and f.degree_in(1) == 2
    assert RING.zero().degree() == float("-inf")
    lm = f.leading_monomial()
    assert lm == (2, 0) and f.coefficient(lm) == 1  # grevlex prefers x^2 over y^2
    lex = PolyRing(("x", "y"), MonomialOrder.lex(2))
    assert (lex.var(1) ** 3 + lex.var(0)).leading_monomial() == (1, 0)


def test_leading_monomial_is_the_order_maximum():
    """The leading monomial is the first key of ``ints``, and that is the
    greatest monomial of f in its ring's order: lex, grevlex, either one
    under a permutation, and the block order of an elimination."""
    rng = random.Random(41)
    inner = [MonomialOrder.lex(3), MonomialOrder.grevlex(3), MonomialOrder.grevlex(3, (2, 0, 1))]
    rings = [PolyRing(("x", "y", "z"), o) for o in inner + [MonomialOrder.lex(3, (1, 2, 0))]]
    rings += [PolyRing(("t", "x", "y", "z"), _ElimOrder(1, o)) for o in inner[1:]]
    for ring in rings:
        for _ in range(30):
            terms = {tuple(rng.randint(0, 4) for _ in range(ring.n)): rng.randint(-3, 3) for _ in range(5)}
            support = [m for m, c in terms.items() if c]
            if support:
                assert Poly(ring, terms).leading_monomial() == max(support, key=ring.order.key), (ring, terms)


def test_str_is_deterministic_and_parses_back():
    f = X**2 - 7 * Y**2 - 1
    assert str(f) == "x^2 - 7*y^2 - 1"
    assert RING.parse(str(f)) == f
    g = Fraction(3, 2) * X - Y
    assert str(g) == "3/2*x - y"
    assert RING.parse(str(g)) == g
    assert str(RING.zero()) == "0"


def test_parse_round_trip_random():
    rng = random.Random(23)
    for _ in range(60):
        f = random_poly(rng, RING)
        assert RING.parse(str(f)) == f


def test_parse_expressions():
    assert RING.parse("(x + y)^2 - (x - y)^2") == 4 * X * Y
    assert RING.parse("-x") == -X
    assert RING.parse("2/3 * x*y") == Fraction(2, 3) * X * Y
    assert RING.parse("x^2*y^3") == X**2 * Y**3
    assert RING.parse("5") == RING.const(5)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        RING.parse("x +")
    with pytest.raises(ParseError):
        RING.parse("z + 1")  # unknown variable
    with pytest.raises(ParseError):
        RING.parse("x ^ y")  # exponent must be an integer literal
    with pytest.raises(ParseError):
        RING.parse("x^-2")
    with pytest.raises(ParseError):
        RING.parse("(x + 1")
    with pytest.raises(ParseError, match=r"zero denominator in '1/0' \(at position 4\)"):
        RING.parse("x - 1/0")
    with pytest.raises(ParseError, match=r"zero denominator in '3/00' \(at position 0\)"):
        RING.parse("3/00*y")


def test_eval_at():
    f = X**2 - 7 * Y**2 - 1
    assert f.eval_at((8, 3)) == 0
    assert f.eval_at((1, 1)) == -7
    assert f.eval_at((Fraction(1, 2), 0)) == Fraction(-3, 4)


def test_translate_matches_evaluation():
    rng = random.Random(7)
    for _ in range(30):
        f = random_poly(rng, RING)
        shift = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(2))
        moved = f.translate(shift)
        for _ in range(5):
            p = tuple(Fraction(rng.randint(-4, 4)) for _ in range(2))
            expected = f.eval_at(tuple(a + b for a, b in zip(p, shift)))
            assert moved.eval_at(p) == expected


def test_compose_matches_evaluation():
    rng = random.Random(13)
    target = PolyRing(("s", "t", "u"))
    for _ in range(30):
        f = random_poly(rng, RING)
        images = [random_poly(rng, target, max_deg=2) for _ in range(2)]
        composed = f.compose(images)
        assert composed.ring == target
        for _ in range(5):
            p = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(3))
            assert composed.eval_at(p) == f.eval_at([g.eval_at(p) for g in images])
    assert (X * Y).compose([Y, X]) == X * Y
    with pytest.raises(ValueError):
        X.compose([X])


def test_compose_normalises_once(monkeypatch):
    target = PolyRing(("s", "t"))
    s, t = target.var(0), target.var(1)
    f = Fraction(2, 5) * X**3 * Y - 3 * X * Y**2 + Fraction(1, 7)
    images = [(2 * s + 1) * Fraction(1, 3), Fraction(5, 2) * t**2 - s]
    expected = f.compose(images)
    calls = []
    normalise = Poly._normalise
    monkeypatch.setattr(Poly, "_normalise", lambda self, *args: calls.append(args) or normalise(self, *args))
    assert f.compose(images) == expected
    assert len(calls) == 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_translate_equals_composition_with_shifted_variables(n):
    """The Taylor shift equals f(x_1 + s_1, ..., x_n + s_n) multiplied out by
    ``compose``, for integral, zero, partly zero and rational shifts."""
    rng = random.Random(100 + n)
    ring = PolyRing(("x", "y", "z")[:n])
    xs = [ring.var(i) for i in range(n)]
    shifts = [
        tuple(rng.randint(-4, 4) or 1 for _ in range(n)),  # integral, none zero
        (0,) * n,
        (0,) * (n - 1) + (rng.randint(1, 4),),  # integral, all but the last zero
        tuple(Fraction(rng.randint(-5, 5), rng.randint(2, 7)) for _ in range(n)),
        (Fraction(-3, 2),) + (0,) * (n - 1),  # rational, partly zero
    ]
    for _ in range(12):
        f = random_poly(rng, ring, max_deg=5, max_terms=6)
        f = f + Fraction(rng.randint(1, 9), rng.randint(2, 7)) * xs[-1] ** 5
        for shift in shifts:
            moved = f.translate(shift)
            assert moved == f.compose([x + s for x, s in zip(xs, shift)]), (f, shift)
            assert moved.ring == ring
        assert f.translate(shifts[1]) is f


def test_translate_is_additive():
    f = X**3 - 2 * X * Y + 5
    assert f.translate((1, 2)).translate((3, -1)) == f.translate((4, 1))
    assert f.translate((0, 0)) == f


def test_partial_derivatives():
    f = X**2 * Y + 3 * Y
    assert f.partial(0) == 2 * X * Y
    assert f.partial(1) == X**2 + 3


def test_monic():
    f = 4 * X**2 - 2 * Y
    m = f.monic()
    assert m.coefficient(m.leading_monomial()) == 1
    assert m == X**2 - Fraction(1, 2) * Y
    assert (Fraction(-3, 4) * X * Y + 5).monic() == X * Y - Fraction(20, 3)
    assert RING.zero().monic() == RING.zero()


def test_order_keys_sort_monomials():
    grevlex = MonomialOrder.grevlex(2)
    # same degree: grevlex falls back to reversed exponent comparison
    assert grevlex.key((2, 0)) > grevlex.key((1, 1)) > grevlex.key((0, 2))
    assert grevlex.key((0, 3)) > grevlex.key((2, 0))
    lex = MonomialOrder.lex(2)
    assert lex.key((1, 0)) > lex.key((0, 5))

    # keys are memoised per order: a key looked up again, or on an order
    # built afresh, equals the first one computed
    rng = random.Random(29)
    orders = [
        MonomialOrder.lex(3),
        MonomialOrder.grevlex(3),
        MonomialOrder.grevlex(3, (2, 0, 1)),
        MonomialOrder.lex(3, (1, 2, 0)),
    ]
    orders += [_ElimOrder(1, o) for o in orders[1:3]]
    for order in orders:
        if isinstance(order, _ElimOrder):
            fresh, n = _ElimOrder(1, MonomialOrder(order.inner.kind, order.inner.perm)), 4
        else:
            fresh, n = MonomialOrder(order.kind, order.perm), 3
        monos = [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(60)]
        first = [order.key(m) for m in monos]
        assert [order.key(m) for m in monos] == first
        assert [fresh.key(m) for m in reversed(monos)][::-1] == first
    # the memo plays no part in equality or hashing
    a, b = PolyRing(("x", "y")), PolyRing(("x", "y"))
    a.order.key((3, 1))
    assert a == b and hash(a) == hash(b) and a.order == b.order
    assert repr(a.order) == "MonomialOrder(kind='grevlex', perm=(0, 1))"


def test_ring_validation():
    with pytest.raises(ValueError):
        PolyRing(())
    with pytest.raises(ValueError):
        PolyRing(("x", "x"))


def test_cross_ring_mixing_rejected():
    other = PolyRing(("a", "b"))
    with pytest.raises(ValueError):
        X + other.var(0)


def test_nesting_depth_is_bounded():
    ring = PolyRing(("x",))
    assert ring.parse("(" * 100 + "x" + ")" * 100) == ring.var(0)
    assert ring.parse("-" * 100 + "x") == ring.var(0)
    with pytest.raises(ParseError, match="nested deeper than 100 levels"):
        ring.parse("(" * 101 + "x" + ")" * 101)


def test_size_limits_are_checked_before_expansion():
    """Products, powers and sums past MAX_DEGREE or MAX_TERMS are input
    errors at the operator that crosses the limit; an exponent above
    MAX_DEGREE is refused even on a constant; inputs at the limits parse."""
    assert issubclass(ParseError, InputError) and issubclass(InputError, ValueError)
    assert RING.parse(f"x^{MAX_DEGREE} - y") == X**MAX_DEGREE - Y
    assert RING.parse("x^500*y^500 + 2^1000") == X**500 * Y**500 + 2**1000
    assert RING.parse("(x - x)^3*(x + y)^2 + (x - 1)^0") == RING.one()
    for text, message in (
        (f"x^{MAX_DEGREE + 1}", f"exponent {MAX_DEGREE + 1} exceeds the degree limit of {MAX_DEGREE} (at position 2)"),
        ("3^1001", f"exponent 1001 exceeds the degree limit of {MAX_DEGREE} (at position 2)"),
        ("x^600 * y^401", f"total degree 1001 exceeds the degree limit of {MAX_DEGREE} (at position 6)"),
        ("(x + y + 1)^140", f"an expansion of up to 10011 terms exceeds the term limit of {MAX_TERMS} (at position 12)"),
    ):
        with pytest.raises(ParseError, match=re.escape(message)):
            RING.parse(text)
    many = " + ".join(f"x^{i}*y^{j}" for i in range(101) for j in range(100))
    with pytest.raises(ParseError, match=f"a sum of more than {MAX_TERMS} terms exceeds the term limit"):
        RING.parse(many)


def test_coefficient_limit_is_checked_before_expansion():
    """A product or power whose coefficients may pass 2^k, for 2^k the
    least power of two above every number of MAX_DIGITS digits, is refused
    at its operator; a literal of more than MAX_DIGITS digits at its start,
    and a coefficient of the whole expression past MAX_DIGITS digits at its
    end.  Inputs at the limit parse."""
    widest = "9" * MAX_DIGITS  # the largest literal of MAX_DIGITS digits
    big = int(widest)
    assert RING.parse(f"{widest}*x - 1/{widest}") == big * X - Fraction(1, big)
    assert RING.parse(f"x*{widest}*y") == big * X * Y
    assert RING.parse("(2^1000)^14*x") == 2**14000 * X
    assert RING.parse("(2*x + 2*y)^14") == 2**14 * (X + Y) ** 14
    limit = f"exceed the coefficient limit of {MAX_DIGITS} digits"
    for text, message in (
        ("((2^1000)^1000)^1000*x - y", f"coefficients of up to 2^1000000 {limit} (at position 10)"),
        ("(2^1000)^15", f"coefficients of up to 2^15000 {limit} (at position 9)"),
        (f"x - {widest}*{widest}", f"coefficients of up to 2^28570 {limit} (at position {MAX_DIGITS + 4})"),
        (f"(1/3*x + 1/{widest})^2", f"coefficients of up to 2^28572 {limit} (at position {MAX_DIGITS + 13})"),
        (f"x + 1{'0' * MAX_DIGITS}", f"a literal of {MAX_DIGITS + 1} digits exceeds the coefficient limit of {MAX_DIGITS} digits (at position 4)"),
        (f"x + 1/1{'0' * MAX_DIGITS}", f"a literal of {MAX_DIGITS + 1} digits exceeds the coefficient limit of {MAX_DIGITS} digits (at position 4)"),
        (f"{widest} + 1", f"a coefficient of more than {MAX_DIGITS} digits exceeds the coefficient limit (at position {MAX_DIGITS + 4})"),
    ):
        with pytest.raises(ParseError, match=re.escape(message)):
            RING.parse(text)


def test_substitution_limit_is_checked_before_expansion():
    """x^400 shifted by 10^300 would have coefficients of about 120,000
    digits: translate refuses it from bit lengths, (400 + 1) * (10^300 + 1)^400
    bounding each, and compose from the image's bit lengths, both at once
    and naming the limit, which is the parser's limit and the Pell budget.
    In degree 10 the same shift fits, and both run."""
    assert MAX_DIGITS is poly.MAX_DIGITS is diophantine.PELL_DIGITS
    big = 10**300
    f = X**400 - Y
    limit = f"exceeds the coefficient limit of {MAX_DIGITS} digits"
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match=f"^a substitution with coefficients of up to 2\\^398812 {limit}$"):
        f.translate((big, 0))
    with pytest.raises(ResourceLimitError, match=f"^a substitution with coefficients of up to 2\\^400006 {limit}$"):
        f.compose([X + big, Y])
    with pytest.raises(ResourceLimitError, match=limit):
        f.translate((Fraction(1, big), 0))
    assert time.perf_counter() - start < 0.1
    g = X**10 - Y
    assert g.translate((big, Fraction(1, big))) == g.compose([X + big, Y + Fraction(1, big)]) == (X + big) ** 10 - Y - Fraction(1, big)


# a Fraction-dict reference: a polynomial is {exponent tuple: nonzero Fraction}


def _ref_clean(terms):
    return {m: Fraction(c) for m, c in terms.items() if c}


def _ref_add(f, g, sign=1):
    out = dict(f)
    for m, c in g.items():
        out[m] = out.get(m, 0) + sign * c
    return _ref_clean(out)


def _ref_mul(f, g):
    out = {}
    for (m1, c1), (m2, c2) in itertools.product(f.items(), g.items()):
        m = tuple(a + b for a, b in zip(m1, m2))
        out[m] = out.get(m, 0) + c1 * c2
    return _ref_clean(out)


def _ref_pow(f, k, n):
    out = {(0,) * n: Fraction(1)}
    for _ in range(k):
        out = _ref_mul(out, f)
    return out


def _ref_partial(f, i):
    return _ref_clean({m[:i] + (m[i] - 1,) + m[i + 1 :]: c * m[i] for m, c in f.items() if m[i]})


def _ref_translate(f, shift):
    """Each term's (x_i + s_i)^e expanded by the binomial theorem."""
    out = {}
    for m, c in f.items():
        expanded = {(): c}
        for e, s in zip(m, shift):
            expanded = {
                mm + (k,): v * math.comb(e, k) * Fraction(s) ** (e - k)
                for mm, v in expanded.items()
                for k in range(e + 1)
            }
        out = _ref_add(out, expanded)
    return out


def _ref_compose(f, images, n_target):
    out = {}
    for m, c in f.items():
        term = {(0,) * n_target: c}
        for img, e in zip(images, m):
            term = _ref_mul(term, _ref_pow(img, e, n_target))
        out = _ref_add(out, term)
    return out


def _ref_eval(f, point):
    return sum((c * math.prod(Fraction(p) ** e for p, e in zip(point, m)) for m, c in f.items()), Fraction(0))


def _ref_str(ring, f):
    parts = []
    for m in sorted(f, key=ring.order.key, reverse=True):
        c = f[m]
        factors = [v if e == 1 else f"{v}^{e}" for v, e in zip(ring.variables, m) if e]
        body = "*".join(([str(abs(c))] if abs(c) != 1 or not factors else []) + factors)
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(f" {'-' if c < 0 else '+'} {body}")
    return "".join(parts) or "0"


def _assert_agrees(p, ref):
    """p has the reference's value and keeps every invariant of the representation."""
    ints, order = p.ints, p.ring.order
    assert dict(p.terms) == ref, (p, ref)
    assert all(type(m) is tuple for m in ints) and all(type(c) is int and c for c in ints.values())
    assert list(ints) == sorted(ints, key=order.key, reverse=True)
    assert p.den > 0 and math.gcd(p.num, p.den) == 1
    if ints:
        assert math.gcd(*ints.values()) == 1 and next(iter(ints.values())) > 0 and p.num
    else:
        assert (p.num, p.den) == (0, 1)


@pytest.mark.parametrize("kind", ["grevlex", "lex"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_operations_match_a_fraction_dict_reference(n, kind):
    rng = random.Random(2100 + 10 * n + (kind == "lex"))
    ring = PolyRing(("x", "y", "z")[:n], getattr(MonomialOrder, kind)(n))
    target = PolyRing(("s", "t"))

    def coefficient():
        return Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 6, 35]))

    def random_terms(r, max_deg=3):
        monos = [m for m in itertools.product(range(max_deg + 1), repeat=r.n) if sum(m) <= max_deg]
        return _ref_clean({m: coefficient() for m in rng.sample(monos, rng.randint(0, min(5, len(monos))))})

    for _ in range(40):
        f_ref, g_ref = random_terms(ring), random_terms(ring)
        f, g = Poly(ring, f_ref), Poly(ring, g_ref)
        _assert_agrees(f, f_ref)
        _assert_agrees(f + g, _ref_add(f_ref, g_ref))
        _assert_agrees(f - g, _ref_add(f_ref, g_ref, -1))
        _assert_agrees(f - f, {})
        _assert_agrees(f * g, _ref_mul(f_ref, g_ref))
        _assert_agrees(-f, {m: -c for m, c in f_ref.items()})
        for c in (coefficient(), rng.randint(-4, 4), Fraction(0)):
            _assert_agrees(f * c, _ref_clean({m: v * c for m, v in f_ref.items()}))
            _assert_agrees(c * f, _ref_clean({m: v * c for m, v in f_ref.items()}))
            _assert_agrees(f + c, _ref_add(f_ref, {(0,) * n: c}))
        k = rng.randint(0, 3)
        _assert_agrees(f**k, _ref_pow(f_ref, k, n))
        for i in range(n):
            _assert_agrees(f.partial(i), _ref_partial(f_ref, i))
        shifts = [
            tuple(rng.randint(-4, 4) for _ in range(n)),
            tuple(coefficient() for _ in range(n)),
            (0,) * (n - 1) + (coefficient(),),
            (Fraction(rng.randint(-7, 7), rng.randint(2, 5)),) + (0,) * (n - 1),
        ]
        for shift in shifts:
            _assert_agrees(f.translate(shift), _ref_translate(f_ref, shift))
        # images of content other than 1, such as (2s + 1)/3, constant and zero images
        special = [{}, _ref_clean({(0, 0): coefficient()}), {(1, 0): Fraction(2, 3), (0, 0): Fraction(1, 3)}]
        mixed = [random_terms(target, 2) for _ in range(n)]
        mixed[rng.randrange(n)] = rng.choice(special)
        for images_ref in ([random_terms(target, 2) for _ in range(n)], mixed, rng.choices(special, k=n)):
            images = [Poly(target, t) for t in images_ref]
            for h_ref in (f_ref, {}, _ref_clean({(0,) * n: coefficient()})):
                _assert_agrees(Poly(ring, h_ref).compose(images), _ref_compose(h_ref, images_ref, 2))
        point = [coefficient() for _ in range(n)]
        assert f.eval_at(point) == _ref_eval(f_ref, point)
        if f_ref:
            lc = f_ref[max(f_ref, key=ring.order.key)]
            _assert_agrees(f.monic(), {m: c / lc for m, c in f_ref.items()})
        else:
            _assert_agrees(f.monic(), {})
        assert (f == g) == (f_ref == g_ref)
        assert f == Poly(ring, dict(reversed(list(f_ref.items()))))
        assert str(f) == _ref_str(ring, f_ref)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_str_of_rational_content_matches_the_fraction_renderer(n):
    """A content num/den over a primitive integer part: each printed
    coefficient is the reduced Fraction of c*num/den."""
    rng = random.Random(2400 + n)
    ring = PolyRing(("x", "y", "z")[:n], rng.choice([None, MonomialOrder.lex(n)]))
    monos = list(itertools.product(range(4), repeat=n))
    for _ in range(200):
        ints = {m: rng.choice([-1, 1]) * rng.randint(1, 60) for m in rng.sample(monos, rng.randint(1, min(5, len(monos))))}
        content = Fraction(rng.randint(-40, 40) or 1, rng.choice([1, 2, 3, 6, 12, 35, 10**12 + 39]))
        ref = _ref_clean({m: content * c for m, c in ints.items()})
        f = content * Poly.from_ints(ring, 1, 1, ints)
        assert f == Poly(ring, ref)
        assert str(f) == _ref_str(ring, ref)
        assert str(-f) == _ref_str(ring, {m: -c for m, c in ref.items()})


def _random_tree(rng, n, depth):
    """An expression tree over n variables: a leaf, or (op, children...)."""
    if depth == 0 or rng.random() < 0.25:
        kind = rng.choice(["int", "frac", "var"])
        if kind == "int":
            return ("int", rng.randint(0, 12))
        if kind == "frac":
            return ("frac", rng.randint(0, 9), rng.randint(1, 6))
        return ("var", rng.randrange(n))
    op = rng.choice(["+", "-", "*", "^", "neg", "()"])
    if op == "^":
        return (op, _random_tree(rng, n, depth - 1), rng.randint(0, 3))
    if op in ("neg", "()"):
        return (op, _random_tree(rng, n, depth - 1))
    return (op, _random_tree(rng, n, depth - 1), _random_tree(rng, n, depth - 1))


def _render(tree, names, rng) -> str:
    """Text for the tree: compound operands of *, ^ and unary minus are
    parenthesised, and spaces are scattered at random."""
    op = tree[0]

    def sp():
        return rng.choice(["", " ", "  "])

    if op == "int":
        return str(tree[1])
    if op == "frac":
        return f"{tree[1]}/{tree[2]}"
    if op == "var":
        return names[tree[1]]
    if op == "()":
        return "(" + sp() + _render(tree[1], names, rng) + sp() + ")"

    def operand(sub):
        text = _render(sub, names, rng)
        return text if sub[0] in ("int", "frac", "var", "()") else "(" + text + ")"

    if op == "neg":
        return "-" + sp() + operand(tree[1])
    if op == "^":
        return operand(tree[1]) + sp() + "^" + sp() + str(tree[2])
    right = operand(tree[2]) if op in "-*" else _render(tree[2], names, rng)
    left = operand(tree[1]) if op == "*" else _render(tree[1], names, rng)
    return left + sp() + op + sp() + right


def _evaluate(tree, ring):
    op = tree[0]
    if op == "int":
        return ring.const(tree[1])
    if op == "frac":
        return ring.const(Fraction(tree[1], tree[2]))
    if op == "var":
        return ring.var(tree[1])
    if op == "()":
        return _evaluate(tree[1], ring)
    if op == "neg":
        return -_evaluate(tree[1], ring)
    if op == "^":
        return _evaluate(tree[1], ring) ** tree[2]
    a, b = _evaluate(tree[1], ring), _evaluate(tree[2], ring)
    return a + b if op == "+" else a - b if op == "-" else a * b


@pytest.mark.parametrize("n", [1, 2, 3])
def test_parse_matches_poly_arithmetic_on_random_trees(n):
    rng = random.Random(2410 + n)
    ring = PolyRing(("x", "y", "z")[:n])
    for _ in range(300):
        tree = _random_tree(rng, n, rng.randint(1, 4))
        text = _render(tree, ring.variables, rng)
        parsed = ring.parse(rng.choice(["", " "]) + text + rng.choice(["", " "]))
        assert parsed == _evaluate(tree, ring), text
        _assert_agrees(parsed, _ref_clean(dict(_evaluate(tree, ring).terms)))


def test_parse_error_positions_count_leading_whitespace():
    with pytest.raises(ParseError, match=r"zero denominator in '1/0' \(at position 6\)"):
        RING.parse("  x + 1/0")
    with pytest.raises(ParseError, match=r"unknown variable 'z' \(at position 3\)"):
        RING.parse("   z")
    with pytest.raises(ParseError, match=r"unexpected character '\$' \(at position 6\)"):
        RING.parse("  x + $")
    with pytest.raises(ParseError, match=r"exponent must be a non-negative integer literal \(at position 5\)"):
        RING.parse(" x ^ 1/2")
    with pytest.raises(ParseError, match=r"unexpected end of input \(at position 5\)"):
        RING.parse(" x + ")
