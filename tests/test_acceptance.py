"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single PASS line on
success (visible with -v via the test name, or with -s/-rP via stdout); a
failure shows up as the usual pytest FAILED line for that criterion.
"""

import math
import random
import time
from fractions import Fraction

from idealiser import (
    Ideal,
    Lattice,
    Poly,
    PolyRing,
    TranslationAction,
    act_on_ideal,
    complement,
    decide,
    ideal_contains,
    ideal_equal,
    ideal_intersect,
    ideal_product,
    idealiser_membership,
    normal_form,
    pell_enumerate,
    pell_fundamental,
    quotient_table,
    reduced_groebner_basis,
    s_polynomial,
    s_set_box,
    stabiliser,
    t_set_box,
    tor1,
)
from idealiser.linalg import rref
from idealiser.skew import SkewElement
from matrix_helpers import det_int
from skew_oracle import right_ideal_truncation

RING = PolyRing(("x", "y"))
X, Y = RING.var(0), RING.var(1)
ACT = TranslationAction.standard(RING)


def point_ideal(ring, p):
    gens = [ring.var(i) - ring.const(c) for i, c in enumerate(p)]
    return Ideal(ring, gens, claimed_prime=True, claimed_maximal=True)


def random_poly(rng, ring, max_deg=2, max_terms=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = tuple(rng.randint(0, max_deg) for _ in range(ring.n))
        terms[mono] = Fraction(rng.randint(-4, 4))
    f = Poly(ring, terms)
    return f if not f.is_zero else ring.one()


def test_criterion_01_pell_reproduction():
    t0 = time.perf_counter()
    fund = pell_fundamental(7)
    assert (fund.x, fund.y) == (8, 3)
    sols = pell_enumerate(7, 5)
    assert (sols[1].x, sols[1].y) == (127, 48)
    for s in sols:
        assert s.x**2 - 7 * s.y**2 == 1
    for a, b in zip(sols, sols[1:]):
        assert (b.x, b.y) == (8 * a.x + 7 * 3 * a.y, 8 * a.y + 3 * a.x)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"criterion 1 PASS: pell fundamental + recurrence ({elapsed:.3f}s)")


R1 = PolyRing(("x",))
# (ideal, action, right, left): the golden verdict table of criterion 2
VERDICT_TABLE = [
    (Ideal(RING, [X**2 - 7 * Y**2 - 1], claimed_prime=True), ACT, "no", "no"),
    (Ideal(RING, [X - 7 * Y**2 - 1], claimed_prime=True), ACT, "no", "no"),
    (Ideal(RING, [Y**2 - X**3 - X - 1], claimed_prime=True), ACT, "yes", "yes"),
    (Ideal(RING, [2 * X - 3 * Y - 1], claimed_prime=True), ACT, "yes", "yes"),
    (
        Ideal(RING, [X - 1, Y - 2], claimed_prime=True, claimed_maximal=True),
        ACT,
        "yes",
        "no",
    ),
    (
        Ideal(R1, [R1.var(0) - 5], claimed_prime=True, claimed_maximal=True),
        TranslationAction.standard(R1),
        "yes",
        "yes",
    ),
    (
        Ideal(RING, [X, Y], claimed_prime=True, claimed_maximal=True),
        TranslationAction(RING, [[1], [0]]),
        "yes",
        "no",
    ),
]


def test_criterion_02_golden_verdict_table():
    t0 = time.perf_counter()
    for I, act, want_right, want_left in VERDICT_TABLE:
        verdict, _ = decide(I, act)
        label = ", ".join(str(g) for g in I.gens)
        assert verdict.right == want_right, f"<{label}> right: {verdict.right}"
        assert verdict.left == want_left, f"<{label}> left: {verdict.left}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"criterion 2 PASS: 7-row verdict table exact ({elapsed:.3f}s)")


def test_criterion_03_line_stabilisers_and_complements():
    rng = random.Random(2024)
    checked = 0
    while checked < 5:
        m, n = rng.randint(-9, 9), rng.randint(-9, 9)
        if (m, n) == (0, 0) or math.gcd(m, n) != 1:
            continue
        p = rng.randint(-9, 9)
        I = Ideal(RING, [m * X - n * Y - p], claimed_prime=True)
        K = stabiliser(I, ACT)
        assert K == Lattice(2, [(n, m)]), (m, n, p)
        H = complement(K)
        assert K.rank + H.rank == 2
        mat = [list(v) for v in K.basis] + [list(v) for v in H.basis]
        det = det_int([[mat[j][i] for j in range(2)] for i in range(2)])
        assert det != 0  # trivial intersection and finite index at once
        checked += 1
    print("criterion 3 PASS: stabiliser (n,m) for 5 random coprime lines")


def test_criterion_04_pell_s_set_boxes():
    I = Ideal(RING, [X**2 - 7 * Y**2 - 1], claimed_prime=True)
    big = s_set_box(I, (1, 0), Lattice.standard(2), 130, ACT)
    assert big.members == (
        (-128, -48), (-128, 48), (-9, -3), (-9, 3), (-2, 0),
        (0, 0), (7, -3), (7, 3), (126, -48), (126, 48),
    )
    small = s_set_box(I, (1, 0), Lattice.standard(2), 8, ACT)
    assert small.members == (
        (-9, -3), (-9, 3), (-2, 0), (0, 0), (7, -3), (7, 3),
    )
    # box splitting: the small window is exactly the big set filtered by
    # the moved point landing inside the smaller box
    refiltered = tuple(
        g
        for g in big.members
        if abs(1 + g[0]) <= 8 and abs(0 + g[1]) <= 8
    )
    assert refiltered == small.members
    print("criterion 4 PASS: pell S-set at radius 130 and 8")


def test_criterion_05_colon_dichotomy():
    rng = random.Random(404)
    done = 0
    while done < 50:
        kind = rng.choice(("line", "point"))
        if kind == "line":
            m, n = rng.randint(-4, 4), rng.randint(-4, 4)
            if (m, n) == (0, 0) or math.gcd(m, n) != 1:
                continue
            I = Ideal(
                RING, [m * X - n * Y - rng.randint(-3, 3)], claimed_prime=True
            )
        else:
            I = point_ideal(RING, (rng.randint(-3, 3), rng.randint(-3, 3)))
        J = point_ideal(RING, (rng.randint(-3, 3), rng.randint(-3, 3)))
        table = quotient_table(J, I, ACT, 2)
        for g, entry in table.items():
            inside = ideal_contains(J, act_on_ideal(I, g, ACT))
            if inside:
                assert entry.is_unit_ideal(), (I.gens, g)
            else:
                assert ideal_equal(entry, J), (I.gens, g)
        done += 1
    print("criterion 5 PASS: 50 colon tables, every entry <1> or J")


def test_criterion_06_tor_principal_criterion():
    rng = random.Random(777)
    nonzero_seen = 0
    for _ in range(20):
        f = random_poly(rng, RING, max_deg=2, max_terms=3)
        if f.is_constant():
            f = f + X * Y
        p = (rng.randint(-3, 3), rng.randint(-3, 3))
        if rng.random() < 0.5:
            # force a common zero so both outcomes get exercised
            f = f - RING.const(f.eval_at(p))
        I = Ideal(RING, [f])  # deliberately unflagged: general route
        J = point_ideal(RING, p)
        module = tor1(I, J)
        assert module.is_zero == (f.eval_at(p) != 0), (str(f), p)
        # independent route straight from the definition
        num = ideal_intersect(I, J)
        den = ideal_product(I, J)
        assert module.is_zero == ideal_equal(num, den)
        if not module.is_zero:
            nonzero_seen += 1
    assert nonzero_seen >= 5
    print("criterion 6 PASS: tor1 nonzero iff f(p) = 0 on 20 random pairs")


def test_criterion_07_idealiser_membership_vs_truncation():
    rng = random.Random(909)
    I = Ideal(RING, [2 * X - 3 * Y - 1], claimed_prime=True)
    graded = right_ideal_truncation(I, ACT, 4)
    K = Lattice(2, [(3, 2)])

    agreements = members = 0
    for _ in range(100):
        b = SkewElement(ACT, {})
        for _ in range(rng.randint(1, 3)):
            g = (rng.randint(-2, 2), rng.randint(-2, 2))
            coeff = random_poly(rng, RING, max_deg=1, max_terms=2)
            if rng.random() < 0.45 and not K.contains(g):
                coeff = coeff * I.gens[0]  # plant a member coefficient
            b = b + SkewElement(ACT, {g: coeff})
        if b.is_zero:
            continue
        fast = idealiser_membership(b, I, ACT)
        brute = True
        witness = None
        for t in graded:
            prod = b * t
            for g, coeff in prod.components.items():
                if not I.contains_poly(coeff):
                    brute = False
                    witness = (t, g)
                    break
            if not brute:
                break
        assert fast == brute, (str(b), witness)
        if not fast:
            assert witness is not None  # failing product is concrete
        agreements += 1
        members += int(fast)
    assert agreements >= 95
    assert members >= 5  # both outcomes genuinely exercised
    print(f"criterion 7 PASS: membership matches truncation on {agreements} elements")


def test_criterion_08_k_coset_invariance_fuzz():
    rng = random.Random(313)
    runs = 0
    while runs < 30:
        m, n = rng.randint(-4, 4), rng.randint(-4, 4)
        if (m, n) == (0, 0) or math.gcd(m, n) != 1:
            continue
        I = Ideal(RING, [m * X - n * Y - rng.randint(-2, 2)], claimed_prime=True)
        K = stabiliser(I, ACT)
        box = 4
        point = None
        if runs % 3 == 0:
            target = point_ideal(RING, (rng.randint(-2, 2), rng.randint(-2, 2)))
            rep = s_set_box(I, target, Lattice.standard(2), box, ACT)
        elif runs % 3 == 1:
            point = (rng.randint(-2, 2), rng.randint(-2, 2))
            rep = s_set_box(I, point, Lattice.standard(2), box, ACT)
        else:
            J = Ideal(RING, [X - rng.randint(-2, 2)], claimed_prime=True)
            rep = t_set_box(I, J, Lattice.standard(2), box, ACT)
        members = set(rep.members)
        candidates = Lattice.standard(2).points_in_box(box)

        def in_window(g):
            # the point form filters on where the point lands, not on g
            if point is None:
                return max(abs(c) for c in g) <= box
            return all(abs(point[i] + g[i]) <= box for i in range(2))

        for g in candidates:
            for h in candidates:
                diff = (g[0] - h[0], g[1] - h[1])
                if not K.contains(diff):
                    continue
                if not (in_window(g) and in_window(h)):
                    continue
                assert (g in members) == (h in members), (rep.kind, g, h)
        runs += 1
    print("criterion 8 PASS: 30 fuzz runs constant on stabiliser cosets")


def test_criterion_09_groebner_vs_dense_linear_algebra():
    rng = random.Random(515)
    max_deg = 6
    monos = [
        (i, j) for i in range(max_deg + 1) for j in range(max_deg + 1) if i + j <= max_deg
    ]
    mono_index = {m: k for k, m in enumerate(monos)}

    def dense_member(f, basis):
        # degree-compatible order: membership at degree <= 6 is exactly
        # solvability over multiples of the reduced basis up to degree 6
        rows = []
        for g in basis:
            gd = int(g.degree())
            for m in monos:
                if sum(m) + gd > max_deg:
                    continue
                prod = Poly(RING, {m: Fraction(1)}) * g
                vec = [Fraction(0)] * len(monos)
                for mono, c in prod.terms.items():
                    vec[mono_index[mono]] = c
                rows.append(vec)
        target = [Fraction(0)] * len(monos)
        for mono, c in f.terms.items():
            target[mono_index[mono]] = c
        # f is a combination of the multiples iff rows^T a = target is
        # consistent; rref flags an inconsistent row directly
        width = len(monos)
        stacked = [
            [rows[r][c] for r in range(len(rows))] + [target[c]]
            for c in range(width)
        ]
        reduced, _ = rref(stacked)
        for row in reduced:
            if row[-1] != 0 and all(v == 0 for v in row[:-1]):
                return False
        return True

    checked = 0
    while checked < 25:
        gens = [random_poly(rng, RING, max_deg=2) for _ in range(rng.randint(1, 2))]
        basis = reduced_groebner_basis(gens)
        if any(b.is_constant() for b in basis):
            continue  # unit ideal is vacuous here
        # all S-pairs close over the final basis
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                s = s_polynomial(basis[i], basis[j])
                assert normal_form(s, basis).is_zero

        # planted members reduce to zero and are seen by linear algebra
        for _ in range(3):
            mult = random_poly(rng, RING, max_deg=2)
            member = mult * gens[0]
            if member.degree() > max_deg:
                continue
            assert normal_form(member, basis).is_zero
            assert dense_member(member, basis)

        # random probes agree in both directions
        for _ in range(4):
            probe = random_poly(rng, RING, max_deg=3)
            nf_zero = normal_form(probe, basis).is_zero
            assert nf_zero == dense_member(probe, basis), (gens, str(probe))
        checked += 1
    print(f"criterion 9 PASS: dense membership agreement on {checked} ideals")


def test_criterion_10_conjugation_and_complement_independence():
    rng = random.Random(616)
    R1 = PolyRing(("x",))
    A1 = TranslationAction.standard(R1)
    AX = TranslationAction(RING, [[1], [0]])
    golden = [
        (Ideal(RING, [X**2 - 7 * Y**2 - 1], claimed_prime=True), ACT, "no", "no"),
        (Ideal(RING, [X - 7 * Y**2 - 1], claimed_prime=True), ACT, "no", "no"),
        (Ideal(RING, [Y**2 - X**3 - X - 1], claimed_prime=True), ACT, "yes", "yes"),
        (Ideal(RING, [2 * X - 3 * Y - 1], claimed_prime=True), ACT, "yes", "yes"),
        (
            Ideal(RING, [X - 1, Y - 2], claimed_prime=True, claimed_maximal=True),
            ACT,
            "yes",
            "no",
        ),
        (
            Ideal(R1, [R1.var(0) - 5], claimed_prime=True, claimed_maximal=True),
            A1,
            "yes",
            "yes",
        ),
        (
            Ideal(RING, [X, Y], claimed_prime=True, claimed_maximal=True),
            AX,
            "yes",
            "no",
        ),
    ]

    def random_complement(K, d):
        while True:
            cand = [
                [rng.randint(-3, 3) for _ in range(d)]
                for _ in range(d - K.rank)
            ]
            H = Lattice(d, cand)
            if H.rank != d - K.rank:
                continue
            mat = [list(v) for v in K.basis] + [list(v) for v in H.basis]
            if len(mat) < d:
                continue
            det = det_int([[mat[j][i] for j in range(d)] for i in range(d)])
            if det != 0:
                return H

    for I, act, want_right, want_left in golden:
        if I.is_principal():
            v, _ = decide(I, act)
            assert v.right == v.left  # conjugation symmetry
        K = stabiliser(I, act)
        for _ in range(3):
            H = random_complement(K, act.d)
            v, _ = decide(I, act, complement_lattice=H)
            assert (v.right, v.left) == (want_right, want_left), (I.gens, H.basis)
    print("criterion 10 PASS: conjugation symmetry + complement independence")
