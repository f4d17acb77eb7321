import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from idealiser import (
    Ideal,
    Lattice,
    MonomialOrder,
    Poly,
    PolyRing,
    TranslationAction,
    act_on_ideal,
    complement,
    critical_density_decide,
    decide,
    decide_left,
    decide_right,
    growth_probe,
    ideal_contains,
    ideal_equal,
    ideal_intersect,
    ideal_product,
    ideal_sum,
    quotient_table,
    s_set_box,
    stabiliser,
    t_set_box,
    tor1,
    tor1_is_zero,
    unit_ideal,
)
from idealiser import groebner, noether
from idealiser.action import box_walk
from idealiser.diophantine import _projective_smoothness, _singular_by_discriminant, zero_test
from idealiser.groebner import _repeated_by_gcds, ideal_quotient
from idealiser.noether import LEFT_RULES, RIGHT_RULES, analysis, component_test
from idealiser.poly import _ElimOrder
from pool_inputs import benchmark_cases
from reference_groebner import repeated_by_basis

RING = PolyRing(("x", "y"))
X, Y = RING.var(0), RING.var(1)
ACT = TranslationAction.standard(RING)

PELL = Ideal(RING, [X**2 - 7 * Y**2 - 1], claimed_prime=True)
LINE = Ideal(RING, [2 * X - 3 * Y - 1], claimed_prime=True)
POINT = Ideal(RING, [X - 1, Y - 2], claimed_prime=True, claimed_maximal=True)


def point_ideal(p):
    return Ideal(
        RING,
        [X - RING.const(p[0]), Y - RING.const(p[1])],
        claimed_prime=True,
        claimed_maximal=True,
    )


# ------------------------------------------------------------------ tor


def test_tor_of_nested_point_pair():
    mod = tor1(Ideal(RING, [X]), Ideal(RING, [X, Y]))
    assert not mod.is_zero
    assert mod.dimension_probe == (0, 1, 1, 1, 1, 1, 1)


def test_tor_vanishes_for_transverse_pair():
    mod = tor1(Ideal(RING, [X]), Ideal(RING, [X - 1, Y]))
    assert mod.is_zero
    assert all(d == 0 for d in mod.dimension_probe)


def test_tor_is_symmetric():
    rng = random.Random(61)
    for _ in range(6):
        f = X - rng.randint(-2, 2) * Y - rng.randint(-2, 2)
        p = (rng.randint(-2, 2), rng.randint(-2, 2))
        I, J = Ideal(RING, [f]), point_ideal(p)
        assert tor1(I, J).is_zero == tor1(J, I).is_zero


def test_tor_of_a_principal_prime_and_a_point():
    rng = random.Random(67)
    for _ in range(10):
        f = (
            rng.randint(1, 3) * X**2
            + rng.randint(-3, 3) * Y
            + rng.randint(-3, 3)
        )
        p = (rng.randint(-3, 3), rng.randint(-3, 3))
        I = Ideal(RING, [f], claimed_prime=True)
        J = point_ideal(p)
        fast = tor1_is_zero(I, J)
        general = ideal_equal(ideal_intersect(I, J), ideal_product(I, J))
        assert fast == general
        assert fast == (f.eval_at(p) != 0)


@pytest.mark.parametrize("side", ["right", "left"])
def test_component_test_refuses_a_unit_ideal_flagged_prime(side):
    unit = Ideal(RING, [RING.one()], claimed_prime=True)
    with pytest.raises(ValueError, match="flagged prime must be proper"):
        component_test(PELL, unit, ACT, side)


@pytest.mark.parametrize("side", ["right", "left"])
def test_component_test_refuses_a_unit_source_flagged_prime(side):
    unit = Ideal(RING, [RING.one()], claimed_prime=True)
    with pytest.raises(ValueError, match="flagged prime must be proper"):
        component_test(unit, point_ideal((1, 2)), ACT, side)


FLAG_REFUSALS = (
    "an ideal flagged prime must be proper, not the unit ideal",
    "a principal ideal with a repeated factor is not prime",
    "ideal flagged maximal is not zero-dimensional",
    "ideal flagged maximal is not radical",
)


def test_flags_are_refused_in_the_analysis_only():
    package = Path(__file__).resolve().parent.parent / "src" / "idealiser"
    sources = {p.name: p.read_text(encoding="utf-8") for p in package.glob("*.py")}
    noether = sources["noether.py"]
    body = noether[noether.index("class Analysis:") : noether.index("\ndef analysis(")]
    for message in FLAG_REFUSALS:
        assert sum(text.count(message) for text in sources.values()) == 1, message
        assert message in body, message


def test_tor_with_a_unit_ideal_is_zero():
    unit = Ideal(RING, [RING.one()], claimed_prime=True)
    for I in (PELL, LINE, Ideal(RING, [X - 1, Y + 2], claimed_prime=True)):
        assert tor1(I, unit).is_zero
        assert tor1_is_zero(I, unit) and tor1_is_zero(unit, I)
        assert tor1_is_zero(I, unit_ideal(RING)) and tor1_is_zero(unit_ideal(RING), I)


# --------------------------------------------------------------- S sets


def test_pell_s_set_radius_130():
    rep = s_set_box(PELL, (1, 0), Lattice.standard(2), 130, ACT)
    assert rep.members == (
        (-128, -48), (-128, 48), (-9, -3), (-9, 3), (-2, 0),
        (0, 0), (7, -3), (7, 3), (126, -48), (126, 48),
    )
    assert len(rep.cosets) == 10  # trivial stabiliser: every member its own class


def test_pell_s_set_radius_8_is_the_sub_box():
    rep = s_set_box(PELL, (1, 0), Lattice.standard(2), 8, ACT)
    assert rep.members == (
        (-9, -3), (-9, 3), (-2, 0), (0, 0), (7, -3), (7, 3),
    )


def test_s_set_box_splitting_consistency():
    big = s_set_box(PELL, (1, 0), Lattice.standard(2), 130, ACT)
    small = s_set_box(PELL, (1, 0), Lattice.standard(2), 8, ACT)
    filtered = tuple(
        g for g in big.members
        if all(abs(c) <= 8 for c in ((1 + g[0]), (0 + g[1])))
    )
    assert filtered == small.members


def test_s_set_against_ideal_target_windows_the_group_element(monkeypatch):
    rep = s_set_box(LINE, LINE, Lattice.standard(2), 7, ACT)
    assert rep.members == ((-6, -4), (-3, -2), (0, 0), (3, 2), (6, 4))
    assert len(rep.cosets) == 1  # all in one stabiliser coset
    # a target not flagged prime still gets the containment test, not a colon
    monkeypatch.setattr(noether, "colon_components", None)
    unflagged = s_set_box(LINE, Ideal(RING, LINE.gens), Lattice.standard(2), 7, ACT)
    assert unflagged.members == rep.members


def test_s_set_against_a_target_not_flagged_prime_reads_containment():
    """Neither target is prime, and neither is flagged: x^2 has a repeated
    factor and x*(x - 1) is reducible.  I^g lies in the target iff the
    target divides the translate of I's generator."""
    targets = [Ideal(RING, [X**2]), Ideal(RING, [X * (X - 1)])]
    line = Ideal(RING, [X], claimed_prime=True)
    for target in targets:
        assert s_set_box(line, target, Lattice.standard(2), 2, ACT).members == ()
    # the roots of I^g are -g_0 and -g_0 - 1, each double
    I = Ideal(RING, [X**2 * (X + 1) ** 2])
    columns = {a: tuple((a, b) for b in range(-2, 3)) for a in (-1, 0)}
    expected = [columns[-1] + columns[0], columns[-1]]
    for target, members in zip(targets, expected):
        rep = s_set_box(I, target, Lattice.standard(2), 2, ACT)
        assert rep.members == members
        assert rep.members == tuple(
            g for g in Lattice.standard(2).points_in_box(2)
            if ideal_contains(target, act_on_ideal(I, g, ACT))
        )
        assert len(rep.cosets) == len(members) // 5  # K is the y-axis


def test_s_set_on_sublattice():
    sub = Lattice(2, [(3, 2)])
    rep = s_set_box(LINE, LINE, sub, 7, ACT)
    assert rep.members == ((-6, -4), (-3, -2), (0, 0), (3, 2), (6, 4))


def test_s_set_point_form_under_rational_action():
    act = TranslationAction(RING, [[Fraction(1, 2), 0], [0, 1]])
    curve = Ideal(RING, [X**2 - Y**2 - 1], claimed_prime=True)
    rep = s_set_box(curve, (1, 0), Lattice.standard(2), 2, act)
    # moved point (1 + a/2, b) must be an integer-or-half pair on the hyperbola
    for g in rep.members:
        p = (1 + Fraction(g[0], 2), Fraction(g[1]))
        assert p[0] ** 2 - p[1] ** 2 == 1
    assert (0, 0) in rep.members and (-4, 0) in rep.members


def test_s_set_rejects_collapsing_window():
    act = TranslationAction(RING, [[1, -1], [1, -1]])
    with pytest.raises(ValueError):
        s_set_box(PELL, (1, 0), Lattice.standard(2), 4, act)


S_SET_ACTIONS = {
    "standard": ACT,
    "rank one": TranslationAction(RING, [[1, 1], [0, 0]]),
    "rational": TranslationAction(RING, [[Fraction(1, 2), 0], [0, 1]]),
}


@pytest.mark.parametrize("name", sorted(S_SET_ACTIONS))
def test_s_set_against_an_ideal_target_is_the_containment(name):
    """Every ideal target, flagged prime or not, reads one containment test:
    the members are the g in the box with I^g in the target, by translates
    and normal forms.  The targets are I itself, a translate of I, a line,
    points on and off V(I), and ideals that are not prime; <x^2 - 2, y> is
    flagged maximal only, and against itself reads K."""
    act = S_SET_ACTIONS[name]
    sources = [
        Ideal(RING, [X**2 - 2 * Y**2 - 1], claimed_prime=True),
        LINE,
        Ideal(RING, [X - 1, Y], claimed_maximal=True),
        Ideal(RING, [X**2 - 2, Y], claimed_maximal=True),
    ]
    shapes = [
        [X**2 - 2 * Y**2 - 1],
        [(X - 1) ** 2 - 2 * Y**2 - 1],
        [2 * X - 3 * Y + 2],
        [X - 1, Y],
        [X - 3, Y - 2],
        [X - 2 * Y - 1],
        [X * (X - 1)],
        [X**2 - 2, Y],
        [(X - 1) ** 2, Y],
    ]
    seen = {"members": 0, "empty": 0}
    for I in sources:
        targets = [I] + [Ideal(RING, gens, claimed_prime=flag) for gens in shapes[:6] for flag in (True, False)]
        targets += [Ideal(RING, gens) for gens in shapes[6:]]
        for target in targets:
            rep = s_set_box(I, target, Lattice.standard(2), 3, act)
            expected = tuple(
                g for g in sorted(Lattice.standard(2).points_in_box(3))
                if ideal_contains(target, act_on_ideal(I, g, act))
            )
            assert rep.members == expected, (I, target, name)
            seen["members" if expected else "empty"] += 1
    assert all(seen.values()), seen
    # the maximal ideal with no rational point, against itself: g in K
    sqrt2 = sources[3]
    assert noether._contained(sqrt2, sqrt2, analysis(sqrt2, act), 1) == analysis(sqrt2, act).K.contains


def test_s_set_keeps_the_flag_refusals():
    """An ideal target still reads the flags of the source and the target
    through their analyses: a source flagged prime with a repeated factor
    and a unit target flagged prime are refused with their messages."""
    sub = Lattice.standard(2)
    square = Ideal(RING, [(X - Y) ** 2], claimed_prime=True)
    with pytest.raises(ValueError, match="^a principal ideal with a repeated factor is not prime$"):
        s_set_box(square, LINE, sub, 2, ACT)
    unit = Ideal(RING, [RING.one()], claimed_prime=True)
    with pytest.raises(ValueError, match="^an ideal flagged prime must be proper, not the unit ideal$"):
        s_set_box(LINE, unit, sub, 2, ACT)


# --------------------------------------------------------------- T sets


def test_t_set_of_origin_against_vertical_line():
    I = Ideal(RING, [X, Y], claimed_prime=True, claimed_maximal=True)
    J = Ideal(RING, [X], claimed_prime=True)
    rep = t_set_box(I, J, Lattice(2, [(0, 1)]), 6, ACT)
    assert len(rep.members) == 13
    assert all(g[0] == 0 for g in rep.members)
    assert rep.members[0] == (0, -6) and rep.members[-1] == (0, 6)


def test_t_set_against_translated_point():
    J = point_ideal((0, 0))
    rep = t_set_box(LINE, J, Lattice.standard(2), 3, ACT)
    # moving J by g drags its point to -g, so Tor_1 sees exactly f(-g) = 0
    for g in Lattice.standard(2).points_in_box(3):
        on_line = (2 * (-g[0]) - 3 * (-g[1]) - 1) == 0
        assert (g in rep.members) == on_line


def test_sets_group_members_into_stabiliser_cosets():
    J = point_ideal((1, 0))
    rep = t_set_box(LINE, J, Lattice.standard(2), 4, ACT)
    K = stabiliser(LINE, ACT)
    for rep_elt, members in rep.cosets:
        for m in members:
            assert K.contains(tuple(a - b for a, b in zip(m, rep_elt)))


# ----------------------------------------------------- critical density


def test_critical_density_one_variable():
    R1 = PolyRing(("x",))
    act = TranslationAction.standard(R1)
    report = critical_density_decide((Fraction(5),), act)
    assert report.dense


def test_critical_density_plane_fails_with_witness():
    report = critical_density_decide((Fraction(1), Fraction(2)), ACT)
    assert not report.dense
    assert report.direction == (0, 1)
    assert [str(g) for g in report.witness.gens] == ["x - 1"]
    # the witness line really does trap the whole orbit column
    for t in range(-5, 6):
        assert report.witness.gens[0].eval_at((1, 2 + t)) == 0


def test_critical_density_rank_one_action():
    act = TranslationAction(RING, [[1], [0]])
    report = critical_density_decide((Fraction(0), Fraction(0)), act)
    assert not report.dense
    assert report.direction == (1, 0)
    assert [str(g) for g in report.witness.gens] == ["y"]


def test_critical_density_needs_motion():
    act = TranslationAction(RING, [[0, 0], [0, 0]])
    with pytest.raises(ValueError):
        critical_density_decide((Fraction(0), Fraction(0)), act)


def test_witness_line_is_handed_its_reduced_basis():
    """Seeded: the basis that critical_density_decide hands the witness line
    is the reduced basis Buchberger computes from its generators, for
    random rational points and rational actions of rank 1 to 3 in 2 to 4
    variables, under permuted lex and grevlex orders."""
    rng = random.Random(20261022)
    seen = set()
    for trial in range(240):
        n = 2 + trial % 3
        perm = rng.sample(range(n), n)
        order = (MonomialOrder.lex, MonomialOrder.grevlex)[trial % 2](n, perm)
        ring = PolyRing(tuple("xyzw"[:n]), order)
        d = rng.randint(1, min(3, n))
        entries = (0, 0, 1, -1, 2, 3, Fraction(1, 2), Fraction(-2, 3))
        act = TranslationAction(ring, [[rng.choice(entries) for _ in range(d)] for _ in range(n)])
        rank = len(noether.effective_directions(act))
        if not rank:
            continue
        p = [Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3, 7))) for _ in range(n)]
        witness = critical_density_decide(p, act).witness
        assert witness._gb is not None  # handed on, not computed
        assert witness.groebner_basis() == groebner.reduced_groebner_basis(witness.gens), (p, act.matrix, perm)
        seen.add((n, rank, trial % 2))
    assert {(n, r, o) for n in (2, 3, 4) for r in (1, 2, 3) if r <= n for o in (0, 1)} <= seen, seen


def test_anchor_of_a_point_reads_the_point(monkeypatch):
    """Analysis.anchor of m_p is the least integer zero that the box walk
    finds: p for an integral p in the box, None for an integral p outside
    it and for a p that is not integral; it compiles no zero test."""
    R3 = PolyRing(("x", "y", "z"))
    cases = [
        (RING, (1, -2), 2),
        (RING, (3, 0), 2),
        (RING, (Fraction(1, 2), 1), 4),
        (R3, (0, 2, -2), 2),
        (R3, (0, 2, -3), 2),
        (R3, (Fraction(-7, 3), 1, 0), 3),
    ]
    expected = []
    for ring, p, box in cases:
        I = Ideal(ring, [ring.var(i) - ring.const(c) for i, c in enumerate(p)], claimed_prime=True)
        expected.append(next(box_walk([box] * ring.n, zero_test(I.gens)), None))
    assert expected == [(1, -2), None, None, (0, 2, -2), None, None]

    def refuse(*args):
        raise AssertionError("the anchor compiled a zero test")

    monkeypatch.setattr(noether, "zero_test", refuse)
    for (ring, p, box), zero in zip(cases, expected):
        I = Ideal(ring, [ring.var(i) - ring.const(c) for i, c in enumerate(p)], claimed_prime=True)
        assert analysis(I, TranslationAction.standard(ring)).anchor(box) == zero, p


# ------------------------------------------------------------- verdicts


def test_verdict_pell():
    v, _ = decide(PELL, ACT)
    assert (v.right, v.left) == ("no", "no")
    rules = [c.rule for c in v.certificates]
    assert "PellConic" in rules and "PrincipalConjugation" in rules
    pell_cert = next(c for c in v.certificates if c.rule == "PellConic")
    assert pell_cert.payload["n"] == 7
    assert pell_cert.payload["fundamental"] == [8, 3]


def test_verdict_graph():
    I = Ideal(RING, [X - 7 * Y**2 - 1], claimed_prime=True)
    v, _ = decide(I, ACT)
    assert (v.right, v.left) == ("no", "no")
    cert = next(c for c in v.certificates if c.rule == "GraphCurve")
    # sampled curve points are exact integer witnesses
    for sx, sy in cert.payload["curve_samples"]:
        assert int(sx) - 7 * int(sy) ** 2 - 1 == 0


def test_verdict_line():
    v, _ = decide(LINE, ACT)
    assert (v.right, v.left) == ("yes", "yes")
    assert any(c.rule == "RationalLine" for c in v.certificates)


def test_verdict_smooth_cubic():
    I = Ideal(RING, [Y**2 - X**3 - X - 1], claimed_prime=True)
    v, _ = decide(I, ACT)
    assert (v.right, v.left) == ("yes", "yes")
    cert = next(c for c in v.certificates if c.rule == "GenusAtLeastOne")
    assert cert.payload["genus"] == 1


def test_verdict_maximal_point():
    v, _ = decide(POINT, ACT)
    assert (v.right, v.left) == ("yes", "no")
    cert = next(c for c in v.certificates if c.rule == "MaximalLeftCriticalDensity")
    assert cert.payload["witness_line"] == ["x - 1"]
    witness = analysis(POINT, ACT).density.witness
    assert witness is not None and witness.contains_poly(X - 1)


def test_verdict_one_variable_point():
    R1 = PolyRing(("x",))
    act = TranslationAction.standard(R1)
    I = Ideal(R1, [R1.var(0) - 5], claimed_prime=True, claimed_maximal=True)
    v, _ = decide(I, act)
    assert (v.right, v.left) == ("yes", "yes")


def test_verdict_skew_laurent_example():
    act = TranslationAction(RING, [[1], [0]])
    I = Ideal(RING, [X, Y], claimed_prime=True, claimed_maximal=True)
    v, _ = decide(I, act)
    assert (v.right, v.left) == ("yes", "no")


def test_verdict_trivial_action_saturates():
    act = TranslationAction(RING, [[0, 0], [0, 0]])
    v, _ = decide(POINT, act)
    assert (v.right, v.left) == ("yes", "yes")
    assert all(c.rule == "TrivialComplement" for c in v.certificates)


def test_every_table_rule_fires_and_every_certificate_names_one():
    # a rule that fires nowhere, or a certificate no table lists, is a dead or unlisted entry
    from test_acceptance import VERDICT_TABLE
    from test_golden import CASES, GALLERY, VARS

    inputs = [(POINT, TranslationAction(RING, [[0, 0], [0, 0]]))]
    inputs += [(I, act) for I, act, _, _ in VERDICT_TABLE]
    for name, (gens, flags, matrix, _) in GALLERY.items():
        if f"analyze-{name}" in CASES:
            ring = PolyRing(tuple(VARS.get(name, ["x", "y"])))
            act = TranslationAction(ring, matrix) if matrix else TranslationAction.standard(ring)
            inputs.append((Ideal(ring, [ring.parse(g) for g in gens], **flags), act))
    fired = {rule: set() for rule in RIGHT_RULES + LEFT_RULES}
    produced = set()
    for I, act in inputs:
        verdict, _ = decide(I, act, box=2)
        produced |= {c.rule for c in verdict.certificates}
        # a rule may assume that the entries before it in its table did not fire
        for table in (RIGHT_RULES, LEFT_RULES):
            for rule in table:
                found = rule(analysis(I, act))
                if found is not None:
                    fired[rule].add(found[1].rule)
                    break
    assert all(fired.values()), [rule.__name__ for rule, names in fired.items() if not names]
    named = set().union(*fired.values()) | {"PrincipalConjugation", "BoxEvidenceOnly"}
    assert produced <= named, produced - named


def test_no_verdict_needs_full_rank_translations():
    act = TranslationAction(RING, [[1], [0]])
    right, certs, sets = decide_right(PELL, act)
    assert right == "unknown"
    assert certs[0].rule == "BoxEvidenceOnly"
    assert len(sets) == 1 and sets[0].kind == "S"


def test_unknown_comes_with_evidence():
    cusp = Ideal(RING, [Y**2 - X**3], claimed_prime=True)
    v, sets = decide(cusp, ACT)
    assert (v.right, v.left) == ("unknown", "unknown")
    assert sets and sets[0].members  # cusp has visible integer points
    assert (0, 0) in sets[0].members and (1, 1) in sets[0].members


def test_decide_requires_a_flagged_ideal():
    with pytest.raises(ValueError):
        decide_right(Ideal(RING, [X**2 - 7 * Y**2 - 1]), ACT)
    with pytest.raises(ValueError):
        decide_right(Ideal(RING, []), ACT)
    with pytest.raises(ValueError):
        decide_right(Ideal(RING, [RING.one()]), ACT)


def test_left_verdict_copies_right_for_principal_primes():
    for I in (PELL, LINE):
        r, _, _ = decide_right(I, ACT)
        l, certs, _ = decide_left(I, ACT)
        assert r == l
        assert certs[0].rule == "PrincipalConjugation"


# --------------------------------------------------------------- probes


def test_growth_probe_and_component_test_refuse_bad_arguments():
    with pytest.raises(ValueError, match="at least one radius"):
        growth_probe(PELL, point_ideal((1, 0)), ACT, "right", [])
    with pytest.raises(ValueError, match="side must be"):
        component_test(PELL, point_ideal((1, 0)), ACT, "up")


def test_growth_probe_pell_right_is_growing():
    J = point_ideal((1, 0))
    probe = growth_probe(PELL, J, ACT, "right", [2, 4, 8, 130])
    assert probe.counts == (2, 2, 4, 10)
    assert probe.flag == "growing"


def test_growth_probe_pell_left_matches_right():
    J = point_ideal((1, 0))
    probe = growth_probe(PELL, J, ACT, "left", [2, 4, 8, 130])
    assert probe.counts == (2, 2, 4, 10)
    assert probe.flag == "growing"


def test_growth_probe_cubic_stabilises():
    I = Ideal(RING, [Y**2 - X**3 - X - 1], claimed_prime=True)
    J = point_ideal((0, 1))
    probe = growth_probe(I, J, ACT, "right", [2, 4, 8, 30])
    assert probe.counts == (2, 2, 2, 2)
    assert probe.flag == "stabilising"


def test_right_colon_probe_builds_one_colon(monkeypatch):
    """Against a J not flagged prime, the right component test runs every g
    through one ``colon_components(J, I)``: J's facts are read once, not per
    g."""
    read = []
    original = noether.primary_point

    def counting(J):
        read.append(J)
        return original(J)

    monkeypatch.setattr(noether, "primary_point", counting)
    J = Ideal(RING, [X * Y])
    probe = growth_probe(Ideal(RING, [X]), J, ACT, "right", [1, 2])
    assert probe.counts == (1, 1)
    assert read == [J]


def test_growth_probe_line_collapses_to_one_class():
    J = point_ideal((2, 1))
    probe = growth_probe(LINE, J, ACT, "right", [2, 4, 8])
    assert probe.counts == (1, 1, 1)
    assert probe.flag == "stabilising"


def test_growth_probe_general_route_against_fast_route():
    J = point_ideal((1, 0))
    unflagged = Ideal(RING, [X - 1, Y])  # no maximality hint: general colon route
    fast = growth_probe(PELL, J, ACT, "right", [2, 3])
    general = growth_probe(PELL, unflagged, ACT, "right", [2, 3])
    assert fast.counts == general.counts


def test_left_probe_against_itself_translates_each_pair_once(monkeypatch):
    """<2y - 2x^2 - 1, z - x^3> has no integer zero (2y - 2x^2 is even), so
    ``analyze`` probes it against I itself.  The left probe and the T-set
    test each pair {g, -g} once: 63 translates in the box of radius 2, not
    125, with the counts of a test of every g."""
    R3 = PolyRing(("x", "y", "z"))
    I = Ideal(R3, [R3.parse("2*y - 2*x^2 - 1"), R3.parse("z - x^3")], claimed_prime=True)
    act = TranslationAction.standard(R3)
    box = set(box_walk([2] * 3))
    expected = {g for g in box if not tor1(I, act_on_ideal(I, g, act)).is_zero}
    original = noether.act_on_ideal
    translated = []

    def recording(J, g, act):
        translated.append(g)
        return original(J, g, act)

    monkeypatch.setattr(noether, "act_on_ideal", recording)
    probe = growth_probe(I, I, act, "left", [1, 2])
    pairs = {min(g, tuple(-x for x in g)) for g in box}
    assert len(translated) == len(pairs) == 63
    assert {min(g, tuple(-x for x in g)) for g in translated} == pairs
    assert probe.counts == (sum(max(map(abs, g)) <= 1 for g in expected), len(expected)) == (5, 7)
    translated.clear()
    report = t_set_box(I, I, Lattice.standard(3), 2, act)
    assert len(translated) == 63
    assert set(report.members) == expected


def _probe_configs(monkeypatch):
    """(label, I, act, box, radii): every golden analyze config, and one
    seeded config per plane2 family."""
    from test_golden import CASES, GALLERY, VARS

    for name, (gens, flags, matrix, opts) in GALLERY.items():
        if f"analyze-{name}" in CASES:
            ring = PolyRing(tuple(VARS.get(name, ["x", "y"])))
            act = TranslationAction(ring, matrix) if matrix else TranslationAction.standard(ring)
            I = Ideal(ring, [ring.parse(g) for g in gens], **flags)
            yield name, I, act, opts.get("box", 8), opts.get("probe_radii", [2, 4, 8])
    for case in benchmark_cases(monkeypatch, ("plane2",), seed=3, cycles=1):
        cfg = case.config
        ring = PolyRing(tuple(cfg["ring"]["vars"]))
        matrix = cfg.get("action", {}).get("matrix")
        act = TranslationAction(ring, matrix) if matrix else TranslationAction.standard(ring)
        gens, flags = cfg["ideal"]["generators"], dict(cfg["ideal"])
        del flags["generators"]
        I = Ideal(ring, [ring.parse(g) for g in gens], **flags)
        yield case.family, I, act, cfg["options"]["box"], cfg["options"]["probe_radii"]


def test_left_probe_against_a_point_target_mirrors_the_right_probe(monkeypatch):
    """Against the point target m_p that ``analyze`` probes, the left probe is
    the right probe with side="left" (g -> -g), on every golden analyze
    config and one config per plane2 family."""
    mirrored = []
    for label, I, act, box, radii in _probe_configs(monkeypatch):
        target = analysis(I, act).target(box)
        if analysis(target, act).point is None:
            continue  # no integer zero in the box: the target is I itself
        right = growth_probe(I, target, act, "right", radii)
        assert replace(right, side="left") == growth_probe(I, target, act, "left", radii), label
        mirrored.append(label)
    assert len(mirrored) >= 20, mirrored
    assert {"pell", "point", "rank_one", "rational", "space_conic", "one_var_point", "pell_rational"} <= set(
        mirrored
    )


def _counts_by_walk(I, act, radii):
    """The probe counts of the member test g in K, by an explicit walk."""
    K = analysis(I, act).K
    least = {}
    for g in box_walk([max(radii)] * act.d, K.contains):
        key, norm = K.reduce(g)[1], max(map(abs, g))
        least[key] = min(norm, least.get(key, norm))
    return tuple(sum(norm <= r for norm in least.values()) for r in radii)


def test_growth_probe_against_I_reads_K_without_a_walk(monkeypatch):
    cases = [
        # no integer zeros: 2x - 2y is even, and y^2 = x^3 + 7 has no integer solution
        (Ideal(RING, [2 * X - 2 * Y - 1], claimed_prime=True), ACT),
        (Ideal(RING, [Y**2 - X**3 - 7], claimed_prime=True), ACT),
        # a rank-1 action along the line: K is all of Z, and the box is one class
        (Ideal(RING, [X - Y - 1], claimed_prime=True), TranslationAction(RING, [[1], [1]])),
    ]
    radii = (0, 2, 8)  # radius 0: the class of K enters at norm 0
    assert [analysis(I, act).anchor(8) for I, act in cases[:2]] == [None, None]
    walked = [_counts_by_walk(I, act, radii) for I, act in cases]
    assert walked == [(1, 1, 1)] * 3
    # the rank-1 case walks 17 members of K in one class
    assert len(list(box_walk([8], analysis(*cases[2]).K.contains))) == 17

    def no_walk(*args):
        raise AssertionError("the probe walked a box")

    monkeypatch.setattr(noether, "box_walk", no_walk)
    for (I, act), counts in zip(cases, walked):
        for side in ("right", "left"):
            assert component_test(I, I, act, side) == analysis(I, act).K.contains
            probe = growth_probe(I, I, act, side, radii)
            assert (probe.counts, probe.flag) == (counts, "stabilising")


def _point_counts_by_brute_force(p, act, radii):
    """The probe counts of the K-classes of {g in the box : p + A g = p},
    from a plain loop over the box in Fractions."""
    K = analysis(Ideal(act.ring, [X - RING.const(p[0]), Y - RING.const(p[1])]), act).K
    least = {}
    for g in itertools.product(range(-max(radii), max(radii) + 1), repeat=act.d):
        if all(sum(a * x for a, x in zip(row, g)) == 0 for row in act.matrix):
            key, norm = K.reduce(g)[1], max(map(abs, g))
            least[key] = min(norm, least.get(key, norm))
    return tuple(sum(norm <= r for norm in least.values()) for r in radii)


def test_growth_probe_against_the_ideal_own_point_reads_K(monkeypatch):
    """m_p flagged maximal, probed against the point ideal of its own point
    (the default target of ``analyze``), under the standard action, a rank-one
    action with a kernel and a rational action: on both sides the member test
    is g in K, so the probe compiles no zero test and walks no box, and its
    counts are those of the K-classes of {g : p + A g = p} in each box."""
    cases = [
        ((1, 2), ACT),
        ((-3, 0), TranslationAction(RING, [[1, 2], [0, 0]])),  # K is spanned by (2, -1)
        ((Fraction(1, 2), 3), TranslationAction(RING, [[Fraction(1, 2), 0], [0, Fraction(1, 2)]])),
    ]
    radii = (0, 1, 3)
    expected = [_point_counts_by_brute_force(p, act, radii) for p, act in cases]
    assert expected == [(1, 1, 1)] * 3
    assert len(list(box_walk([3, 3], analysis(POINT, cases[1][1]).K.contains))) == 3

    def refuse(*args):
        raise AssertionError("the probe compiled a zero test or walked a box")

    monkeypatch.setattr(noether, "zero_test", refuse)
    monkeypatch.setattr(noether, "box_walk", refuse)
    for (p, act), counts in zip(cases, expected):
        I = Ideal(RING, [X - RING.const(p[0]), Y - RING.const(p[1])], claimed_maximal=True)
        for side in ("right", "left"):
            J = noether.point_ideal(RING, [Fraction(c) for c in p])
            assert component_test(I, J, act, side) == analysis(I, act).K.contains
            probe = growth_probe(I, J, act, side, radii)
            assert (probe.counts, probe.flag) == (counts, "stabilising"), (p, side)


def test_principal_prime_against_itself_reads_K_on_both_sides(monkeypatch):
    """J = I a principal prime, the same ideal or an equal one flagged
    prime: on both sides the component test is the stabiliser's
    ``contains``, so the probe compiles no zero test and walks no box."""

    def refuse(*args):
        raise AssertionError("the probe compiled a zero test or walked a box")

    monkeypatch.setattr(noether, "zero_test", refuse)
    monkeypatch.setattr(noether, "box_walk", refuse)
    for I, act in (
        (PELL, ACT),
        (LINE, ACT),
        (Ideal(RING, [X**2 - 2 * Y**2 - 1], claimed_prime=True), TranslationAction(RING, [[1, 1], [0, 0]])),
        (Ideal(RING, [Y**2 - X**3], claimed_prime=True), TranslationAction(RING, [[Fraction(1, 2), 0], [0, 1]])),
    ):
        K = analysis(I, act).K
        for J in (I, Ideal(RING, I.gens, claimed_prime=True)):
            for side in ("right", "left"):
                assert component_test(I, J, act, side) == K.contains
                probe = growth_probe(I, J, act, side, (1, 3))
                assert (probe.counts, probe.flag) == ((1, 1), "stabilising"), (I, side)


def test_left_probe_against_an_unflagged_copy_reads_the_source_K(monkeypatch):
    """I a principal prime, J an equal ideal not flagged prime: the left rule
    'I flagged prime, J = (h)' asks whether J^g lies in I, which is g in K.
    K is the source's, the one the probe compares against, so one
    stabiliser is computed in all and the left probe walks no box; the
    right probe reads the colon rule and walks, with the same counts."""
    computed, walks = [], []
    build, walk = noether.stabiliser, noether.box_walk
    monkeypatch.setattr(noether, "stabiliser", lambda I, act: computed.append(I) or build(I, act))
    monkeypatch.setattr(noether, "box_walk", lambda *args: walks.append(args) or walk(*args))
    for I, act in (
        (Ideal(RING, PELL.gens, claimed_prime=True), ACT),
        (Ideal(RING, LINE.gens, claimed_prime=True), TranslationAction(RING, [[Fraction(1, 2), 0], [0, 1]])),
    ):
        computed.clear()
        J = Ideal(RING, I.gens)
        assert component_test(I, J, act, "left") == analysis(I, act).K.contains
        left = growth_probe(I, J, act, "left", (2, 8, 30))
        assert (walks, computed) == ([], [I])
        right = growth_probe(I, J, act, "right", (2, 8, 30))
        assert left.counts == right.counts == (1, 1, 1)
        assert computed == [I]
        walks.clear()


def test_growth_probe_of_a_curve_against_its_anchor_still_walks(monkeypatch):
    """A Pell conic against the point ideal of its least integer zero in the
    box, where J != I, compiles one zero test and finds the other integer
    points of the conic: (-8, 3), (-1, 0), (1, 0), (8, -3) and (8, 3) from
    (-8, -3), at sup-norms 6, 7, 9, 16 and 16."""
    compiled = []
    build = noether.zero_test
    monkeypatch.setattr(noether, "zero_test", lambda *args: compiled.append(args) or build(*args))
    target = analysis(PELL, ACT).target(8)  # the anchor's search compiles its own test
    assert analysis(target, ACT).point == (-8, -3)
    compiled.clear()
    probe = growth_probe(PELL, target, ACT, "right", (2, 6, 8, 16))
    assert len(compiled) == 1
    assert (probe.counts, probe.flag) == ((1, 2, 3, 6), "growing")


def test_integer_zeros_in_box():
    zeros = list(box_walk([8, 8], zero_test(PELL.gens)))
    assert zeros == [(-8, -3), (-8, 3), (-1, 0), (1, 0), (8, -3), (8, 3)]
    assert analysis(PELL, ACT).anchor(8) == (-8, -3)
    assert analysis(Ideal(RING, [X**2 + Y**2 - 3]), ACT).anchor(8) is None


# ------------------------------------------------------ component test


R3 = PolyRing(("x", "y", "z"))
X3, Y3, Z3 = R3.var(0), R3.var(1), R3.var(2)


def _component_cases():
    """(label, I, J, act) over ideals, targets and actions in 2 and 3 variables."""
    ideals = {  # each with a rational point on its zero set
        "cusp": (Ideal(RING, [Y**2 - X**3], claimed_prime=True), (1, 1)),
        "line": (LINE, (2, 1)),
        # principal, not flagged prime, a translate of the "other" target
        "unflagged": (Ideal(RING, [X - Y + 1]), (0, 1)),
        "point": (POINT, (1, 2)),
        "parabola": (Ideal(R3, [Z3 - 1, Y3 - X3**2], claimed_prime=True), (1, 1, 1)),
    }
    actions = {
        RING: [
            ACT,
            TranslationAction(RING, [[1, 1], [0, 0]]),
            TranslationAction(RING, [["1/2", 0], [0, 1]]),
        ],
        R3: [TranslationAction.standard(R3)],
    }
    others = {  # principal and non-principal primes
        RING: [Ideal(RING, [X - Y], claimed_prime=True)],
        R3: [
            Ideal(R3, [X3 - Y3, Z3 - 1], claimed_prime=True),
            Ideal(R3, [X3 - Y3], claimed_prime=True),
            Ideal(R3, [Z3 - 2], claimed_prime=True),  # holds a translate of the parabola
        ],
    }
    for name, (I, p) in ideals.items():
        ring = I.ring
        point = Ideal(
            ring,
            [ring.var(i) - ring.const(c) for i, c in enumerate(p)],
            claimed_prime=True,
            claimed_maximal=True,
        )
        targets = {
            "point": point,
            "itself": I,
            **{f"other{k}": J for k, J in enumerate(others[ring])},
            "zero": Ideal(ring, []),
            "unit": unit_ideal(ring),
        }
        for a, act in enumerate(actions[ring]):
            for t, J in targets.items():
                yield f"{name}-{t}-act{a}", I, J, act


def _component_by_definition(I, J, act, side, g):
    if side == "left":
        return not tor1(I, act_on_ideal(J, g, act)).is_zero
    moved = act_on_ideal(I, g, act)
    if J.claimed_prime:
        return ideal_contains(J, moved)
    return not ideal_equal(ideal_quotient(J, moved), J)


@pytest.mark.parametrize("side", ["right", "left"])
def test_component_test_agrees_with_the_definitions(side):
    for label, I, J, act in _component_cases():
        nonzero = component_test(I, J, act, side)
        for g in Lattice.standard(act.d).points_in_box(1):
            expected = _component_by_definition(I, J, act, side, g)
            assert nonzero(g) == expected, (label, side, g)


R4 = PolyRing(("x", "y", "z", "w"))
X4, Y4, Z4, W4 = R4.var(0), R4.var(1), R4.var(2), R4.var(3)


def _left_pairs():
    """(label, I, J, dimension rule applies) in 3 and 4 variables, none of
    them reaching the point or principal rules of ``component_test``."""
    twisted = Ideal(R3, [Y3 - X3**2, Z3 - X3**3], claimed_prime=True)
    line = Ideal(R3, [X3 - Y3, Z3], claimed_prime=True)
    two_lines = Ideal(R3, [X3 * Y3, Z3])  # the x- and y-axes: not prime
    plane = Ideal(R3, [Z3 - X3])  # unflagged, so no principal rule
    transversal = Ideal(R3, [X3, Y3])  # meets the plane in a point
    parallel = Ideal(R3, [Y3, Z3 - X3 - 1])  # in a translate of the plane
    yield "twisted-itself", twisted, twisted, True
    yield "line-twisted", line, twisted, True
    yield "two_lines-twisted", two_lines, twisted, True
    yield "two_lines-line", two_lines, line, True
    # dim C/I + dim C/J = n: only a unit sum settles a component
    yield "plane-transversal", plane, transversal, False
    yield "plane-parallel", plane, parallel, False
    curve4 = Ideal(R4, [Y4 - X4**2, Z4 - X4**3, W4 - 1], claimed_prime=True)
    line4 = Ideal(R4, [X4 - Y4, Z4, W4], claimed_prime=True)
    plane4 = Ideal(R4, [X4, Y4], claimed_prime=True)
    yield "curve-line-4", curve4, line4, True
    yield "plane-curve-4", plane4, curve4, True
    yield "plane-plane-4", plane4, Ideal(R4, [Z4, W4 - X4], claimed_prime=True), False


@pytest.mark.parametrize("label", [case[0] for case in _left_pairs()])
def test_left_component_rules_agree_with_tor(label, monkeypatch):
    import idealiser.noether as noether

    _, I, J, by_dimension = next(case for case in _left_pairs() if case[0] == label)
    act = TranslationAction.standard(I.ring)
    assert (analysis(I, act).dim + analysis(J, act).dim < I.ring.n) == by_dimension
    tor_tests = []
    monkeypatch.setattr(
        noether, "tor1_is_zero", lambda A, B: tor_tests.append(B) or tor1_is_zero(A, B)
    )
    nonzero = component_test(I, J, act, "left")
    box = Lattice.standard(act.d).points_in_box(1)
    got = [nonzero(g) for g in box]
    # the Tor module itself, restored from the module under test
    monkeypatch.undo()
    expected = [not tor1(I, act_on_ideal(J, g, act)).is_zero for g in box]
    assert got == expected
    if by_dimension:
        assert any(got) and tor_tests == []
    else:  # the proper sums went on to the Tor module
        assert tor_tests


def test_conic3_t_set_needs_no_intersection(monkeypatch):
    import idealiser.groebner as groebner
    import idealiser.noether as noether

    calls = []
    for module in (groebner, noether):
        real = module.ideal_intersect
        monkeypatch.setattr(
            module, "ideal_intersect", lambda A, B, _real=real: calls.append(A) or _real(A, B)
        )
    conic = Ideal(R3, [Z3 - 1, (X3 - 1) ** 2 - 7 * (Y3 + 1) ** 2 - 1], claimed_prime=True)
    act = TranslationAction.standard(R3)
    report = t_set_box(conic, conic, analysis(conic, act).H, 2, act)
    assert report.members and calls == []


# ---------------------------------------------------- space curves

LINE3 = Ideal(R3, [X3 - 1 - 2 * (Z3 - 1), Y3 + 1 - (Z3 - 1)], claimed_prime=True)
CONIC3 = Ideal(R3, [Z3 - 1, (X3 - 1) ** 2 - 2 * (Y3 + 1) ** 2 - 1], claimed_prime=True)
PARABOLA3 = Ideal(R3, [Z3 + 1 - (X3 - 1) ** 2, Y3 - 1], claimed_prime=True)
TWISTED3 = Ideal(R3, [Y3 - X3**2, Z3 - X3**3], claimed_prime=True)


def _curve_pairs():
    """(label, I, J, act): the four space curves against themselves under
    the standard action, a pair under a rational A, and pairs with d != n;
    none reaches the point or principal rules of ``component_test``."""
    standard = TranslationAction.standard(R3)
    for label, C in [
        ("line", LINE3), ("conic", CONIC3), ("parabola", PARABOLA3), ("twisted", TWISTED3)
    ]:
        yield label, C, C, standard
    # the x-axis meets a translate of the twisted cubic at t = 0, and at
    # t = +-1 when g_2 = -2, as the y-move is halved
    x_axis = Ideal(R3, [Y3, Z3], claimed_prime=True)
    rational = TranslationAction(R3, [[1, 0, 0], [0, "1/2", 0], [0, 0, 1]])
    yield "rational", TWISTED3, x_axis, rational
    # d = 2, no y-move: a line in the conic's plane meets it after any x-move
    in_plane = Ideal(R3, [Z3 - 1, Y3 + 1], claimed_prime=True)
    yield "d2", CONIC3, in_plane, TranslationAction(R3, [[1, 0], [0, 0], [0, 1]])
    yield "d4", PARABOLA3, TWISTED3, TranslationAction(R3, [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 0]])


def _proper_sum(I, J, act, g):
    """The unfiltered test: I + J^g is not the unit ideal."""
    return not ideal_sum(I, act_on_ideal(J, g, act)).is_unit_ideal()


@pytest.mark.parametrize("label", [case[0] for case in _curve_pairs()])
def test_difference_filter_keeps_every_proper_sum(label, monkeypatch):
    """The T-set is the g with a proper sum I + J^g, by brute force.  A
    section settles it with no translate; any other pair builds J^g once per
    g, and a T-set of I against itself once per pair {g, -g}, at its first
    member in box order."""
    import idealiser.noether as noether

    _, I, J, act = next(case for case in _curve_pairs() if case[0] == label)
    radius = 2 if act.d < 4 else 1
    box = Lattice.standard(act.d).points_in_box(radius)
    proper = [g for g in box if _proper_sum(I, J, act, g)]
    assert proper and len(proper) < len(box)
    # every curve pair here has dim C/I + dim C/J < n, so the T-set is the proper sums
    assert analysis(I, act).dim + analysis(J, act).dim < I.ring.n
    moved = []
    monkeypatch.setattr(
        noether, "act_on_ideal", lambda A, g, a: moved.append(g) or act_on_ideal(A, g, a)
    )
    report = t_set_box(I, J, Lattice.standard(act.d), radius, act)
    assert list(report.members) == proper
    if J is I and analysis(I, act).section is not None:  # a line or a plane section of a quadric
        assert moved == []
    elif J is I:
        assert moved == [g for k, g in enumerate(box) if tuple(-x for x in g) not in box[:k]]
    else:
        assert moved == box


def test_left_route_of_a_quadric_pair_runs_no_elimination(monkeypatch):
    """Two ideals of quadrics with dim C/I + dim C/J = 2 < 3, whose
    elimination of I(x) + J(x + A s) runs past a minute although the pair
    budget is set: the T-set reads each sum I + J^g from its own basis, so
    it is the proper sums of the box, found with no elimination at all."""
    original = groebner.reduced_groebner_basis

    def refusing(gens):  # an elimination runs in a ring under the block order
        assert not (gens and isinstance(gens[0].ring.order, _ElimOrder)), "an elimination ran"
        return original(gens)

    monkeypatch.setattr(groebner, "reduced_groebner_basis", refusing)
    I = Ideal(R3, [-2 * X3 * Y3 - 2 * X3 * Z3 + 2, 2 * X3 * Y3 + Z3**2 + 1])
    J = Ideal(R3, [-(X3**2) - Y3 - 1, Y3**2])
    act = TranslationAction.standard(R3)
    assert analysis(I, act).dim + analysis(J, act).dim < R3.n
    box = Lattice.standard(3).points_in_box(1)
    report = t_set_box(I, J, Lattice.standard(3), 1, act)
    assert list(report.members) == [g for g in box if _proper_sum(I, J, act, g)]
    assert report.members == ((0, 0, -1), (0, 0, 0), (0, 0, 1))


def _section_ideal(rng, ring):
    """Up to n - 1 random affine-linear forms, and one of: no quadric, a
    random quadric whose few monomials often leave its Hessian singular, or
    a pair of parallel hyperplanes (v.x - r)(v.x - s), whose translates meet
    it only at some lengths of a move, so that its T-set is no cone."""
    n = ring.n

    def form(coefficients):
        support = rng.sample(range(n), rng.randint(1, n))
        return sum((rng.choice(coefficients) * ring.var(i) for i in support), ring.const(0))

    quadrics = [m for m in itertools.product(range(3), repeat=n) if sum(m) == 2]
    gens = [form((-2, -1, 1, 2)) + rng.randint(-2, 2) for _ in range(rng.randint(0, n - 1))]
    kind = rng.randrange(3)
    if kind == 1:
        terms = {m: rng.choice((-3, -1, 1, 2)) for m in rng.sample(quadrics, rng.randint(1, 2))}
        for i in rng.sample(range(n), rng.randint(0, 2)):
            terms[tuple(int(i == j) for j in range(n))] = rng.choice((-1, 1, 2))
        terms[(0,) * n] = rng.randint(-2, 2)
        gens.append(Poly(ring, terms))
    elif kind == 2:
        v = form((-1, 1))
        gens.append((v - rng.randint(-2, 2)) * (v - rng.randint(-2, 2)))
    return Ideal(ring, gens or [ring.var(0) - 1])


def test_section_test_agrees_with_the_sum_basis():
    """``Analysis.section`` against brute force, not ideal_sum(I, I^g).is_unit_ideal(),
    on random ideals of affine-linear forms and at most one quadric in 2 to 4
    variables, under grevlex and lex, and the standard, a rank-deficient and a
    rational action; ideals whose reduced basis is outside that class get None."""
    rng = random.Random(2026)
    seen = {"proper": 0, "unit": 0, "proper off 0": 0, "outside": 0}
    for n in (2, 3, 4):
        for order in (MonomialOrder.grevlex(n), MonomialOrder.lex(n)):
            ring = PolyRing(("x", "y", "z", "w")[:n], order)
            x = ring.var
            column = [rng.choice((0, 1, -1, 2)) for _ in range(n)]
            actions = [
                TranslationAction.standard(ring),
                TranslationAction(ring, [[c, 2 * c] for c in column]),  # rank at most 1
                TranslationAction(ring, [[rng.choice((0, 1, "1/2", "-1/2")) for _ in range(n)] for _ in range(n)]),
            ]
            outside = [
                Ideal(ring, [x(0) * x(1) - 1, x(0) ** 2 - x(1)]),  # two quadrics in its basis
                Ideal(ring, [x(1) - x(0) ** 3]),
                Ideal(ring, [x(0), x(0) - 1]),  # the unit ideal
            ]
            for act in actions:
                for I in outside:
                    assert analysis(I, act).section is None
                    seen["outside"] += 1
                for _ in range(8):
                    I = _section_ideal(rng, ring)
                    degrees = sorted(f.degree() for f in I.groebner_basis())
                    section = analysis(I, act).section
                    if not set(degrees) <= {1, 2} or degrees.count(2) > 1:
                        assert section is None, I.groebner_basis()
                        seen["outside"] += 1
                        continue
                    for g in Lattice.standard(act.d).points_in_box(2 if n == 2 else 1):
                        expected = _proper_sum(I, I, act, g)
                        assert section(g) == expected, (I.groebner_basis(), act.matrix, g)
                        seen["proper" if expected else "unit"] += 1
                        seen["proper off 0"] += expected and any(act.translation(g))
    assert sum(seen.values()) > 2000 and all(seen.values()), seen


@pytest.mark.parametrize(
    "generator", ["(x - y)^2", "(x^2 + y^2 - 2)^2*(x - 1)", "(x - 1)^2"]
)
def test_repeated_factor_is_refused(generator):
    ring = PolyRing(("x", "y")) if "y" in generator else PolyRing(("x",))
    I = Ideal(ring, [ring.parse(generator)], claimed_prime=True)
    act = TranslationAction.standard(ring)
    assert analysis(I, act).repeated_factor
    for decide_side in (decide_right, decide_left):
        with pytest.raises(ValueError, match="repeated factor"):
            decide_side(I, act)
    # as a source or a target of a graded-component test
    other = Ideal(ring, [ring.var(0) - 3], claimed_prime=True)
    for source, target in ((I, other), (other, I)):
        for side in ("right", "left"):
            with pytest.raises(ValueError, match="repeated factor"):
                component_test(source, target, act, side)


@pytest.mark.parametrize("generator", ["y^2 - x^3", "x^2 + y^2", "x^2 - 7*y^2 - 1", "x*y - 1"])
def test_squarefree_principal_primes_are_accepted(generator):
    I = Ideal(RING, [RING.parse(generator)], claimed_prime=True)
    assert not analysis(I, ACT).repeated_factor
    decide(I, ACT, box=2)


def test_benchmark_families_have_no_repeated_factor(monkeypatch):
    for case in benchmark_cases(monkeypatch):
        ring = PolyRing(tuple(case.config["ring"]["vars"]))
        I = Ideal(ring, [ring.parse(s) for s in case.config["ideal"]["generators"]])
        assert not analysis(I, TranslationAction.standard(ring)).repeated_factor, case.family


def test_gcd_certificates_on_every_plane2_curve(monkeypatch):
    """On every plane2 pool curve at seeds 1 and 7: the discriminant test
    never fires where the projective smoothness basis gives pure powers,
    and the squarefree certificate passes no curve that the basis finds
    repeated (none is)."""
    fired = passed = 0
    for seed in (1, 7):
        for case in benchmark_cases(monkeypatch, ("plane2",), seed, 100):
            generators = case.config["ideal"]["generators"]
            if len(generators) != 1:
                continue
            f = RING.parse(generators[0])
            if f.degree() >= 3:
                singular = _singular_by_discriminant(f)
                assert not (singular and _projective_smoothness(f)), f
                fired += singular
            squarefree = _repeated_by_gcds(f) is False
            assert not (squarefree and repeated_by_basis(f)), f
            passed += squarefree
    assert fired == 400 and passed == 2200  # every cusp and nodal cubic; every curve


def test_point_ideal_is_handed_its_reduced_basis():
    """The seeded basis of m_p is the reduced basis of its generators, for
    random rational points under grevlex, lex and a permuted lex."""
    rng = random.Random(28)
    for n in (1, 2, 3):
        names = ("x", "y", "z")[:n]
        perm = list(range(n))[::-1]
        for order in (MonomialOrder.grevlex(n), MonomialOrder.lex(n), MonomialOrder.lex(n, perm)):
            ring = PolyRing(names, order)
            for _ in range(4):
                p = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
                I = noether.point_ideal(ring, p)
                assert I.groebner_basis() == groebner.reduced_groebner_basis(I.gens), (order, p)
                assert groebner.rational_point_of(I) == tuple(p)


def test_point_ideal_is_the_difference_of_a_variable_and_a_constant():
    """The generators built from ints are ``var(i) - const(p_i)``, on random
    rational and integer points, and the ideal carries both flags."""
    rng = random.Random(35)
    for n in (1, 2, 3):
        ring = PolyRing(("x", "y", "z")[:n])
        for _ in range(10):
            p = [rng.choice((rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 5)))) for _ in range(n)]
            I = noether.point_ideal(ring, p)
            assert list(I.gens) == [ring.var(i) - ring.const(p[i]) for i in range(n)], p
            assert (I.claimed_prime, I.claimed_maximal) == (True, True)
            assert sorted(map(str, I.groebner_basis())) == sorted(map(str, I.gens))


def _random_form(rng, degree):
    """A seeded random plane polynomial of the given total degree."""
    monos = [(i, j) for i in range(degree + 1) for j in range(degree + 1 - i)]
    terms = {m: rng.randint(-3, 3) for m in rng.sample(monos, min(len(monos), rng.randint(2, 4)))}
    terms[rng.choice([(degree - i, i) for i in range(degree + 1)])] = rng.choice((-2, -1, 1, 2))
    return Poly(RING, terms)


def _pell_shaped(rng):
    """scale*((u - c1)^2 - n*(w - c2)^2 - 1), u and w the two variables in
    either order, for a random nonsquare n."""
    n = rng.choice([m for m in range(2, 30) if math.isqrt(m) ** 2 != m])
    u, w = (X, Y) if rng.randint(0, 1) else (Y, X)
    c1, c2 = rng.randint(-4, 4), rng.randint(-4, 4)
    return rng.randint(1, 3) * ((u - c1) ** 2 - n * (w - c2) ** 2 - 1)


def _graph_shaped(rng):
    """a*x_i + r(x_j) with deg r in {2, 3}."""
    u, w = (X, Y) if rng.randint(0, 1) else (Y, X)
    r = sum((rng.randint(-3, 3) * w**k for k in range(rng.randint(2, 3))), RING.zero())
    return rng.choice((-2, -1, 1, 3)) * u + r + rng.choice((-1, 1, 2)) * w ** rng.randint(2, 3)


def _smooth_cubic(rng):
    """A Weierstrass cubic y^2 - x^3 - a*x - b with 4a^3 + 27b^2 != 0,
    whose projective closure is smooth, in either variable order."""
    while True:
        a, b = rng.randint(-4, 4), rng.randint(-4, 4)
        if 4 * a**3 + 27 * b**2:
            u, w = (X, Y) if rng.randint(0, 1) else (Y, X)
            return w**2 - u**3 - a * u - b


def test_proved_prime_never_proves_a_reducible_polynomial():
    """Seeded products g*h and squares of random lines, conics (Pell-shaped
    ones included), graph-shaped factors and cubics are never proved prime,
    whatever their flag; nor is a non-radical ideal of two points."""
    rng = random.Random(2801)
    makers = [
        lambda: _random_form(rng, 1),
        lambda: _random_form(rng, 2),
        lambda: _pell_shaped(rng),
        lambda: _graph_shaped(rng),
        lambda: _random_form(rng, 3),
        lambda: _smooth_cubic(rng),
    ]
    products = 0
    for _ in range(60):
        f = rng.choice(makers)()
        g = f if rng.randint(0, 3) == 0 else rng.choice(makers)()
        if f.is_constant() or g.is_constant():
            continue
        for flag in (False, True):
            assert not analysis(Ideal(RING, [f * g], claimed_prime=flag), ACT).proved_prime, (f, g)
        products += 1
    assert products > 40
    assert not analysis(Ideal(RING, [(X - 1) * (X - 2), Y]), ACT).proved_prime
    assert not analysis(Ideal(RING, [RING.one()], claimed_prime=True), ACT).proved_prime


def _table_against_the_colons(I, act, box=2):
    for g, entry in quotient_table(I, I, act, box).items():
        expected = ideal_quotient(I, act_on_ideal(I, g, act))
        assert entry.groebner_basis() == expected.groebner_basis(), (I, g)


def test_two_lines_table_builds_no_general_colon(monkeypatch):
    """Each pair of a table of two lines (x - 2y - 1)(x + y - 3) that
    shares a factor, g along one of the lines, has the principal sum
    (f, f^g) = (l): the entry is (f / l), with no ideal_quotient; the table
    still equals the definition."""
    I = Ideal(RING, [(X - 2 * Y - 1) * (X + Y - 3)])
    monkeypatch.setattr(noether, "ideal_quotient", None)
    table = quotient_table(I, I, ACT, 2)
    monkeypatch.undo()
    for g in ((2, 1), (-2, -1), (1, -1), (-2, 2)):
        assert table[g].groebner_basis() != I.groebner_basis(), g
    for g, entry in table.items():
        assert entry.groebner_basis() == ideal_quotient(I, act_on_ideal(I, g, ACT)).groebner_basis(), g


def test_principal_sum_entries_match_the_definition_at_both_members():
    """(f : f^g) = (f / h) for the principal sum (f, f^g) = (h), and at -g
    the entry divides by h^-g: for a line times a circle translated along
    the line, and for x*(x - 1), whose gcd at (1, 0) is x and at (-1, 0)
    is x - 1.  Each pair is asked from either member first."""
    cases = [
        ((X - 2 * Y - 1) * (X**2 + Y**2 - 5), [(2, 1), (4, 2)]),
        (X * (X - 1), [(1, 0), (1, 1)]),
    ]
    for f, gs in cases:
        I = Ideal(RING, [f])
        for sign in (1, -1):
            component = noether.colon_components(I, I, ACT)
            for g in gs:
                for h in (tuple(sign * x for x in g), tuple(-sign * x for x in g)):
                    expected = ideal_quotient(I, act_on_ideal(I, h, ACT))
                    assert component(h).groebner_basis() == expected.groebner_basis(), (f, h)
    shifted = noether.colon_components(Ideal(RING, [X * (X - 1)]), Ideal(RING, [X * (X - 1)]), ACT)
    assert [str(shifted(g).groebner_basis()[0]) for g in ((1, 0), (-1, 0))] == ["x - 1", "x"]


def test_a_false_prime_flag_on_a_product_gets_the_honest_table():
    f = (X - Y**3) * (X + 1)
    I = Ideal(RING, [f], claimed_prime=True)
    assert not analysis(I, ACT).proved_prime
    _table_against_the_colons(I, ACT)


def test_proved_prime_tables_equal_the_colons_of_each_translate():
    """Seeded lines, Pell conics (random n, centre and scale), graph curves
    and smooth cubics are proved prime, and their quotient table equals
    (I : I^g) by its definition entry by entry, under the standard action and a
    rational one, flagged prime or not."""
    rng = random.Random(2802)
    rational = TranslationAction(RING, [["1/2", 0], [1, "1/3"]])
    makers = [
        lambda: _random_form(rng, 1),
        lambda: _pell_shaped(rng),
        lambda: _graph_shaped(rng),
        lambda: _smooth_cubic(rng),
    ]
    tags = set()
    for make in makers:
        for _ in range(3):
            f = make()
            for act in (ACT, rational):
                for flag in (False, True):
                    I = Ideal(RING, [f], claimed_prime=flag)
                    a = analysis(I, act)
                    assert a.proved_prime, f
                    tags.add(a.curve.tag)
                    _table_against_the_colons(I, act)
    assert tags == {"rational_line", "pell_conic", "graph_curve", "smooth_high_degree"}
