"""Seeded inputs for the three workloads, each with the facts its checks need.

Every input is a member of a family whose verdict, certificate rules and
(where the theory gives them) probe counts are known in closed form, so the
checks never consult the package's decision ladder.  A workload is a fixed
cycle of families; a run walks the cycle repeatedly, so every run sees the
same mix and only the family parameters change with the seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field


XY = ("x", "y")
XYZ = ("x", "y", "z")
NO_NO = ("no", "no")
YES_YES = ("yes", "yes")
YES_NO = ("yes", "no")
UNKNOWN = ("unknown", "unknown")
BOX_ONLY = frozenset({"BoxEvidenceOnly", "PrincipalConjugation"})
MAXIMAL = frozenset({"MaximalRight", "MaximalLeftCriticalDensity"})


@dataclass(frozen=True)
class Case:
    """One input: a config for ``command`` and the facts its checks use."""

    family: str
    command: str  # "analyze" or "quotient-table"
    config: dict
    verdict: tuple[str, str] | None = None
    rules: frozenset = frozenset()
    probe_counts: dict = field(default_factory=dict)  # side -> counts
    facts: dict = field(default_factory=dict)


def _shifted(var: str, c: int) -> str:
    if c == 0:
        return var
    return f"({var} - {c})" if c > 0 else f"({var} + {-c})"


def _nonsquare(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        n = rng.randint(lo, hi)
        if math.isqrt(n) ** 2 != n:
            return n


def _primitive(rng: random.Random, bound: int) -> tuple[int, int]:
    while True:
        a, b = rng.randint(-bound, bound), rng.randint(-bound, bound)
        if (a, b) != (0, 0) and math.gcd(a, b) == 1:
            return a, b


def _config(variables, gens, box, radii=None, matrix=None, prime=True, maximal=False):
    cfg = {
        "ring": {"vars": list(variables)},
        "ideal": {"generators": gens, "claimed_prime": prime, "claimed_maximal": maximal},
        "options": {"box": box},
    }
    if radii is not None:
        cfg["options"]["probe_radii"] = list(radii)
    if matrix is not None:
        cfg["action"] = {"matrix": matrix}
    return cfg


# ------------------------------------------------------------------ plane2
# analyze at box 16, probe radii 4,8,16

PLANE_BOX = 16
PLANE_RADII = (4, 8, 16)


def _plane(family, gens, verdict, rules, matrix=None, counts=None, **facts):
    cfg = _config(XY, gens, PLANE_BOX, PLANE_RADII, matrix)
    return Case(family, "analyze", cfg, verdict, frozenset(rules), counts or {}, facts)


def _pell_gens(rng):
    n = _nonsquare(rng, 2, 60)
    axis = rng.randint(0, 1)
    centre = (rng.randint(-10, 10), rng.randint(-10, 10))
    scale = rng.randint(1, 3)
    u, w = XY[axis], XY[1 - axis]
    body = f"{_shifted(u, centre[0])}^2 - {n}*{_shifted(w, centre[1])}^2 - 1"
    return [f"{scale}*({body})"], {"n": n, "centre": list(centre), "axis": u}


def pell(rng):
    gens, facts = _pell_gens(rng)
    return _plane("pell", gens, NO_NO, {"PellConic", "PrincipalConjugation"}, **facts)


def pell_rational(rng):
    """Pell conic under translations by 1/k in one direction: still rank 2."""
    gens, facts = _pell_gens(rng)
    k = f"1/{rng.randint(2, 3)}"
    matrix = [[k, 0], [0, 1]] if rng.randint(0, 1) else [[1, 0], [0, k]]
    return _plane(
        "pell_rational", gens, NO_NO, {"PellConic", "PrincipalConjugation"}, matrix, **facts
    )


def pell_rank1(rng):
    """A rank-one translation image: the Pell rule does not apply."""
    gens, _ = _pell_gens(rng)
    a, b = _primitive(rng, 2)
    return _plane("pell_rank1", gens, UNKNOWN, BOX_ONLY, [[a], [b]])


def graph(rng):
    """x_axis = q(other) with deg q in {2, 3}; q(0) lies in the box."""
    axis = rng.randint(0, 1)
    u, w = XY[axis], XY[1 - axis]
    deg = rng.randint(2, 3)
    coeffs = [rng.randint(-10, 10)] + [rng.randint(-3, 3) for _ in range(deg - 1)]
    coeffs.append(rng.choice([-3, -2, -1, 1, 2, 3]))
    q = " + ".join(f"({c})*{w}^{i}" for i, c in enumerate(coeffs))
    return _plane("graph", [f"{u} - ({q})"], NO_NO, {"GraphCurve", "PrincipalConjugation"})


def _line_gens(rng):
    a, b = _primitive(rng, 5)
    return f"({a})*x + ({b})*y + ({rng.randint(-10, 10)})", (a, b)


def line(rng):
    gen, _ = _line_gens(rng)
    counts = {side: [1, 1, 1] for side in ("right", "left")}
    return _plane(
        "line", [gen], YES_YES, {"RationalLine", "PrincipalConjugation"}, counts=counts
    )


def line_nozero(rng):
    """k*(a*x + b*y) + c with k not dividing c: a line without integer points."""
    a, b = _primitive(rng, 3)
    k = rng.randint(2, 3)
    c = rng.choice([c for c in range(-10, 11) if c % k])
    counts = {side: [1, 1, 1] for side in ("right", "left")}
    return _plane(
        "line_nozero", [f"({k * a})*x + ({k * b})*y + ({c})"], YES_YES,
        {"RationalLine", "PrincipalConjugation"}, counts=counts,
    )


def line_rank1(rng):
    """Translations along one direction, which stabilise the line or not."""
    gen, (a, b) = _line_gens(rng)
    p, q = _primitive(rng, 2)
    if a * p + b * q == 0:
        rules = {"TrivialComplement"}
    else:
        rules = {"RationalLine", "PrincipalConjugation"}
    return _plane("line_rank1", [gen], YES_YES, rules, [[p], [q]])


def _weierstrass(rng, x0y0):
    """(y-v)^2 = (x-u)^3 + a(x-u) + b, smooth: 4a^3 + 27b^2 != 0."""
    while True:
        a = rng.randint(-5, 5)
        if x0y0 is None:
            b = rng.randint(-12, 12)
        else:
            x0, y0 = x0y0
            b = y0 * y0 - x0**3 - a * x0
        if 4 * a**3 + 27 * b * b != 0:
            break
    u, v = rng.randint(-8, 8), rng.randint(-8, 8)
    xs = _shifted("x", u)
    return [f"{_shifted('y', v)}^2 - {xs}^3 - ({a})*{xs} - ({b})"], (a, b, u, v)


def cubic(rng):
    """A smooth cubic through an integer point of the box."""
    gens, _ = _weierstrass(rng, (rng.randint(-3, 3), rng.randint(-3, 3)))
    return _plane("cubic", gens, YES_YES, {"GenusAtLeastOne", "PrincipalConjugation"})


def cubic_nozero(rng):
    """A smooth cubic with no integer point in the box: the probes then
    compare ideals instead of evaluating at a point."""
    while True:
        gens, (a, b, u, v) = _weierstrass(rng, None)
        if not any(
            r >= 0 and math.isqrt(r) ** 2 == r and min(abs(v - s), abs(v + s)) <= PLANE_BOX
            for r, s in (
                (t**3 + a * t + b, math.isqrt(max(t**3 + a * t + b, 0)))
                for t in range(-PLANE_BOX - u, PLANE_BOX - u + 1)
            )
        ):
            return _plane(
                "cubic_nozero", gens, YES_YES, {"GenusAtLeastOne", "PrincipalConjugation"}
            )


def cusp(rng):
    u, v = rng.randint(-8, 8), rng.randint(-8, 8)
    gens = [f"{_shifted('y', v)}^2 - {_shifted('x', u)}^3"]
    return _plane("cusp", gens, UNKNOWN, BOX_ONLY)


def nodal(rng):
    u, v = rng.randint(-8, 8), rng.randint(-8, 8)
    xs = _shifted("x", u)
    gens = [f"{_shifted('y', v)}^2 - {xs}^3 - {xs}^2"]
    return _plane("nodal", gens, UNKNOWN, BOX_ONLY)


def _point_case(family, variables, box, radii, matrix, rng, spread):
    p = [rng.randint(-spread, spread) for _ in variables]
    gens = [f"{v} - ({c})" for v, c in zip(variables, p)]
    # the right probe meets only g = 0; the left probe meets the witness
    # line through p, one member per step along it: 2r+1 at radius r
    counts = {"right": [1] * len(radii), "left": [2 * r + 1 for r in radii]}
    cfg = _config(variables, gens, box, radii, matrix, maximal=True)
    return Case(family, "analyze", cfg, YES_NO, MAXIMAL, counts, {"point": p})


def point(rng):
    return _point_case("point", XY, PLANE_BOX, PLANE_RADII, None, rng, 12)


def point_rank1(rng):
    a, b = _primitive(rng, 2)
    return _point_case("point_rank1", XY, PLANE_BOX, PLANE_RADII, [[a], [b]], rng, 12)


# ------------------------------------------------------------------ space3
# analyze at box 2, probe radii 1,2; every curve passes through an integer
# point of the box, so both probes have a point target

SPACE_BOX = 2
SPACE_RADII = (1, 2)


def _space(family, gens):
    cfg = _config(XYZ, gens, SPACE_BOX, SPACE_RADII)
    return Case(family, "analyze", cfg, UNKNOWN, frozenset({"BoxEvidenceOnly"}))


def _centre(rng):
    """A point with every coordinate +-1: a zero coordinate makes a curve's
    equations shorter and its analysis markedly cheaper, so fixing the shape
    of the centre keeps each family's cost steady from seed to seed."""
    return [rng.choice([-1, 1]) for _ in XYZ]


def space_point(rng):
    return _point_case("point", XYZ, SPACE_BOX, SPACE_RADII, None, rng, 2)


def space_line(rng):
    """The line through c along (a, b, 1), a and b nonzero."""
    c = _centre(rng)
    a, b = rng.choice([-2, -1, 1, 2]), rng.choice([-2, -1, 1, 2])
    x, y, z = (_shifted(v, k) for v, k in zip(XYZ, c))
    return _space("line", [f"{x} - ({a})*{z}", f"{y} - ({b})*{z}"])


def space_conic(rng):
    """A plane section of a quadric: a Pell conic in a coordinate plane."""
    c = _centre(rng)
    n = _nonsquare(rng, 2, 12)
    x, y, z = (_shifted(v, k) for v, k in zip(XYZ, c))
    return _space("conic", [z, f"{x}^2 - {n}*{y}^2 - 1"])


def space_parabola(rng):
    """z - c3 = a (x - c1)^2 inside the plane y = c2."""
    c = _centre(rng)
    a = rng.choice([-1, 1])
    x, y, z = (_shifted(v, k) for v, k in zip(XYZ, c))
    return _space("parabola", [f"{z} - ({a})*{x}^2", y])


# ------------------------------------------------------------------ colon2
# quotient-table at box 2; the colon (I : I^g) is <1> exactly when g
# stabilises I (for these families), and the checks know the stabiliser

COLON_BOX = 2


def _colon(family, gens, basis, prime, stab):
    """``basis``: a Groebner basis of I in graded reverse lex; ``stab``: a
    primitive direction spanning the stabiliser, or None when it is zero."""
    cfg = _config(XY, gens, COLON_BOX, prime=prime)
    facts = {"basis": basis, "stab": stab}
    return Case(family, "quotient-table", cfg, facts=facts)


def colon_line(rng):
    gen, (a, b) = _line_gens(rng)
    return _colon("line", [gen], [gen], True, (b, -a))


def colon_pell(rng):
    gens, _ = _pell_gens(rng)
    return _colon("pell", gens, gens, True, None)


def colon_point(rng):
    p = [rng.randint(-5, 5) for _ in XY]
    gens = [f"{v} - ({c})" for v, c in zip(XY, p)]
    return _colon("point", gens, gens, True, None)


def colon_two_lines(rng):
    while True:
        (f, d1), (g, d2) = _line_gens(rng), _line_gens(rng)
        if d1[0] * d2[1] != d1[1] * d2[0]:  # not parallel
            break
    gens = [f"({f})*({g})"]
    return _colon("two_lines", gens, gens, False, None)


def colon_double_line(rng):
    gen, (a, b) = _line_gens(rng)
    gens = [f"({gen})^2"]
    return _colon("double_line", gens, gens, False, (b, -a))


def colon_fat_point(rng):
    p = [rng.randint(-5, 5) for _ in XY]
    x, y = (_shifted(v, c) for v, c in zip(XY, p))
    gens = [f"{x}^2", f"{x}*{y}", f"{y}^2"]
    return _colon("fat_point", gens, gens, False, None)


# The mix sets where the latency percentiles fall.  In plane2 the two
# families without integer zeros are the slowest 2/13, so p90 lies inside
# them.  In space3 the 7 points put p50 among the points, and the two conics
# put p90 among the conics, the most expensive and steadiest curves.  In
# colon2 the fat point is the slowest 1/6, so it holds p90.
CYCLES = {
    "plane2": [
        pell, line, point, graph, cubic_nozero, cubic, cusp, nodal, pell_rational,
        line_nozero, point_rank1, line_rank1, pell_rank1,
    ],
    "space3": [
        space_point, space_point, space_line, space_point, space_conic, space_point,
        space_point, space_parabola, space_point, space_point, space_conic,
    ],
    "colon2": [
        colon_line, colon_two_lines, colon_pell, colon_double_line, colon_point,
        colon_fat_point,
    ],
}


def generate(workload: str, seed: int, cycles: int) -> list[Case]:
    """``cycles`` passes over the workload's family cycle, no config twice."""
    rng = random.Random(f"{workload}:{seed}")
    seen = set()
    cases = []
    for _ in range(cycles):
        for make in CYCLES[workload]:
            for _ in range(1000):
                case = make(rng)
                key = repr(case.config)
                if key not in seen:
                    seen.add(key)
                    cases.append(case)
                    break
            else:
                raise ValueError(f"{make.__name__} ran out of distinct inputs")
    return cases
