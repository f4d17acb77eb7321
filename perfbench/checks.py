"""Independent checks of each CLI result, run outside the timed region.

No check calls the package: verdicts and certificate rules are compared
with the family's known answer, probe counts with their closed form where
the theory gives one, reported points are evaluated on V(I) with the
benchmark's own arithmetic (``qpoly``), and colon entries are tested by
normal forms against Groebner bases the benchmark knows in closed form.
Each check returns a list of problems; an empty list means the result
passed.
"""

from __future__ import annotations

import json
from fractions import Fraction

import qpoly


def _matrix(case):
    n = len(case.config["ring"]["vars"])
    rows = case.config.get("action", {}).get("matrix")
    if rows is None:
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
    return [[Fraction(str(a)) for a in row] for row in rows]


def _moved(point, matrix, g):
    return [Fraction(p) + sum(a * x for a, x in zip(row, g)) for p, row in zip(point, matrix)]


def _vanish(polys, point) -> bool:
    return all(qpoly.evaluate(p, point) == 0 for p in polys)


def check_analyze(case, stdout: str, rc) -> list[str]:
    report = json.loads(stdout)
    variables = case.config["ring"]["vars"]
    gens = [qpoly.parse(g, variables) for g in case.config["ideal"]["generators"]]
    matrix = _matrix(case)
    box = case.config["options"]["box"]
    problems = []

    verdict = (report["verdict"]["right"], report["verdict"]["left"])
    if verdict != case.verdict:
        problems.append(f"verdict {verdict}, expected {case.verdict}")
    if rc != (2 if "unknown" in case.verdict else 0):
        problems.append(f"exit status {rc}")
    certs = report["verdict"]["certificates"]
    rules = frozenset(c["rule"] for c in certs)
    if rules != case.rules:
        problems.append(f"rules {sorted(rules)}, expected {sorted(case.rules)}")

    radii = sorted(case.config["options"]["probe_radii"])
    for probe in report["probes"]:
        counts = probe["counts"]
        if probe["radii"] != radii or len(counts) != len(radii):
            problems.append(f"{probe['side']} probe radii {probe['radii']}")
            continue
        if any(a > b for a, b in zip(counts, counts[1:])):
            problems.append(f"{probe['side']} probe counts decrease: {counts}")
        growing = len(counts) >= 2 and counts[-1] > counts[-2]
        if probe["flag"] != ("growing" if growing else "stabilising"):
            problems.append(f"{probe['side']} probe flag {probe['flag']} for {counts}")
        expected = case.probe_counts.get(probe["side"])
        if expected is not None and counts != expected:
            problems.append(f"{probe['side']} probe counts {counts}, expected {expected}")

    # S-set members g move the least integer zero p of the box onto V(I)
    zero = next(qpoly.integer_zeros(gens, len(variables), box), None)
    for rep in report["sets"]:
        if rep["kind"] != "S":
            continue
        if zero is None:
            problems.append("S-set at a point, but the box holds no integer zero")
            continue
        for g in rep["members"]:
            moved = _moved(zero, matrix, g)
            if any(abs(x) > box for x in moved) or not _vanish(gens, moved):
                problems.append(f"S-set member {g} does not move {zero} onto V(I) in the box")

    for cert in certs:
        problems.extend(_check_certificate(case, cert["rule"], cert["payload"], gens, variables))
    return problems


def _check_certificate(case, rule, payload, gens, variables) -> list[str]:
    facts = case.facts
    problems = []
    if rule == "PellConic":
        for key in ("n", "centre", "axis"):
            if payload[key] != facts[key]:
                problems.append(f"PellConic {key} {payload[key]}, expected {facts[key]}")
        for x, y in payload["solutions"]:
            if x * x - facts["n"] * y * y != 1:
                problems.append(f"PellConic solution {(x, y)} fails x^2 - {facts['n']}y^2 = 1")
    elif rule == "GraphCurve":
        for sample in payload["curve_samples"]:
            if not _vanish(gens, [Fraction(s) for s in sample]):
                problems.append(f"GraphCurve sample {sample} is not on the curve")
    elif rule in ("MaximalRight", "MaximalLeftCriticalDensity"):
        if "point" not in payload:
            return [f"{rule} names no rational point"]
        point = [Fraction(c) for c in payload["point"]]
        if point != facts["point"]:
            problems.append(f"{rule} point {payload['point']}, expected {facts['point']}")
        if not _vanish(gens, point):
            problems.append(f"{rule} point {payload['point']} is not on V(I)")
        if rule == "MaximalLeftCriticalDensity":
            line = [qpoly.parse(w, variables) for w in payload["witness_line"]]
            ahead = [p + v for p, v in zip(point, payload["direction"])]
            if payload["dense"] or not (_vanish(line, point) and _vanish(line, ahead)):
                problems.append("witness line misses the point or its direction")
    return problems


def check_colon(case, stdout: str, rc) -> list[str]:
    """(I : I^g) is <1> exactly when g stabilises I; otherwise each entry E
    has I in E and E * I^g in I, and for prime I also E in I."""
    report = json.loads(stdout)
    variables = case.config["ring"]["vars"]
    gens = [qpoly.parse(g, variables) for g in case.config["ideal"]["generators"]]
    basis = [qpoly.parse(b, variables) for b in case.facts["basis"]]
    stab = case.facts["stab"]
    box = case.config["options"]["box"]
    prime = case.config["ideal"]["claimed_prime"]
    problems = []
    if rc != 0:
        problems.append(f"exit status {rc}")
    grid = [(a, b) for a in range(-box, box + 1) for b in range(-box, box + 1)]
    if [tuple(e["g"]) for e in report["entries"]] != grid or report["box"] != box:
        problems.append("entries do not cover the box in order")
    for entry in report["entries"]:
        g = tuple(entry["g"])
        E = qpoly.parse_ideal(entry["component"], variables)
        stabilises = g == (0, 0) if stab is None else g[0] * stab[1] == g[1] * stab[0]
        if (E is None) != stabilises:
            problems.append(f"entry at {g} is {entry['component']}")
            continue
        if E is None:
            continue
        if any(qpoly.remainder(f, E) for f in gens):
            problems.append(f"entry at {g} does not contain I")
        moved = [qpoly.translate(f, g) for f in gens]
        if any(qpoly.remainder(qpoly.mul(e, h), basis) for e in E for h in moved):
            problems.append(f"entry at {g} times I^g is not in I")
        if prime and any(qpoly.remainder(e, basis) for e in E):
            problems.append(f"entry at {g} is larger than the prime I")
    return problems


CHECKS = {"analyze": check_analyze, "quotient-table": check_colon}
