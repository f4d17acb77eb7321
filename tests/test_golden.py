"""Golden transcripts: ``cli.main`` stdout, byte for byte, on a fixed gallery,
and the stdout of each script in ``demos/``.

Each case is a config plus an argument list; its expected stdout lives in
``tests/golden/<case>.out``, and a demo's in ``tests/golden/demo-<name>.out``.
Regenerate the transcripts only when a change to stdout is intended:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import runpy
import sys
import tempfile
from pathlib import Path

import pytest

from idealiser.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
DEMOS = Path(__file__).resolve().parent.parent / "demos"

PRIME = {"claimed_prime": True}

# name -> (ideal generators, ideal flags, action matrix or None, options)
GALLERY = {
    "pell": (["x^2 - 7*y^2 - 1"], PRIME, None, {"box": 8, "probe_radii": [2, 4, 8]}),
    "cusp": (["y^2 - x^3"], PRIME, None, {"box": 6, "probe_radii": [2, 4, 6]}),
    "line": (["2*x - 3*y - 1"], PRIME, None, {"box": 6, "probe_radii": [2, 4, 6]}),
    "graph": (["x - y^3"], PRIME, None, {"box": 6, "probe_radii": [2, 4, 6]}),
    "cubic": (["y^2 - x^3 - 2"], PRIME, None, {"box": 6, "probe_radii": [2, 4, 6]}),
    "point": (["x - 1", "y - 2"], PRIME, None, {"box": 4, "probe_radii": [1, 2, 4]}),
    "rank_one": (
        ["x^2 - 2*y^2 - 1"], PRIME, [["1", "1"], ["0", "0"]], {"box": 4, "probe_radii": [1, 2, 4]}
    ),
    "rational": (
        ["y^2 - x^3"], PRIME, [["1/2", "0"], ["0", "1"]], {"box": 4, "probe_radii": [1, 2, 4]}
    ),
    "circle": (["x^2 + y^2 - 3"], PRIME, None, {"box": 3, "probe_radii": [1, 2, 3]}),
    "point3": (["x - 1", "y - 2", "z + 1"], PRIME, None, {}),
    "conic3": (
        ["z - 1", "(x - 1)^2 - 7*(y + 1)^2 - 1"], PRIME, None, {"box": 2, "probe_radii": [1, 2]}
    ),
    "twisted_cubic": (["y - x^2", "z - x^3"], PRIME, None, {"box": 2, "probe_radii": [1, 2]}),
    # the default box 8: a T-set with hundreds of K-cosets
    "space_conic": (["z - 1", "(x-1)^2 - 2*(y+1)^2 - 1"], PRIME, None, {}),
    # a line, a parabola, and conic3 under a rational action: T-sets of plane sections of
    # quadrics, the last with den = 2
    "space_line": (
        ["x - 1 - 2*(z - 1)", "y + 1 - (z - 1)"], PRIME, None, {"box": 2, "probe_radii": [1, 2]}
    ),
    "space_parabola": (
        ["z - 1 + (x + 1)^2", "y - 1"], PRIME, None, {"box": 2, "probe_radii": [1, 2]}
    ),
    "space_conic_rational": (
        ["z - 1", "(x - 1)^2 - 7*(y + 1)^2 - 1"],
        PRIME,
        [["1/2", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        {"box": 2, "probe_radii": [1, 2]},
    ),
    # residue field Q(sqrt(2)): maximal, radical, no rational point
    "sqrt2_point": (
        ["x^2 - 2", "y"], {"claimed_maximal": True}, None, {"box": 2, "probe_radii": [1, 2]}
    ),
    # principal and maximal without a rational point: the left side ends in box evidence,
    # because conjugation is tried only on ideals that are not maximal
    "sqrt2_one_var": (
        ["x^2 - 2"], {"claimed_maximal": True}, None, {"box": 2, "probe_radii": [1, 2]}
    ),
    # a point on the line: its orbit is dense, so no witness line traps it, and the left
    # probe runs against the point itself
    "one_var_point": (["x - 3"], PRIME, None, {"box": 4, "probe_radii": [1, 2, 4]}),
    # a space cubic with no integer zero (2*y - 2*x^2 is even): both growth probes run
    # against I itself, and the left one tests each pair {g, -g} once
    "odd_cubic": (["2*y - 2*x^2 - 1", "z - x^3"], PRIME, None, {"box": 2, "probe_radii": [1, 2]}),
}
XYZ = ["x", "y", "z"]
VARS = {
    "point3": XYZ, "conic3": XYZ, "twisted_cubic": XYZ, "space_conic": XYZ, "sqrt2_one_var": ["x"],
    "space_line": XYZ, "space_parabola": XYZ, "space_conic_rational": XYZ,
    "one_var_point": ["x"], "odd_cubic": XYZ,
}

CASES = {}
for _name in GALLERY:
    CASES[f"analyze-{_name}"] = (_name, ["analyze"])
    CASES[f"analyze-{_name}-json"] = (_name, ["analyze", "--json"])
GALLERY["two_lines"] = (["x*y"], {}, None, {"box": 1})
CASES["quotient-table-two_lines"] = ("two_lines", ["quotient-table"])
CASES["quotient-table-two_lines-json"] = ("two_lines", ["quotient-table", "--json"])
# a translate of a fat point or a double line is the ideal itself or comaximal with it
GALLERY["fat_point"] = (["(x - 1)^2", "(x - 1)*(y + 2)", "(y + 2)^2"], {}, None, {"box": 2})
GALLERY["double_line"] = (["(x - 2*y - 1)^2"], {}, None, {"box": 2})
for _name in ("fat_point", "double_line"):
    CASES[f"quotient-table-{_name}"] = (_name, ["quotient-table"])
    CASES[f"quotient-table-{_name}-json"] = (_name, ["quotient-table", "--json"])
# no nonzero g stabilises the Pell conic, and each of its translates meets it in points
CASES["quotient-table-pell"] = ("pell", ["quotient-table", "--box", "2"])
CASES["quotient-table-pell-json"] = ("pell", ["quotient-table", "--box", "2", "--json"])
# probe's default target is the least integer zero in its largest box, or I itself
CASES["probe-pell"] = ("pell", ["probe"])
CASES["probe-circle"] = ("circle", ["probe"])
CASES["sset-pell-point"] = ("pell", ["sset", "--point", "1,0"])
CASES["sset-pell-point-json"] = ("pell", ["sset", "--point", "1,0", "--json"])
# an ideal target: the group elements g in the complement with I^g in the target
CASES["sset-line-target"] = ("line", ["sset", "--target", "x - 1", "y - 1"])
# the T-set walks the rank-1 complement; with --full its 4 members share one K-coset
TSET_POINT = ["tset", "x - 1", "y - 1", "--prime", "--box", "6"]
CASES["tset-line-point"] = ("line", TSET_POINT)
CASES["tset-line-point-full"] = ("line", [*TSET_POINT, "--full"])
# containment against a parallel line flagged prime: I^g in J on the right, J^g in I on
# the left (a principal prime against a principal target); the same against an unflagged
# point, and against a line that meets the rank-one conic in two points (counts 0)
PARALLEL = ["--target", "2*x - 3*y + 2"]
CASES["probe-line-prime-line"] = ("line", ["probe", "--radii", "1,2,4", *PARALLEL, "--prime"])
CASES["probe-line-point"] = ("line", ["probe", "--radii", "1,2,4", "--target", "x - 1", "y - 1"])
CASES["tset-line-prime-line"] = ("line", ["tset", "2*x - 3*y + 2", "--prime", "--box", "4"])
CASES["sset-line-line-target"] = ("line", ["sset", *PARALLEL, "--box", "4"])
CASES["probe-rank_one-prime-line"] = (
    "rank_one", ["probe", "--radii", "1,2,4", "--target", "x - y - 1", "--prime"]
)
# a translate of the rank-one conic, which holds I^g for the class g_1 + g_2 = -1
CASES["probe-rank_one-prime-translate"] = (
    "rank_one", ["probe", "--radii", "1,2,4", "--target", "(x - 1)^2 - 2*y^2 - 1", "--prime"]
)
SKEW_PAIR = ["(x)*g[1,0] + (3)*e", "(y - 1)*g[0,-1] - (x^2 - 1/2)*e"]
CASES["skewmul-pell"] = ("pell", ["skewmul", *SKEW_PAIR])
CASES["skewmul-pell-json"] = ("pell", ["skewmul", *SKEW_PAIR, "--json"])
CASES["member-pell-yes"] = ("pell", ["member", "(x^2 - 7*y^2 - 1)*g[1,0] + (x)*e"])
CASES["member-pell-no"] = ("pell", ["member", "(x)*g[1,0] - (y)*e", "--json"])
# principal tables of degree above 2 that no class proves prime: a product of two conics,
# which share no factor with any of their translates, and the singular cusp
GALLERY["conic_product"] = (["(x^2 - 2*y^2 - 1)*(x^2 + y^2 - 5)"], {}, None, {"box": 2})
for _name in ("conic_product", "cusp"):
    CASES[f"quotient-table-{_name}"] = (_name, ["quotient-table", "--box", "2"])
    CASES[f"quotient-table-{_name}-json"] = (_name, ["quotient-table", "--box", "2", "--json"])
CASES["member-conic_product-no"] = ("conic_product", ["member", "(x)*g[1,0] + (y)*g[0,1] + (1)*g[1,1]"])
# non-principal tables that are not point-primary: each pair {g, -g} off K builds one sum basis
GALLERY["space_quadrics"] = (["x*y - z^2 + 1", "x^2 + y*z - 2"], {}, None, {"box": 1})
VARS["space_quadrics"] = XYZ
for _name in ("twisted_cubic", "space_quadrics"):
    CASES[f"quotient-table-{_name}"] = (_name, ["quotient-table", "--box", "1"])
    CASES[f"quotient-table-{_name}-json"] = (_name, ["quotient-table", "--box", "1", "--json"])
CASES["member-space_quadrics-no"] = ("space_quadrics", ["member", "(x)*g[1,0,0] + (y)*g[0,1,0]"])


def _config(name: str) -> dict:
    gens, flags, matrix, options = GALLERY[name]
    ring = {"vars": VARS.get(name, ["x", "y"])}
    cfg = {"ring": ring, "ideal": {"generators": gens, **flags}, "options": options}
    if matrix is not None:
        cfg["action"] = {"matrix": matrix}
    return cfg


def transcript(case: str, tmp_dir: Path) -> str:
    """The stdout of ``cli.main`` on one case; stderr (timings) is dropped."""
    name, argv = CASES[case]
    path = tmp_dir / f"{name}.json"
    path.write_text(json.dumps(_config(name)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        main(argv + ["-c", str(path)])
    return out.getvalue()


def demo_transcript(name: str) -> str:
    """The stdout of ``demos/demo_<name>.py``, run as a script."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / f"demo_{name}.py"), run_name="__main__")
    return out.getvalue()


DEMO_NAMES = sorted(p.stem.removeprefix("demo_") for p in DEMOS.glob("demo_*.py"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_transcript(case, tmp_path):
    expected = (GOLDEN / f"{case}.out").read_text(encoding="utf-8")
    assert transcript(case, tmp_path) == expected


@pytest.mark.parametrize("case", sorted(c for c, (_, argv) in CASES.items() if "--json" in argv))
def test_json_writer_on_golden_payloads(case, tmp_path, monkeypatch):
    """The payload objects themselves, tuples included, encode as ``json.dumps`` does."""
    import idealiser.cli as cli

    writer, payloads = cli._json, []
    monkeypatch.setattr(cli, "_json", lambda payload: payloads.append(payload) or writer(payload))
    out = transcript(case, tmp_path)
    assert len(payloads) == 1
    assert out == json.dumps(payloads[0], indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", DEMO_NAMES)
def test_demo_transcript(name):
    expected = (GOLDEN / f"demo-{name}.out").read_text(encoding="utf-8")
    assert demo_transcript(name) == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            (GOLDEN / f"{case}.out").write_text(transcript(case, Path(tmp)), encoding="utf-8")
            print(f"wrote {case}.out", file=sys.stderr)
    for name in DEMO_NAMES:
        (GOLDEN / f"demo-{name}.out").write_text(demo_transcript(name), encoding="utf-8")
        print(f"wrote demo-{name}.out", file=sys.stderr)
