import json
import os
import random
import subprocess
import sys

import pytest

from idealiser import cli
from idealiser.cli import _json, main
from idealiser.groebner import DEFAULT_PAIR_LIMIT


PELL_CFG = {
    "ring": {"vars": ["x", "y"]},
    "action": {"matrix": [["1", "0"], ["0", "1"]]},
    "ideal": {"generators": ["x^2 - 7*y^2 - 1"], "claimed_prime": True},
    "options": {"box": 8, "probe_radii": [2, 4, 8]},
}

LINE_CFG = {
    "ring": {"vars": ["x", "y"]},
    "ideal": {"generators": ["2*x - 3*y - 1"], "claimed_prime": True},
}


@pytest.fixture
def pell_config(tmp_path):
    path = tmp_path / "pell.json"
    path.write_text(json.dumps(PELL_CFG))
    return str(path)


@pytest.fixture
def line_config(tmp_path):
    path = tmp_path / "line.json"
    path.write_text(json.dumps(LINE_CFG))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pell_output_is_frozen(capsys):
    code, out, _ = run(capsys, "pell", "7", "--count", "2")
    assert code == 0
    assert out == "(8,3) (127,48)\n"


def test_pell_json(capsys):
    code, out, _ = run(capsys, "pell", "7", "--count", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["fundamental"] == [8, 3]
    assert data["solutions"] == [[8, 3], [127, 48]]
    assert data["version"] == 1


def test_pell_rejects_squares(capsys):
    code, _, err = run(capsys, "pell", "9")
    assert code == 1
    assert "error" in err


def test_pell_count_zero_is_an_error(capsys):
    code, out, err = run(capsys, "pell", "7", "--count", "0")
    assert (code, out) == (1, "")
    assert err.startswith("error: count must be at least 1")


def test_pell_past_the_digit_budget_exits_one(capsys):
    """The fundamental solution for 1000000007 has more than PELL_DIGITS digits:
    the continued fraction stops at the budget, which the message names."""
    code, out, err = run(capsys, "pell", "1000000007")
    assert code == 1
    assert out == ""
    assert "Pell solution exceeds the budget of 4300 digits" in err


def test_emit_prints_nothing_when_a_line_fails(capsys):
    def lines():
        yield "first"
        raise ValueError("late")

    with pytest.raises(ValueError, match="late"):
        cli._emit(False, None, lines)
    assert capsys.readouterr().out == ""


def test_analyze_that_fails_prints_no_partial_report(capsys, tmp_path):
    """A Pell conic whose fundamental solution is past the budget fails with
    exit 1 and an empty stdout, in text mode as in JSON mode."""
    cfg = {
        "ring": {"vars": ["x", "y"]},
        "ideal": {"generators": ["x^2 - 100000007*y^2 - 1"], "claimed_prime": True},
        "options": {"box": 2, "probe_radii": [1, 2]},
    }
    path = tmp_path / "big_pell.json"
    path.write_text(json.dumps(cfg))
    for extra in ([], ["--json"]):
        code, out, err = run(capsys, "analyze", "-c", str(path), *extra)
        assert code == 1
        assert out == ""
        assert "error:" in err


def test_skewmul_output_is_frozen(capsys):
    code, out, _ = run(capsys, "skewmul", "(1)*g[1,0]", "(x)*e")
    assert code == 0
    assert out == "(x+1)*g[1,0]\n"


def test_skewmul_parse_error(capsys):
    code, _, err = run(capsys, "skewmul", "(1)*q[1,0]", "(x)*e")
    assert code == 1
    assert "error" in err


def test_stab_output_is_frozen(capsys, line_config):
    code, out, _ = run(capsys, "stab", "-c", line_config)
    assert code == 0
    assert out == "lattice basis: (3,2)\n"


def test_complement_output(capsys, line_config):
    code, out, _ = run(capsys, "complement", "-c", line_config)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "stabiliser: (3,2)"
    assert lines[1].startswith("complement: (")


def test_analyze_pell_decides_and_exits_zero(capsys, pell_config):
    code, out, _ = run(capsys, "analyze", "-c", pell_config)
    assert code == 0
    assert "right noetherian: no" in out
    assert "left noetherian: no" in out
    assert "certificate PellConic" in out


def test_analyze_stdout_is_byte_stable(capsys, pell_config):
    _, first, _ = run(capsys, "analyze", "-c", pell_config)
    _, second, _ = run(capsys, "analyze", "-c", pell_config)
    assert first == second
    # timing lives on stderr only
    assert "elapsed" not in first


def test_analyze_json_schema(capsys, pell_config):
    code, out, _ = run(capsys, "analyze", "-c", pell_config, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["version"] == 1
    assert data["verdict"]["right"] == "no"
    assert data["verdict"]["left"] == "no"
    rules = [c["rule"] for c in data["verdict"]["certificates"]]
    assert "PellConic" in rules
    assert isinstance(data["sets"], list)
    assert len(data["probes"]) == 2
    for probe in data["probes"]:
        assert probe["flag"] in ("growing", "stabilising")


def test_analyze_undecided_exits_two(capsys, tmp_path):
    cfg = tmp_path / "cusp.json"
    cfg.write_text(
        json.dumps(
            {
                "ring": {"vars": ["x", "y"]},
                "ideal": {"generators": ["y^2 - x^3"], "claimed_prime": True},
            }
        )
    )
    code, out, _ = run(capsys, "analyze", "-c", str(cfg))
    assert code == 2
    assert "right noetherian: unknown" in out
    assert "BoxEvidenceOnly" in out


def test_analyze_probe_radii_flag(capsys, pell_config):
    code, out, _ = run(
        capsys, "analyze", "-c", pell_config, "--probe-radii", "2,130", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["probes"][0]["radii"] == [2, 130]
    # probe target is the lex-smallest curve point (-8,-3)
    assert data["probes"][0]["counts"] == [1, 8]
    assert data["probes"][0]["flag"] == "growing"


def test_missing_config_exits_one(capsys):
    code, _, err = run(capsys, "analyze", "-c", "/nonexistent/cfg.json")
    assert code == 1
    assert "error" in err


def test_bad_generator_exits_one(capsys, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(
        json.dumps({"ring": {"vars": ["x", "y"]}, "ideal": {"generators": ["x +"]}})
    )
    code, _, err = run(capsys, "analyze", "-c", str(cfg))
    assert code == 1
    assert "error" in err


def test_quotient_table(capsys, line_config):
    code, out, _ = run(capsys, "quotient-table", "-c", line_config, "--box", "2")
    assert code == 0
    assert "g=(0,0): <1>" in out
    assert "g=(1,0): <x - 3/2*y - 1/2>" in out


def test_tor_command(capsys, line_config):
    # (0,0) misses the line, (2,1) sits on it
    code, out, _ = run(capsys, "tor", "-c", line_config, "x", "y")
    assert code == 0
    assert "tor1 zero: yes" in out
    code2, out2, _ = run(capsys, "tor", "-c", line_config, "x - 2", "y - 1")
    assert code2 == 0
    assert "tor1 zero: no" in out2


def test_sset_command(capsys, pell_config):
    code, out, _ = run(
        capsys, "sset", "-c", pell_config, "--point", "1,0", "--box", "8", "--full"
    )
    assert code == 0
    assert "members (6): (-9,-3) (-9,3) (-2,0) (0,0) (7,-3) (7,3)" in out


def test_sset_needs_a_target(capsys, pell_config):
    code, _, err = run(capsys, "sset", "-c", pell_config)
    assert code == 1
    assert "error" in err


def test_sset_refuses_a_point_and_a_target(capsys, pell_config):
    argv = ("sset", "-c", pell_config, "--point", "1,0", "--target", "x - 1", "y")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert "not allowed with argument" in err


def test_tset_command(capsys, tmp_path):
    cfg = tmp_path / "origin.json"
    cfg.write_text(
        json.dumps(
            {
                "ring": {"vars": ["x", "y"]},
                "ideal": {
                    "generators": ["x", "y"],
                    "claimed_prime": True,
                    "claimed_maximal": True,
                },
            }
        )
    )
    code, out, _ = run(
        capsys, "tset", "-c", str(cfg), "x", "--box", "6", "--full", "--prime"
    )
    assert code == 0
    assert "members (13)" in out


def test_member_command(capsys, line_config):
    code, out, _ = run(capsys, "member", "-c", line_config, "(1)*g[3,2]")
    assert code == 0
    assert out == "member: yes\n"
    code2, out2, _ = run(capsys, "member", "-c", line_config, "(1)*g[1,0]")
    assert code2 == 0
    assert out2 == "member: no\n"


def test_member_reads_no_prime_flag_and_agrees_with_the_table(capsys, tmp_path):
    """``member`` and ``quotient-table`` share one rule for (I : I^g), and
    neither reads the prime flag.  <x*y> flagged prime is not prime:
    (x*y : (x + 1)*y) = <x>, so (x)*g[1,0] is a member, as the table says.
    <x^2> flagged prime is refused by the ladder, yet (x^2 : I^g) is <1> on
    the stabiliser, so (x)*g[0,1] is a member."""

    def config(generator):
        path = tmp_path / "flagged.json"
        path.write_text(json.dumps({"ideal": {"generators": [generator], "claimed_prime": True}}))
        return str(path)

    product = config("x*y")
    code, out, _ = run(capsys, "quotient-table", "-c", product, "--box", "1")
    assert code == 0
    assert "  g=(1,0): <x>\n" in out
    code, out, _ = run(capsys, "member", "-c", product, "(x)*g[1,0]")
    assert (code, out) == (0, "member: yes\n")
    code, out, _ = run(capsys, "member", "-c", product, "(1)*g[1,0]")
    assert (code, out) == (0, "member: no\n")
    code, out, err = run(capsys, "member", "-c", config("x^2"), "(x)*g[0,1]")
    assert (code, out, err) == (0, "member: yes\n", "")
    code, _, err = run(capsys, "analyze", "-c", config("x^2"))
    assert code == 1
    assert err.startswith("error: a principal ideal with a repeated factor is not prime")


def test_probe_command(capsys, pell_config):
    code, out, _ = run(
        capsys,
        "probe",
        "-c",
        pell_config,
        "--side",
        "right",
        "--radii",
        "2,4,8,130",
        "--point",
        "1,0",
    )
    assert code == 0
    assert "counts 2,2,4,10 [growing]" in out


def test_probe_refuses_a_point_and_a_target(capsys, pell_config):
    argv = ("probe", "-c", pell_config, "--radii", "1,2", "--target", "x - 1", "y", "--point", "1,0")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert "not allowed with argument" in err


@pytest.mark.parametrize(
    "generator, target, counts",
    [
        ("x - 2", ["x*(x - 1)"], "1,2"),
        ("x^2 - 7*y^2 - 1", ["x^2", "y - 1"], "2,2"),
        ("x - y + 1", ["(x - y)^2"], "1,1"),
    ],
    ids=["parallel-lines", "fat-point", "double-line"],
)
def test_probe_against_an_unflagged_target(capsys, tmp_path, generator, target, counts):
    # the right colon route: counts of K-cosets with (J : I^g) != J
    cfg = {**LINE_CFG, "ideal": {"generators": [generator], "claimed_prime": True}}
    argv = ("probe", "-c", _write(tmp_path, "cfg.json", cfg), "--side", "right", "--radii", "1,2")
    code, out, _ = run(capsys, *argv, "--target", *target)
    assert code == 0
    assert f"counts {counts} " in out


def test_probe_against_the_zero_ideal_names_it(capsys, pell_config):
    # (0 : I^g) = 0 and Tor_1(C/I, C) = 0: no component counts, and the target prints as tor's
    code, out, _ = run(capsys, "probe", "-c", pell_config, "--target", "0", "--radii", "1,2")
    assert code == 0
    assert out == (
        "probe right vs <0>: radii 1,2 counts 0,0 [stabilising]\n"
        "probe left vs <0>: radii 1,2 counts 0,0 [stabilising]\n"
    )
    code, out, _ = run(capsys, "tor", "-c", pell_config, "0")
    assert code == 0 and "product: <0>\n" in out
    # and as a T-set's
    code, out, _ = run(capsys, "tset", "-c", pell_config, "0", "--box", "1")
    assert code == 0 and out.startswith("T-set (T-set of <x^2 - 7*y^2 - 1> against <0>)\n")


def test_probe_refuses_a_unit_target_flagged_prime(capsys, pell_config):
    for side in ("right", "left"):
        argv = ("probe", "-c", pell_config, "--target", "1", "--prime", "--radii", "1,2", "--side", side)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: an ideal flagged prime must be proper")


@pytest.mark.parametrize(
    "argv, options",
    [
        (("quotient-table", "--box", "-1"), {}),
        (("quotient-table",), {"box": -1}),
        (("analyze", "--probe-radii", "-2"), {}),
        (("analyze",), {"probe_radii": [4, -2]}),
        (("analyze", "--box", "-3"), {}),
    ],
    ids=["table-flag", "table-option", "radii-flag", "radii-option", "analyze-box-flag"],
)
def test_negative_box_or_radius_is_an_error(capsys, tmp_path, argv, options):
    cfg = dict(PELL_CFG, options=dict(PELL_CFG["options"], **options))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, argv[0], "-c", str(path), *argv[1:])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "must be non-negative" in err


def test_rational_action_matrix_config(capsys, tmp_path):
    cfg = tmp_path / "frac.json"
    cfg.write_text(
        json.dumps(
            {
                "ring": {"vars": ["x", "y"]},
                "action": {"matrix": [["1/2", "0"], ["0", "1"]]},
                "ideal": {"generators": ["2*x - 3*y - 1"], "claimed_prime": True},
            }
        )
    )
    code, out, _ = run(capsys, "stab", "-c", str(cfg))
    assert code == 0
    assert out == "lattice basis: (3,1)\n"


def test_console_script_entry_point():
    # the child finds the package where this process imported it from
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "idealiser.cli", "pell", "7", "--count", "2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout == "(8,3) (127,48)\n"


def _write(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_pair_limit_applies_to_its_command_only(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("IDEALISER_PAIR_LIMIT", raising=False)
    curve = {"ring": {"vars": ["x", "y"]}, "ideal": {"generators": ["x^2 - y", "x*y - 1"]}}
    limited = _write(tmp_path, "limited.json", {**curve, "options": {"pair_limit": 1}})
    code, _, err = run(capsys, "stab", "-c", limited)
    assert code == 1
    assert "error" in err
    assert "IDEALISER_PAIR_LIMIT" not in os.environ
    # the same ideal without the option is not held to the earlier limit
    code, out, _ = run(capsys, "stab", "-c", _write(tmp_path, "free.json", curve))
    assert code == 0
    assert out == "lattice basis: trivial\n"
    # a limit set by the caller is restored, not cleared
    monkeypatch.setenv("IDEALISER_PAIR_LIMIT", "777")
    line = _write(tmp_path, "line.json", {**LINE_CFG, "options": {"pair_limit": 50}})
    assert run(capsys, "stab", "-c", line)[0] == 0
    assert os.environ["IDEALISER_PAIR_LIMIT"] == "777"


def _record_limits(monkeypatch) -> list:
    """(environment variable present, context pair limit) at each basis run."""
    import idealiser.groebner as groebner

    seen = []
    original = groebner.reduced_groebner_basis

    def recording(gens):
        seen.append(("IDEALISER_PAIR_LIMIT" in os.environ, groebner.PAIR_LIMIT.get()))
        return original(gens)

    monkeypatch.setattr(groebner, "reduced_groebner_basis", recording)
    return seen


CURVE_CFG = {"ring": {"vars": ["x", "y"]}, "ideal": {"generators": ["x^2 - y", "x*y - 1"]}}


def test_each_command_gets_its_own_pair_limit(capsys, tmp_path, monkeypatch):
    # Buchberger sees each config's limit, and never through the environment
    monkeypatch.delenv("IDEALISER_PAIR_LIMIT", raising=False)
    seen = _record_limits(monkeypatch)
    for limit, code in ((1, 1), (1234, 0), (None, 0), (1, 1)):
        options = {} if limit is None else {"pair_limit": limit}
        cfg = _write(tmp_path, "cfg.json", {**CURVE_CFG, "options": options})
        assert run(capsys, "stab", "-c", cfg)[0] == code
        expected = DEFAULT_PAIR_LIMIT if limit is None else limit
        assert seen and set(seen) == {(False, expected)}
        seen.clear()


def test_pair_limit_reaches_the_colon_quotients(capsys, tmp_path):
    # two lines, one generator: its own basis needs no pair, the table's elimination does
    two = {**LINE_CFG, "ideal": {"generators": ["(x - y)*(x + y - 3)"]}, "options": {"pair_limit": 1}}
    code, out, err = run(capsys, "quotient-table", "-c", _write(tmp_path, "cfg.json", two))
    assert (code, out) == (1, "")
    assert err.startswith("error: pair budget exceeded")
    # a Pell conic is prime by its class, so its table needs no pair at all
    limited = {**PELL_CFG, "options": {"pair_limit": 1}}
    code, out, _ = run(capsys, "quotient-table", "-c", _write(tmp_path, "limited.json", limited))
    free = {**PELL_CFG, "options": {}}
    assert (code, out) == run(capsys, "quotient-table", "-c", _write(tmp_path, "free.json", free))[:2]
    assert code == 0 and out.count("<x^2 - 7*y^2 - 1>") == 24


def test_box_over_the_walk_budget_exits_one(capsys, pell_config):
    # the walk is refused by its count before the first point
    code, out, err = run(capsys, "quotient-table", "-c", pell_config, "--box", "1000000")
    assert (code, out) == (1, "")
    assert err.startswith("error: box walk of 4000004000001 points exceeds the budget")


@pytest.mark.parametrize(
    "section, value, message",
    [
        ("ring", {"vars": "xy"}, 'ring.vars must be a list of strings, got "xy"'),
        ("options", {"probe_radii": "16"}, 'options.probe_radii must be a list, got "16"'),
        ("options", {"box": 2.7}, "box radius must be an integer, got 2.7"),
        ("options", {"box": True}, "box radius must be an integer, got true"),
        ("options", {"probe_radii": [1, False]}, "probe radius must be an integer, got false"),
        ("options", {"pair_limit": True}, "options.pair_limit must be an integer, got true"),
        ("options", {"pair_limit": 0}, "options.pair_limit must be positive, got 0"),
        ("options", {"probe_radii": []}, "options.probe_radii must be nonempty"),
        (
            "ideal",
            {"generators": "xy", "claimed_prime": "no"},
            'ideal.generators must be a list of strings, got "xy"',
        ),
        ("ideal", {"generators": [3, "x"]}, 'ideal.generators must be a list of strings, got [3, "x"]'),
        ("ideal", {"generators": []}, "ideal.generators must be nonempty"),
        (
            "ideal",
            {"generators": ["2*x - 3*y - 1"], "claimed_prime": "no"},
            'ideal.claimed_prime must be true or false, got "no"',
        ),
        (
            "ideal",
            {"generators": ["2*x - 3*y - 1"], "claimed_maximal": 1},
            "ideal.claimed_maximal must be true or false, got 1",
        ),
        ("action", {"matrix": 5}, "action.matrix must be a list of rows, got 5"),
        ("action", {"matrix": [5, 6]}, "action.matrix must be a list of rows, got [5, 6]"),
        ("action", {"matrix": None}, "action.matrix must be a list of rows, got null"),
        ("action", {"matrix": [[], []]}, "action needs at least one group generator"),
    ],
    ids=[
        "vars-string", "radii-string", "box-float", "box-bool", "radius-bool", "limit-bool",
        "limit-zero", "radii-empty", "generators-string", "generators-int", "generators-empty",
        "prime-string", "maximal-int", "matrix-int", "matrix-flat", "matrix-null",
        "matrix-no-generator",
    ],
)
def test_config_values_are_type_checked(capsys, tmp_path, section, value, message):
    cfg = {**LINE_CFG, section: value}
    code, out, err = run(capsys, "analyze", "-c", _write(tmp_path, "cfg.json", cfg))
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, value",
    [(["probe", "--radii", "1,a"], "a"), (["analyze", "--probe-radii", "2.5"], "2.5"),
     (["probe", "--radii", "1,,2"], "")],
    ids=["probe-letter", "analyze-fraction", "probe-empty-item"],
)
def test_radii_text_must_be_integers(capsys, pell_config, argv, value):
    code, out, err = run(capsys, *argv, "-c", pell_config)
    assert (code, out) == (1, "")
    assert err == f'error: probe radius must be an integer, got "{value}"\n'


@pytest.mark.parametrize(
    "argv",
    [["analyze", "--box", "a", "-c", "cfg.json"], ["analyze"], ["pell", "x"]],
    ids=["box-letter", "no-config", "pell-letter"],
)
def test_usage_errors_exit_one(capsys, argv):
    # argparse would exit 2, which analyze reserves for an undecided verdict
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert "error:" in err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: idealiser analyze")


def test_deep_nesting_is_a_parse_error(capsys, tmp_path):
    deep = "(" * 3000 + "x" + ")" * 3000
    cfg = _write(tmp_path, "deep.json", {"ideal": {"generators": [deep]}})
    code, out, err = run(capsys, "stab", "-c", cfg)
    assert (code, out) == (1, "")
    assert err.startswith("error: expression nested deeper than")
    code, out, err = run(capsys, "skewmul", f"({deep})*e", "(x)*e")
    assert (code, out) == (1, "")
    assert err.startswith("error: expression nested deeper than")


def test_zero_denominator_is_a_parse_error(capsys, tmp_path):
    cfg = _write(tmp_path, "zero.json", {"ideal": {"generators": ["x - 1/0"]}})
    code, out, err = run(capsys, "stab", "-c", cfg)
    assert (code, out) == (1, "")
    assert err == "error: zero denominator in '1/0' (at position 4)\n"


def _count_calls(monkeypatch, modules, names) -> dict:
    """Calls per name, counted wherever one of ``modules`` binds the name."""
    calls = dict.fromkeys(names, 0)
    for module in modules:
        for name in names:
            if hasattr(module, name):
                def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                    calls[_name] += 1
                    return _fn(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize(
    "generators",
    [
        pytest.param(["x^2 - 7*y^2 - 1"], id="x^2 - 7*y^2 - 1"),
        pytest.param(["y^2 - x^3"], id="y^2 - x^3"),
        pytest.param(["x - 1", "y - 2"], id="point"),
        pytest.param(["x - 1", "y - 2", "z + 1"], id="point3"),
    ],
)
def test_analyze_computes_each_fact_once(capsys, tmp_path, monkeypatch, generators):
    import idealiser.groebner as groebner
    import idealiser.noether as noether
    from idealiser.poly import PolyRing

    names = ("stabiliser", "complement", "decide_right", "dimension_probe")
    calls = _count_calls(monkeypatch, [noether, groebner], names)
    curves = _count_calls(monkeypatch, [noether], ["classify_plane_curve"])
    parses = _count_calls(monkeypatch, [PolyRing], ["parse"])
    variables = ["x", "y", "z"][: max(2, len(generators))]
    ideal = {"generators": generators, "claimed_prime": True}
    cfg = {"ring": {"vars": variables}, "ideal": ideal, "options": PELL_CFG["options"]}
    code, _, _ = run(capsys, "analyze", "-c", _write(tmp_path, "cfg.json", cfg))
    assert code in (0, 2)
    # dimension_probe runs once: the residue dimension that maximality and MaximalRight read
    assert calls == dict.fromkeys(names, 1)
    # points are classified by their rational point, curves once
    assert curves == {"classify_plane_curve": int(len(generators) == 1)}
    # the density witness is handed on as an ideal, never printed and parsed back
    assert parses == {"parse": len(generators)}


def test_config_sections_must_be_objects(capsys, tmp_path):
    for section in ("ring", "action", "ideal", "options"):
        cfg = _write(tmp_path, "cfg.json", {**LINE_CFG, section: ["x", "y"]})
        code, out, err = run(capsys, "stab", "-c", cfg)
        assert (code, out) == (1, "")
        assert err == f"error: config section '{section}' must be a JSON object\n"


@pytest.mark.parametrize("generator", ["(x - y)^2", "(x^2 + y^2 - 2)^2*(x - 1)"])
def test_repeated_factor_prime_flag_is_refused(capsys, tmp_path, generator):
    cfg = {**PELL_CFG, "ideal": {"generators": [generator], "claimed_prime": True}}
    line = _write(tmp_path, "line.json", LINE_CFG)
    probe = ("probe", "-c", line, "--target", generator, "--prime", "--radii", "1,2", "--side")
    for argv in (
        ("analyze", "-c", _write(tmp_path, "cfg.json", cfg), "--box", "2"),
        (*probe, "right"),
        (*probe, "left"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err == "error: a principal ideal with a repeated factor is not prime\n"


def test_false_maximality_flag_is_refused(capsys, tmp_path):
    flags = {"claimed_prime": True, "claimed_maximal": True}
    cfg = {**PELL_CFG, "ideal": {"generators": ["x^2 - 7*y^2 - 1"], **flags}}
    code, out, err = run(capsys, "analyze", "-c", _write(tmp_path, "cfg.json", cfg), "--box", "2")
    assert (code, out) == (1, "")
    assert err == "error: ideal flagged maximal is not zero-dimensional\n"


def test_non_radical_maximality_flag_is_refused(capsys, tmp_path):
    # zero-dimensional with residue dimension 2, but not radical
    cfg = {**PELL_CFG, "ideal": {"generators": ["x^2", "y"], "claimed_maximal": True}}
    code, out, err = run(capsys, "analyze", "-c", _write(tmp_path, "cfg.json", cfg), "--box", "2")
    assert (code, out) == (1, "")
    assert err == "error: ideal flagged maximal is not radical\n"


@pytest.mark.parametrize(
    "variables, generators, options",
    [
        (["x", "y", "z"], ["x - 1", "y - 2", "z + 1"], {}),
        (["x", "y"], ["x^2 + y^2 - 3"], {"box": 16, "probe_radii": [4, 8, 16]}),
    ],
)
def test_analyze_needs_no_groebner_component_tests(
    capsys, tmp_path, monkeypatch, variables, generators, options
):
    # a point target, a rational point of I or I itself settles every component
    import idealiser.action as action
    import idealiser.groebner as groebner
    import idealiser.noether as noether
    import idealiser.skew as skew

    names = ("ideal_intersect", "act_on_ideal", "tor1_is_zero")
    calls = _count_calls(monkeypatch, [action, groebner, noether, skew], names)
    ideal = {"generators": generators, "claimed_prime": True}
    cfg = {"ring": {"vars": variables}, "ideal": ideal, "options": options}
    run(capsys, "analyze", "-c", _write(tmp_path, "cfg.json", cfg))
    assert calls == dict.fromkeys(calls, 0)


@pytest.mark.parametrize(
    "config, argv, error",
    [
        ("{", ["stab"], "error: config is not valid JSON: Expecting property name"),
        ("[1, 2]", ["stab"], "error: config must be a JSON object\n"),
        (
            {**LINE_CFG, "ring": {"vars": ["x", "y"], "order": "revlex"}},
            ["stab"],
            "error: unknown order 'revlex' (use 'lex' or 'grevlex')\n",
        ),
        (
            {**LINE_CFG, "action": {"matrix": [["1", "a"], ["0", "1"]]}},
            ["stab"],
            "error: bad action matrix entry: Invalid literal for Fraction: 'a'\n",
        ),
        ({"ring": {"vars": ["x", "y"]}}, ["stab"], "error: config needs ideal.generators\n"),
        (LINE_CFG, ["sset", "--point", "1"], "error: point needs 2 coordinates, got 1\n"),
        (
            LINE_CFG,
            ["probe", "--point", "1,a"],
            "error: bad point coordinate: Invalid literal for Fraction: 'a'\n",
        ),
    ],
    ids=[
        "invalid-json", "not-an-object", "unknown-order", "bad-matrix-entry",
        "no-generators", "point-arity", "point-coordinate",
    ],
)
def test_input_errors_exit_one(capsys, tmp_path, config, argv, error):
    path = tmp_path / "cfg.json"
    path.write_text(config if isinstance(config, str) else json.dumps(config))
    code, out, err = run(capsys, argv[0], "-c", str(path), *argv[1:])
    assert (code, out) == (1, "")
    assert err.startswith(error) and err.count("\n") == 1


@pytest.mark.parametrize(
    "section, key",
    [(None, "name"), ("ring", "variables"), ("action", "matrx"), ("ideal", "prime"),
     ("options", "boxes"), ("options", "probe_radius")],
)
def test_unknown_config_keys_are_refused(capsys, tmp_path, section, key):
    cfg = json.loads(json.dumps(PELL_CFG))
    if section is None:
        cfg[key] = 1
    else:
        cfg[section][key] = [1]
    code, out, err = run(capsys, "analyze", "-c", _write(tmp_path, "cfg.json", cfg))
    assert (code, out) == (1, "")
    name = key if section is None else f"{section}.{key}"
    assert err == f"error: unknown config key '{name}'\n"


def test_parser_is_built_once_and_keeps_no_flags(capsys, tmp_path):
    import idealiser.cli as cli

    pell = _write(tmp_path, "pell.json", PELL_CFG)
    first = ("probe", "-c", pell, "--radii", "1,2", "--side", "right", "--json")
    usage = ("probe", "-c", pell, "--side", "up")
    second = ("probe", "-c", pell, "--radii", "1", "--point", "1,0")
    alone = []
    for argv in (first, second):
        cli._argparser.cache_clear()
        alone.append(run(capsys, *argv))
    cli._argparser.cache_clear()
    together = [run(capsys, *first), run(capsys, *usage), run(capsys, *second)]
    assert cli._argparser.cache_info().misses == 1
    assert together[1][:2] == (1, "") and "invalid choice: 'up'" in together[1][2]
    assert [together[0], together[2]] == alone
    assert alone[0][1] != alone[1][1]


# characters a JSON string must escape or may carry: quotes, backslashes, control
# characters, non-ASCII letters and a character outside the basic plane
JSON_CHARS = ['"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f", "a", "Z", "0", " ", "\u00e9", "\u03bb", "\u4e2d", "\U0001f600"]


def _random_payload(rng, depth):
    """A nested value of every kind the JSON encoder knows."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return rng.choice([
            "".join(rng.choices(JSON_CHARS, k=rng.randint(0, 6))),
            True, False, None, 0, 1, rng.randint(-10**6, 10**6), -(2**70) - rng.randint(0, 9), 10**30,
        ])
    if roll < 0.45:  # a list of plain ints, or one with a bool among them
        ints = [rng.randint(-99, 99) for _ in range(rng.randint(1, 4))]
        return ints if rng.random() < 0.7 else ints + [rng.choice([True, False])]
    size = rng.randint(0, 4)
    if roll < 0.65:
        return [_random_payload(rng, depth - 1) for _ in range(size)]
    if roll < 0.75:
        return tuple(_random_payload(rng, depth - 1) for _ in range(size))
    keys = ["".join(rng.choices(JSON_CHARS, k=rng.randint(0, 3))) for _ in range(size)]
    return {k: _random_payload(rng, depth - 1) for k in keys}


def test_json_writer_matches_json_dumps():
    rng = random.Random(24)
    for i in range(500):
        payload = {"version": 1, "float": 0.1, "body": _random_payload(rng, rng.randint(1, 5))}
        if i % 50 == 0:  # empty containers and keys the writer hands on
            payload["edge"] = [[], {}, (), [[]], {"k": {}}, {2: "b", 1: [True, 1, 0, False]}, -2.5e-7]
        assert _json(payload) == json.dumps(payload, indent=2, sort_keys=True)
