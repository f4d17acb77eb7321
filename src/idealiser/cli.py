"""Command line front end.

All mathematical output goes to stdout and is byte-stable for a given
input; timing goes to stderr so transcripts can be diffed.  Exit codes:
0 success (for analyze: both sides decided), 2 analyze left something
undecided, 1 bad input or resource limit.
"""

from __future__ import annotations

import argparse
import contextvars
import functools
import json
import sys
import time
from dataclasses import replace
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .action import Lattice, TranslationAction
from .diophantine import pell_enumerate
from .groebner import PAIR_LIMIT, Ideal, ResourceLimitError
from .noether import (
    GrowthProbe,
    LatticeSubsetReport,
    analysis,
    decide,
    growth_probe,
    lattice_payload,
    point_ideal,
    s_set_box,
    t_set_box,
    tor1,
)
from .parser import InputError
from .poly import MonomialOrder, PolyRing
from .skew import idealiser_membership, parse_skew, quotient_table

SCHEMA_VERSION = 1

# section -> the keys a config may set in it
CONFIG_KEYS = {
    "ring": ("vars", "order"),
    "action": ("matrix",),
    "ideal": ("generators", "claimed_prime", "claimed_maximal"),
    "options": ("box", "probe_radii", "pair_limit"),
}


# ------------------------------------------------------------- config


def _natural(value, what: str, least: int = 0) -> int:
    """A JSON integer of at least ``least``; ``bool`` is an ``int`` subclass
    and is refused, as is a float."""
    if type(value) is not int:
        raise InputError(f"{what} must be an integer, got {json.dumps(value)}")
    if value < least:
        raise InputError(f"{what} must be {'positive' if least else 'non-negative'}, got {value}")
    return value


def _strings(value, what: str) -> list[str]:
    """A nonempty JSON list of strings."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise InputError(f"{what} must be a list of strings, got {json.dumps(value)}")
    if not value:
        raise InputError(f"{what} must be nonempty")
    return value


def _flag(section: dict, key: str) -> bool:
    """A JSON boolean, false when absent; ``bool("no")`` would be true."""
    value = section.get(key, False)
    if type(value) is not bool:
        raise InputError(f"ideal.{key} must be true or false, got {json.dumps(value)}")
    return value


def _load(args, ideal: bool = True):
    """Ring, action, ideal (None unless ``ideal``) and options of the
    command's JSON config.  A ``pair_limit`` option sets ``PAIR_LIMIT`` in
    the context ``main`` runs the command in, so it holds for that command
    only; the environment is never written."""
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"config is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise InputError("config must be a JSON object")
    for section, body in cfg.items():
        if section not in CONFIG_KEYS:
            raise InputError(f"unknown config key {section!r}")
        if not isinstance(body, dict):
            raise InputError(f"config section {section!r} must be a JSON object")
        for key in body:
            if key not in CONFIG_KEYS[section]:
                raise InputError(f"unknown config key {section + '.' + key!r}")

    ring_cfg = cfg.get("ring", {})
    variables = _strings(ring_cfg.get("vars", ["x", "y"]), "ring.vars")
    order = ring_cfg.get("order", "grevlex")
    if order not in ("grevlex", "lex"):
        raise InputError(f"unknown order {order!r} (use 'lex' or 'grevlex')")
    ring = PolyRing(tuple(variables), MonomialOrder.lex(len(variables)) if order == "lex" else None)

    act_cfg = cfg.get("action")
    if act_cfg and "matrix" in act_cfg:
        matrix = act_cfg["matrix"]
        if not isinstance(matrix, list) or not all(isinstance(row, list) for row in matrix):
            raise InputError(f"action.matrix must be a list of rows, got {json.dumps(matrix)}")
        try:
            rows = [[Fraction(str(x)) for x in row] for row in matrix]
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad action matrix entry: {exc}")
        act = TranslationAction(ring, rows)
    else:
        act = TranslationAction.standard(ring)

    I = None
    if ideal:
        ideal_cfg = cfg.get("ideal", {})
        if "generators" not in ideal_cfg:
            raise InputError("config needs ideal.generators")
        I = Ideal(
            ring,
            [ring.parse(s) for s in _strings(ideal_cfg["generators"], "ideal.generators")],
            claimed_prime=_flag(ideal_cfg, "claimed_prime"),
            claimed_maximal=_flag(ideal_cfg, "claimed_maximal"),
        )

    opts = dict(cfg.get("options", {}))
    if "pair_limit" in opts:
        PAIR_LIMIT.set(_natural(opts["pair_limit"], "options.pair_limit", least=1))
    return ring, act, I, opts


def _parse_point(text: str, n: int) -> tuple[Fraction, ...]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise InputError(f"point needs {n} coordinates, got {len(parts)}")
    try:
        return tuple(Fraction(p) for p in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad point coordinate: {exc}")


# ----------------------------------------------------------- rendering


def _vec(v) -> str:
    return "(" + ",".join(str(x) for x in v) + ")"


def _lattice_str(L: Lattice) -> str:
    if L.rank == 0:
        return "trivial"
    return " ".join(_vec(b) for b in L.basis)


def _ideal_str(I: Ideal) -> str:
    if I.is_unit_ideal():
        return "<1>"
    if not I.gens:
        return "<0>"
    return "<" + ", ".join(str(g) for g in I.groebner_basis()) + ">"


def _report_json(rep: LatticeSubsetReport) -> dict:
    return {
        "kind": rep.kind,
        "description": rep.description,
        "box": rep.box,
        "members": rep.members,
        "cosets": [{"rep": rep_, "members": ms} for rep_, ms in rep.cosets],
        "stabiliser": lattice_payload(rep.stabiliser),
        "sublattice": lattice_payload(rep.sublattice),
    }


def _json(payload) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True)``, written as one list
    of parts.  Strings go through the C string encoder, a list of plain ints
    is one join, and ``true``, ``false``, ``null``, ``[]`` and ``{}`` are
    written here; any other type (a float, a dict with a key that is not a
    string) is handed to ``json.dumps``."""
    parts: list[str] = []
    put = parts.append

    def encode(value, indent: str) -> None:
        # indent: a newline and the spaces before the value's closing bracket
        kind = type(value)
        if kind is str:
            put(encode_basestring_ascii(value))
        elif kind is int:
            put(str(value))
        elif kind is bool:
            put("true" if value else "false")
        elif value is None:
            put("null")
        elif (kind is list or kind is tuple or kind is dict) and not value:
            put("{}" if kind is dict else "[]")
        elif kind is list or kind is tuple:
            inner = indent + "  "
            if set(map(type, value)) == {int}:
                put("[" + inner + ("," + inner).join(map(str, value)) + indent + "]")
            else:
                put("[")
                for x in value:
                    put(inner)
                    encode(x, inner)
                    put(",")
                parts[-1] = indent + "]"  # in place of the last item's comma
        elif kind is dict and set(map(type, value)) == {str}:
            inner = indent + "  "
            put("{")
            for k in sorted(value):
                put(inner + encode_basestring_ascii(k) + ": ")
                encode(value[k], inner)
                put(",")
            parts[-1] = indent + "}"
        else:
            put(json.dumps(value, indent=2, sort_keys=True).replace("\n", indent))

    encode(payload, "\n")
    return "".join(parts)


def _emit(as_json: bool, payload, lines) -> None:
    """Print ``payload()`` as JSON, or the strings of ``lines()``: only the one
    asked for is built, and all of it before the first byte is printed, so a
    failure prints nothing."""
    if as_json:
        print(_json({**payload(), "version": SCHEMA_VERSION}))
    else:
        print("".join(f"{line}\n" for line in lines()), end="")


def _print_report_lines(rep: LatticeSubsetReport):
    lines = [
        f"{rep.kind}-set ({rep.description})",
        f"  box: {rep.box}",
        f"  members ({len(rep.members)}): "
        + (" ".join(_vec(m) for m in rep.members) if rep.members else "none"),
        f"  coset classes: {len(rep.cosets)}",
    ]
    for rep_, ms in rep.cosets:
        lines.append(f"    class {_vec(rep_)}: " + " ".join(_vec(m) for m in ms))
    return lines


# --------------------------------------------------------- subcommands


def _box(args, opts: dict, default: int) -> int:
    return _natural(args.box if args.box is not None else opts.get("box", default), "box radius")


def _radii(text: str | None, opts: dict) -> list[int]:
    if text:
        radii = []
        for r in text.split(","):
            try:
                radii.append(int(r))
            except ValueError:
                radii.append(r)  # refused below, quoted as typed
    else:
        radii = opts.get("probe_radii", [2, 4, 8])
        if not isinstance(radii, list):
            raise InputError(f"options.probe_radii must be a list, got {json.dumps(radii)}")
        if not radii:
            raise InputError("options.probe_radii must be nonempty")
    return [_natural(r, "probe radius") for r in radii]


def _probe_json(p: GrowthProbe) -> dict:
    return {"side": p.side, "radii": p.radii, "counts": p.counts, "flag": p.flag, "target": p.target}


def _probe_line(p: GrowthProbe) -> str:
    return (
        f"probe {p.side} vs {p.target}: radii "
        + ",".join(str(r) for r in p.radii)
        + " counts "
        + ",".join(str(c) for c in p.counts)
        + f" [{p.flag}]"
    )


def _cmd_analyze(args) -> int:
    _, act, I, opts = _load(args)
    box = _box(args, opts, 8)
    radii = _radii(args.probe_radii, opts)

    t0 = time.perf_counter()
    verdict, sets = decide(I, act, box=box)
    a = analysis(I, act)
    target = a.target(box)
    right = growth_probe(I, target, act, "right", radii)
    # the left probe runs against the line that traps the orbit, if the left ladder found
    # one (in one variable a dense orbit has none); against a point target it is the right
    # probe under g -> -g (see growth_probe)
    trapped = any(c.rule == "MaximalLeftCriticalDensity" for c in verdict.certificates)
    if trapped and a.density.witness is not None:
        left = growth_probe(I, a.density.witness, act, "left", radii)
    elif analysis(target, act).point is not None:
        left = replace(right, side="left")
    else:
        left = growth_probe(I, target, act, "left", radii)
    probes = [right, left]
    elapsed = time.perf_counter() - t0
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)

    def payload():
        return {
            "verdict": {
                "right": verdict.right,
                "left": verdict.left,
                "certificates": [
                    {"rule": c.rule, "payload": c.payload} for c in verdict.certificates
                ],
            },
            "stabiliser": lattice_payload(a.K),
            "complement": lattice_payload(a.H),
            "sets": [_report_json(r) for r in sets],
            "probes": [_probe_json(p) for p in probes],
        }

    def lines():
        yield "ideal: " + _ideal_str(I)
        yield "stabiliser: " + _lattice_str(a.K)
        yield "complement: " + _lattice_str(a.H)
        yield f"right noetherian: {verdict.right}"
        yield f"left noetherian: {verdict.left}"
        for c in verdict.certificates:
            detail = ", ".join(f"{k}={c.payload[k]}" for k in sorted(c.payload))
            yield f"certificate {c.rule}: {detail}"
        for rep in sets:
            yield from _print_report_lines(rep)
        yield from map(_probe_line, probes)

    _emit(args.json, payload, lines)
    return 0 if verdict.right != "unknown" and verdict.left != "unknown" else 2


def _cmd_stab(args) -> int:
    _, act, I, _ = _load(args)
    K = analysis(I, act).K
    _emit(
        args.json,
        lambda: {"stabiliser": lattice_payload(K), "rank": K.rank},
        lambda: [f"lattice basis: {_lattice_str(K)}"],
    )
    return 0


def _cmd_complement(args) -> int:
    _, act, I, _ = _load(args)
    a = analysis(I, act)
    _emit(
        args.json,
        lambda: {"stabiliser": lattice_payload(a.K), "complement": lattice_payload(a.H)},
        lambda: [f"stabiliser: {_lattice_str(a.K)}", f"complement: {_lattice_str(a.H)}"],
    )
    return 0


def _cmd_quotient_table(args) -> int:
    _, act, I, opts = _load(args)
    box = _box(args, opts, 2)
    t0 = time.perf_counter()
    table = quotient_table(I, I, act, box)
    print(f"elapsed: {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    strings = {comp: _ideal_str(comp) for comp in set(table.values())}  # each object once
    entries = [(g, strings[comp]) for g, comp in sorted(table.items())]
    _emit(
        args.json,
        lambda: {"box": box, "entries": [{"g": g, "component": s} for g, s in entries]},
        lambda: [f"idealiser components (I : I^g), box {box}:"]
        + [f"  g={_vec(g)}: {s}" for g, s in entries],
    )
    return 0


def _cmd_tor(args) -> int:
    ring, _, I, _ = _load(args)
    J = Ideal(ring, [ring.parse(s) for s in args.target])
    mod = tor1(I, J)
    _emit(
        args.json,
        lambda: {
            "is_zero": mod.is_zero,
            "numerator": _ideal_str(mod.numerator),
            "denominator": _ideal_str(mod.denominator),
            "dimension_probe": mod.dimension_probe,
        },
        lambda: [
            f"tor1 zero: {'yes' if mod.is_zero else 'no'}",
            "intersection: " + _ideal_str(mod.numerator),
            "product: " + _ideal_str(mod.denominator),
            "dimension probe: " + ",".join(str(d) for d in mod.dimension_probe),
        ],
    )
    return 0


def _sub_for(args, act: TranslationAction, I: Ideal) -> Lattice:
    if args.full:
        return Lattice.standard(act.d)
    return analysis(I, act).H


def _cmd_sset(args) -> int:
    ring, act, I, opts = _load(args)
    box = _box(args, opts, 8)
    sub = _sub_for(args, act, I)
    if args.point is not None:
        target = _parse_point(args.point, ring.n)
    elif args.target:
        target = Ideal(ring, [ring.parse(s) for s in args.target], claimed_prime=True)
    else:
        raise InputError("sset needs --point or --target")
    rep = s_set_box(I, target, sub, box, act)
    _emit(args.json, lambda: _report_json(rep), lambda: _print_report_lines(rep))
    return 0


def _cmd_tset(args) -> int:
    ring, act, I, opts = _load(args)
    box = _box(args, opts, 6)
    sub = _sub_for(args, act, I)
    J = Ideal(ring, [ring.parse(s) for s in args.target], claimed_prime=args.prime)
    rep = t_set_box(I, J, sub, box, act)
    _emit(args.json, lambda: _report_json(rep), lambda: _print_report_lines(rep))
    return 0


def _cmd_pell(args) -> int:
    if args.count < 1:  # pell_enumerate checks n
        raise InputError("count must be at least 1")
    sols = pell_enumerate(args.n, args.count)
    _emit(
        args.json,
        lambda: {
            "n": args.n,
            "fundamental": [sols[0].x, sols[0].y],
            "solutions": [[s.x, s.y] for s in sols],
        },
        lambda: [" ".join(f"({s.x},{s.y})" for s in sols)],
    )
    return 0


def _cmd_skewmul(args) -> int:
    if args.config:
        _, act, _, _ = _load(args, ideal=False)
    else:
        act = TranslationAction.standard(PolyRing(("x", "y")))
    a = parse_skew(args.left, act)
    b = parse_skew(args.right, act)
    prod = a * b
    _emit(args.json, lambda: {"left": str(a), "right": str(b), "product": str(prod)}, lambda: [str(prod)])
    return 0


def _cmd_member(args) -> int:
    _, act, I, _ = _load(args)
    elt = parse_skew(args.element, act)
    ok = idealiser_membership(elt, I, act)
    _emit(args.json, lambda: {"element": str(elt), "member": ok}, lambda: [f"member: {'yes' if ok else 'no'}"])
    return 0


def _cmd_probe(args) -> int:
    ring, act, I, opts = _load(args)
    radii = _radii(args.radii, opts)
    if args.target:
        J = Ideal(ring, [ring.parse(s) for s in args.target], claimed_prime=args.prime)
    elif args.point is not None:
        J = point_ideal(ring, _parse_point(args.point, ring.n))
    else:
        J = analysis(I, act).target(max(radii))
    sides = ["right", "left"] if args.side == "both" else [args.side]
    probes = [growth_probe(I, J, act, side, radii) for side in sides]
    _emit(args.json, lambda: {"probes": list(map(_probe_json, probes))}, lambda: map(_probe_line, probes))
    return 0


# -------------------------------------------------------------- parser


@functools.cache
def _argparser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The command line parser and its sub-parser per command name, built on
    first use and kept for the process.  They hold no per-command data:
    every parse returns a fresh namespace."""
    ap = argparse.ArgumentParser(
        prog="idealiser",
        description="Idealiser subrings of polynomial skew group rings: "
        "stabilisers, graded components, and noetherianity verdicts.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, help_, needs_config=True):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(fn=fn)
        p.add_argument("-c", "--config", required=needs_config, help="JSON config file")
        p.add_argument("--json", action="store_true", help="machine readable output")
        return p

    p = add("analyze", _cmd_analyze, "decide noetherianity and report evidence")
    p.add_argument("--box", type=int, help="evidence box radius")
    p.add_argument("--probe-radii", help="comma separated probe radii")

    add("stab", _cmd_stab, "stabiliser lattice of the ideal")
    add("complement", _cmd_complement, "stabiliser and a complement")

    p = add("quotient-table", _cmd_quotient_table, "graded components (I : I^g)")
    p.add_argument("--box", type=int, help="box radius (default 2)")

    p = add("tor", _cmd_tor, "Tor_1(C/I, C/J) vanishing and dimensions")
    p.add_argument("target", nargs="+", help="generators of J")

    p = add("sset", _cmd_sset, "S-set of the ideal in a box")
    target = p.add_mutually_exclusive_group()
    target.add_argument("--point", help="target point, comma separated")
    target.add_argument("--target", nargs="+", help="generators of a target prime")
    p.add_argument("--box", type=int)
    p.add_argument("--full", action="store_true", help="use the full lattice")

    p = add("tset", _cmd_tset, "T-set of the ideal against J in a box")
    p.add_argument("target", nargs="+", help="generators of J")
    p.add_argument("--box", type=int)
    p.add_argument("--full", action="store_true", help="use the full lattice")
    p.add_argument("--prime", action="store_true", help="J is known prime")

    p = add("pell", _cmd_pell, "fundamental solution of x^2 - n*y^2 = 1", needs_config=False)
    p.add_argument("n", type=int)
    p.add_argument("--count", type=int, default=5)

    p = add("skewmul", _cmd_skewmul, "multiply two skew group ring elements", needs_config=False)
    p.add_argument("left")
    p.add_argument("right")

    p = add("member", _cmd_member, "does a skew element lie in the idealiser")
    p.add_argument("element")

    p = add("probe", _cmd_probe, "growth of nonzero components in boxes")
    p.add_argument("--side", choices=("right", "left", "both"), default="both")
    p.add_argument("--radii", help="comma separated radii")
    target = p.add_mutually_exclusive_group()
    target.add_argument("--target", nargs="+", help="generators of the target ideal")
    target.add_argument("--point", help="target point, comma separated")
    p.add_argument("--prime", action="store_true", help="target is known prime")

    return ap, sub.choices


def main(argv=None) -> int:
    """Run one command.  An argv that starts with a command name goes straight
    to that command's sub-parser, one argparse level; any other argv (help,
    a typo, no command) goes to the top-level parser, which answers it."""
    argv = sys.argv[1:] if argv is None else argv
    top, commands = _argparser()
    try:
        command = commands.get(argv[0]) if argv else None
        if command is None:
            args = top.parse_args(argv)
        else:
            args, extra = command.parse_known_args(argv[1:])
            if extra:  # worded by the top level, as its own parse would
                top.error("unrecognized arguments: " + " ".join(extra))
    except SystemExit as exc:
        if exc.code:  # a usage error: exit 1, as for any bad input; 2 means undecided
            return 1
        raise
    try:
        # a fresh context per command: a config's pair_limit ends with it
        return contextvars.copy_context().run(args.fn, args)
    except (ValueError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
