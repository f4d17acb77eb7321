"""Stdout digests of the command line over the benchmark's input pools.

For each workload and seed, the script builds the pool that
``perfbench/run.py`` builds, ``inputs.generate(workload, seed,
run.POOL_CYCLES[workload])``, writes its configs to a fresh temporary
directory of its own, and runs ``idealiser.cli.main`` in-process on each
config, with and without ``--json``.  It prints the number of calls and,
per workload, one SHA-256 over the exit code and stdout of each of its
calls in order.  The pools run only ``analyze`` and ``quotient-table``, so a
last line hashes a fixed sweep the same way: 13 small configs (plane curves
and a point under the standard, a rank-one and a rational action, a space
line and a space conic), each run through ``probe`` on both sides, ``sset
--target`` and ``tset --prime`` against a line flagged prime, an unflagged
point and its own generators, the containment rules of
``noether.component_test`` (234 calls).  Two checkouts with equal digests
printed the same bytes on every call.  From the repository root:

    python3 tools/stdout_digests.py --seeds 1 7
    python3 tools/stdout_digests.py --root path/to/other/checkout --seeds 1 7

``--root`` runs the package and the pools of another checkout, and
``--cycles`` takes that many cycles of each pool instead of all of them; the
sweep always runs whole.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("plane2", "space3", "colon2")

PLANE, SPACE = ["x", "y"], ["x", "y", "z"]
RANK_ONE, RATIONAL = [["1", "1"], ["0", "0"]], [["1/2", "0"], ["0", "1"]]
SWEEP = [  # (variables, generators, action matrix, None for the standard action)
    (PLANE, ["x^2 - 7*y^2 - 1"], None),
    (PLANE, ["2*x - 3*y - 1"], None),
    (PLANE, ["y^2 - x^3"], None),
    (PLANE, ["x^2 + y^2 - 3"], None),
    (PLANE, ["x - 1", "y - 2"], None),
    (PLANE, ["x^2 - 2*y^2 - 1"], RANK_ONE),
    (PLANE, ["x - y - 1"], RANK_ONE),
    (PLANE, ["x - 1", "y"], RANK_ONE),
    (PLANE, ["y^2 - x^3"], RATIONAL),
    (PLANE, ["2*x - 3*y - 1"], RATIONAL),
    (PLANE, ["x - 1/2", "y - 3"], RATIONAL),
    (SPACE, ["x - 1 - 2*(z - 1)", "y + 1 - (z - 1)"], None),
    (SPACE, ["z - 1", "(x - 1)^2 - 2*(y + 1)^2 - 1"], None),
]
# per number of variables: a line, flagged prime, and a point, unflagged
SWEEP_TARGETS = {
    2: (["2*x - 3*y + 2"], ["x - 1", "y"]),
    3: (["x - 1", "y + 1"], ["x - 1", "y + 1", "z - 1"]),
}


def sweep_calls():
    """(config, argv) for each call of the sweep, in order."""
    for variables, gens, matrix in SWEEP:
        small = len(variables) == 2
        config = {
            "ring": {"vars": variables},
            "ideal": {"generators": gens, "claimed_prime": True},
            "options": {"box": 3 if small else 1, "probe_radii": [1, 2, 3] if small else [1, 2]},
        }
        if matrix is not None:
            config["action"] = {"matrix": matrix}
        line, point = SWEEP_TARGETS[len(variables)]
        for target, prime in ((line, ["--prime"]), (point, []), (gens, ["--prime"])):
            yield config, ["probe", "--target", *target, *prime]
            yield config, ["sset", "--target", *target]
            yield config, ["tset", *target, "--prime"]


def _run(cli, argv) -> tuple[object, bytes]:
    """The exit code (or the exception raised) and stdout of one call."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except (Exception, SystemExit) as exc:  # hashed as the call's outcome
            rc = f"{type(exc).__name__}: {exc}"
    return rc, stdout.getvalue().encode("utf-8")


def digests(seeds, cycles=None) -> tuple[int, dict[str, str]]:
    """The number of pool calls and the digest per workload, then of the
    sweep; ``src`` and ``perfbench`` of the checkout must be on sys.path."""
    import inputs
    import run
    from idealiser import cli

    calls, out = 0, {}
    for workload in WORKLOADS:
        digest = hashlib.sha256()
        for seed in seeds:
            cases = inputs.generate(workload, seed, run.POOL_CYCLES[workload])
            if cycles is not None:
                cases = cases[: cycles * len(inputs.CYCLES[workload])]
            workdir = Path(tempfile.mkdtemp(prefix=f"digests-{workload}-"))
            try:
                for index, case in enumerate(cases):
                    path = workdir / f"{index:05d}.json"
                    path.write_text(json.dumps(case.config), encoding="utf-8")
                    for flags in ([], ["--json"]):
                        rc, text = _run(cli, [case.command, "-c", str(path), *flags])
                        digest.update(f"{seed} {index} {' '.join(flags)} {rc} {len(text)}\n".encode("utf-8") + text)
                        calls += 1
            finally:
                shutil.rmtree(workdir)
        out[workload] = digest.hexdigest()
    digest = hashlib.sha256()
    workdir = Path(tempfile.mkdtemp(prefix="digests-sweep-"))
    try:
        for index, (config, argv) in enumerate(sweep_calls()):
            path = workdir / f"{index:03d}.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            for flags in ([], ["--json"]):
                rc, text = _run(cli, [*argv, "-c", str(path), *flags])
                digest.update(f"{index} {' '.join(flags)} {rc} {len(text)}\n".encode("utf-8") + text)
    finally:
        shutil.rmtree(workdir)
    out["sweep"] = digest.hexdigest()
    return calls, out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 7])
    parser.add_argument("--cycles", type=int, default=None)
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    calls, found = digests(args.seeds, args.cycles)
    print(f"calls {calls}")
    for workload, digest in found.items():
        print(f"{workload} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
