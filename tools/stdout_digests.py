"""Stdout digests of the command line over the benchmark's input pools.

For each workload and seed, the script builds the pool that
``perfbench/run.py`` builds, ``inputs.generate(workload, seed,
run.POOL_CYCLES[workload])``, writes its configs to a fresh temporary
directory of its own, and runs ``idealiser.cli.main`` in-process on each
config, with and without ``--json``.  It prints the number of calls and,
per workload, one SHA-256 over the exit code and stdout of each of its
calls in order.  Two checkouts with equal digests printed the same bytes on
every call.  From the repository root:

    python3 tools/stdout_digests.py --seeds 1 7
    python3 tools/stdout_digests.py --root path/to/other/checkout --seeds 1 7

``--root`` runs the package and the pools of another checkout, and
``--cycles`` takes that many cycles of each pool instead of all of them.
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


def digests(seeds, cycles=None) -> tuple[int, dict[str, str]]:
    """The number of calls and the digest per workload; ``src`` and
    ``perfbench`` of the checkout must be on sys.path."""
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
                        stdout = io.StringIO()
                        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                            try:
                                rc = cli.main([case.command, "-c", str(path), *flags])
                            except (Exception, SystemExit) as exc:  # hashed as the call's outcome
                                rc = f"{type(exc).__name__}: {exc}"
                        text = stdout.getvalue().encode("utf-8")
                        digest.update(f"{seed} {index} {' '.join(flags)} {rc} {len(text)}\n".encode("utf-8") + text)
                        calls += 1
            finally:
                shutil.rmtree(workdir)
        out[workload] = digest.hexdigest()
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
