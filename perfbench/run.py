"""Closed-loop benchmark of the idealiser command line.

One caller drives ``idealiser.cli.main`` in-process and starts the next
input only when the previous one has returned, as a person or script
waiting for each verdict does.  Run it from the repository root:

    python3 perfbench/run.py --workload plane2 --seed 1 --seconds 25 --trace 0

Set-up generates the workload's inputs from the seed, writes them as JSON
configs and parses them with the package; it is repeated and its median
reported as ``setup_s``.  The timed loop then walks whole cycles of the
workload's families (see ``inputs.py``) until ``--seconds`` have passed, so
every run sees the same mix.  Each result is checked as its call returns, outside
the timed region, by ``checks.py``.  With ``--trace 1`` every other cycle runs
with layer spans (``tracer.py``) and the run reports per-layer metrics
instead of end-to-end ones.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A record of the run (environment, per-input
stdout digests, failures) is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402

# cycles generated per run: several times what the seed code gets through,
# so a faster program still meets fresh inputs; a run that uses them all up
# ends early
POOL_CYCLES = {"plane2": 100, "space3": 14, "colon2": 100}
SETUP_ROUNDS = 5
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import idealiser.cli; print(repr(time.perf_counter() - t))"
)


# Machine speed.  On shared cores the speed of a process can swing by a
# large factor for seconds at a time (1.7x on a 2-core virtual machine), for
# the package and any other code alike.  So the benchmark times a fixed
# stdlib-only reference loop, made of the operations the package spends its
# time on, next to every call, and rescales each call's wall time to the
# speed at which the reference takes REFERENCE_S.  Raw wall times are kept
# in the run record.
REFERENCE_S = 0.0035


def _reference() -> list:
    terms = {}
    for i in range(60):
        for j in range(16):
            m = tuple(a + b for a, b in zip((i, j, 1), (j, i % 5, 2)))
            terms[m] = terms.get(m, Fraction(0)) + Fraction(i - j, j + 1)
    return sorted(terms, key=lambda m: (sum(m), m))


def reference_seconds() -> float:
    t0 = perf_counter()
    _reference()
    return perf_counter() - t0


class BenchError(Exception):
    """The benchmark cannot run here; nothing is measured."""


def _environment() -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            commit = ref
    return {
        "python": platform.python_version(),
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "commit": commit,
    }


def _import_package():
    if "IDEALISER_PAIR_LIMIT" in os.environ:
        raise BenchError(
            "IDEALISER_PAIR_LIMIT is set; it changes what every Groebner run may do, unset it"
        )
    if not (SRC / "idealiser" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / 'idealiser'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import idealiser.cli

    if Path(idealiser.cli.__file__).resolve().parent != (SRC / "idealiser").resolve():
        raise BenchError(f"imported idealiser from {idealiser.cli.__file__}, not from {SRC}")
    return idealiser


def _import_seconds() -> float:
    """Import time of the package in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip())


def set_up(idealiser, workload: str, seed: int, workdir: Path):
    """Generate, write and parse the inputs; the median of several rounds,
    each with a fresh-interpreter import, is the set-up time."""
    rounds = []
    cases = paths = None
    for _ in range(SETUP_ROUNDS):
        # drop the last round's inputs first: two pools at once would set a
        # memory peak that the timed loop never reaches
        cases = paths = None
        ref_before = reference_seconds()
        import_s = _import_seconds()
        t0 = perf_counter()
        cases = inputs.generate(workload, seed, POOL_CYCLES[workload])
        paths = []
        for i, case in enumerate(cases):
            path = workdir / f"{i:05d}.json"
            path.write_text(json.dumps(case.config), encoding="utf-8")
            paths.append(path)
        for path in paths:
            cfg = json.loads(path.read_text(encoding="utf-8"))
            ring = idealiser.PolyRing(cfg["ring"]["vars"])
            for gen in cfg["ideal"]["generators"]:
                ring.parse(gen)
            if "action" in cfg:
                rows = [[Fraction(str(a)) for a in row] for row in cfg["action"]["matrix"]]
                idealiser.TranslationAction(ring, rows)
        elapsed = import_s + perf_counter() - t0
        rounds.append(elapsed * 2 * REFERENCE_S / (ref_before + reference_seconds()))
    return statistics.median(rounds), cases, paths


def run_one(main, case, path, tracer, index) -> dict:
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer is not None:
            tracer.begin(index)
        t0 = perf_counter()
        try:
            rc = main([case.command, "-c", str(path), "--json"])
        except (Exception, SystemExit) as exc:  # counted as a failed attempt
            error = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - t0
        if tracer is not None:
            tracer.end()
    return {
        "index": index, "family": case.family, "seconds": elapsed, "rc": rc,
        "error": error, "stdout": out.getvalue(), "stderr": err.getvalue(),
        "traced": tracer is not None,
    }


def run_loop(main, cases, paths, cycle: int, seconds: float, tracer):
    """Whole cycles until ``seconds`` have passed; with a tracer, odd cycles
    are traced and at least one is.  Each result is checked as soon as its
    call returns, outside the timed region, and its stdout is then dropped,
    so the run's memory does not grow with its length.  Each call's
    ``scaled`` time is its wall
    time at the reference speed.  The speed comes from the reference loop
    timed before and after the call and its neighbours: one sample of a few
    milliseconds is noisy, and a long call spans many changes of speed."""
    records = []
    refs = []
    t_start = perf_counter()
    for c in range(len(cases) // cycle):
        if perf_counter() - t_start >= seconds and (tracer is None or c >= 2):
            break
        traced = tracer is not None and c % 2 == 1
        if traced:
            tracer.install()
        try:
            for i in range(c * cycle, (c + 1) * cycle):
                refs.append(reference_seconds())
                r = run_one(main, cases[i], paths[i], tracer if traced else None, i)
                r["problems"] = check(cases[i], r)
                r["answered"] = decided(cases[i], r)
                r["stdout_sha256"] = hashlib.sha256(r.pop("stdout").encode()).hexdigest()
                del r["stderr"]
                records.append(r)
        finally:
            if traced:
                tracer.remove()
    refs.append(reference_seconds())
    for i, r in enumerate(records):
        r["ref"] = refs[i]
        r["speed"] = statistics.mean(refs[max(0, i - 1) : i + 3]) / REFERENCE_S
        r["scaled"] = r["seconds"] / r["speed"]
    return records, perf_counter() - t_start


def check(case, record) -> list[str]:
    if record["error"] is not None:
        return [record["error"]]
    if record["rc"] == 1:
        return [f"exit status 1: {record['stderr'].strip()}"]
    try:
        return checks.CHECKS[case.command](case, record["stdout"], record["rc"])
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def decided(case, record) -> tuple[int, int]:
    """(answers that are not unknown, answers): two sides per analysis; a
    colon table has no unknown outcome, so each table is one answer."""
    ok = record["error"] is None and record["rc"] != 1
    if case.command != "analyze":
        return int(ok), 1
    if not ok:
        return 0, 2
    try:
        verdict = json.loads(record["stdout"])["verdict"]
    except (ValueError, KeyError):
        return 0, 2
    return sum(verdict[side] in ("yes", "no") for side in ("right", "left")), 2


def end_to_end(records, setup_s, peak_rss_mb) -> dict:
    latencies = sorted(r["scaled"] for r in records)
    answered = [r["answered"] for r in records]
    return {
        "analyses_per_s": {"value": len(records) / sum(latencies), "unit": "1/s"},
        "latency_p50_ms": {"value": 1000 * statistics.median(latencies), "unit": "ms"},
        "latency_p90_ms": {"value": 1000 * statistics.quantiles(latencies, n=10)[8], "unit": "ms"},
        "decided_frac": {
            "value": sum(a for a, _ in answered) / sum(b for _, b in answered), "unit": "ratio"
        },
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def per_layer(records, tracer) -> dict:
    traced = [r["scaled"] for r in records if r["traced"]]
    untraced = [r["scaled"] for r in records if not r["traced"]]
    values = tracer.layer_metrics({r["index"]: r["speed"] for r in records if r["traced"]})
    values["trace.traced_per_s"] = len(traced) / sum(traced)
    values["trace.untraced_per_s"] = len(untraced) / sum(untraced)
    values["trace.overhead_x"] = values["trace.untraced_per_s"] / values["trace.traced_per_s"]
    units = {"_per_s": "1/s", "_s": "s", "_frac": "ratio", "_x": "ratio"}
    return {
        name: {"value": value, "unit": next((u for k, u in units.items() if name.endswith(k)), "count")}
        for name, value in values.items()
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(inputs.CYCLES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        idealiser = _import_package()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    outdir = HERE / "out"
    workdir = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    outdir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setup_s, cases, paths = set_up(idealiser, args.workload, args.seed, workdir)
        tracer = None
        if args.trace:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracer.prepare()
        cycle = len(inputs.CYCLES[args.workload])
        records, wall = run_loop(idealiser.cli.main, cases, paths, cycle, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [
        {"index": r["index"], "family": r["family"], "problems": r["problems"]}
        for r in records
        if r["problems"]
    ]
    analyses = [
        {
            "index": r["index"], "family": r["family"], "ms": 1000 * r["seconds"],
            "ref_s": r["ref"], "speed": r["speed"], "rc": r["rc"],
            "stdout_sha256": r["stdout_sha256"], "ok": not r["problems"],
        }
        for r in records
    ]
    if tracer is None:
        metrics = end_to_end(records, setup_s, peak_rss_mb)
    else:
        metrics = per_layer(records, tracer)
        tracer.write(outdir / f"{tag}-spans.tsv.gz")

    record = {
        "args": vars(args), "environment": _environment(), "wall_s": wall,
        "attempted": len(records), "failed": len(failures),
        "fail_frac": len(failures) / len(records), "metrics": metrics,
        "missing_wrappers": tracer.missing if tracer else [],
        "failures": failures, "analyses": analyses,
    }
    (outdir / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    env = record["environment"]
    print(
        f"{args.workload} seed {args.seed}: {len(records)} inputs in {wall:.1f} s, "
        f"{len(failures)} failed (fail_frac {record['fail_frac']:.3f}); "
        f"python {env['python']}, {env['nproc']} cpus, commit {env['commit']}; "
        f"record in {(outdir / tag).relative_to(ROOT)}.json"
    )
    for failure in failures[:5]:
        print(f"  failed #{failure['index']} {failure['family']}: {failure['problems'][0]}")
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
