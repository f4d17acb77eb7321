import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "stdout_digests.py"


def test_two_concurrent_digest_runs_agree():
    """Two runs of the digest script at once, on one cycle of each pool at
    seed 1: each writes its configs to a directory of its own, so they print
    the same call count, the same digest per workload and the same digest
    of the sweep."""
    argv = [sys.executable, str(SCRIPT), "--seeds", "1", "--cycles", "1"]
    runs = [subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) for _ in range(2)]
    outs = [run.communicate(timeout=300)[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    assert outs[0] == outs[1]
    lines = outs[0].splitlines()
    # one cycle holds 13 plane2, 11 space3 and 6 colon2 inputs, each run with and without --json;
    # the fixed sweep of the containment rules follows the pools
    assert lines[0] == "calls 60"
    assert [line.split()[0] for line in lines[1:]] == ["plane2", "space3", "colon2", "sweep"]
    assert all(len(line.split()[1]) == 64 for line in lines[1:])
