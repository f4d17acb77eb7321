"""The benchmark's input pools, for tests that check a claim on every
family: ``perfbench/inputs.py`` is loaded from the checkout by its path."""

import importlib.util
import sys
from pathlib import Path


def benchmark_cases(monkeypatch, workloads=("plane2", "space3"), seed=1, cycles=2):
    """The cases of ``cycles`` passes over each workload's family cycle."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name while it executes
    monkeypatch.setitem(sys.modules, spec.name, inputs)
    spec.loader.exec_module(inputs)
    for workload in workloads:
        yield from inputs.generate(workload, seed, cycles)
