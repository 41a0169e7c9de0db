"""The benchmark's golden pass, run as a test.

``perfbench/golden/`` freezes each workload's outputs at master seed 0, and
every benchmark run checks its first pass against them within
``GOLDEN_RTOL``.  Running the same check here shows a change that moves
the numbers past that tolerance in the test suite, not only in the
benchmark.  ``perfbench/workloads.py`` and ``perfbench/spans.py`` are
loaded as they are and not changed.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    path = BENCH_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")


@pytest.mark.parametrize("name", ["mest_attack", "orderstat_attack", "offline"])
def test_golden_pass_within_tolerance(tmp_path, name):
    result = workloads.run_pass(workloads.WORKLOADS[name], 0, tmp_path / name)
    workloads.compare_golden(result, workloads.load_golden(BENCH_DIR, name))
    errors = {op.label: op.errors for op in result.ops if op.errors}
    assert not errors


def test_tracer_binds_every_traced_name(tmp_path):
    # The tracer rebinds scmsim names it imports by attribute; a renamed
    # one would drop out of the per-layer metrics.  ``SCTable.save`` has
    # never existed.
    tracer = _load("spans").Tracer(tmp_path)
    assert tracer.missing == ["SCTable.save"]
