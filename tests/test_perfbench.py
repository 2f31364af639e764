"""The traced benchmark run still works: its tracer wraps `compose`,
`tensor_parallel` and `Circuit.__init__` by name and reads the nodes from
the constructor's positional arguments, so a change to the circuit API that
drops any of them shows here.  The `exp` run also checks `exp demo`, and so
the derived `complementary-idempotent-cond` suite, through the tracer's
rewrapped `SUITES`; the `validate` run normalizes expanded nets through the
tracer's `rewrite.normalize` wrap, which counts the redexes erased."""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload",
                         ["check", "evaluate", "exp", "validate"])
def test_traced_tiny_run(workload):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--tiny", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout.splitlines()[-1])
    assert doc["correct"] is True
    assert doc["metrics"]["circuit.constructed"]["value"] > 0
    if workload == "validate":
        assert doc["metrics"]["rewrite.redexes"]["value"] > 0
