"""The benchmark's recorded outputs, guarded by the test suite: one
full-scale case per workload runs through the benchmark's own child
(``benchmarks/harness.run_child``) and must match its golden under
``benchmarks/goldens``, so a change that moves a recorded output fails here
and not only in a benchmark run.  Nothing under ``benchmarks/`` is changed;
each child's scratch directory is removed by the harness.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))

import golden  # noqa: E402
import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Case 6 of limit-w512 pools atoms of +-1.8e6 into an n = 1024 mean of
# 1.6e-5, the recorded value most sensitive to a solve's rounding
CASE = 6


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_full_scale_case_matches_its_golden(name):
    want = golden.load(name, "full", CASE)
    assert want is not None
    [outcome] = harness.run_child(ROOT, WORKLOADS[name], CASE, "full", "run", want)
    assert not outcome.failed, outcome.problems
    assert outcome.summary is not None
