"""The benchmark's recorded outputs, guarded by the test suite: one
full-scale case per workload runs through the benchmark's own child
(``benchmarks/harness.run_child``) and must match its golden under
``benchmarks/goldens``, so a change that moves a recorded output fails here
and not only in a benchmark run.  Every config the benchmark writes, full
and tiny, must also build, since a config may set only keys its experiment
reads.  Nothing under ``benchmarks/`` is changed; each child's scratch
directory is removed by the harness.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))

import golden  # noqa: E402
import harness  # noqa: E402
from workloads import CASES, WORKLOADS  # noqa: E402

from htt.experiments import config_from_mapping, parse_config_text  # noqa: E402

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


@pytest.mark.parametrize("scale", ["full", "tiny"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_configs_build(name, scale):
    # every config the benchmark writes sets only keys its experiment reads
    workload = WORKLOADS[name]
    for seed in range(CASES):
        config = config_from_mapping(workload.experiment,
                                     parse_config_text(workload.config_text(seed, scale)))
        assert config.threads == 1
