"""Tests of the benchmark itself, at the ``tiny`` scale (seconds per run).

    python3 -m pytest benchmarks/tests -q
"""

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import golden  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, case_of  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd: Path, workload: str, trace: int, seed: int = 5):
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_matches_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run(workload, trace):
    done = _bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counters_repeat_exactly():
    workload = WORKLOADS["limit-w512"]
    want = golden.load(workload.name, "tiny", case_of(7))
    [first], [second] = (harness.run_child(ROOT, workload, 7, "tiny", "trace", want)
                         for _ in range(2))
    assert not first.failed and not second.failed, first.problems + second.problems
    assert first.record["counts"] == second.record["counts"]
    assert first.record["layers"].keys() == second.record["layers"].keys()
    calls = {k: v for k, v in first.record["layers"].items() if k.endswith(".calls")}
    assert calls == {k: v for k, v in second.record["layers"].items() if k.endswith(".calls")}
    assert first.record["counts"]["linalg.eigh_complex.calls"] > 0


def test_run_child_repeats_until_its_deadline():
    workload = WORKLOADS["esd-n2048"]
    want = golden.load(workload.name, "tiny", case_of(2))
    outcomes = harness.run_child(ROOT, workload, 2, "tiny", "run", want,
                                 deadline=time.monotonic() + 4.0)
    assert len(outcomes) >= 2
    assert not any(o.failed for o in outcomes), [o.problems for o in outcomes]
    assert all(o.summary is not None and o.wall_s > 0 for o in outcomes)
    assert outcomes[0].setup_s > 0
    assert all(o.setup_s is None for o in outcomes[1:])


def test_summary_departures_are_caught():
    workload = WORKLOADS["limit-w512"]
    want = golden.load(workload.name, "tiny", case_of(3))
    [outcome] = harness.run_child(ROOT, workload, 3, "tiny", "run", want)
    assert not outcome.failed, outcome.problems
    summary = outcome.summary
    assert golden.mismatches(summary, want) == []

    nudged = copy.deepcopy(summary)
    nudged["checks"][0]["observed"] *= 1 + 1e-8
    assert golden.mismatches(nudged, want)

    fewer_rows = copy.deepcopy(summary)
    fewer_rows["artifacts"]["limit_reference.csv"] -= 1
    assert golden.mismatches(fewer_rows, want)

    note = copy.deepcopy(summary)
    note["notes"][0] = note["notes"][0].replace("0.", "1.", 1)
    assert golden.mismatches(note, want)

    broken = copy.deepcopy(summary)
    exact = next(c for c in broken["checks"] if c["exact"])
    exact["passed"] = False
    assert golden.exact_failures(broken)


def test_perturbed_program_output_counts_as_failed(tmp_path):
    checkout = tmp_path / "checkout"
    shutil.copytree(ROOT / "src", checkout / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(BENCH, checkout / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    metrics = checkout / "src" / "htt" / "metrics.py"
    metrics.write_text(
        metrics.read_text()
        + "\n\n_exact_levy_distance = levy_distance\n\n\n"
        + "def levy_distance(m1, m2):\n"
        + "    return _exact_levy_distance(m1, m2) * (1.0 + 1e-8)\n"
    )
    done = _bench(checkout, "limit-w512", 0)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] >= 1
    assert "golden" in done.stderr


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = _bench(tmp_path, "esd-n2048", 0)
    assert done.returncode != 0
    assert not done.stdout.strip()
