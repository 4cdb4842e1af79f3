"""Spawning and checking benchmark children.

Each child is a fresh interpreter that imports ``htt`` from ``src/`` of the
checkout, with BLAS pinned to one thread, and runs one experiment in its
own scratch directory under ``.bench_out/``.  The directory is removed once
the child's outputs have been summarized and checked.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import golden as golden_mod

OUT_DIR = ".bench_out"
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Largest allowed gap between the sum of per-layer self times and the
# traced wall time: 2% of the wall time, but at least 20 ms, since on a busy
# machine the child can be descheduled between its timing stamps and the
# outermost span, which matters only for the toy-sized test runs.
SELF_TIME_TOLERANCE = 0.02
SELF_TIME_FLOOR_S = 0.02

_CHILD = Path(__file__).resolve().parent / "child.py"


def has_program(root: Path) -> bool:
    return (root / "src" / "htt" / "cli.py").is_file()


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(BLAS_PIN)
    env["PYTHONPATH"] = str(root / "src")
    return env


@dataclass
class Outcome:
    """What one repetition of the experiment in a child measured, and every
    way it failed.  Set-up is paid once per child, so only a child's first
    outcome carries ``setup_s``."""

    mode: str
    record: dict | None = None
    setup_s: float | None = None
    wall_s: float | None = None
    cpu_s: float | None = None
    peak_rss_mb: float | None = None
    load_before: tuple = ()
    load_after: tuple = ()
    summary: dict | None = None
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def run_child(root: Path, workload, seed: int, scale: str, mode: str, golden,
              deadline: float = 0.0, timeout: float = 150.0) -> list[Outcome]:
    """Run one child, killed after ``timeout`` seconds, and check each of
    its repetitions: against ``golden`` when given, and for exact-identity
    and plumbing failures always.  A ``run`` child repeats the experiment
    while the next repetition should end before ``deadline`` (a
    ``time.monotonic()`` stamp); with the default it runs it once."""
    base = root / OUT_DIR
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=base))
    try:
        config = work / "htt.cfg"
        config.write_text(workload.config_text(seed, scale))
        result = work / "child.json"
        argv = [sys.executable, str(_CHILD), str(result), mode, repr(deadline),
                workload.experiment, str(config), str(work / "out")]
        load_before = os.getloadavg()
        problems = []
        with open(work / "child.log", "w") as log:
            start = time.monotonic()
            proc = subprocess.Popen(argv, env=child_env(root), cwd=work,
                                    stdout=log, stderr=subprocess.STDOUT)
            try:
                code = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                code = proc.wait()
                problems.append(f"killed after {timeout:.0f} s")
        load_after = os.getloadavg()
        if not result.is_file():
            tail = (work / "child.log").read_text()[-2000:]
            problems.append(f"exit code {code} without a result:\n{tail}")
            return [Outcome(mode, load_before=load_before, load_after=load_after,
                            problems=problems)]
        record = json.loads(result.read_text())
        outcomes = []
        for i, rep in enumerate(record["reps"]):
            outcome = Outcome(mode, record=record, peak_rss_mb=rep["peak_rss_mb"],
                              load_before=load_before, load_after=load_after)
            outcomes.append(outcome)
            if i == 0:
                outcome.problems += problems
                _check_record(root, record, outcome)
                if "t_entry" in rep:
                    outcome.setup_s = rep["t_entry"] - start
            if rep is record["reps"][-1] and "error" in record:
                outcome.problems.append(f"raised:\n{record['error']}")
            elif rep.get("exit_code") not in (0, 1):
                outcome.problems.append(f"exit code {rep.get('exit_code')}")
            if mode != "probe" and "t_exit" in rep:
                outcome.wall_s = rep["t_exit"] - rep["t_entry"]
                outcome.cpu_s = rep["cpu_s"]
            if mode == "probe" or outcome.failed:
                continue
            outcome.summary = golden_mod.summarize(work / "out" / f"rep{i}", workload.experiment)
            outcome.problems += golden_mod.exact_failures(outcome.summary)
            if golden is not None:
                outcome.problems += golden_mod.mismatches(outcome.summary, golden)
            if mode == "trace":
                _check_self_time(record, outcome)
        return outcomes
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _check_record(root: Path, record: dict, outcome: Outcome):
    src = str((root / "src").resolve())
    if not str(Path(record["htt_file"]).resolve()).startswith(src):
        outcome.problems.append(f"htt imported from {record['htt_file']}, not {src}")


def _check_self_time(record: dict, outcome: Outcome):
    total = sum(v for k, v in record["layers"].items() if k.endswith(".self_s"))
    if abs(total - outcome.wall_s) > max(SELF_TIME_TOLERANCE * outcome.wall_s, SELF_TIME_FLOOR_S):
        outcome.problems.append(
            f"layer self times sum to {total:.4f} s, traced wall time {outcome.wall_s:.4f} s"
        )


def source_digest(root: Path) -> str:
    """SHA-256 over the paths and bytes of the ``htt`` sources."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "htt").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None
