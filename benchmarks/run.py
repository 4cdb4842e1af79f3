"""The htt benchmark: one workload, one run, one JSON result line.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each experiment runs end to end through
``htt.cli.main`` in a fresh child process, with a config generated from
``--seed``, single-threaded with BLAS pinned to one thread, and every
repetition's outputs are checked against the golden recorded for that seed.
With ``--trace 0`` the run first starts a few set-up probes, then one child
that repeats the experiment while the next repetition still fits in
``--seconds``, and reports the medians of the end-to-end metrics.  With
``--trace 1`` one traced child gives the per-layer metrics and an untraced
child fills the rest of the time.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
A fuller record with provenance is written under ``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import golden
import harness
from spans import COUNTERS, LAYERS
from workloads import CASES, WORKLOADS, case_of, htt_seed

# Set-up-only children per untraced run; their set-up times join that of
# the experiment child in the reported median.
SETUP_PROBES = 2
# A child still running this long after the run started is killed, so a
# run ends well within the 180 s a run may take.
RUN_LIMIT_S = 150.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    for name in COUNTERS:
        units[name] = "bytes" if "bytes" in name else "count"
    units["process.cpu_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.spans"] = "count"
    return units


def measure(root: Path, workload, seed: int, seconds: float, trace: bool, scale: str, want):
    """Outcomes of one run, in order: set-up probes (or, traced, one traced
    repetition), then one child that repeats the experiment while the next
    repetition should still end within ``seconds`` of the start."""
    start = time.monotonic()

    def child(mode, deadline=0.0):
        left = max(1.0, start + RUN_LIMIT_S - time.monotonic())
        return harness.run_child(root, workload, seed, scale, mode, want,
                                 deadline=deadline, timeout=left)

    outcomes = []
    if trace:
        outcomes += child("trace")
    else:
        for _ in range(SETUP_PROBES):
            outcomes += child("probe")
    return outcomes + child("run", deadline=start + seconds)


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def end_to_end(outcomes) -> dict:
    """Medians over the run's repetitions and children.  Repetitions whose
    outputs failed their checks still count: their times were measured all
    the same, and the run reports them as failed.  The peak resident set is
    that of the experiment child after its first repetition, which is what
    a one-shot ``htt`` process peaks at."""
    runs = [o for o in outcomes if o.mode == "run" and o.wall_s is not None]
    return {
        "wall_s": _median(o.wall_s for o in runs),
        "setup_s": _median(o.setup_s for o in outcomes),
        "peak_rss_mb": runs[0].peak_rss_mb if runs else None,
    }


def per_layer(outcomes) -> dict:
    traced = next((o for o in outcomes if o.mode == "trace"), None)
    untraced = _median(o.wall_s for o in outcomes if o.mode == "run")
    if traced is None or traced.wall_s is None or untraced is None:
        return {}
    record = traced.record
    values = dict(record["layers"])
    values.update(record["counts"])
    values["process.cpu_s"] = traced.cpu_s
    values["trace.overhead_s"] = traced.wall_s - untraced
    values["trace.spans"] = record["spans"]
    return values


def provenance(root: Path, args, outcomes) -> dict:
    versions = next((o.record["versions"] for o in outcomes if o.record), None)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "case": case_of(args.seed),
        "htt_seed": htt_seed(args.seed),
        "scale": args.scale,
        "git_commit": harness.git_commit(root),
        "source_sha256": harness.source_digest(root),
        "versions": versions,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_pin": harness.BLAS_PIN,
        "repetitions": [
            {"mode": o.mode, "setup_s": o.setup_s, "wall_s": o.wall_s, "cpu_s": o.cpu_s,
             "peak_rss_mb": o.peak_rss_mb,
             "loadavg_before": o.load_before, "loadavg_after": o.load_after,
             "problems": o.problems}
            for o in outcomes
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny runs the same paths at toy sizes, for tests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not harness.has_program(root):
        print(f"error: no htt sources at {root / 'src' / 'htt'}; run from a checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    want = golden.load(workload.name, args.scale, case_of(args.seed))
    if want is None:
        print(f"error: no golden for {workload.name} ({args.scale}) case "
              f"{case_of(args.seed)} of {CASES}", file=sys.stderr)
        return 2

    outcomes = measure(root, workload, args.seed, args.seconds, bool(args.trace),
                       args.scale, want)
    failed = sum(o.failed for o in outcomes)
    for o in outcomes:
        for problem in o.problems:
            print(f"failed {o.mode} repetition: {problem}", file=sys.stderr)
    if args.trace:
        values, units = per_layer(outcomes), per_layer_units()
    else:
        values, units = end_to_end(outcomes), END_TO_END
    if any(values.get(name) is None for name in units):
        print("error: no successful child to measure", file=sys.stderr)
        return 1

    results = root / harness.OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    full = {"metrics": values, "attempted": len(outcomes), "failed": failed,
            "provenance": provenance(root, args, outcomes)}
    path.write_text(json.dumps(full, indent=1) + "\n")

    print(f"workload {workload.name}: {len(outcomes)} repetitions, record {path}")
    for name, unit in units.items():
        print(f"  {name} = {values[name]:.6g} {unit}")
    print(f"  failed_frac = {failed / len(outcomes):.6g} ratio ({failed}/{len(outcomes)})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
