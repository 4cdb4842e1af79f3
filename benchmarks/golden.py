"""Golden outputs: what a run of each workload must reproduce.

A summary of one experiment run holds its checks (name, pass/fail, observed
value), its report notes (the Levy-distance notes among them), the row count
of every CSV artifact, the mass of every histogram, and the smallest and
largest atom and first two moments of every measure.  A run matches its
golden when the check names and pass/fail vector are identical and every
number agrees to 1e-10 relative, with an absolute floor of 1e-12 (the
bisection width of the Levy distance).  Counts therefore match exactly, and
distances and residuals to 1e-10.  Statistical checks that fail at the
recorded commit stay failing in the golden; exact-identity and plumbing
checks must pass in every run.

Record goldens from the current sources with

    python3 benchmarks/golden.py [--scale full|tiny] [--workload NAME ...]
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

REL_TOL = 1e-10
ABS_TOL = 1e-12

# Checks whose statement is an exact identity or deterministic bound, in
# addition to those the report marks as plumbing.
_EXACT_PREFIXES = (
    "corner_identity",
    "interlacing",
    "reflection_invariance",
    "symmetry_cdf",
    "support_bound_violations",
)

_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"


def is_exact(check: dict) -> bool:
    return check["basis"] == "plumbing" or check["name"].startswith(_EXACT_PREFIXES)


def summarize(out_dir: Path, experiment: str) -> dict:
    """Summary of the report and artifacts one experiment run wrote."""
    report = json.loads((out_dir / f"report_{experiment}.json").read_text())
    artifacts = {}
    hist_mass = {}
    measures = {}
    for path in sorted(out_dir.glob("*.csv")):
        lines = path.read_text().splitlines()
        artifacts[path.name] = len(lines) - 1
        if lines[0] == "bin_left,bin_right,mass":
            hist_mass[path.name] = math.fsum(float(row.rsplit(",", 1)[1]) for row in lines[1:])
        elif lines[0] == "location,weight,replica_id":
            measures[path.name] = _measure_moments(lines[1:])
    return {
        "checks": [
            {"name": c["name"], "passed": c["passed"], "observed": c["observed"],
             "exact": is_exact(c)}
            for c in report["checks"]
        ],
        "notes": report["notes"],
        "artifacts": artifacts,
        "hist_mass": hist_mass,
        "measures": measures,
    }


def _measure_moments(rows) -> list[float]:
    """Smallest and largest atom and the first two moments of a measure CSV."""
    atoms = [tuple(map(float, row.split(",")[:2])) for row in rows]
    locations = [x for x, _ in atoms]
    return [
        min(locations),
        max(locations),
        math.fsum(w * x for x, w in atoms),
        math.fsum(w * x * x for x, w in atoms),
    ]


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _split_note(note: str):
    return _NUMBER.sub("#", note), [float(x) for x in _NUMBER.findall(note)]


def exact_failures(summary: dict) -> list[str]:
    return [
        f"exact check {c['name']} failed (observed {c['observed']!r})"
        for c in summary["checks"]
        if c["exact"] and not c["passed"]
    ]


def mismatches(summary: dict, golden: dict) -> list[str]:
    """Every way ``summary`` departs from ``golden``; empty when it matches."""
    names = [c["name"] for c in summary["checks"]]
    if names != [c["name"] for c in golden["checks"]]:
        return [f"check names {names} differ from the golden"]
    problems = []
    for got, want in zip(summary["checks"], golden["checks"]):
        if got["passed"] != want["passed"]:
            problems.append(f"{got['name']}: passed={got['passed']}, golden {want['passed']}")
        if not _close(got["observed"], want["observed"]):
            problems.append(
                f"{got['name']}: observed {got['observed']!r}, golden {want['observed']!r}"
            )
    if len(summary["notes"]) != len(golden["notes"]):
        problems.append(f"{len(summary['notes'])} notes, golden {len(golden['notes'])}")
    for got, want in zip(summary["notes"], golden["notes"]):
        (got_text, got_nums), (want_text, want_nums) = _split_note(got), _split_note(want)
        if got_text != want_text or len(got_nums) != len(want_nums) or not all(
            map(_close, got_nums, want_nums)
        ):
            problems.append(f"note {got!r}, golden {want!r}")
    if summary["artifacts"] != golden["artifacts"]:
        problems.append(f"artifact rows {summary['artifacts']}, golden {golden['artifacts']}")
    if summary["hist_mass"].keys() != golden["hist_mass"].keys() or not all(
        _close(summary["hist_mass"][k], v) for k, v in golden["hist_mass"].items()
    ):
        problems.append(f"histogram mass {summary['hist_mass']}, golden {golden['hist_mass']}")
    for name, want in golden["measures"].items():
        got = summary["measures"].get(name)
        if got is None or not all(map(_close, got, want)):
            problems.append(f"{name}: min, max, mean, 2nd moment {got}, golden {want}")
    return problems


def golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json"


def load(workload: str, scale: str, case: int) -> dict | None:
    """The recorded golden of one (workload, scale, case), or None."""
    path = golden_path(workload)
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(scale, {}).get(str(case))


def record(root: Path, names, scale: str) -> int:
    """Run every case of the named workloads and store their summaries."""
    import harness
    from workloads import CASES, WORKLOADS, htt_seed

    for name in names:
        workload = WORKLOADS[name]
        path = golden_path(name)
        stored = json.loads(path.read_text()) if path.is_file() else {}
        cases = {}
        for case in range(CASES):
            [outcome] = harness.run_child(root, workload, case, scale, "run", golden=None)
            if outcome.failed:
                print(f"{name} case {case}: run failed: {outcome.problems}", file=sys.stderr)
                return 1
            cases[str(case)] = {"htt_seed": htt_seed(case), **outcome.summary}
            print(f"{name} case {case}: {outcome.wall_s:.2f} s", file=sys.stderr)
        stored[scale] = cases
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    return record(Path.cwd(), args.workload or sorted(WORKLOADS), args.scale)


if __name__ == "__main__":
    sys.exit(main())
