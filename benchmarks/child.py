"""One benchmark child: runs ``htt.cli.main`` in a fresh interpreter, the way
``htt <experiment> --config <file> --out <dir>`` runs, and writes what it
measured to a JSON file.

    python3 benchmarks/child.py RESULT_JSON MODE DEADLINE EXPERIMENT CONFIG OUT_BASE

MODE is ``run`` (time the experiment), ``trace`` (time it once with
per-layer spans) or ``probe`` (stop at the first call into the experiment,
so only interpreter start, ``import htt`` and config parsing are paid).  A
``run`` child repeats the experiment, repetition ``i`` writing to
``OUT_BASE/rep<i>``, while the next repetition is expected to end before
``DEADLINE``; it always makes at least one.  Times, the deadline among them,
are ``time.monotonic()`` stamps, comparable with the parent's clock.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path


class _ProbeDone(Exception):
    """Raised at the first call into the experiment of a probe."""


def _versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    result_path, mode, deadline = sys.argv[1], sys.argv[2], float(sys.argv[3])
    experiment_name, config, out_base = sys.argv[4:7]
    import htt.cli

    record = {"mode": mode, "htt_file": htt.cli.__file__, "reps": []}
    tracer = None
    if mode == "trace":
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    experiment = htt.cli.run_experiment
    rep = {}

    def timed(config):
        rep["t_entry"] = time.monotonic()
        cpu = _cpu_s()
        if mode == "probe":
            raise _ProbeDone
        if tracer is not None:
            tracer.active = True
        try:
            return experiment(config)
        finally:
            if tracer is not None:
                tracer.active = False
            rep["t_exit"] = time.monotonic()
            rep["cpu_s"] = _cpu_s() - cpu

    htt.cli.run_experiment = timed
    while True:
        rep = {}
        record["reps"].append(rep)
        argv = [experiment_name, "--config", config,
                "--out", str(Path(out_base) / f"rep{len(record['reps']) - 1}")]
        try:
            rep["exit_code"] = htt.cli.main(argv)
        except _ProbeDone:
            rep["exit_code"] = 0
        except Exception:
            record["error"] = traceback.format_exc()
        # Peak resident set so far; after the first repetition this is what
        # a one-shot ``htt`` process peaks at.
        rep["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if mode != "run" or "error" in record or rep["exit_code"] not in (0, 1):
            break
        if time.monotonic() + (rep["t_exit"] - rep["t_entry"]) > deadline:
            break
    if tracer is not None:
        record["layers"] = tracer.layer_totals()
        record["counts"] = tracer.counts
        record["spans"] = len(tracer.spans)
    record["versions"] = _versions()
    with open(result_path, "w") as fh:
        json.dump(record, fh)
    return 3 if "error" in record else rep["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
