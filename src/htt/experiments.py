"""End-to-end experiment runs: ESD computation, truncation ladders, Monte
Carlo limit estimation, spectral-property suites, and equidistribution
diagnostics.  Every run records CSV artifacts and a JSON report whose
config hash and seed reproduce bit-identical numerical output at the same
BLAS thread count, which the report's ``blas_env`` records.

A run has one writer: a runner returns its report with its ``files`` and
writes nothing, and :func:`run_experiment` alone creates the output
directory and writes them, then the report with its provenance, so a run
that fails or is refused (``RunRefused``) in its runner leaves no output.

Every draw uses the base seed and a stream of its own from the stream
table ``_stream_blocks``, except the interlacing wraps: they share replica
0's entry stream, a collision pinned by a strict xfail in the tests until
the wraps move (ROADMAP item 1).
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import numbers
import operator
import os
import resource
import time
import warnings
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .limit_operator import operator_window
from .matrices import (
    TruncationLevels,
    build_toeplitz,
    circulant_eigs,
    clip_entries,
    projection_matrix,
    projection_symbol,
    sandwich,
    stage_eigvals,
    toeplitz_eigvalsh,
    topk_coefficients,
)
from .metrics import levy_distance, mgf, subgaussian_bound, support_bound
from .sampler import (
    AlphaParams,
    RngSeed,
    _entry_uniforms,
    _scaled_entries,
    _signs,
    default_series_length,
    entries_from_uniforms,
    sample_entries,
    sample_environment,
)
from .serialize import histogram, save_histogram_csv, save_measure_csv
from .spectra import (
    PointMeasure,
    esd,
    mc_limit_measure,
    quenched_sub_measure,
    window_measure,
)

__all__ = [
    "EXPERIMENTS",
    "EXPERIMENT_KEYS",
    "ExperimentConfig",
    "CheckRecord",
    "Report",
    "DEFAULT_TOLERANCES",
    "parse_config_text",
    "config_from_mapping",
    "load_config",
    "corner_embedding_deviation",
    "run_esd",
    "ladder_distances",
    "run_truncation_ladder",
    "reference_limit_measure",
    "limit_distances",
    "run_limit_convergence",
    "interlacing_violation",
    "run_property_suite",
    "run_equidistribution",
    "run_experiment",
]

# Statistical thresholds and slacks; echoed into every report.  Overridable
# per-run via tol_<name> config keys.
DEFAULT_TOLERANCES = {
    # hard numerical identities; esd_identity and interlacing are relative to
    # S, the largest |eigenvalue| of the check's circulants: tol * max(1, S)
    "esd_identity": 1e-6,
    "interlacing": 1e-9,
    "reflection_invariance": 1e-12,
    "weyl_sum": 1e-10,
    # truncation ladder: pooled distance cap at the largest (n, l) and the
    # allowed Monte Carlo backslide for the trend check
    "ladder_final": 0.2,
    "ladder_trend_slack": 0.01,
    # limit convergence: allowed backslide per size step
    "limit_trend_slack": 0.005,
    # property suite
    "symmetry_cdf": 0.02,
    "mgf_slack": 1.10,
    "mgf_pass_fraction": 0.95,
    "support_violations": 0.0,
    "growth_slack": 0.02,
    # equidistribution KS level (critical value c/sqrt(R), c = 1.6276 at 1%)
    "equidist_level": 0.01,
}

# Environment variables that fix the BLAS thread count; recorded in every
# report's provenance
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _stream_blocks(config) -> dict:
    """The stream table: the config's (base, count) stream blocks by name,
    each as range(base, base + count); draw r of a block uses block[r]."""
    reps = config.replicas
    if config.experiment in ("esd", "ladder"):
        table = {f"size{i}": (1000 * i, reps) for i in range(len(config.n_list))}
    elif config.experiment == "limit":
        table = {"replicas": (1000, reps), "reference": (500_000, config.ref_envs)}
    elif config.experiment == "properties":
        table = {
            "raw": (10_000, reps),
            "mgf_alpha0.5": (21_000, reps),
            "mgf_alpha1.5": (23_000, reps),
            "support": (30_000, reps),
            "growth": (40_000, max(10, reps // 5)),
            "interlacing": (50_000, 50),
        }
    else:
        table = {"entries": (0, reps), "dilations": (100_000, reps)}
    return {name: range(base, base + count) for name, (base, count) in table.items()}


# Window half-width of the experiments that open operator windows, where
# the config sets no w; ``window_levels`` and config validation read it
_DEFAULT_HALF_WIDTH = {"limit": 512, "properties": 256}


# Largest per-replica CDF asymmetry counted as rounding residue (zero) in
# the raw symmetry check
_ROUNDING_FLOOR = 64 * np.finfo(float).eps


def _asymmetry_zscore(d: np.ndarray) -> float:
    """|mean| / standard error of per-replica CDF asymmetries d.

    Each |d| <= _ROUNDING_FLOOR is rounding residue and counts as 0, so the
    z-score of residues alone is 0 instead of a ratio of rounding errors.
    With zero standard error (every replica agrees) z is undefined and is
    decided on the mean alone: 0 if it is 0, inf otherwise.
    """
    d = np.where(np.abs(d) <= _ROUNDING_FLOOR, 0.0, d)
    se = d.std() / math.sqrt(len(d))
    if se > 0:
        return abs(d.mean()) / se
    return 0.0 if d.mean() == 0 else math.inf


def _positive_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 1


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment configuration; see README for the file schema."""

    experiment: str
    alpha: float = 0.5
    p: float = 0.5
    n_list: tuple = (256,)
    l_list: tuple = (16,)
    m: float | None = None
    k: int | None = None
    l: int | None = None
    w: int | None = None
    j: int | None = None
    replicas: int = 20
    ref_envs: int = 200
    inner: int = 1
    top_coords: int = 4
    seed: int = 20240901
    out_dir: str = "htt-out"
    bins: int | None = None
    threads: int = 1
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        """Reject a config no experiment can run, before any work starts."""
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        reads = EXPERIMENT_KEYS[self.experiment]
        for name, spec in self.__dataclass_fields__.items():
            value = getattr(self, name)
            if name in _FILE_KEYS and name not in reads and value != spec.default:
                raise ValueError(f"{self.experiment} does not read {name}, set to {value!r}")
        self.params()  # alpha in (0, 2), p in [0, 1]
        for key in ("n_list", "l_list"):
            values = getattr(self, key)
            if not (isinstance(values, (tuple, list)) and values
                    and all(_positive_int(v) for v in values)
                    and len(set(values)) == len(values)):
                raise ValueError(f"{key} must be distinct positive integers, got {values!r}")
        for key in ("replicas", "ref_envs", "inner", "threads"):
            if not _positive_int(getattr(self, key)):
                raise ValueError(f"{key} must be an integer >= 1, got {getattr(self, key)!r}")
        if not (_positive_int(self.top_coords) and self.top_coords <= 8):
            raise ValueError(f"top_coords must lie in [1, 8], got {self.top_coords!r}")
        if self.experiment == "limit" and len(self.n_list) < 3:
            raise ValueError("limit convergence needs at least 3 sizes")
        if self.m is not None and not (isinstance(self.m, numbers.Real)
                                       and not isinstance(self.m, bool) and self.m > 0):
            raise ValueError(f"m must be positive, got {self.m!r}")
        for key in ("k", "l", "w", "j", "bins"):
            value = getattr(self, key)
            if value is not None and not _positive_int(value):
                raise ValueError(f"{key} must be an integer >= 1, got {value!r}")
        if not (isinstance(self.seed, numbers.Integral) and not isinstance(self.seed, bool)
                and self.seed >= 0):
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        w = self._half_width()  # set wherever l is: only limit and properties read l
        if self.l is not None and self.l > 2 * w:
            raise ValueError(f"band width l = {self.l} exceeds the window reach {2 * w}")
        if self.experiment == "ladder" and self.k is not None and self.k > min(self.n_list):
            raise ValueError(f"top-k k = {self.k} exceeds the smallest size {min(self.n_list)}")
        if self.experiment == "equidist" and self.top_coords > max(self.n_list):
            raise ValueError(f"top_coords = {self.top_coords} exceeds the largest size")
        blocks = sorted(_stream_blocks(self).items(), key=lambda item: item[1].start)
        for (name, block), (next_name, next_block) in zip(blocks, blocks[1:]):
            if block.stop > next_block.start:
                raise ValueError(f"the {len(block)} {name} streams from {block.start} would "
                                 f"run into the {next_name} block at {next_block.start}")
        for name, value in self.tolerances.items():
            if name not in DEFAULT_TOLERANCES:
                raise ValueError(f"unknown tolerance tol_{name}")
            if f"tol_{name}" not in reads:
                raise ValueError(f"{self.experiment} does not read tol_{name}, set to {value!r}")
            if not isinstance(value, numbers.Real) or isinstance(value, bool) or math.isnan(value):
                raise ValueError(f"tol_{name} must be a number, got {value!r}")
            if name == "equidist_level" and not 0 < value < 1:
                raise ValueError(f"tol_equidist_level must lie in (0, 1), got {value!r}")
        # runs write last, so an out_dir that cannot be made fails here, not after the run
        if not isinstance(self.out_dir, str):
            raise ValueError(f"out_dir must be a path, got {self.out_dir!r}")
        out = Path(self.out_dir)
        if not next(p for p in (out, *out.parents) if p.exists()).is_dir():
            raise ValueError(f"out_dir {str(out)!r} is not a directory, or lies under a file")

    def params(self) -> AlphaParams:
        return AlphaParams(self.alpha, self.p)

    def base_seed(self) -> RngSeed:
        return RngSeed(self.seed)

    def series_length(self) -> int:
        return self.j if self.j is not None else default_series_length(self.alpha)

    def levels_for(self, l: int) -> TruncationLevels:
        """Ladder levels at band width l: clip and top-k coupled to l, each
        replaced by an explicit m or k."""
        return self.with_explicit_levels(TruncationLevels.coupled(l))

    def _half_width(self) -> int | None:
        """The configured w, else the experiment's default half-width (None
        for an experiment that opens no window)."""
        return self.w if self.w is not None else _DEFAULT_HALF_WIDTH.get(self.experiment)

    def window_levels(self) -> TruncationLevels:
        """Operator-window levels: the half-width w of ``_half_width``, band
        l = w // 8 (at least 1) unless set, the full series, no clip."""
        w = self._half_width()
        l = self.l if self.l is not None else max(1, w // 8)
        j = self.series_length()
        return TruncationLevels(m=math.inf, k=j, l=l, w=w, j=j)

    def with_explicit_levels(self, levels: TruncationLevels) -> TruncationLevels:
        """levels with a configured m or k in place of its own."""
        explicit = {key: getattr(self, key) for key in ("m", "k") if getattr(self, key) is not None}
        return replace(levels, **explicit)

    def tol(self, name: str) -> float:
        if name in self.tolerances:
            return float(self.tolerances[name])
        return DEFAULT_TOLERANCES[name]

    def effective_tolerances(self) -> dict:
        out = dict(DEFAULT_TOLERANCES)
        out.update(self.tolerances)
        return out


def _parse_scalar(text: str):
    text = text.strip()
    if text.lower() in ("none", "null", ""):
        return None
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def parse_config_text(text: str) -> dict:
    """Parse the flat key = value config format; '#' starts a comment and
    comma-separated values become tuples.  A key set twice is an error."""
    out = {}
    key_lines = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in key_lines:
            raise ValueError(f"key {key!r} is set twice, on lines {key_lines[key]} and {lineno}")
        key_lines[key] = lineno
        if "," in value:
            out[key] = tuple(_parse_scalar(v) for v in value.split(",") if v.strip())
        else:
            out[key] = _parse_scalar(value)
    return out


_LIST_KEYS = {"n_list", "l_list"}

# The experiment comes from the subcommand and tolerances from tol_<name>
# keys, so neither field is a config-file key.
_FILE_KEYS = set(ExperimentConfig.__dataclass_fields__) - {"experiment", "tolerances"}


def config_from_mapping(experiment: str, mapping: dict) -> ExperimentConfig:
    kwargs = {"experiment": experiment}
    tolerances = {}
    for key, value in mapping.items():
        if key.startswith("tol_"):
            tolerances[key[4:]] = value
        elif key in _LIST_KEYS:
            kwargs[key] = value if isinstance(value, tuple) else (value,)
        elif key in _FILE_KEYS:
            kwargs[key] = value
        else:
            raise ValueError(f"unknown config key: {key}")
    if tolerances:
        kwargs["tolerances"] = tolerances
    return ExperimentConfig(**kwargs)


def load_config(path, experiment: str, overrides: dict | None = None) -> ExperimentConfig:
    mapping = parse_config_text(Path(path).read_text()) if path else {}
    mapping.update(overrides or {})
    return config_from_mapping(experiment, mapping)


_CHECK_OPS = {"<=": operator.le, ">=": operator.ge}


@dataclass
class CheckRecord:
    """One verified statement: observed value vs threshold.

    ``basis`` states the mathematical fact being checked (or "plumbing" for
    artifact bookkeeping); ``direction`` is the comparison that must hold.
    """

    name: str
    observed: float
    threshold: float
    passed: bool
    basis: str
    direction: str = "<="

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class Report:
    """A run's checks, notes and files by name (a ``PointMeasure``,
    ``(edges, masses)`` of a histogram, or text), which ``run_experiment``
    writes next to the report, and the provenance it adds."""

    experiment: str
    checks: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    files: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name, observed, threshold, basis, direction="<="):
        observed = float(observed)
        rec = CheckRecord(
            name=name,
            observed=observed,
            threshold=float(threshold),
            passed=_CHECK_OPS[direction](observed, float(threshold)),
            basis=basis,
            direction=direction,
        )
        self.checks.append(rec)
        return rec

    def note(self, text: str):
        self.notes.append(text)

    def as_dict(self) -> dict:
        n_pass = sum(1 for c in self.checks if c.passed)
        return {
            "experiment": self.experiment,
            "passed": self.passed,
            "summary": {"checks": len(self.checks), "passed": n_pass,
                        "failed": len(self.checks) - n_pass},
            "checks": [c.as_dict() for c in self.checks],
            "notes": self.notes,
            "provenance": self.provenance,
        }

    def save(self, path):
        Path(path).write_text(json.dumps(self.as_dict(), indent=1))

    def print_lines(self, out=print):
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            out(f"[{status}] {c.name}: observed {c.observed:.6g} "
                f"{c.direction} {c.threshold:.6g} ({c.basis})")
        out(f"{self.experiment}: {'all checks passed' if self.passed else 'CHECK FAILURES'}")


def _config_hash(config: ExperimentConfig) -> str:
    """Hash of the config's fields, each dict field taken in key order, so
    equal configs hash equally."""
    fields = {
        k: dict(sorted(v.items())) if isinstance(v, dict) else v
        for k, v in config.__dict__.items()
    }
    canon = repr(sorted(fields.items(), key=lambda kv: kv[0]))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# esd


def corner_embedding_deviation(entries) -> tuple[float, float]:
    """Max sorted-eigenvalue deviation between the zero-padded Toeplitz
    embedding [[T, 0], [0, 0]] and the projected circulant spectrum P D P,
    zero in exact arithmetic for every draw, and S = max |D| >= ||T||."""
    # T solved densely, not by the toeplitz_eigvalsh run_esd writes: the split
    # solve moves a recorded esd residual past its 1e-12 floor (ROADMAP item 1)
    t = build_toeplitz(entries)
    n = t.shape[0]
    lhs = np.sort(np.concatenate([np.linalg.eigvalsh(t), np.zeros(n)]))
    d = circulant_eigs(entries)
    rhs = np.sort(np.linalg.eigvalsh(sandwich(projection_matrix(n), d)))
    return float(np.abs(lhs - rhs).max()), float(np.abs(d).max())


def _esd_replica(config: ExperimentConfig, n: int, stream: int):
    """One esd replica: the ESD of the size-n draw on ``stream``, and at
    n <= 64 its corner-identity (deviation, S), else None."""
    entries = sample_entries(n, config.params(), config.base_seed().with_stream(stream))
    return (esd(toeplitz_eigvalsh(entries.b)),
            corner_embedding_deviation(entries) if n <= 64 else None)


def run_esd(config: ExperimentConfig) -> Report:
    """Sample Toeplitz replicas, record per-replica and pooled spectra, and
    verify the exact corner-embedding identity at small sizes."""
    per_size = {n: list(zip(*(_esd_replica(config, n, stream) for stream in block)))
                for n, block in zip(config.n_list, _stream_blocks(config).values())}
    report = Report(config.experiment)
    for n, (measures, corners) in per_size.items():
        for r, m in enumerate(measures):
            report.files[f"esd_n{n}_r{r}.csv"] = m
        pooled = report.files[f"esd_n{n}_pooled.csv"] = PointMeasure.pooled(measures)
        _, masses = report.files[f"esd_n{n}_hist.csv"] = histogram(pooled, config.bins)
        report.check(
            f"histogram_mass_n{n}",
            abs(masses.sum() - 1.0),
            1e-9,
            "plumbing",
        )
        if n <= 64:
            devs, scales = zip(*corners)
            report.check(
                f"corner_identity_n{n}",
                max(0.0, *devs),
                config.tol("esd_identity") * max(1.0, *scales),
                "spectrum of [[T,0],[0,0]] equals spectrum of P D P exactly",
            )
        else:
            report.note(f"corner identity skipped at n={n} > 64")
    return report


# ---------------------------------------------------------------------------
# truncation ladder


def ladder_distances(entries, rungs) -> list[tuple[float, float, float]]:
    """Levy distances (d_clip, d_band, d_topk) between the ESDs of the four
    truncation stages -- full, magnitude-clipped, band-truncated, top-k --
    one triple per rung.

    Each rung is a pair (levels, band) with band the projection symbol
    ``projection_symbol(len(entries), levels.l)``, which depends on the size
    and band width alone, so a caller builds it once for all replicas.
    Each stage is computed from its coefficient vector in the circulant
    basis (``stage_eigvals``).  The full stage does not depend on the
    levels and is solved once; a clip that changes no entry reuses its ESD
    as the clipped stage, which is then bit-identical to a fresh solve.
    """
    b = entries.b
    full = esd(stage_eigvals(b))
    triples = []
    for levels, band in rungs:
        clipped = clip_entries(b, levels.m)
        stages = [
            full,
            full if np.array_equal(clipped, b) else esd(stage_eigvals(clipped)),
            esd(stage_eigvals(clipped, band)),
            esd(stage_eigvals(topk_coefficients(entries, levels.m, levels.k), band)),
        ]
        triples.append(tuple(levy_distance(stages[i], stages[i + 1]) for i in range(3)))
    return triples


def run_truncation_ladder(config: ExperimentConfig) -> Report:
    """Estimate E d_L between the ESD of the full sandwich and its clipped,
    band-truncated, and top-k stages over a grid of sizes and band widths;
    the pooled distance must be small at the largest (n, l) and must not
    exceed its value at the smallest l (monotone trend within slack).

    Each replica of size n_i is drawn once, from size block i, and measured
    at every band width by one ``ladder_distances`` call against the band
    symbols of size n_i, built once per (n, l); rows are written in
    (n, l, r) order."""
    report = Report(config.experiment)
    params = config.params()
    seed = config.base_seed()
    if config.replicas < 5:
        warnings.warn("fewer than 5 replicas: ladder trend estimate is noisy")
        report.note("fewer than 5 replicas: trend estimate is noisy")
    n_list = sorted(config.n_list)
    l_list = sorted(config.l_list)
    levels_seq = [config.levels_for(l) for l in l_list]
    totals = {}
    lines = ["n,l,m,k,replica,d_clip,d_band,d_topk\n"]
    for n, block in zip(n_list, _stream_blocks(config).values()):
        rungs = [(levels, projection_symbol(n, levels.l)) for levels in levels_seq]
        per_replica = [ladder_distances(sample_entries(n, params, seed.with_stream(stream)), rungs)
                       for stream in block]
        for l, levels, rows in zip(l_list, levels_seq, zip(*per_replica)):
            lines += [f"{n},{l},{levels.m!r},{levels.k},{r},{d1!r},{d2!r},{d3!r}\n"
                      for r, (d1, d2, d3) in enumerate(rows)]
            totals[(n, l)] = float(np.mean(rows, axis=0).sum())
    report.files["ladder.csv"] = "".join(lines)
    n_top = n_list[-1]
    final = totals[(n_top, l_list[-1])]
    report.check(
        "ladder_final_distance",
        final,
        config.tol("ladder_final"),
        "total truncation-ladder distance vanishes as the band grows with "
        "clip and top-k coupled to it",
    )
    if len(l_list) > 1:
        report.check(
            "ladder_trend",
            final - totals[(n_top, l_list[0])],
            config.tol("ladder_trend_slack"),
            "pooled ladder distance decreases from the smallest to the "
            "largest band width",
        )
    return report


# ---------------------------------------------------------------------------
# limit convergence


def reference_limit_measure(config: ExperimentConfig) -> PointMeasure:
    """Pooled Monte Carlo estimate of the limiting measure used as the
    comparison target: the window levels (no clip, full series), with an
    explicit m or k replacing its level."""
    return mc_limit_measure(
        config.params(),
        config.with_explicit_levels(config.window_levels()),
        streams=_stream_blocks(config)["reference"],
        inner=config.inner,
        seed=config.base_seed(),
        workers=config.threads,
    )


def _limit_replica(config: ExperimentConfig, stream: int) -> list:
    """One limit replica: the ESDs, in size order, of one master draw on
    ``stream`` at the largest size, each smaller size taking its prefix,
    an exact i.i.d. sample of that size."""
    params = config.params()
    rng = config.base_seed().with_stream(stream).generator()
    v, signs = _entry_uniforms(rng, max(config.n_list), params.p)
    # Dense solve: the recorded `htt limit` outputs carry its rounding, and
    # toeplitz_eigvalsh's moves one pooled mean, 1.6e-5 from atoms of 1.8e6,
    # by 1.7e-11.  Switch when those outputs are re-recorded (ROADMAP item 1).
    return [esd(np.linalg.eigvalsh(build_toeplitz(entries_from_uniforms(v[:n], signs[:n], params))))
            for n in sorted(config.n_list)]


def limit_distances(per_size: dict, ref: PointMeasure) -> tuple[dict, dict]:
    """The limit reduction: pool each size's ESDs (``PointMeasure.pooled``)
    and take the pool's Levy distance to the limit estimate ``ref``; returns
    the pooled measures and the distances, keyed by size as ``per_size``."""
    pooled = {n: PointMeasure.pooled(measures) for n, measures in per_size.items()}
    return pooled, {n: levy_distance(m, ref) for n, m in pooled.items()}


def run_limit_convergence(config: ExperimentConfig) -> Report:
    """Annealed Levy distance between pooled Toeplitz ESDs and the Monte
    Carlo limit estimate, per matrix size; must decrease along the size list
    within the configured slack.

    The weak-convergence statement being probed carries no rate, so this is
    a trend check: the annealed (expected-measure) distance is the implied,
    testable weakening.  Replicas are coupled across sizes by nested entry
    prefixes, which leaves every pooled ESD's law unchanged but does not
    share the few largest entries that set each replica's random limit (the
    largest at size n_max lies in the size-n prefix with probability only
    n / n_max), so most replica noise survives the size-to-size comparison;
    at 20 replicas it can exceed the trend slack.
    :func:`htt.sampler.coupled_entry_draws` shares those entries.
    """
    ref = reference_limit_measure(config)
    replicas = [_limit_replica(config, stream) for stream in _stream_blocks(config)["replicas"]]
    n_list = sorted(config.n_list)
    pooled, distances = limit_distances(dict(zip(n_list, zip(*replicas))), ref)
    report = Report(config.experiment)
    measures = {"limit_reference": ref, **{f"limit_esd_n{n}": m for n, m in pooled.items()}}
    for name, m in measures.items():
        report.files[f"{name}.csv"] = m
        report.files[f"{name}_hist.csv"] = histogram(m, config.bins)
    for n_prev, n_next in zip(n_list, n_list[1:]):
        report.check(
            f"limit_distance_decrease_n{n_prev}_to_n{n_next}",
            distances[n_next] - distances[n_prev],
            config.tol("limit_trend_slack"),
            "ESDs converge weakly to the limiting measure as the size grows",
        )
    first = pooled[n_list[0]]
    report.check(
        "self_distance",
        levy_distance(first, first),
        0.0,
        "plumbing",
    )
    report.check(
        "reflection_invariance",
        abs(distances[n_list[0]] - levy_distance(first, ref.reflected())),
        config.tol("reflection_invariance"),
        "the limit estimate is symmetric around 0, so reflecting it leaves "
        "distances unchanged",
    )
    for n, d in distances.items():
        report.note(f"levy distance at n={n}: {d:.6f}")
    return report


# ---------------------------------------------------------------------------
# property suite


def interlacing_violation(entries, uniforms) -> tuple[float, float]:
    """Worst signed violation of the interlacing of Toeplitz eigenvalues
    between circulant eigenvalues g (negative means satisfied), with an
    independent-copy wrap entry, and S = max |g|.  The wrap is drawn from
    ``uniforms``, a pair of U[0, 1) draws for its sign and its magnitude,
    and scaled like the entries, on the same overflow guard."""
    u_sign, u = uniforms
    sign = _signs(u_sign, entries.p)
    # numpy's scalar power is libm's pow, as Python's float power is; an
    # array power may round differently
    v = np.float64(1.0 - u)
    wrap = float(_scaled_entries(sign, v, len(entries), entries.c_n, entries.alpha))
    g = np.sort(circulant_eigs(entries, wrap))
    t = toeplitz_eigvalsh(entries.b)
    n = t.shape[0]
    lower = np.max(g[:n] - t)
    upper = np.max(t - g[n:])
    return float(max(lower, upper)), float(max(-g[0], g[-1]))


def _top_eigenvalue(env, levels: TruncationLevels) -> float:
    """Largest |eigenvalue| of the environment's operator window at levels."""
    return float(np.abs(np.linalg.eigvalsh(operator_window(env, levels).matrix)).max())


def _mgf_passes(levels: TruncationLevels, params: AlphaParams, seed: RngSeed,
                slack: float) -> dict:
    """By beta, whether one environment's mirrored window measure has its
    MGF within slack times the subgaussian bound."""
    env = sample_environment(levels.j, params, seed)
    sym = window_measure(env, levels).mirrored()
    return {beta: mgf(sym, beta) <= slack * subgaussian_bound(env, beta) for beta in (0.5, 1.0)}


def _support_check(levels: TruncationLevels, params: AlphaParams, seed: RngSeed):
    """(top |eigenvalue|, support radius) of one environment's window."""
    env = sample_environment(levels.j, params, seed)
    return _top_eigenvalue(env, levels), support_bound(env)


def _growth_tops(levels_seq, params: AlphaParams, seed: RngSeed) -> list:
    """The top |eigenvalue| at each levels of levels_seq of one environment,
    drawn once, at series length levels_seq[-1].j."""
    env = sample_environment(levels_seq[-1].j, params, seed)
    return [_top_eigenvalue(env, levels) for levels in levels_seq]


def run_property_suite(config: ExperimentConfig) -> Report:
    """Statistical checks of the limiting measure's properties: symmetry,
    the quenched subgaussian MGF bound, the bounded-support radius below
    tail index 1, support growth above it, and eigenvalue interlacing."""
    seed = config.base_seed()
    streams = _stream_blocks(config)
    tol = config.tol
    params = config.params()
    levels = config.window_levels()
    a_params = {alpha: AlphaParams(alpha, config.p) for alpha in (0.5, 1.5)}
    a_series = {alpha: default_series_length(alpha) for alpha in (0.5, 1.5)}
    # (a) the raw (not antithetic) annealed estimate
    raw = mc_limit_measure(
        params,
        levels,
        streams=streams["raw"],
        inner=max(2, config.inner),
        seed=seed,
        symmetrize=False,
        workers=config.threads,
    )
    # (b) quenched MGF per environment, with the full series of each alpha
    mgf_passes = {alpha: [_mgf_passes(replace(levels, k=j, j=j), a_params[alpha],
                                      seed.with_stream(stream), tol("mgf_slack"))
                          for stream in streams[f"mgf_alpha{alpha}"]]
                  for alpha, j in a_series.items()}
    # (c) bounded support below tail index 1: coupled truncation levels,
    # band 64 unless set, capped at the window's reach
    c_band = config.l if config.l is not None else min(64, 2 * levels.w)
    c_levels = TruncationLevels.coupled(c_band, w=levels.w, j=a_series[0.5])
    support = [_support_check(c_levels, a_params[0.5], seed.with_stream(stream))
               for stream in streams["support"]]
    # (d) support growth above tail index 1: top window eigenvalue against
    # the series length, in a window of half-width at most 128
    k_list = (64, 512, 4096)
    g_w = min(levels.w, 128)
    g_levels = [
        replace(levels, k=k_terms, l=min(levels.l, 2 * g_w), w=g_w, j=k_list[-1])
        for k_terms in k_list
    ]
    growth = [_growth_tops(g_levels, a_params[1.5], seed.with_stream(stream))
              for stream in streams["growth"]]
    # interlacing with an independent wrap entry, each wrap's (sign,
    # magnitude) uniforms drawn up front; their stream is also replica 0's
    # entry stream, the known collision (ROADMAP item 1)
    n_inter = min(128, max(config.n_list))
    wraps = seed.with_stream(streams["interlacing"].start).generator().random(
        (len(streams["interlacing"]), 2))
    interlacing = [
        interlacing_violation(sample_entries(n_inter, params, seed.with_stream(stream)), u)
        for stream, u in zip(streams["interlacing"], wraps)
    ]

    report = Report(config.experiment, files={"properties_raw_measure.csv": raw})
    # (a) the antithetic estimate satisfies the CDF mirror identity outright;
    # the raw estimate's asymmetry must be statistically consistent with
    # zero (4 standard errors over replicas)
    sym = raw.mirrored()
    sym_stat = max(
        abs(sym.cdf(-x) - (1.0 - sym.cdf(x, side="left"))) for x in (0.5, 1.0, 2.0)
    )
    report.check(
        "symmetry_cdf",
        sym_stat,
        tol("symmetry_cdf"),
        "the limiting measure is symmetric around 0",
    )
    subs = [quenched_sub_measure(raw, r) for r in range(len(streams["raw"]))]
    worst_z = max(
        _asymmetry_zscore(
            np.array([s.cdf(-x) + s.cdf(x, side="left") - 1.0 for s in subs])
        )
        for x in (0.5, 1.0, 2.0)
    )
    report.check(
        "symmetry_raw_zscore",
        worst_z,
        4.0,
        "raw pooled CDF asymmetry is consistent with zero within MC error",
    )
    for alpha, passes in mgf_passes.items():
        for beta in passes[0]:
            report.check(f"mgf_subgaussian_alpha{alpha}_beta{beta}",
                         sum(p[beta] for p in passes) / len(passes), tol("mgf_pass_fraction"),
                         "quenched MGF is at most 2 exp(2 b^2 sum gamma_j^(-2/alpha))",
                         direction=">=")
    report.check("support_bound_violations", sum(top > radius for top, radius in support),
                 tol("support_violations"),
                 "window spectrum stays inside +-2 sum gamma_j^(-1/alpha) for alpha < 1")
    worst_ratio = max(0.0, *(top / radius for top, radius in support))
    report.note(f"support check worst |eig|/radius ratio: {worst_ratio:.4f}")
    g_means = [float(np.mean(tops)) for tops in zip(*growth)]
    for a, b in zip(g_means, g_means[1:]):
        report.check(
            "support_growth",
            a - b,
            tol("growth_slack"),
            "the divergent coefficient series makes the support unbounded "
            "for tail index >= 1: top eigenvalue grows with series length",
        )
    report.note(f"support growth means over series lengths {k_list}: {g_means}")
    violations, scales = zip(*interlacing)
    report.check("interlacing", max(violations), tol("interlacing") * max(1.0, *scales),
                 "Toeplitz eigenvalues interlace between the circulant embedding's "
                 "eigenvalues (principal submatrix)")
    return report


# ---------------------------------------------------------------------------
# equidistribution


def _ks_statistic(x: np.ndarray) -> float:
    """Two-sided KS statistic of a sample against U[0, 1): the larger of
    max(i/n - x_(i)) and max(x_(i) - (i-1)/n) over the sorted sample, with
    the arithmetic of ``scipy.stats.kstest``."""
    x = np.sort(x)
    n = x.shape[0]
    above = (np.arange(1.0, n + 1) / n - x).max()
    below = (x - np.arange(0.0, n) / n).max()
    return float(max(above, below))


def _kolmogorov_cdf(n: int, d: float) -> float:
    """P(D_n < d) for the two-sided KS statistic of n uniforms.

    Marsaglia, Tsang & Wang, "Evaluating Kolmogorov's distribution", J. Stat.
    Softw. 8(18), 2003: with k = floor(nd) + 1, h = k - nd, it is
    n!/n**n times entry (k, k) of H**n, H the (2k-1)-square matrix of
    1/(i-j+1)! corrected in its first column and last row.  The power is
    taken by squaring with each product rescaled and its log scale kept, so
    nothing overflows.  Where their closed form
    2 exp(-(2.000071 + 0.331/sqrt(n) + 1.409/n) nd^2) of the tail is accurate
    (nd^2 > 7.24, or nd^2 > 3.76 with n > 99) it is used instead.
    """
    s = n * d * d
    if s > 7.24 or (s > 3.76 and n > 99):
        return 1.0 - 2.0 * math.exp(-(2.000071 + 0.331 / math.sqrt(n) + 1.409 / n) * s)
    if n * d <= 0.5:  # D_n >= 1/(2n) always
        return 0.0
    k = int(n * d) + 1
    m = 2 * k - 1
    h = k - n * d
    powers = h ** np.arange(1, m + 1)
    a = np.tri(m, m, 1)  # ones where i - j + 1 >= 0
    a[:, 0] -= powers
    a[-1] -= powers[::-1]
    if 2 * h - 1 > 0:
        a[-1, 0] += (2 * h - 1) ** m
    inv_factorials = np.concatenate([[1.0], np.cumprod(1.0 / np.arange(1, m + 1))])
    lag = np.subtract.outer(np.arange(m), np.arange(m)) + 1
    a *= inv_factorials[np.clip(lag, 0, m)]

    def rescaled(x):
        top = np.abs(x).max()
        return x / top, math.log(top)

    power, log_power = np.eye(m), 0.0
    base, log_base = a, 0.0
    e = n
    while True:
        if e & 1:
            power, log_top = rescaled(power @ base)
            log_power += log_base + log_top
        e >>= 1
        if not e:
            break
        base, log_top = rescaled(base @ base)
        log_base = 2.0 * log_base + log_top
    log_scale = log_power + math.lgamma(n + 1) - n * math.log(n)
    return float(power[k - 1, k - 1] * math.exp(log_scale))


def _kolmogorov_critical(level: float) -> float:
    """x with P(sqrt(n) D_n > x) = level in the large-n limit, by bisection
    on Kolmogorov's survival function 2 sum_k (-1)**(k-1) exp(-2 k^2 x^2)."""
    k = np.arange(1, 101)
    lo, hi = 0.0, 10.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if 2.0 * np.sum((-1.0) ** (k - 1) * np.exp(-2.0 * k * k * mid * mid)) > level:
            lo = mid
        else:
            hi = mid


def _max_bin_correlation(coords: np.ndarray) -> float:
    """Largest |corr| over the replicas (rows of coords in [0, 1)) between a
    bin indicator of one coordinate and one of another, 0 if no two have a
    non-constant one: one corrcoef of the non-constant indicators, read above
    its diagonal (lower coordinate first, as a corrcoef of the pair is)."""
    bins = 8
    binned = np.floor(coords.T * bins).astype(int)
    indicators = (binned[:, None, :] == np.arange(bins)[:, None]).reshape(-1, len(coords))
    varies = indicators.any(axis=1) & ~indicators.all(axis=1)
    coord = np.repeat(np.arange(coords.shape[1]), bins)[varies]
    pairs = coord[:, None] < coord[None, :]
    if not pairs.any():
        return 0.0
    return float(np.abs(np.corrcoef(indicators[varies])[pairs]).max())


def _equidist_row(n: int, k: int, params: AlphaParams, seed: RngSeed,
                  dilation_seed: RngSeed) -> np.ndarray:
    """One replica's coordinates: the positions of the k largest entries of
    a size-n draw on seed, times a dilation factor drawn on dilation_seed
    (independent of the entries), mod 2n, scaled to [0, 1)."""
    sigma = sample_entries(n, params, seed).top(k)
    theta = int(dilation_seed.generator().integers(0, 2 * n))
    return (theta * sigma % (2 * n)) / (2 * n)


def run_equidistribution(config: ExperimentConfig) -> Report:
    """Distribution of the top-magnitude frequencies under a uniform dilation:
    the rescaled products should look jointly uniform.  Reports per-coordinate
    KS statistics against U[0,1) plus pairwise indicator-bin correlations."""
    report = Report(config.experiment)
    k = config.top_coords
    n = max(config.n_list)
    params = config.params()
    seed = config.base_seed()

    # closed-form uniformity of the dilation weights (geometric sum)
    m = np.arange(1, 2 * n, max(1, (2 * n) // 7))
    weyl = max(
        abs(np.exp(2j * np.pi * np.arange(2 * n) * mm / (2 * n)).sum()) / (2 * n)
        for mm in m
    )
    report.check("weyl_sum", weyl, config.tol("weyl_sum"),
                 "full geometric sums of nontrivial characters vanish")

    if n == 1:
        report.note("size 1 is degenerate (two-point support); KS test skipped")
        return report

    streams = _stream_blocks(config)
    coords = np.array([
        _equidist_row(n, k, params, seed.with_stream(stream), seed.with_stream(dilation))
        for stream, dilation in zip(streams["entries"], streams["dilations"])
    ])

    crit = _kolmogorov_critical(config.tol("equidist_level")) / math.sqrt(config.replicas)
    for jcoord in range(k):
        statistic = _ks_statistic(coords[:, jcoord])
        report.check(
            f"ks_uniform_coord{jcoord}",
            statistic,
            crit,
            "rescaled top-frequency dilations converge to i.i.d. uniforms",
        )
        pvalue = min(max(1.0 - _kolmogorov_cdf(config.replicas, statistic), 0.0), 1.0)
        report.note(f"coordinate {jcoord}: KS p-value {pvalue:.4f}")

    # pairwise independence diagnostic: indicator-bin correlations
    report.note(
        f"max |corr| of indicator bins over coordinate pairs: "
        f"{_max_bin_correlation(coords):.4f} "
        f"(rough 4-sigma reference: {4.0 / math.sqrt(config.replicas):.4f})"
    )
    text = io.StringIO()
    np.savetxt(text, coords, delimiter=",", header=",".join(f"coord{i}" for i in range(k)),
               comments="")
    report.files["equidist_coords.csv"] = text.getvalue()
    return report


# ---------------------------------------------------------------------------
# dispatch


EXPERIMENTS = {
    "esd": run_esd,
    "ladder": run_truncation_ladder,
    "limit": run_limit_convergence,
    "properties": run_property_suite,
    "equidist": run_equidistribution,
}

# The config keys each experiment reads: fields, and tolerances as tol_<name>.
# A config may set no other tolerance, and no other field away from its default.
_COMMON_KEYS = ("alpha", "p", "seed", "out_dir", "n_list", "replicas")
EXPERIMENT_KEYS = {
    "esd": (*_COMMON_KEYS, "bins", "tol_esd_identity"),
    "ladder": (*_COMMON_KEYS, "l_list", "m", "k", "tol_ladder_final", "tol_ladder_trend_slack"),
    "limit": (*_COMMON_KEYS, "m", "k", "l", "w", "j", "ref_envs", "inner", "bins", "threads",
              "tol_limit_trend_slack", "tol_reflection_invariance"),
    "properties": (*_COMMON_KEYS, "l", "w", "j", "inner", "threads",
                   "tol_symmetry_cdf", "tol_mgf_slack", "tol_mgf_pass_fraction",
                   "tol_support_violations", "tol_growth_slack", "tol_interlacing"),
    "equidist": (*_COMMON_KEYS, "top_coords", "tol_weyl_sum", "tol_equidist_level"),
}


def run_experiment(config: ExperimentConfig) -> Report:
    """Run one experiment, then create ``out_dir`` and write the runner's
    files and the report, provenance included, as ``report_<experiment>.json``:
    the one writer of a run."""
    t0 = time.perf_counter()
    report = EXPERIMENTS[config.experiment](config)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, content in report.files.items():
        if isinstance(content, PointMeasure):
            save_measure_csv(out / name, content)
        elif isinstance(content, str):
            (out / name).write_text(content)
        else:
            save_histogram_csv(out / name, *content)
    report.provenance = {
        "config": {k: (list(v) if isinstance(v, tuple) else v)
                   for k, v in config.__dict__.items()},
        "config_hash": _config_hash(config),
        "seed": config.seed,
        "version": __version__,
        "tolerances": config.effective_tolerances(),
        "runtime_seconds": round(time.perf_counter() - t0, 3),
        "numpy_version": np.__version__,
        # outputs depend on the BLAS thread count, which these variables set
        "blas_env": {name: os.environ.get(name) for name in _BLAS_ENV},
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }
    report.save(out / f"report_{config.experiment}.json")
    return report
