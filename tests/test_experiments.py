import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from htt import experiments
from htt.experiments import (
    DEFAULT_TOLERANCES,
    EXPERIMENT_KEYS,
    EXPERIMENTS,
    ExperimentConfig,
    _ROUNDING_FLOOR,
    _asymmetry_zscore,
    _config_hash,
    _kolmogorov_cdf,
    _kolmogorov_critical,
    _ks_statistic,
    _max_bin_correlation,
    _stream_blocks,
    config_from_mapping,
    corner_embedding_deviation,
    interlacing_violation,
    ladder_distances,
    parse_config_text,
    run_equidistribution,
    run_esd,
    run_experiment,
    run_limit_convergence,
    run_property_suite,
)
from htt.matrices import (
    TruncationLevels,
    build_circulant,
    build_toeplitz,
    circulant_eigs,
    clip_entries,
    projection_symbol,
    stage_eigvals,
    toeplitz_eigvalsh,
    topk_coefficients,
)
from htt.metrics import levy_distance
from htt.sampler import AlphaParams, RngSeed, default_series_length, sample_entries
from htt.serialize import load_measure_csv
from htt.spectra import PointMeasure, _limit_measure_replica, esd, quenched_sub_measure


class TestConfigParsing:
    def test_flat_key_values(self):
        text = """
        # comment line
        alpha = 0.5
        replicas = 12
        m = inf
        out_dir = results  # trailing comment
        n_list = 64, 128, 256
        tol_ladder_final = 1e-7
        """
        mapping = parse_config_text(text)
        assert mapping["alpha"] == 0.5
        assert mapping["replicas"] == 12
        assert mapping["m"] == math.inf
        assert mapping["out_dir"] == "results"
        assert mapping["n_list"] == (64, 128, 256)
        cfg = config_from_mapping("ladder", mapping)
        assert cfg.n_list == (64, 128, 256)
        assert cfg.tol("ladder_final") == 1e-7
        assert cfg.tol("ladder_trend_slack") == DEFAULT_TOLERANCES["ladder_trend_slack"]

    def test_bad_line_rejected(self):
        with pytest.raises(ValueError):
            parse_config_text("this is not a key value pair")

    def test_repeated_key_rejected(self):
        with pytest.raises(ValueError, match="'alpha' is set twice, on lines 1 and 3"):
            parse_config_text("alpha = 0.5\nreplicas = 2\nalpha = 0.9\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            config_from_mapping("esd", {"no_such_key": 1})

    def test_single_element_list(self):
        cfg = config_from_mapping("esd", {"n_list": 32})
        assert cfg.n_list == (32,)

    def test_coupled_levels(self):
        cfg = config_from_mapping("ladder", {})
        lv = cfg.levels_for(512)
        assert lv.m == 512 ** (1.0 / 9.0)
        assert lv.k == round(512 ** (1.0 / 9.0))

    def test_explicit_levels(self):
        lv = config_from_mapping("ladder", {"n_list": 16, "m": 2.5, "k": 7}).levels_for(16)
        assert (lv.m, lv.k, lv.l) == (2.5, 7, 16)
        cfg = config_from_mapping(
            "limit", {"n_list": (8, 16, 32), "m": 2.5, "k": 7, "l": 16, "w": 64, "j": 100}
        )
        lv = cfg.with_explicit_levels(cfg.window_levels())
        assert (lv.m, lv.k, lv.l, lv.w, lv.j) == (2.5, 7, 16, 64, 100)

    def test_one_explicit_level_keeps_the_other_coupled(self):
        coupled = TruncationLevels.coupled(16)
        lv = config_from_mapping("ladder", {"m": 2.5}).levels_for(16)
        assert (lv.m, lv.k) == (2.5, coupled.k)
        lv = config_from_mapping("ladder", {"n_list": 16, "k": 3}).levels_for(16)
        assert (lv.m, lv.k) == (coupled.m, 3)

    def test_window_levels(self):
        lv = config_from_mapping("limit", {"n_list": (8, 16, 32), "alpha": 0.5}).window_levels()
        assert (lv.m, lv.l, lv.w) == (math.inf, 64, 512)
        assert lv.k == lv.j == default_series_length(0.5)
        assert config_from_mapping("properties", {}).window_levels().w == 256
        lv = config_from_mapping("properties", {"w": 4, "j": 50}).window_levels()
        assert (lv.m, lv.k, lv.l, lv.w, lv.j) == (math.inf, 50, 1, 4, 50)

    @pytest.mark.parametrize(
        "experiment, mapping",
        [
            ("esd", {"n_list": (8, 16), "replicas": 1000}),
            ("ladder", {"n_list": (8, 16), "replicas": 1000}),
            ("properties", {"replicas": 2000}),
            ("equidist", {"replicas": 100_000}),
            ("limit", {"n_list": (8, 16, 32), "replicas": 499_000}),
        ],
        ids=["esd", "ladder", "properties", "equidist", "limit"],
    )
    def test_largest_replica_count_inside_its_stream_block(self, experiment, mapping):
        # the last replica count whose streams stay in their blocks validates;
        # one more is rejected (tests/test_cli.py)
        cfg = config_from_mapping(experiment, mapping)
        assert cfg.replicas == mapping["replicas"]

    def test_readme_lists_every_config_key(self):
        # the README's key table names exactly the config fields, with the
        # tolerances spelled tol_<name>, and its "read by" column says what
        # EXPERIMENT_KEYS says; the experiment is the subcommand
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Config keys", 1)[1].split("\n#", 1)[0]
        rows = dict(re.findall(r"^\| `([^`]+)` \| [^|]+ \| ([^|]+) \|", section,
                               flags=re.MULTILINE))
        fields = set(ExperimentConfig.__dataclass_fields__) - {"experiment", "tolerances"}
        assert sorted(rows) == sorted(fields | {"tol_<name>"})
        for key in fields:
            listed = (set(EXPERIMENTS) if rows[key].strip() == "all"
                      else set(re.findall(r"`(\w+)`", rows[key])))
            assert listed == {e for e, keys in EXPERIMENT_KEYS.items() if key in keys}, key
        tolerances = {}
        for part in rows["tol_<name>"].split(";"):
            experiment, names = part.split(":")
            tolerances[experiment.strip(" `")] = {f"tol_{n}" for n in re.findall(r"`(\w+)`", names)}
        assert tolerances == {e: {k for k in keys if k.startswith("tol_")}
                              for e, keys in EXPERIMENT_KEYS.items()}


class TestReport:
    def test_structure_and_hash(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="esd", n_list=(8,), replicas=2, out_dir=str(tmp_path), seed=3
        )
        run_experiment(cfg)
        data = json.loads((tmp_path / "report_esd.json").read_text())
        assert data["experiment"] == "esd"
        assert data["passed"] is True
        assert data["summary"]["checks"] == len(data["checks"])
        for check in data["checks"]:
            assert set(check) >= {"name", "observed", "threshold", "passed", "basis"}
            assert check["basis"]
        prov = data["provenance"]
        assert prov["seed"] == 3
        assert len(prov["config_hash"]) == 16
        assert "tolerances" in prov

    def test_report_records_blas_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("MKL_NUM_THREADS", "2")
        cfg = ExperimentConfig(experiment="esd", n_list=(8,), replicas=1, out_dir=str(tmp_path))
        run_experiment(cfg)
        report = json.loads((tmp_path / "report_esd.json").read_text())
        assert report["provenance"]["blas_env"] == {
            "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": "2"}

    def test_hash_ignores_tolerance_order(self):
        a = ExperimentConfig("ladder", tolerances={"ladder_final": 1, "ladder_trend_slack": 2})
        b = ExperimentConfig("ladder", tolerances={"ladder_trend_slack": 2, "ladder_final": 1})
        assert a == b
        assert _config_hash(a) == _config_hash(b)
        only_a = ExperimentConfig("ladder", tolerances={"ladder_final": 1})
        assert _config_hash(a) != _config_hash(only_a)

    def test_reproducible_outputs(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            run_experiment(
                ExperimentConfig(
                    experiment="esd", n_list=(8,), replicas=2, out_dir=str(out), seed=3
                )
            )
        f1 = (out1 / "esd_n8_pooled.csv").read_bytes()
        f2 = (out2 / "esd_n8_pooled.csv").read_bytes()
        assert f1 == f2


class TestTolerances:
    def test_every_tolerance_is_read(self, tmp_path, monkeypatch):
        # each DEFAULT_TOLERANCES entry is read by some experiment, and no
        # experiment reads a name outside it
        read = set()
        tol = ExperimentConfig.tol

        def recording_tol(config, name):
            read.add(name)
            return tol(config, name)

        monkeypatch.setattr(ExperimentConfig, "tol", recording_tol)
        toy = {
            "esd": dict(n_list=(8,), replicas=1),
            "ladder": dict(n_list=(16,), l_list=(2, 4), replicas=5),
            "limit": dict(n_list=(16, 32, 64), replicas=2, ref_envs=2, w=16),
            "properties": dict(alpha=0.9, w=8, l=2, n_list=(16,), replicas=2),
            "equidist": dict(n_list=(64,), replicas=20, top_coords=2),
        }
        for experiment, keys in toy.items():
            run_experiment(ExperimentConfig(
                experiment, out_dir=str(tmp_path / experiment), **keys))
        assert read == set(DEFAULT_TOLERANCES)


class TestConfigKeys:
    @pytest.mark.parametrize("experiment", list(EXPERIMENTS))
    def test_runs_read_their_table_entry(self, tmp_path, monkeypatch, experiment):
        # the config fields and tolerances a run reads are exactly its
        # EXPERIMENT_KEYS entry; the config is built before recording, since
        # validation reads every field
        cfg = ExperimentConfig(experiment, seed=3, out_dir=str(tmp_path), **_TOY_RUNS[experiment])
        keys = set(ExperimentConfig.__dataclass_fields__) - {"experiment", "tolerances"}
        read = set()
        tol = ExperimentConfig.tol

        def recording_getattribute(config, name):
            if name in keys:
                read.add(name)
            return object.__getattribute__(config, name)

        def recording_tol(config, name):
            read.add(f"tol_{name}")
            return tol(config, name)

        monkeypatch.setattr(ExperimentConfig, "__getattribute__", recording_getattribute)
        monkeypatch.setattr(ExperimentConfig, "tol", recording_tol)
        run_experiment(cfg)
        assert read == set(EXPERIMENT_KEYS[experiment])

    def test_unread_key_refused_unless_default(self):
        # a field the experiment does not read may only keep its default; a
        # tolerance it does not read may not be set at all
        ExperimentConfig("esd", ref_envs=200, threads=1, top_coords=4)
        with pytest.raises(ValueError, match=r"^equidist does not read m, set to 2$"):
            ExperimentConfig("equidist", m=2)
        with pytest.raises(ValueError, match=r"^esd does not read threads, set to 2$"):
            ExperimentConfig("esd", threads=2)
        with pytest.raises(ValueError, match=r"^esd does not read tol_weyl_sum, set to 1e-10$"):
            ExperimentConfig("esd", tolerances={"weyl_sum": DEFAULT_TOLERANCES["weyl_sum"]})


class TestEsdRun:
    def test_two_by_two_flip(self):
        # the 2x2 Toeplitz with zero diagonal and unit off-diagonal has
        # spectrum {-1, +1}
        m = esd(np.linalg.eigvalsh(np.array([[0.0, 1.0], [1.0, 0.0]])))
        np.testing.assert_allclose(m.locations, [-1.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(m.weights, [0.5, 0.5])

    def test_identity_deviation_small(self):
        e = sample_entries(16, AlphaParams(0.5), RngSeed(123))
        assert corner_embedding_deviation(e)[0] < 1e-8

    def test_run_writes_files(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="esd", n_list=(16,), replicas=2, out_dir=str(tmp_path), seed=9
        )
        report = run_experiment(cfg)
        assert report.passed
        assert (tmp_path / "esd_n16_hist.csv").exists()
        assert (tmp_path / "esd_n16_r1.csv").exists()
        assert "runtime_seconds" in report.provenance
        assert report.provenance["numpy_version"] == np.__version__
        assert report.provenance["peak_rss_mb"] > 0


def _ladder_oracle(config):
    """ladder.csv text and pooled totals of the ladder run per (n, l, r):
    each replica drawn again at every band width, every stage solved fresh."""
    lines = ["n,l,m,k,replica,d_clip,d_band,d_topk"]
    totals = {}
    for n, block in zip(sorted(config.n_list), _stream_blocks(config).values()):
        for l in sorted(config.l_list):
            levels = config.levels_for(l)
            rows = []
            for r, stream in enumerate(block):
                entries = sample_entries(n, config.params(), config.base_seed().with_stream(stream))
                band = projection_symbol(n, levels.l)
                clipped = clip_entries(entries.b, levels.m)
                top = topk_coefficients(entries, levels.m, levels.k)
                stages = [
                    esd(stage_eigvals(entries.b)),
                    esd(stage_eigvals(clipped)),
                    esd(stage_eigvals(clipped, band)),
                    esd(stage_eigvals(top, band)),
                ]
                d = tuple(levy_distance(stages[t], stages[t + 1]) for t in range(3))
                rows.append(d)
                lines.append(f"{n},{l},{levels.m!r},{levels.k},{r},{d[0]!r},{d[1]!r},{d[2]!r}")
            totals[(n, l)] = float(np.mean(rows, axis=0).sum())
    return "\n".join(lines) + "\n", totals


# Coupled clip levels 2**(1/9), 4**(1/9), 8**(1/9) = 1.08, 1.17, 1.26: at
# seed 0 some replicas clip nothing at any band width, some clip at every
# one, and size 16's replica 0 (max |b| = 1.20) clips at l = 2, 4 only.
_LADDER_CASE = dict(experiment="ladder", n_list=(16, 33), l_list=(2, 4, 8),
                    replicas=6, seed=0)


class TestLadder:
    def test_no_truncation_distances_vanish(self):
        # band covering everything, no clip, full top-k: all stages identical
        e = sample_entries(16, AlphaParams(0.5), RngSeed(5))
        with pytest.warns(UserWarning):
            band = projection_symbol(16, 16)
        [(d1, d2, d3)] = ladder_distances(
            e, [(TruncationLevels(m=math.inf, k=16, l=16, w=1, j=1), band)]
        )
        assert d1 <= 1e-9 and d2 <= 1e-9 and d3 <= 1e-9

    def test_heavy_clip_changes_spectrum(self):
        e = sample_entries(32, AlphaParams(0.5), RngSeed(6))
        levels = TruncationLevels(m=1e-6, k=32, l=8, w=1, j=1)
        [(d1, _, _)] = ladder_distances(e, [(levels, projection_symbol(32, 8))])
        assert d1 > 0.01

    def test_run_matches_per_level_oracle(self, tmp_path):
        cfg = ExperimentConfig(out_dir=str(tmp_path), **_LADDER_CASE)
        report = run_experiment(cfg)
        text, totals = _ladder_oracle(cfg)
        assert (tmp_path / "ladder.csv").read_text() == text
        final = totals[(33, 8)]
        observed = {c.name: c.observed for c in report.checks}
        assert observed == {"ladder_final_distance": final,
                            "ladder_trend": final - totals[(33, 2)]}

    def test_band_symbol_built_once_per_size_and_band(self, tmp_path, monkeypatch):
        # a band symbol depends on (n, l) alone, so a run builds each once
        built = []
        symbol = experiments.projection_symbol

        def counting_symbol(n, l):
            built.append((n, l))
            return symbol(n, l)

        monkeypatch.setattr(experiments, "projection_symbol", counting_symbol)
        cfg = ExperimentConfig(out_dir=str(tmp_path), **_LADDER_CASE)
        run_experiment(cfg)
        assert sorted(built) == [(n, l) for n in cfg.n_list for l in cfg.l_list]

    def test_each_stage_solved_once_per_replica(self, tmp_path, monkeypatch):
        # per (n, r): one draw, one unbanded full solve, an unbanded clipped
        # solve only at the band widths whose clip changes an entry, and two
        # banded solves per band width
        draws, solves = [], []
        sample, solve = experiments.sample_entries, experiments.stage_eigvals

        def counting_sample(*args):
            draws.append(sample(*args))
            solves.append([])
            return draws[-1]

        def counting_solve(c, band=None):
            kind = "banded" if band is not None else "full" if c is draws[-1].b else "clipped"
            solves[-1].append(kind)
            return solve(c, band)

        monkeypatch.setattr(experiments, "sample_entries", counting_sample)
        monkeypatch.setattr(experiments, "stage_eigvals", counting_solve)
        cfg = ExperimentConfig(out_dir=str(tmp_path), **_LADDER_CASE)
        run_experiment(cfg)
        levels = [cfg.levels_for(l) for l in cfg.l_list]
        assert len(draws) == len(cfg.n_list) * cfg.replicas
        clipping = []
        for entries, kinds in zip(draws, solves):
            clips = sum(np.abs(entries.b).max() > lv.m for lv in levels)
            clipping.append(clips)
            assert kinds.count("full") == 1
            assert kinds.count("clipped") == clips
            assert kinds.count("banded") == 2 * len(levels)
        assert 0 in clipping and len(levels) in clipping
        assert set(clipping) - {0, len(levels)}

    def test_run_report(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="ladder",
            n_list=(32, 64),
            l_list=(2, 8),
            replicas=5,
            out_dir=str(tmp_path),
            seed=11,
        )
        report = run_experiment(cfg)
        lines = (tmp_path / "ladder.csv").read_text().splitlines()
        assert lines[0] == "n,l,m,k,replica,d_clip,d_band,d_topk"
        assert len(lines) == 1 + 2 * 2 * 5
        names = [c.name for c in report.checks]
        assert "ladder_final_distance" in names
        assert "ladder_trend" in names


class TestLimitRun:
    def test_requires_three_sizes(self, tmp_path):
        with pytest.raises(ValueError):
            cfg = ExperimentConfig(
                experiment="limit", n_list=(8, 16), out_dir=str(tmp_path)
            )
            run_limit_convergence(cfg)

    def test_small_run_structure(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="limit",
            n_list=(16, 32, 64),
            replicas=4,
            ref_envs=4,
            w=32,
            l=4,
            j=64,
            out_dir=str(tmp_path),
            seed=13,
            tolerances={"limit_trend_slack": 1.0},  # structure test, not trend
        )
        report = run_experiment(cfg)
        names = [c.name for c in report.checks]
        assert "self_distance" in names
        assert "reflection_invariance" in names
        assert any(n.startswith("limit_distance_decrease") for n in names)
        self_check = next(c for c in report.checks if c.name == "self_distance")
        assert self_check.observed == 0.0
        refl = next(c for c in report.checks if c.name == "reflection_invariance")
        assert refl.observed <= 1e-12
        assert (tmp_path / "limit_reference.csv").exists()
        assert (tmp_path / "limit_esd_n64_hist.csv").exists()


class TestPropertySuite:
    def test_zscore_with_identical_replica_asymmetry(self):
        # zero standard error: z is decided on the mean alone, 0 for
        # rounding residues and inf for a real shared asymmetry
        floor = _ROUNDING_FLOOR
        assert _asymmetry_zscore(np.array([0.0, 0.0])) == 0.0
        assert _asymmetry_zscore(np.array([floor, floor, floor])) == 0.0
        assert _asymmetry_zscore(np.array([2.0 * floor, 2.0 * floor])) == math.inf
        assert _asymmetry_zscore(np.array([-1e-3, -1e-3])) == math.inf

    def test_zscore_treats_each_rounding_residue_as_zero(self):
        # without the per-replica floor, [4.4e-16, 2.2e-16] reads z = 4.24
        # (a failed check) and [2.2e-16, 0] z = 1.41: ratios of rounding errors
        assert _asymmetry_zscore(np.array([4.4e-16, 2.2e-16])) == 0.0
        assert _asymmetry_zscore(np.array([2.2e-16, 0.0])) == 0.0
        assert _asymmetry_zscore(np.array([-2.2e-16, 4.4e-16, 0.0])) == 0.0

    def test_zscore_of_spread_asymmetries(self):
        # mean 0.02, population std 0.01 over 2 replicas: z = 2 sqrt(2)
        assert _asymmetry_zscore(np.array([0.01, 0.03])) == pytest.approx(2 * math.sqrt(2))

    def test_raw_symmetry_check_reports_worst_zscore(self, tmp_path):
        # near alpha = 1 the x = 2 asymmetries are rounding residues
        cfg = ExperimentConfig(
            experiment="properties", alpha=0.9, w=8, l=2, n_list=(16,),
            replicas=2, seed=20256739, out_dir=str(tmp_path),
        )
        report = run_experiment(cfg)
        raw = load_measure_csv(tmp_path / "properties_raw_measure.csv")
        subs = [quenched_sub_measure(raw, r) for r in range(2)]
        want = max(
            _asymmetry_zscore(
                np.array([s.cdf(-x) + s.cdf(x, side="left") - 1.0 for s in subs])
            )
            for x in (0.5, 1.0, 2.0)
        )
        check = next(c for c in report.checks if c.name == "symmetry_raw_zscore")
        assert check.observed == want
        assert check.passed and check.observed < 4.0

    @pytest.mark.xfail(strict=True, reason=(
        "the interlacing wrap comes from stream 50_000, which also draws "
        "replica 0's entries, so that replica's wrap is +-b_1; fixing it moves "
        "the recorded interlacing value"))
    def test_interlacing_wrap_independent_of_entries(self, tmp_path, monkeypatch):
        # the interlacing check's wrap entry should be an independent copy;
        # record the wrap and entries each replica passes to circulant_eigs
        seen = []

        def recording(entries, wrap=0.0):
            seen.append((entries.b.copy(), wrap))
            return circulant_eigs(entries, wrap)

        monkeypatch.setattr("htt.experiments.circulant_eigs", recording)
        cfg = ExperimentConfig(
            experiment="properties", alpha=0.9, w=8, l=2, n_list=(16,),
            replicas=2, seed=20240901, out_dir=str(tmp_path),
        )
        run_property_suite(cfg)
        assert len(seen) == 50
        b, wrap = seen[0]
        assert abs(wrap) not in np.abs(b)


class TestInterlacing:
    def test_matches_dense_spectra(self):
        for n in (32, 33):
            entries = sample_entries(n, AlphaParams(0.7, 0.4), RngSeed(21))
            got, scale = interlacing_violation(entries, np.random.default_rng(5).random(2))
            # the same wrap entry, then dense Toeplitz and 2N circulant solves
            rng = np.random.default_rng(5)
            sign = 1.0 if rng.random() < entries.p else -1.0
            wrap = sign * (1.0 - rng.random()) ** (-1.0 / entries.alpha) / entries.c_n
            g = np.linalg.eigvalsh(build_circulant(entries, wrap_entry=wrap))
            t = np.linalg.eigvalsh(build_toeplitz(entries))
            want = max(np.max(g[:n] - t), np.max(t - g[n:]))
            assert abs(got - want) <= 1e-13 * max(1.0, np.abs(entries.b).sum())
            assert abs(scale - np.abs(g).max()) <= 1e-13 * max(1.0, np.abs(entries.b).sum())

    def test_small_alpha_wrap_is_finite(self, monkeypatch):
        # rng seed 852 gives the wrap the uniform 1.74e-4, whose power
        # (1.74e-4)**(-100) overflows; the scaled wrap (128 * 1.74e-4)**(-100)
        # = 1.4e165 does not
        entries = sample_entries(128, AlphaParams(0.01), RngSeed(3))
        rng = np.random.default_rng(852)
        rng.random()
        v = 1.0 - rng.random()
        with pytest.raises(OverflowError):
            v ** -100.0
        wraps = []

        def recording_eigs(entries, wrap):
            wraps.append(wrap)
            return circulant_eigs(entries, wrap)

        monkeypatch.setattr(experiments, "circulant_eigs", recording_eigs)
        violation, scale = interlacing_violation(entries, np.random.default_rng(852).random(2))
        assert math.isfinite(violation) and math.isfinite(scale)
        assert abs(wraps[0]) == pytest.approx((128 * v) ** -100.0, rel=1e-13)


class TestIdentityScale:
    """The corner and interlacing checks hold to tol * max(1, S), S the
    largest |eigenvalue| of the circulants they compare against."""

    @pytest.mark.parametrize("alpha", [0.02, 0.1])
    def test_small_alpha_interlacing_passes(self, tmp_path, alpha):
        # seed 14 draws a violation above the tolerance taken absolutely
        cfg = ExperimentConfig(
            experiment="properties", alpha=alpha, w=8, l=2, n_list=(128,),
            replicas=2, seed=14, out_dir=str(tmp_path),
        )
        check = next(c for c in run_property_suite(cfg).checks if c.name == "interlacing")
        assert check.observed > cfg.tol("interlacing")
        assert check.passed and check.observed <= 1e-5 * check.threshold  # 1e-14 S

    def test_moved_circulant_spectrum_fails_corner_identity(self, tmp_path, monkeypatch):
        # P D P with D moved by 1e-3 S no longer matches [[T, 0], [0, 0]]
        def moved(entries):
            d = circulant_eigs(entries)
            return d + 1e-3 * np.abs(d).max()

        monkeypatch.setattr("htt.experiments.circulant_eigs", moved)
        cfg = ExperimentConfig(experiment="esd", alpha=0.02, n_list=(64,),
                               replicas=3, out_dir=str(tmp_path))
        check = next(c for c in run_esd(cfg).checks if c.name == "corner_identity_n64")
        assert not check.passed

    def test_other_replicas_toeplitz_fails_interlacing(self, monkeypatch):
        # the Toeplitz spectrum of another draw does not interlace this
        # draw's circulant spectrum
        params = AlphaParams(0.1)
        entries, other = (sample_entries(128, params, RngSeed(14, s)) for s in (0, 1))
        monkeypatch.setattr("htt.experiments.toeplitz_eigvalsh",
                            lambda b: toeplitz_eigvalsh(other.b))
        violation, scale = interlacing_violation(entries, np.random.default_rng(5).random(2))
        assert violation > DEFAULT_TOLERANCES["interlacing"] * max(1.0, scale)


def _skewed_samples(n, rng):
    # samples of U**t, whose KS statistics against U[0, 1) spread over (0, 1)
    u = rng.random(n)
    return [u ** t for t in np.geomspace(0.02, 50.0, 25)]


class TestKolmogorovSmirnov:
    # scipy.stats is the oracle of the numpy KS statistic, p-value and
    # critical value of the equidist runner
    REPLICAS = (1, 2, 5, 20, 140, 141, 1000, 5000)

    @pytest.mark.parametrize("n", REPLICAS)
    def test_statistic_equals_scipy(self, n):
        rng = np.random.default_rng(n)
        for x in [rng.random(n)] + _skewed_samples(n, rng):
            assert _ks_statistic(x) == scipy.stats.kstest(x, "uniform").statistic

    @pytest.mark.parametrize("n", REPLICAS)
    def test_pvalue_matches_scipy(self, n):
        # kstest's p-value is kstwo.sf at the statistic, clipped to [0, 1]:
        # compared on samples, on a grid over (0, 1) and on a finer grid
        # where sqrt(n) D is of order 1
        def pvalue(d):
            return min(max(1.0 - _kolmogorov_cdf(n, d), 0.0), 1.0)

        rng = np.random.default_rng(n)
        for x in [rng.random(n)] + _skewed_samples(n, rng):
            res = scipy.stats.kstest(x, "uniform")
            assert abs(pvalue(_ks_statistic(x)) - res.pvalue) <= 5e-6, (n, res.statistic)
        grid = np.concatenate([np.linspace(0.0, 1.0, 201)[1:],
                               np.linspace(0.2, 3.0, 57) / math.sqrt(n)])
        for d in grid[grid <= 1.0]:
            want = min(max(scipy.stats.kstwo.sf(d, n), 0.0), 1.0)
            assert abs(pvalue(d) - want) <= 5e-6, (n, d)

    @pytest.mark.parametrize("level", [0.2, 0.05, 0.01, 0.001])
    def test_critical_value_matches_scipy(self, level):
        want = scipy.stats.kstwobign.ppf(1 - level)
        assert abs(_kolmogorov_critical(level) - want) <= 1e-12


def _pairwise_bin_correlation(coords, bins=8):
    """Oracle of ``_max_bin_correlation``: one corrcoef per pair of
    non-constant indicator columns of different coordinates."""
    k = coords.shape[1]
    binned = np.floor(coords * bins).astype(int)
    worst = 0.0
    for i in range(k):
        for j in range(i + 1, k):
            for b1 in range(bins):
                for b2 in range(bins):
                    x = (binned[:, i] == b1).astype(float)
                    y = (binned[:, j] == b2).astype(float)
                    if x.std() > 0 and y.std() > 0:
                        worst = max(worst, abs(np.corrcoef(x, y)[0, 1]))
    return worst


class TestEquidistRun:
    @pytest.mark.parametrize("top_coords", [1, 2, 8])
    def test_bin_correlation_matches_pairwise_oracle(self, top_coords):
        # corrcoef sums each covariance with a BLAS kernel picked by the
        # matrix shape, so one pass and the two-row oracle can differ in the
        # last bits (3.3e-16 seen); 1e-15 is 4.5 eps
        rng = np.random.default_rng(top_coords)
        found = []
        for replicas in (1, 2, 20, 200):
            skewed = rng.random((replicas, top_coords)) ** 3  # top bins often empty
            constant = skewed.copy()
            constant[:, 0] = 0.3  # every indicator of coordinate 0 constant
            for coords in (skewed, constant):
                want = _pairwise_bin_correlation(coords)
                assert abs(_max_bin_correlation(coords) - want) <= 1e-15
                found.append(want)
        assert (max(found) > 0) == (top_coords > 1)

    def test_default_threshold_is_the_kolmogorov_critical_value(self, tmp_path):
        cfg = ExperimentConfig(experiment="equidist", n_list=(64,), replicas=20,
                               top_coords=2, out_dir=str(tmp_path))
        ks = [c for c in run_equidistribution(cfg).checks if c.name.startswith("ks_uniform")]
        assert len(ks) == 2
        assert all(c.threshold == _kolmogorov_critical(0.01) / math.sqrt(20) for c in ks)

    def test_degenerate_size_skips(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="equidist", n_list=(1,), replicas=10, top_coords=1,
            out_dir=str(tmp_path)
        )
        report = run_equidistribution(cfg)
        assert any("degenerate" in note for note in report.notes)

    def test_rejects_many_coordinates(self, tmp_path):
        with pytest.raises(ValueError):
            cfg = ExperimentConfig(
                experiment="equidist", n_list=(100,), top_coords=9, out_dir=str(tmp_path)
            )
            run_equidistribution(cfg)

    def test_small_run(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="equidist",
            n_list=(500,),
            replicas=300,
            top_coords=2,
            out_dir=str(tmp_path),
            seed=17,
        )
        report = run_experiment(cfg)
        assert report.passed
        assert (tmp_path / "equidist_coords.csv").exists()


# One small run per experiment, for the stream-table and stream-order tests
_TOY_RUNS = {
    "esd": dict(n_list=(8, 16), replicas=3),
    "ladder": dict(n_list=(8, 16), l_list=(2, 4), replicas=5),
    "limit": dict(n_list=(8, 16, 32), w=8, replicas=2, ref_envs=2, inner=2),
    "properties": dict(alpha=0.9, w=8, l=2, n_list=(16,), replicas=2),
    "equidist": dict(n_list=(64,), replicas=20, top_coords=2),
}


@pytest.mark.parametrize("experiment", [
    "esd", "ladder", "limit",
    pytest.param("properties", marks=pytest.mark.xfail(strict=True, reason=(
        "the interlacing wraps come from the interlacing block's base stream, "
        "which also draws replica 0's entries"))),
    "equidist",
])
def test_every_draw_has_a_stream_of_its_own(tmp_path, monkeypatch, experiment):
    # record the (seed, stream) of every generator a run makes: each lies in
    # one of the experiment's stream blocks, and none repeats
    seen = []
    generator = RngSeed.generator

    def recording(self):
        seen.append((self.seed, self.stream))
        return generator(self)

    monkeypatch.setattr(RngSeed, "generator", recording)
    cfg = ExperimentConfig(experiment=experiment, seed=3, out_dir=str(tmp_path),
                           **_TOY_RUNS[experiment])
    run_experiment(cfg)
    blocks = _stream_blocks(cfg).values()
    assert seen and {seed for seed, _ in seen} == {3}
    assert all(any(s in b for b in blocks) for _, s in seen)
    assert len(set(seen)) == len(seen)


@pytest.mark.parametrize("experiment", list(EXPERIMENTS))
def test_runner_writes_nothing_and_run_experiment_writes_its_files(tmp_path, experiment):
    # the runner only returns its report; run_experiment writes exactly the
    # files the report carries, and the report itself
    out = tmp_path / "out"
    cfg = ExperimentConfig(experiment=experiment, seed=3, out_dir=str(out),
                           **_TOY_RUNS[experiment])
    files = EXPERIMENTS[experiment](cfg).files
    assert files and not out.exists()
    run_experiment(cfg)
    written = {p.name for p in out.iterdir()}
    assert written == {*files, f"report_{experiment}.json"}


@pytest.mark.parametrize("experiment", ["esd", "limit"])
def test_failure_before_the_writes_leaves_no_output(tmp_path, monkeypatch, experiment):
    # a histogram fails after every draw and solve: nothing is written, not
    # even the measure CSVs whose histograms come later
    def failing(m, bins=None):
        raise MemoryError("planted histogram failure")

    monkeypatch.setattr("htt.experiments.histogram", failing)
    out = tmp_path / "out"
    cfg = ExperimentConfig(experiment=experiment, seed=3, out_dir=str(out),
                           **_TOY_RUNS[experiment])
    with pytest.raises(MemoryError, match="planted"):
        run_experiment(cfg)
    assert not out.exists()


def _bits(result):
    """The exact bits of a per-stream result: measures, arrays, floats, None,
    and sequences and dicts of them."""
    if isinstance(result, PointMeasure):
        return tuple(None if a is None else a.tobytes()
                     for a in (result.locations, result.weights, result.replica_ids))
    if isinstance(result, np.ndarray):
        return result.tobytes()
    if isinstance(result, dict):
        return _bits(list(result.items()))
    if isinstance(result, (tuple, list)):
        return tuple(_bits(x) for x in result)
    return None if result is None else float(result).hex()


def test_per_stream_work_is_order_free():
    # each stream's computation depends on its own inputs alone, so the
    # streams can run in any order, as a worker pool would run them
    esd_cfg = ExperimentConfig(experiment="esd", seed=3, **_TOY_RUNS["esd"])
    limit_cfg = ExperimentConfig(experiment="limit", seed=3, **_TOY_RUNS["limit"])
    props_cfg = ExperimentConfig(experiment="properties", seed=3, **_TOY_RUNS["properties"])
    equidist_cfg = ExperimentConfig(experiment="equidist", seed=3, **_TOY_RUNS["equidist"])
    esd_blocks = zip(esd_cfg.n_list, _stream_blocks(esd_cfg).values())
    limit_blocks = _stream_blocks(limit_cfg)
    ref_levels = limit_cfg.with_explicit_levels(limit_cfg.window_levels())
    props = _stream_blocks(props_cfg)
    interlacing = props["interlacing"]
    wraps = RngSeed(3, interlacing.start).generator().random((len(interlacing), 2))
    # the property tasks at the runner's levels and tail indices
    levels = props_cfg.window_levels()
    j_half = default_series_length(0.5)
    half, three_halves = AlphaParams(0.5, props_cfg.p), AlphaParams(1.5, props_cfg.p)
    growth_levels = [replace(levels, k=k, j=4096) for k in (64, 512, 4096)]
    equidist = _stream_blocks(equidist_cfg)
    runs = [
        (experiments._esd_replica, [(esd_cfg, n, s) for n, block in esd_blocks for s in block]),
        (experiments._limit_replica, [(limit_cfg, s) for s in limit_blocks["replicas"]]),
        (_limit_measure_replica, [(limit_cfg.params(), ref_levels, limit_cfg.inner,
                                   RngSeed(3, s), True) for s in limit_blocks["reference"]]),
        (interlacing_violation, [(sample_entries(16, props_cfg.params(), RngSeed(3, s)), u)
                                 for s, u in zip(interlacing, wraps)]),
        (experiments._mgf_passes, [(replace(levels, k=j_half, j=j_half), half, RngSeed(3, s), 1.1)
                                   for s in props["mgf_alpha0.5"]]),
        (experiments._support_check, [(TruncationLevels.coupled(2, w=8, j=j_half), half,
                                       RngSeed(3, s)) for s in props["support"]]),
        (experiments._growth_tops, [(growth_levels, three_halves, RngSeed(3, s))
                                    for s in props["growth"]]),
        (experiments._equidist_row, [(64, 2, equidist_cfg.params(), RngSeed(3, s), RngSeed(3, d))
                                     for s, d in zip(equidist["entries"], equidist["dilations"])]),
    ]
    for task, inputs in runs:
        forward = [task(*x) for x in inputs]
        backward = [task(*x) for x in reversed(inputs)][::-1]
        assert len(forward) > 1
        assert _bits(forward) == _bits(backward), task.__name__


class TestDispatch:
    def test_unknown_experiment(self):
        with pytest.raises(ValueError):
            cfg = ExperimentConfig(experiment="nope")
            run_experiment(cfg)
