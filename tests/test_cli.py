import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import htt
import htt.cli
from htt import experiments
from htt.cli import EXIT_CHECK_FAILURE, EXIT_CONFIG_ERROR, EXIT_OK, main
from htt.matrices import _hankel, _split_eigvalsh, _toeplitz_view
from test_experiments import _TOY_RUNS


def test_esd_subcommand(tmp_path, capsys):
    cfg = tmp_path / "esd.cfg"
    cfg.write_text("n_list = 8\nreplicas = 2\n")
    code = main(["esd", "--config", str(cfg), "--out", str(tmp_path / "out"), "--seed", "5"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "[PASS]" in out
    report = json.loads((tmp_path / "out" / "report_esd.json").read_text())
    assert report["provenance"]["seed"] == 5


def test_check_failure_exit_code(tmp_path):
    cfg = tmp_path / "esd.cfg"
    # impossible threshold forces a hard-check failure
    cfg.write_text("n_list = 8\nreplicas = 1\ntol_esd_identity = -1.0\n")
    code = main(["esd", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_CHECK_FAILURE


def test_small_alpha_corner_identity_passes(tmp_path):
    # at alpha = 0.02 the circulant spectrum reaches far above 1, and the
    # solves' O(eps S) rounding exceeds the tolerance taken absolutely; the
    # check holds relative to S
    cfg = tmp_path / "esd.cfg"
    cfg.write_text("alpha = 0.02\nn_list = 64\nreplicas = 3\n")
    out = tmp_path / "out"
    assert main(["esd", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "report_esd.json").read_text())
    check = next(c for c in report["checks"] if c["name"] == "corner_identity_n64")
    assert check["observed"] > report["provenance"]["tolerances"]["esd_identity"]
    assert check["observed"] <= 1e-8 * check["threshold"]  # at most 1e-14 S


@pytest.mark.xfail(strict=True, reason=(
    "the corner check solves T densely, not by the split solve whose spectra "
    "esd writes; switching it moves a recorded esd corner residual"))
def test_corner_check_catches_a_wrong_split_solve(tmp_path, monkeypatch):
    # a planted defect in the solve whose spectra esd writes: the odd-n
    # split without the 1/sqrt(2) scaling of the middle coordinate
    def unscaled_split(b):
        b = np.asarray(b, dtype=float)
        m = (len(b) + 1) // 2
        return _split_eigvalsh(_toeplitz_view(b[:m]), _hankel(b[::-1][: 2 * m - 1], m),
                               inner=slice(None, -1))

    monkeypatch.setattr(experiments, "toeplitz_eigvalsh", unscaled_split)
    cfg = tmp_path / "esd.cfg"
    cfg.write_text("n_list = 7\nreplicas = 2\n")
    out = tmp_path / "out"
    assert main(["esd", "--config", str(cfg), "--out", str(out)]) == EXIT_CHECK_FAILURE
    report = json.loads((out / "report_esd.json").read_text())
    assert [c["name"] for c in report["checks"] if not c["passed"]] == ["corner_identity_n7"]


def test_config_error_exit_code(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("unknown_key = 3\n")
    code = main(["esd", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG_ERROR


@pytest.mark.parametrize(
    "command, text",
    [
        ("esd", "alpha = 3\n"),
        ("ladder", "l_list = 0\n"),
        ("esd", "n_list = 16.5\n"),
        ("ladder", "n_list = 8\nreplicas = 0\n"),
        ("ladder", "n_list = 8\nm = 0\n"),
        ("ladder", "n_list = 8\nk = 0\n"),
        ("properties", "l = -2\n"),
        ("limit", "n_list = 8, 16, 32\nw = 0\n"),
        ("properties", "j = 2.5\n"),
        ("properties", "w = 8\nl = 17\n"),
        ("ladder", "n_list = 16, 32\nk = 20\n"),
        ("ladder", "n_list = 8\ncoupled = false\n"),
        ("esd", "alpha = true\n"),
        ("ladder", "experiment = esd\nn_list = 8\n"),
        ("esd", "n_list = 8\ntolerances = 3\n"),
        ("esd", "n_list = 8\ntol_esd_identy = 1e-30\n"),
        ("esd", "n_list = 8\ntol_esd_identity = abc\n"),
        ("esd", "n_list = 8, 16\nreplicas = 1001\n"),
        ("ladder", "n_list = 8, 16\nreplicas = 1001\n"),
        ("properties", "replicas = 2001\n"),
        ("equidist", "replicas = 100001\n"),
        ("limit", "n_list = 8, 16, 32\nreplicas = 499001\n"),
        ("esd", "n_list = 8\nbins = 0\n"),
        ("esd", "n_list = 8\nbins = -2\n"),
        ("esd", "n_list = 8\nbins = 2.5\n"),
        ("esd", "n_list = 8\nbins = abc\n"),
        ("esd", "n_list = 8\nseed = -5\n"),
        ("esd", "n_list = 8\nseed = 1.5\n"),
        ("esd", "n_list = 8\nseed = abc\n"),
        ("equidist", "n_list = 64\ntol_equidist_level = 0\n"),
        ("equidist", "n_list = 64\ntol_equidist_level = 1.5\n"),
        ("esd", "n_list = 8, 8\n"),
        ("limit", "n_list = 8, 8, 16\nw = 8\nreplicas = 2\nref_envs = 2\n"),
        ("ladder", "n_list = 8\nl_list = 2, 2\n"),
        ("equidist", "n_list = 2\nreplicas = 5\ntop_coords = 8\n"),
        ("properties", "alpha = 0.9\nl = 600\nreplicas = 2\n"),
        ("limit", "n_list = 8, 16, 32\nl = 1100\nreplicas = 2\nref_envs = 1\n"),
        ("esd", "alpha = 0.5\nn_list = 8\nalpha = 0.9\n"),
    ],
    ids=["alpha", "band-width", "size", "replicas", "clip-level", "top-k",
         "band-level", "window", "series-length", "band-beyond-window",
         "top-k-beyond-size", "coupled-key", "boolean", "experiment-key",
         "tolerances-key", "tolerance-name", "tolerance-value",
         "esd-size-streams-overlap", "ladder-size-streams-overlap",
         "properties-mgf-streams-overlap", "equidist-dilation-streams-overlap",
         "limit-reference-streams-overlap", "bins-zero", "bins-negative",
         "bins-fraction", "bins-text", "seed-negative", "seed-fraction", "seed-text",
         "equidist-level-zero", "equidist-level-above-one", "esd-repeated-size",
         "limit-repeated-size", "ladder-repeated-band", "equidist-top-coords-beyond-size",
         "properties-band-beyond-default-window", "limit-band-beyond-default-window",
         "repeated-key"],
)
def test_invalid_config_exits_before_work(tmp_path, command, text):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG_ERROR
    assert not out.exists()


@pytest.mark.parametrize(
    "command, text, flags, key",
    [
        ("esd", "n_list = 8\nout_dir = 5\n", [], "out_dir"),
        ("properties", "w = 8\nn_list = 16\nreplicas = 2\nm = 2\n", [], "m"),
        ("properties", "w = 8\nn_list = 16\nreplicas = 2\nk = 3\n", [], "k"),
        ("equidist", "n_list = 64\nreplicas = 20\ntop_coords = 2\nm = 2\n", [], "m"),
        ("ladder", "n_list = 16\nl_list = 2, 4\nreplicas = 5\nw = 64\n", [], "w"),
        ("esd", "n_list = 8\nreplicas = 2\nref_envs = 7\n", [], "ref_envs"),
        ("esd", "n_list = 8\nreplicas = 2\ntol_weyl_sum = 1e-3\n", [], "tol_weyl_sum"),
        ("properties", "w = 8\nn_list = 16\nreplicas = 2\nbins = 4\n", [], "bins"),
        ("esd", "n_list = 8\nreplicas = 2\n", ["--threads", "2"], "threads"),
        ("esd", "n_list = 8\nreplicas = 2\ntol_esd_identity = nan\n", [], "tol_esd_identity"),
    ],
    ids=["out-dir-number", "properties-clip", "properties-top-k", "equidist-clip",
         "ladder-window", "esd-reference-envs", "esd-weyl-tolerance", "properties-bins",
         "esd-threads-flag", "esd-nan-tolerance"],
)
def test_config_error_names_its_key(tmp_path, monkeypatch, capsys, command, text, flags, key):
    # a value the run could not use, or would ignore, is refused on one
    # line that names its key, and nothing is written (no --out: the
    # config's own out_dir, or the default under the working directory)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.cfg").write_text(text)
    assert main([command, "--config", "bad.cfg", *flags]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert re.search(rf"\b{key}\b", err)
    assert [p.name for p in tmp_path.iterdir()] == ["bad.cfg"]


def test_negative_seed_flag_exits_before_work(tmp_path):
    out = tmp_path / "out"
    assert main(["esd", "--seed", "-1", "--out", str(out)]) == EXIT_CONFIG_ERROR
    assert not out.exists()


@pytest.mark.parametrize(
    "command, text",
    [
        ("properties", "w = 8\nn_list = 16\nreplicas = 2\n"),
        ("properties", "w = 16\nl = 16\nn_list = 16\nreplicas = 2\n"),
        ("properties", "w = 130\nl = 260\nn_list = 16\nreplicas = 2\n"),
        ("ladder", "n_list = 16\nl_list = 2, 4\nreplicas = 5\nm = 2\n"),
    ],
    ids=["support-band-beyond-window", "band-equals-window",
         "growth-band-beyond-window", "ladder-clip-only"],
)
def test_accepted_config_runs_to_report(tmp_path, command, text):
    # validation accepts each band and window here, so each must run
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg), "--out", str(out)])
    assert code in (EXIT_OK, EXIT_CHECK_FAILURE)
    assert (out / f"report_{command}.json").exists()


def test_missing_config_file(tmp_path):
    code = main(["esd", "--config", str(tmp_path / "missing.cfg")])
    assert code == EXIT_CONFIG_ERROR


def test_plot_subcommand(tmp_path, capsys):
    from htt.serialize import save_histogram_csv
    import numpy as np

    csv = tmp_path / "h.csv"
    save_histogram_csv(csv, np.array([0.0, 1.0, 2.0]), np.array([0.5, 0.5]))
    svg = tmp_path / "h.svg"
    code = main(["plot", str(csv), "--out", str(svg)])
    assert code == EXIT_OK
    assert svg.exists()
    assert "h.svg" in capsys.readouterr().out


def test_plot_without_inputs():
    assert main(["plot"]) == EXIT_CONFIG_ERROR


def test_plot_separate_rejects_out(tmp_path):
    # --out names the overlay SVG; with --separate nothing is written
    from htt.serialize import save_histogram_csv
    import numpy as np

    csvs = [tmp_path / "a_hist.csv", tmp_path / "b_hist.csv"]
    for csv in csvs:
        save_histogram_csv(csv, np.array([0.0, 1.0, 2.0]), np.array([0.5, 0.5]))
    argv = ["plot", *map(str, csvs), "--separate", "--out", str(tmp_path / "overlay.svg")]
    assert main(argv) == EXIT_CONFIG_ERROR
    assert not list(tmp_path.glob("*.svg"))


@pytest.mark.parametrize("name", ["esd_n8_pooled.csv", "report_esd.json"])
def test_plot_refuses_a_file_that_is_not_a_histogram(tmp_path, capsys, name):
    # a measure CSV or a report is refused on one line naming it, and no SVG
    # is written
    cfg = tmp_path / "esd.cfg"
    cfg.write_text("n_list = 8\nreplicas = 2\n")
    assert main(["esd", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()
    svg = tmp_path / "x.svg"
    assert main(["plot", str(tmp_path / name), "--out", str(svg)]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("plot error: ") and err.count("\n") == 1
    assert name in err
    assert not list(tmp_path.glob("*.svg"))


def _interpreter(*args: str, check: bool = True) -> subprocess.CompletedProcess:
    """A fresh interpreter run with the given arguments, htt importable."""
    src = str(Path(htt.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, check=check)


def _python(code: str, *args: str) -> str:
    """Stdout of a fresh interpreter running code with argv[1:] = args."""
    return _interpreter("-c", code, *args).stdout


def test_run_refused_mid_way_exits_2_without_traceback(tmp_path):
    # the config is valid, but at alpha = 0.01 reference stream 500000 draws
    # Gamma_1 = 2.0e-4, whose weight Gamma_1**(-100) is beyond the float range
    cfg = tmp_path / "limit.cfg"
    cfg.write_text("alpha = 0.01\nn_list = 8, 16, 32\nw = 8\nreplicas = 2\n"
                   "ref_envs = 1\nseed = 904\n")
    proc = _interpreter("-m", "htt.cli", "limit", "--config", str(cfg),
                        "--out", str(tmp_path / "out"), check=False)
    assert proc.returncode == EXIT_CONFIG_ERROR
    assert proc.stderr.startswith("run error: ")
    assert "alpha = 0.01" in proc.stderr and "stream 500000" in proc.stderr
    assert "Traceback" not in proc.stderr
    # a run writes only after its draws, so the refused one leaves nothing
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("under", [False, True], ids=["out-is-a-file", "out-under-a-file"])
def test_unusable_out_exits_before_any_draw(tmp_path, monkeypatch, capsys, under):
    # an out_dir that cannot be a directory is a config error, caught before
    # the run instead of after all of its draws, in the CLI and the library
    monkeypatch.setattr(htt.cli, "run_experiment", lambda config: pytest.fail("run started"))
    blocker = tmp_path / "taken"
    blocker.write_text("kept\n")
    out = blocker / "out" if under else blocker
    assert main(["esd", "--out", str(out)]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err
    assert blocker.read_text() == "kept\n"
    with pytest.raises(ValueError, match="out_dir"):
        experiments.ExperimentConfig(experiment="esd", out_dir=str(out))


def test_fault_mid_run_keeps_its_traceback(tmp_path):
    # only RunRefused is a refusal: any other ValueError raised during a run
    # is a program fault, and exits 1 with its traceback
    code = ("import sys\nfrom htt import cli\n"
            "def fault(config):\n"
            "    raise ValueError('a point measure needs at least one atom')\n"
            "cli.run_experiment = fault\nsys.exit(cli.main(sys.argv[1:]))\n")
    proc = _interpreter("-c", code, "esd", "--out", str(tmp_path / "out"), check=False)
    assert proc.returncode == 1
    assert "Traceback" in proc.stderr
    assert proc.stderr.rstrip().endswith("ValueError: a point measure needs at least one atom")
    assert "run error" not in proc.stderr


def test_import_builds_no_phase_table():
    # the cosine series' phase tables are built on first use, not at import
    out = _python(
        "import htt, htt.cli; from htt.limit_operator import _turn_tables; "
        "print(_turn_tables.cache_info().currsize)"
    )
    assert out.strip() == "0"


def test_runs_load_no_scipy(tmp_path):
    # numpy is the only runtime dependency: a toy run of every experiment
    # leaves scipy unloaded, and no report records a scipy version.  Nor do
    # the import and serial runs load a process pool's modules, which only
    # threads > 1 needs
    out = _python(
        "import ast, sys, htt.cli; "
        "loaded = lambda *names: sorted(m for m in sys.modules if m.split('.')[0] in names); "
        "pools = ('concurrent', 'multiprocessing'); "
        "print(loaded(*pools)); "
        "from htt.experiments import ExperimentConfig, run_experiment; "
        "runs = ast.literal_eval(sys.argv[1]); "
        "[run_experiment(ExperimentConfig(experiment=e, seed=3, out_dir=f'{sys.argv[2]}/{e}', "
        "**keys)) for e, keys in runs.items()]; "
        "print(loaded('scipy')); print(loaded(*pools))",
        repr(_TOY_RUNS), str(tmp_path),
    )
    assert out.split() == ["[]", "[]", "[]"]
    for experiment in _TOY_RUNS:
        report = json.loads((tmp_path / experiment / f"report_{experiment}.json").read_text())
        assert "scipy_version" not in report["provenance"]
