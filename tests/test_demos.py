"""Smoke test of the demo scripts: each runs to exit 0 against the library.

Each demo runs from a copy under a temporary directory, so the ``out/``
folder it writes next to itself stays out of the checkout.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import htt

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("0*.py")))
def test_demo_runs(demo, tmp_path):
    copy = tmp_path / "demos"
    copy.mkdir()
    shutil.copy(DEMOS / demo, copy / demo)
    src = str(Path(htt.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    run = subprocess.run([sys.executable, str(copy / demo)], cwd=tmp_path, env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    if demo.startswith("01_"):
        csv = "esd_n1024.csv"
        assert (copy / "out" / csv).read_bytes() == (DEMOS / "out" / csv).read_bytes()
