"""Every narrative demo runs to completion against the checkout's package."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, KSLAB_OUT=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr[-2000:]
