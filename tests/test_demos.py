"""Smoke test: each demo script runs to completion from a clean directory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import spinkin

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = Path(spinkin.__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["wavepacket_spreading.py",
                                    "plasma_dispersion.py",
                                    "gauge_invariance.py",
                                    "precession.py",
                                    "stern_gerlach.py"])
def test_demo_exits_cleanly(script, tmp_path):
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, str(DEMOS / script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
