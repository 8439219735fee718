import os
import subprocess
import sys

import pytest

import aud_lab

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(aud_lab.__file__)))


@pytest.mark.parametrize("demo", sorted(os.listdir(os.path.join(ROOT, "demos"))))
def test_demo_runs(tmp_path, demo):
    # cwd is a scratch directory: a demo may write its CSV and manifest there
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", demo)], cwd=tmp_path,
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
