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


@pytest.mark.parametrize("flags,cells", [
    ([], ["rho=0.5 n=3000 nu=0.1,1,10 runs=2 "]),
    (["--scales", "1,1.05"], ["rho=0.5 n=3000 oracle x1: ", "rho=0.5 n=3000 oracle x1.05: "]),
])
def test_validate_calibration_runs(tmp_path, flags, cells):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "validate_calibration.py"),
         "--rho", "0.5", "--updates", "3000", "--runs", "2", "--seed", "1", *flags],
        cwd=tmp_path, capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    summaries = [line for line in proc.stdout.splitlines() if line.startswith("rho=")]
    assert len(summaries) == len(cells)
    assert all(line.startswith(cell) for line, cell in zip(summaries, cells))


def test_readme_quickstart_runs(capsys):
    # the README's first python block, run as written
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        block = fh.read().split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    theory, empirical = capsys.readouterr().out.splitlines()
    assert float(theory) == pytest.approx(3.5, rel=1e-12)
    mean, undefined = empirical.split()
    assert float(mean) == pytest.approx(3.5, rel=0.01) and int(undefined) > 0
