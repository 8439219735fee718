import ast
import os
import re
import subprocess
import sys

import pytest

import aud_lab

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(aud_lab.__file__)))
DEMOS = sorted(os.listdir(os.path.join(ROOT, "demos")))


def readme_quickstart() -> str:
    """The README's first python block."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        return fh.read().split("```python\n", 1)[1].split("```", 1)[0]


@pytest.mark.parametrize("demo", DEMOS)
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
    # every cell line ends with its wall time
    assert all(re.search(r" \(\d+ s\)$", line) for line in summaries), summaries


def test_readme_quickstart_runs(capsys):
    # the README's first python block, run as written
    exec(compile(readme_quickstart(), "README.md", "exec"), {})
    theory, empirical = capsys.readouterr().out.splitlines()
    assert float(theory) == pytest.approx(3.5, rel=1e-12)
    mean, undefined = empirical.split()
    assert float(mean) == pytest.approx(3.5, rel=0.01) and int(undefined) > 0


def test_package_exports_what_the_demos_and_the_quickstart_import():
    # the package's own names are those its users import from it, no more
    def imported(source: str, from_package) -> set:
        return {alias.name for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.ImportFrom) and from_package(node)
                for alias in node.names}

    sources = [readme_quickstart()]
    for demo in DEMOS:
        with open(os.path.join(ROOT, "demos", demo), encoding="utf-8") as fh:
            sources.append(fh.read())
    used = set().union(*(imported(source, lambda node: node.level == 0
                                  and node.module == "aud_lab") for source in sources))
    with open(aud_lab.__file__, encoding="utf-8") as fh:
        exported = imported(fh.read(), lambda node: node.level == 1)
    assert used == exported
