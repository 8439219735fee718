"""Smoke test of the benchmark itself, at tiny ``--updates``.

    python3 perfbench/smoke.py

For every workload it runs the benchmark untraced and traced and checks that
the last line has exactly the contract's keys, that every metric named in
BENCHMARK.json is emitted with its unit, that the outputs pass, that the
traced and untraced jobs wrote byte-identical CSVs (the tracer changes no
behaviour), that the tracer was loaded only in traced jobs, and that on
``validate`` the span self times account for the traced run time.  It feeds
the output checks hand-made CSVs: a near miss that the CLI fails at its 1%
level must pass, a clear miss, a failed deterministic check or a crash must
fail.  Last, it runs the benchmark in a directory that holds only
BENCHMARK.json and perfbench/, where it must fail without printing a
result.  Exits 0 when every check holds.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
import run as perfbench_run  # noqa: E402

# Small enough to run in seconds, large enough for every K-S test to get
# its 50 samples at lambda = 0.9.
SMOKE_UPDATES = {"validate-1e6": 20_000, "sweep-lambda-1e6": 50_000}


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "42", "--seconds", "1", "--trace", str(trace),
         "--updates", str(SMOKE_UPDATES[workload])],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def check_run(workload: str, trace: int, problems: list) -> list:
    """Check one run's output; return its jobs."""
    proc = bench(workload, trace)
    where = f"{workload} --trace {trace}"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return []
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["perfbench"]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{where}: outputs failed: {result['failed']}/{result['attempted']}")
    group = SPEC["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in group}
    got = result["metrics"]
    if set(got) != set(want):
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(got) ^ set(want))}")
    for name, unit in want.items():
        metric = got.get(name, {})
        if metric.get("unit") != unit or not isinstance(metric.get("value"), (int, float)):
            problems.append(f"{where}: {name} is {metric}, want a number in {unit}")
    for line in lines[:-2]:
        if not line.split(" ", 1)[0] in want and not line.startswith("failed_frac "):
            problems.append(f"{where}: unexpected line {line!r}")
    if detail["absent"] or detail["missing_metrics"]:
        problems.append(f"{where}: absent {detail['absent']}, missing {detail['missing_metrics']}")
    for job in detail["jobs"]:
        if job["tracer_loaded"] != job["traced"]:
            problems.append(f"{where}: tracer_loaded={job['tracer_loaded']} in a job "
                            f"with traced={job['traced']}")
    if trace and workload.startswith("validate"):
        run_s = got["trace.run_s"]["value"]
        gap = got["trace.unaccounted_s"]["value"]
        if not abs(gap) <= 0.02 * run_s:
            problems.append(f"{where}: span self times leave {gap} s of {run_s} s unaccounted")
    return detail["jobs"]


VALIDATE_HEADER = "check,passed,observed,expected,tolerance,detail\n"
SWEEP_HEADER = ("lambda,mu,nu,analytic_aud,empirical_aud,ci_half_width,n_decisions,"
                "n_undefined_decisions,ks_T_pvalue,ks_Y_pvalue,status\n")

# (kind, exit code, CSV rows, failed operations the check must report)
VERDICT_CASES = [
    # near misses at the CLI's 1% level: p = 0.0089, 3.06 standard errors
    ("validate", 1, ["ks_system_time,false,0.0089,0.01,0.0,",
                     "prob_busy_on_arrival,false,0.00272,0.0,0.00266,",
                     "cross_moment,true,0.0017,0.0,0.02,"], 0),
    # a K-S p-value of 1e-9 and an 11-standard-error miss
    ("validate", 1, ["ks_interdeparture,false,1e-9,0.01,0.0,",
                     "prob_busy_on_arrival,false,0.00976,0.0,0.00266,",
                     "cross_moment,true,0.0017,0.0,0.02,"], 2),
    ("validate", 1, ["mgf_mixture_identity,false,2e-9,0.0,1e-10,",
                     "cross_moment,true,0.0017,0.0,0.02,"], 1),
    ("validate", 0, ["mgf_mixture_identity,false,2e-9,0.0,1e-10,",
                     "cross_moment,true,0.0017,0.0,0.02,"], 2),  # exit contradicts CSV
    ("validate", 2, ["cross_moment,true,0.0017,0.0,0.02,"], 1),
    ("sweep", 0, ["0.1,1,1,11.1,11.13,0.02,1,0,1.4e-4,0.5,ok",
                  "0.2,1,1,6.25,6.26,0.02,1,0,0.5,0.5,ok"], 0),
    ("sweep", 0, ["0.1,1,1,11.1,11.13,0.02,1,0,1e-9,0.5,ok",
                  "0.2,1,1,6.25,6.45,0.02,1,0,0.5,0.5,ok",
                  "0.3,1,1,4.5,4.5,0.02,1,0,0.5,0.5,error"], 3),
    ("sweep", 2, ["0.1,1,1,11.1,11.13,0.02,1,0,0.5,0.5,ok"], 1),
]


def check_verdicts(problems: list) -> None:
    """The output checks pass near misses and fail clear misses and crashes."""
    (ROOT / ".perfbench-work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench-work") as tmp:
        path = Path(tmp) / "out.csv"
        for kind, exit_code, rows, want in VERDICT_CASES:
            header = VALIDATE_HEADER if kind == "validate" else SWEEP_HEADER
            path.write_text(header + "".join(row + "\n" for row in rows))
            got = perfbench_run.CHECKS[kind](path, exit_code)
            if got != (len(rows), want):
                problems.append(f"{kind} check, exit {exit_code}, rows {rows}: "
                                f"got {got}, want {(len(rows), want)}")


def check_bare_directory(problems: list) -> None:
    """Without the package sources the benchmark must fail and print no result."""
    (ROOT / ".perfbench-work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench-work", prefix="bare-"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("validate-1e6", 0, cwd=bare)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    problems: list = []
    for workload in SMOKE_UPDATES:
        hashes = {job.get("csv_sha256") for trace in (0, 1)
                  for job in check_run(workload, trace, problems)}
        if len(hashes) != 1 or None in hashes:
            problems.append(f"{workload}: CSV sha256 differ across jobs: {sorted(map(str, hashes))}")
    check_verdicts(problems)
    check_bare_directory(problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
