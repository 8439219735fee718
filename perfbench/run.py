"""aud-lab benchmark: time to a verdict, memory and set-up of the CLI.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  Each job runs ``aud_lab.cli.main`` once in a fresh
interpreter (closed loop, one client, one job at a time).  Jobs repeat until
``--seconds`` have passed; times are reported as medians over the jobs and
peak RSS as their maximum.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
alternates untraced and traced jobs and prints the per-layer metrics.  Every
job's output CSV is checked (see ``check_validate`` and ``check_sweep``) and
must be byte-identical to the first job's.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds the run's metadata and every job's
measurements and CSV sha256.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

# Fewest fresh interpreters per run behind setup_s and the import.* metrics:
# one import of scipy.stats varies by about 40% from one interpreter to the next.
SETUP_SAMPLES = 5

# Every process and the run as a whole end well inside the 180 s limit.
CHILD_TIMEOUT_S = 150.0
RUN_BUDGET_S = 165.0

# Output checks.  A set of runs spans some fifty random seeds, so a check that
# fails a correct program 1% of the time would refuse it in most sets.  The
# statistical checks are therefore judged at a false-alarm rate of ALPHA per
# check, in units of the standard errors the CLI reports at its default
# CONFIDENCE; the deterministic checks keep the CLI's own verdict.
CONFIDENCE = 0.99
ALPHA = 1e-6
_NORMAL = statistics.NormalDist()


def _z(alpha: float) -> float:
    """Two-sided normal quantile for a false-alarm rate ``alpha``."""
    return _NORMAL.inv_cdf(1.0 - alpha / 2.0)


# validate checks that compare a p-value with a significance level.
KS_CHECKS = frozenset({"ks_system_time", "ks_interdeparture"})
# validate checks with ``observed <= tolerance``, the tolerance being a
# multiple of standard errors: name -> (the multiple the CLI uses, the number
# of comparisons the check makes at once).
CI_CHECKS = {
    "aud_nu_invariance": (_z(1.0 - CONFIDENCE), 3),  # 3 pairs of decision rates
    "pasta_time_average": (_z(1.0 - CONFIDENCE), 1),
    "prob_busy_on_arrival": (3.0, 1),
    # observed is already a ratio to the Bonferroni half-width over 11 levels
    "queue_length_distribution": (_z((1.0 - CONFIDENCE) / 11), 11),
}


@dataclass(frozen=True)
class Workload:
    kind: str  # "validate" or "sweep"
    argv: tuple
    threads: str  # AUD_LAB_THREADS


WORKLOADS = {
    "validate-1e6": Workload(
        "validate", ("validate", "--lambda", "0.5", "--mu", "1", "--updates", "1000000"), "2"),
    "sweep-lambda-1e6": Workload(
        "sweep", ("sweep", "--lambda", "0.1:0.9:0.1", "--mu", "1", "--nu", "1",
                  "--updates", "1000000"), "2"),
}


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, a job did not start...)."""


def _env(threads: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["AUD_LAB_THREADS"] = threads
    return env


def _spawn(report: Path, env: dict, cli_args=None, traced=False) -> tuple[dict, float]:
    """Run one child interpreter; return its report and its start time."""
    cmd = [sys.executable, str(CHILD), str(report)]
    if traced:
        cmd.append("--trace")
    if cli_args is not None:
        cmd += ["--", *cli_args]
    started = time.monotonic()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not report.exists():
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise BenchError(f"job exited with {proc.returncode}: {tail}")
    data = json.loads(report.read_text())
    report.unlink()
    data["stderr_tail"] = proc.stderr.strip().splitlines()[-1:]
    if not Path(data["aud_lab_file"]).is_relative_to(SRC):
        raise BenchError(f"aud_lab was imported from {data['aud_lab_file']}, not {SRC}")
    return data, started


def setup_seconds(workdir: Path, env: dict) -> float:
    """Fresh interpreter start until ``aud_lab.cli`` is imported."""
    data, started = _spawn(workdir / "setup.json", env)
    return data["imported_at"] - started


IMPORT_GROUPS = ("numpy", "scipy", "aud_lab")


def import_seconds(env: dict) -> dict:
    """Import self time of numpy, scipy and aud_lab, from ``-X importtime``.

    A module's self time goes to the nearest enclosing import (itself
    included) whose top-level package is one of IMPORT_GROUPS, so stdlib
    modules that scipy pulls in count as scipy's.
    """
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import aud_lab.cli"],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"import failed: {proc.stderr.strip().splitlines()[-1:]}")
    rows = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _cumulative, name = line[len("import time:"):].split("|")
        level = (len(name) - len(name.lstrip(" "))) // 2
        rows.append((level, int(self_us), name.strip()))
    # Lines come in post-order (a module after everything it imported), so
    # walking backwards meets each parent before its children.
    totals = dict.fromkeys(IMPORT_GROUPS, 0)
    chain: list = []  # (level, group) of the open ancestors
    for level, self_us, name in reversed(rows):
        while chain and chain[-1][0] >= level:
            chain.pop()
        top = name.split(".", 1)[0]
        group = top if top in totals else (chain[-1][1] if chain else None)
        chain.append((level, group))
        if group is not None:
            totals[group] += self_us
    return {f"import.{group}_s": us / 1e6 for group, us in totals.items()}


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_validate(path: Path, exit_code: int) -> tuple[int, int]:
    """(checks, failed checks).

    Exit 0 means every check passed by the CLI's verdict and exit 1 that some
    did not; any other exit, or an exit that contradicts the CSV, fails every
    check of the job.  Statistical checks are judged at ALPHA (see above).
    """
    rows = _read_csv(path)
    cli_failed = sum(row["passed"] != "true" for row in rows)
    if exit_code != (1 if cli_failed else 0):
        return len(rows), len(rows)
    failed = 0
    for row in rows:
        name = row["check"]
        try:
            if name in KS_CHECKS:
                ok = float(row["observed"]) >= ALPHA
            elif name in CI_CHECKS:
                z_cli, comparisons = CI_CHECKS[name]
                allowed = float(row["tolerance"]) * _z(ALPHA / comparisons) / z_cli
                ok = float(row["observed"]) <= allowed
            else:
                ok = row["passed"] == "true"
        except ValueError:  # an empty or non-numeric field
            ok = False
        failed += not ok
    return len(rows), failed


def check_sweep(path: Path, exit_code: int) -> tuple[int, int]:
    """(rows, failed rows).

    A row fails when its status is not ``ok``, when the closed-form age lies
    outside its CI widened to a Bonferroni-adjusted ALPHA over the rows, or
    when a K-S p-value is below ALPHA.  A nonzero exit fails every row.
    """
    rows = _read_csv(path)
    if exit_code != 0:
        return len(rows), len(rows)
    widen = _z(ALPHA / max(1, len(rows))) / _z(1.0 - CONFIDENCE)
    failed = 0
    for row in rows:
        try:
            ok = (
                row["status"] == "ok"
                and abs(float(row["analytic_aud"]) - float(row["empirical_aud"]))
                <= widen * float(row["ci_half_width"])
                and float(row["ks_T_pvalue"]) >= ALPHA
                and float(row["ks_Y_pvalue"]) >= ALPHA
            )
        except ValueError:  # an empty field
            ok = False
        failed += not ok
    return len(rows), failed


CHECKS = {"validate": check_validate, "sweep": check_sweep}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir())


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "aud_lab").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def _load_spec() -> dict:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise BenchError(f"{spec_path} is missing")
    return json.loads(spec_path.read_text())


class BenchRun:
    """One benchmark run: its jobs, their checks and their measurements."""

    def __init__(self, workload: Workload, seed: int, updates: int | None, workdir: Path):
        self.workload = workload
        self.workdir = workdir
        self.env = _env(workload.threads)
        argv = list(workload.argv)
        if updates is not None:
            argv[argv.index("--updates") + 1] = str(updates)
        self.argv = argv + ["--seed", str(seed)]
        self.jobs: list[dict] = []
        self.reference_sha: str | None = None
        self.versions: dict = {}

    def job(self, traced: bool) -> None:
        outdir = Path(tempfile.mkdtemp(dir=self.workdir, prefix="job-"))
        out_csv = outdir / "out.csv"
        record = {"traced": traced}
        try:
            data, started = _spawn(self.workdir / "job.json", self.env,
                                   self.argv + ["--out", str(out_csv)], traced)
            self.versions = data["versions"]
            record.update(setup_s=data["imported_at"] - started, run_s=data["run_s"],
                          peak_rss_mb=data["peak_rss_kb"] / 1024.0,
                          exit_code=data["exit_code"], tracer_loaded=data["tracer_loaded"])
            if data["exit_code"] != 0:
                record["cli_stderr"] = data["stderr_tail"]
            if traced:
                record["layers"] = {**data["layers"],
                                    "experiments.output_bytes": _dir_bytes(outdir)}
                record["absent"] = data["absent"]
            operations, failed = CHECKS[self.workload.kind](out_csv, data["exit_code"])
            if self.workload.kind == "validate":  # the CLI's own verdict, for the record
                record["cli_failed_checks"] = [row["check"] for row in _read_csv(out_csv)
                                               if row["passed"] != "true"]
            if operations == 0:  # an empty CSV
                operations = failed = 1
            record["csv_sha256"] = sha = _sha256(out_csv)
            if self.reference_sha is None:
                self.reference_sha = sha
            elif sha != self.reference_sha:
                failed = operations  # output bytes changed between repeats of one seed
        except (BenchError, OSError, KeyError, ValueError, subprocess.TimeoutExpired) as exc:
            record["error"] = str(exc)
            operations = failed = self.jobs[0]["operations"] if self.jobs else 1
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        record.update(operations=operations, failed=failed)
        self.jobs.append(record)

    def measured(self, traced: bool, key: str) -> list:
        values = [j[key] for j in self.jobs if j["traced"] == traced and key in j]
        if not values:
            raise BenchError(f"no {'traced' if traced else 'untraced'} job produced {key}")
        return values


def run(args) -> dict:
    spec = _load_spec()
    if not (SRC / "aud_lab" / "cli.py").is_file():
        raise BenchError(f"no aud_lab source under {SRC}")
    workload = WORKLOADS[args.workload]
    begun = time.monotonic()
    (ROOT / ".perfbench-work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench-work"))
    try:
        bench = BenchRun(workload, args.seed, args.updates, workdir)
        # Untimed warm-up: fills the page cache and writes the bytecode cache
        # (unless disabled), which users pay once, not on every run.
        setup_seconds(workdir, bench.env)
        metrics: dict = {}
        if args.trace:
            samples = [import_seconds(bench.env) for _ in range(SETUP_SAMPLES)]
            for name in samples[0]:
                metrics[name] = statistics.median(s[name] for s in samples)
        measuring = time.monotonic()
        traced = False
        while True:
            job_started = time.monotonic()
            bench.job(traced=bool(args.trace) and traced)
            traced = not traced
            now = time.monotonic()
            done = now - measuring >= args.seconds and (not args.trace or len(bench.jobs) >= 2)
            if done or now - begun + (now - job_started) > RUN_BUDGET_S:
                break
        if args.trace:
            layer_runs = bench.measured(True, "layers")
            for name in layer_runs[0]:
                values = [r[name] for r in layer_runs]
                counted = all(isinstance(v, int) for v in values)  # keep counts whole
                metrics[name] = (statistics.median_low if counted else statistics.median)(values)
            metrics["trace.overhead_s"] = (statistics.median(bench.measured(True, "run_s"))
                                           - statistics.median(bench.measured(False, "run_s")))
        else:
            # Every job starts a fresh interpreter, so each one is a set-up sample.
            setups = bench.measured(False, "setup_s")
            while len(setups) < SETUP_SAMPLES:
                setups.append(setup_seconds(workdir, bench.env))
            metrics["setup_s"] = statistics.median(setups)
            metrics["run_s"] = statistics.median(bench.measured(False, "run_s"))
            # The highest of the jobs: with two pool threads the peak depends on
            # which points happen to overlap, and the worst overlap is what a
            # user has to provision for.
            metrics["peak_rss_mb"] = max(bench.measured(False, "peak_rss_mb"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    group = "per_layer" if args.trace else "end_to_end"
    attempted = sum(j["operations"] for j in bench.jobs)
    failed = sum(j["failed"] for j in bench.jobs)
    absent = sorted({a for j in bench.jobs for a in j.get("absent", ())})
    missing = [m["name"] for m in spec[group] if m["name"] not in metrics]
    return {
        "detail": {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "argv": bench.argv,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": bench.versions.get("numpy"),
            "scipy": bench.versions.get("scipy"),
            "AUD_LAB_THREADS": workload.threads,
            "commit": _commit(),
            "source_sha256": _source_digest(),
            "failed_frac": failed / attempted,
            "absent": absent,
            "missing_metrics": missing,
            "jobs": [{k: v for k, v in j.items() if k != "layers"} for j in bench.jobs],
        },
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            # A metric whose layer is absent at this commit reads 0 (see "absent").
            "metrics": {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]}
                        for m in spec[group]},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--updates", type=int,
                        help="override the workload's --updates (for the smoke test)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        out = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    detail, result = out["detail"], out["result"]
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(f"failed_frac {detail['failed_frac']!r} 1 ({result['failed']}/{result['attempted']})")
    print(json.dumps({"perfbench": detail}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
