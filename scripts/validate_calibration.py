"""Calibration study of ``validate``: false alarms on correct runs, detections of a wrong oracle.

Correct runs (the default): ``run_validation`` at each utilization rho of
``--rho`` (mu = 1, lambda = rho), ``--runs`` times.  Run i of the cell
(rho, n) takes the seed ``run_seed`` derives from ``--seed``, rho, n and i,
so no two cells share their random numbers.  Each cell prints its
failing-run count with a Wilson 95 % interval, then the fail and skip count
of every check that failed or was skipped.

Wrong oracles (``--scales``): one simulated point per run, checked by
``_validation_checks`` against the closed forms at both rates times s, for
each s.  Each s prints the runs with at least one failed check and the
failures per check; s = 1 is the correct oracle.

Usage (the commands of the study behind the calibration table in CHANGES.md;
that table predates ``run_seed``, so they now draw other seeds than it did):

    PYTHONPATH=src python scripts/validate_calibration.py \\
        --rho 0.01,0.1,0.3,0.5,0.8,0.9,0.95 --updates 100000 --runs 100 --seed 5000
    PYTHONPATH=src python scripts/validate_calibration.py \\
        --rho 0.1,0.5,0.8,0.95 --updates 1000000 --nu 0.1,1 --runs 40 --seed 7000
    PYTHONPATH=src python scripts/validate_calibration.py \\
        --rho 0.1,0.5 --updates 1000000 --nu 0.1,1 --runs 10 --seed 7000 \\
        --scales 1,1.005,1.01,1.02,1.05

``AUD_LAB_THREADS`` caps the threads of one run as usual.
"""
from __future__ import annotations

import argparse
import collections
import math
import struct
import time
from dataclasses import replace

from aud_lab.distributions import splitmix64
from aud_lab.experiments import (
    ExperimentConfig,
    _simulate_point,
    _validation_checks,
    derive_point_seed,
    parse_rates,
    run_validation,
)
from aud_lab.queueing import SystemParams


def wilson(k: int, n: int, z: float = 1.959964) -> tuple[float, float]:
    """Wilson score interval for a binomial share k / n."""
    p = k / n
    centre = (p + z * z / (2 * n)) / (1 + z * z / n)
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / (1 + z * z / n)
    return max(0.0, centre - half), min(1.0, centre + half)


def run_seed(seed: int, rho: float, n: int, run: int) -> int:
    """The seed of run ``run`` of the cell (rho, n), from the base ``seed``."""
    (bits,) = struct.unpack("<Q", struct.pack("<d", rho))
    return derive_point_seed(seed, splitmix64(splitmix64(bits) ^ n) ^ run)


def _counts(counter: collections.Counter) -> str:
    return " ".join(f"{name}={count}" for name, count in sorted(counter.items())) or "-"


def correct_runs(rho: float, args) -> None:
    failing, fails, skips = 0, collections.Counter(), collections.Counter()
    started = time.monotonic()
    for i in range(args.runs):
        config = ExperimentConfig(arrival_rates=(rho,), decision_rates=args.nu,
                                  n_updates=args.updates,
                                  seed=run_seed(args.seed, rho, args.updates, i))
        checks = run_validation(config).checks
        failed = [c.name for c in checks if c.passed is False]
        failing += bool(failed)
        fails.update(failed)
        skips.update(c.name for c in checks if c.passed is None)
    lo, hi = wilson(failing, args.runs)
    print(f"rho={rho:g} n={args.updates} nu={','.join(f'{v:g}' for v in args.nu)} "
          f"runs={args.runs} failing={failing} wilson95=[{lo:.3f}, {hi:.3f}] "
          f"({time.monotonic() - started:.0f} s)")
    print(f"  fail: {_counts(fails)}")
    print(f"  skip: {_counts(skips)}", flush=True)


def wrong_oracles(rho: float, args) -> None:
    detected = collections.Counter()
    per_check = collections.defaultdict(collections.Counter)
    for i in range(args.runs):
        config = ExperimentConfig(arrival_rates=(rho,), decision_rates=args.nu,
                                  n_updates=args.updates,
                                  seed=run_seed(args.seed, rho, args.updates, i))
        point = _simulate_point(config, 0, SystemParams(rho, 1.0))
        for s in args.scales:
            checks, _ = _validation_checks(
                replace(point, params=SystemParams(rho * s, s)))
            failed = [c.name for c in checks if c.passed is False]
            detected[s] += bool(failed)
            per_check[s].update(failed)
    for s in args.scales:
        print(f"rho={rho:g} n={args.updates} oracle x{s:g}: "
              f"detected {detected[s]} of {args.runs}; {_counts(per_check[s])}", flush=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rho", type=parse_rates, required=True, help="utilizations")
    parser.add_argument("--updates", type=int, default=100_000)
    parser.add_argument("--nu", type=parse_rates, default=(0.1, 1.0, 10.0),
                        help="decision rates")
    parser.add_argument("--runs", type=int, default=100, help="runs per utilization")
    parser.add_argument("--seed", type=int, default=5000, help="base seed")
    parser.add_argument("--scales", type=parse_rates, default=None,
                        help="wrong-oracle rate multiples; omit for the correct-run study")
    args = parser.parse_args()
    for rho in args.rho:
        (wrong_oracles if args.scales else correct_runs)(rho, args)


if __name__ == "__main__":
    main()
