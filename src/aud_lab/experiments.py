"""Experiment runner: parameter sweeps, decision-rate invariance, validation.

Configurations come from flat ``key = value`` text files (``#`` starts a
comment) and/or keyword overrides; results are written as fixed-schema CSV
plus a JSON-lines manifest (config echo, versions, timings).  Grid points
run concurrently, each with a seed derived from the base seed and its grid
index, and rows are assembled in grid order so output is byte-reproducible
regardless of scheduling.  Long random draws and the per-batch mean ages
run on the shared block pool (``distributions.block_pool``), which the
grid points' threads submit to.  ``AUD_LAB_THREADS`` caps the threads of
both pools; no result depends on it.  A sample below its estimator's floor
(InsufficientDataError) gets no verdict: a sweep leaves that p-value blank,
and validation reports that check alone as skipped, with the reason.
"""
from __future__ import annotations

import concurrent.futures
import json
import math
import os
import platform
import struct
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from . import analytic
from .decisions import (
    _mean_age,
    aoi_path,
    decisions_at,
    periodic_epochs,
    poisson_epochs,
    time_average_aoi,
)
from .distributions import SeededStream, block_pool, splitmix64, worker_limit
from .errors import InsufficientDataError, ParameterError, StabilityError
from .queueing import (
    SystemParams,
    UpdateTrace,
    arrivals_seeing_busy,
    default_warmup,
    occupancy_fractions,
    queue_length_process,
    simulate,
)
from .stats import (
    EstimateWithCI,
    batch_means_ci,
    ci_from_batch_means,
    ks_exponential,
    mean_ci,
    z_value,
)

MODES = ("sweep_lambda", "sweep_mu", "grid_lambda_mu", "nu_invariance", "validate")

SWEEP_CSV_HEADER = (
    "lambda,mu,nu,analytic_aud,empirical_aud,ci_half_width,"
    "n_decisions,n_undefined_decisions,ks_T_pvalue,ks_Y_pvalue,status"
)

VALIDATION_CSV_HEADER = "check,passed,observed,expected,tolerance,detail"

_MASK64 = 0xFFFFFFFFFFFFFFFF

# Runs below this many updates get scaled-up tolerances and a low-power mark.
LOW_POWER_UPDATES = 100_000

# Goodness-of-fit tests use at most this many post-warm-up samples.
KS_MAX_SAMPLES = 100_000

# Mean-age CIs use batch means over this many batches once there are at
# least two decisions per batch.
AUD_BATCHES = 100


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str = "validate"
    arrival_rates: tuple = (0.5,)
    service_rates: tuple = (1.0,)
    decision_rates: tuple = (0.1, 1.0, 10.0)
    n_updates: int = 1_000_000
    seed: int = 42
    confidence: float = 0.99
    output_path: str | None = None
    allow_unstable: bool = False
    periodic: bool = False
    warmup_updates: int | None = None  # None: max(1000, 1% of n), capped at half

    def __post_init__(self):
        if self.mode not in MODES:
            raise ParameterError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.warmup_updates is not None and not (
            0 <= self.warmup_updates < self.n_updates
        ):
            raise ParameterError(
                f"warmup_updates must lie in [0, n_updates), got {self.warmup_updates}"
            )
        for name in ("arrival_rates", "service_rates", "decision_rates"):
            grid = getattr(self, name)
            if len(grid) == 0:
                raise ParameterError(f"{name} must not be empty")
            if any(not (math.isfinite(v) and v > 0.0) for v in grid):
                raise ParameterError(f"{name} entries must be positive, got {grid}")
        if self.n_updates < 1:
            raise ParameterError(f"n_updates must be >= 1, got {self.n_updates}")
        if not 0.0 < self.confidence < 1.0:
            raise ParameterError(f"confidence must be in (0, 1), got {self.confidence}")
        if self.mode == "nu_invariance" and (
            len(self.arrival_rates) != 1 or len(self.service_rates) != 1
        ):
            raise ParameterError("nu_invariance runs a single (lambda, mu) point")
        if self.mode == "nu_invariance" and len(self.decision_rates) < 2:
            raise ParameterError("nu_invariance needs at least two decision rates")


def _parse_number(text: str, kind: type, what: str):
    """``kind(text)``, raising ParameterError rather than ValueError when malformed."""
    try:
        return kind(text.strip())
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ParameterError(f"{what} must be {noun}, got {text.strip()!r}") from None


def parse_rates(text: str) -> tuple:
    """Parse '0.5', '0.1,0.2,0.5', or 'start:stop:step' (stop inclusive)."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ParameterError(f"range syntax is start:stop:step, got {text!r}")
        start, stop, step = (_parse_number(p, float, "rate") for p in parts)
        if step <= 0.0 or stop < start:
            raise ParameterError(f"bad range {text!r}")
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        # rounding kills float accumulation artifacts (0.6000000000000001)
        return tuple(round(start + i * step, 12) for i in range(count))
    return tuple(_parse_number(p, float, "rate") for p in text.split(",") if p.strip())


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ParameterError(f"cannot parse boolean from {text!r}")


_CONFIG_KEYS = {
    "mode": ("mode", str.strip),
    "lambda": ("arrival_rates", parse_rates),
    "mu": ("service_rates", parse_rates),
    "nu": ("decision_rates", parse_rates),
    "updates": ("n_updates", lambda s: _parse_number(s, int, "updates")),
    "n_updates": ("n_updates", lambda s: _parse_number(s, int, "n_updates")),
    "seed": ("seed", lambda s: _parse_number(s, int, "seed")),
    "confidence": ("confidence", lambda s: _parse_number(s, float, "confidence")),
    "out": ("output_path", str.strip),
    "output": ("output_path", str.strip),
    "allow_unstable": ("allow_unstable", _parse_bool),
    "periodic_decisions": ("periodic", _parse_bool),
    "warmup": ("warmup_updates", lambda s: _parse_number(s, int, "warmup")),
}


def load_config_file(path: str) -> dict:
    """Read a flat key=value config file into ExperimentConfig field values."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParameterError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise ParameterError(f"{path}:{lineno}: unknown key {key!r}")
            attr, conv = _CONFIG_KEYS[key]
            try:
                values[attr] = conv(value)
            except ParameterError as exc:
                raise ParameterError(f"{path}:{lineno}: {exc}") from None
    return values


def build_config(file_path: str | None = None, **overrides) -> ExperimentConfig:
    """Config from optional file plus keyword overrides (overrides win)."""
    values = load_config_file(file_path) if file_path else {}
    for key, value in overrides.items():
        if value is not None:
            values[key] = value
    known = {f.name for f in fields(ExperimentConfig)}
    unknown = set(values) - known
    if unknown:
        raise ParameterError(f"unknown config fields: {sorted(unknown)}")
    return ExperimentConfig(**values)


def derive_point_seed(seed: int, grid_index: int) -> int:
    """Per-grid-point seed: base seed XOR a stable hash of the grid index."""
    return (seed ^ splitmix64(grid_index)) & _MASK64


def decision_stream_id(decision_rate: float) -> int:
    """Stream id keyed by the decision rate's bit pattern.

    Keying by value (not list position) makes duplicate rate entries
    reproduce identical decision sequences on a shared trace.  The top bit
    is forced so hashed ids never collide with the reserved process streams.
    """
    (bits,) = struct.unpack("<Q", struct.pack("<d", float(decision_rate)))
    return 0x8000000000000000 | splitmix64(bits ^ 0xDEC1510)


def decorrelation_lag(utilization: float) -> int:
    """Thinning stride that renders system-time samples effectively independent.

    Successive system times are serially correlated (they share queue
    state), which would invalidate an i.i.d. goodness-of-fit test; the
    relaxation scale in update counts grows like rho/(1-sqrt(rho))^2, and
    two relaxation times between kept samples calibrates the K-S false-
    rejection rate back to its nominal level.
    """
    if not 0.0 < utilization < 1.0:
        raise ParameterError(f"utilization must be in (0, 1), got {utilization}")
    return max(1, math.ceil(2.0 * utilization / (1.0 - math.sqrt(utilization)) ** 2))


@dataclass(frozen=True)
class SweepRow:
    arrival_rate: float
    service_rate: float
    decision_rate: float
    analytic_aud: float | None
    empirical_aud: float | None
    ci_half_width: float | None
    n_decisions: int | None
    n_undefined_decisions: int | None
    ks_system_time_pvalue: float | None
    ks_interdeparture_pvalue: float | None
    status: str

    def as_csv(self) -> str:
        def fmt(v):
            return "" if v is None else repr(float(v))

        def fmt_int(v):
            return "" if v is None else str(int(v))

        return ",".join(
            (
                repr(float(self.arrival_rate)),
                repr(float(self.service_rate)),
                repr(float(self.decision_rate)),
                fmt(self.analytic_aud),
                fmt(self.empirical_aud),
                fmt(self.ci_half_width),
                fmt_int(self.n_decisions),
                fmt_int(self.n_undefined_decisions),
                fmt(self.ks_system_time_pvalue),
                fmt(self.ks_interdeparture_pvalue),
                self.status,
            )
        )


@dataclass(frozen=True)
class SweepResult:
    config: ExperimentConfig
    rows: tuple

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(SWEEP_CSV_HEADER + "\n")
            fh.writelines(row.as_csv() + "\n" for row in self.rows)


def _config_record(config: ExperimentConfig) -> dict:
    return {
        "record": "config",
        "mode": config.mode,
        "lambda": list(config.arrival_rates),
        "mu": list(config.service_rates),
        "nu": list(config.decision_rates),
        "n_updates": config.n_updates,
        "seed": config.seed,
        "confidence": config.confidence,
        "output": config.output_path,
        "allow_unstable": config.allow_unstable,
        "periodic_decisions": config.periodic,
        "warmup": config.warmup_updates,
    }


def _versions_record() -> dict:
    from . import __version__  # the package module imports this one first

    return {
        "record": "versions",
        "aud_lab": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def write_manifest(
    path: str, config: ExperimentConfig, wall_seconds: float, workers: int,
    extra_records: tuple = (),
) -> None:
    """Write the config, versions and timing records, then ``extra_records``.

    The timing record holds the wall time and ``workers``, the threads of
    the block pool the run used.
    """
    with open(path, "w", newline="") as fh:
        for record in (
            _config_record(config),
            _versions_record(),
            {"record": "timing", "wall_seconds": wall_seconds, "workers": workers},
            *extra_records,
        ):
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def manifest_path_for(output_path: str) -> str:
    base, _ = os.path.splitext(output_path)
    return base + ".manifest.jsonl"


def _write_outputs(config: ExperimentConfig, result, started: float, workers: int,
                   extra_records: tuple = ()) -> None:
    """Write ``result``'s CSV and the manifest next to it, if the config names an output."""
    if config.output_path:
        result.write_csv(config.output_path)
        write_manifest(
            manifest_path_for(config.output_path), config, time.monotonic() - started,
            workers, extra_records,
        )


def _warmup_count(config: ExperimentConfig, n: int) -> int:
    if config.warmup_updates is not None:
        return min(config.warmup_updates, n - 1)
    return default_warmup(n)


def _decision_epochs(
    trace: UpdateTrace,
    decision_rate: float,
    point_seed: int,
    periodic: bool,
) -> np.ndarray:
    horizon = trace.last_departure
    if periodic:
        return periodic_epochs(decision_rate, horizon)
    stream = SeededStream(point_seed, decision_stream_id(decision_rate))
    return poisson_epochs(decision_rate, horizon, stream)


def _n_undefined(trace: UpdateTrace, epochs: np.ndarray) -> int:
    """Decisions ahead of the first departure, which have no age."""
    return int(np.searchsorted(epochs, trace.departure_times[0], side="left"))


def _first_estimated(trace: UpdateTrace, epochs: np.ndarray, warm_epoch: float) -> int:
    """Index of the first decision after the warm-up that has a defined age."""
    return max(int(np.searchsorted(epochs, warm_epoch, side="right")),
               _n_undefined(trace, epochs))


def _aud_estimate(
    trace: UpdateTrace, epochs: np.ndarray, warm_epoch: float, confidence: float
) -> EstimateWithCI | None:
    """Mean age upon the decisions at the sorted ``epochs`` after ``warm_epoch``.

    The epochs come from ``poisson_epochs`` or ``periodic_epochs`` with the
    last departure as horizon, so they are sorted and end within the trace.
    Decisions ahead of the first departure have no age and are left out.
    With at least 2 * AUD_BATCHES such decisions the CI comes from batch
    means, and each batch's mean age is taken on its own by ``_mean_age``
    on the block pool, so no per-decision column of the whole run is ever
    held.  The result is bit-identical to ``batch_means_ci`` over the
    filtered ages of one ``decisions_at`` call: that takes a row mean of a
    contiguous (AUD_BATCHES, per) array, which numpy sums per row with the
    same pairwise tree as the 1-D mean of the row's ages, and a slice of
    epochs gets exactly the same ages as the same slice of the full call.
    """
    start = _first_estimated(trace, epochs, warm_epoch)
    size = len(epochs) - start
    if size >= 2 * AUD_BATCHES:
        per = size // AUD_BATCHES
        batches = [epochs[a:a + per] for a in range(start, start + per * AUD_BATCHES, per)]
        means = list(block_pool().map(_mean_age, [trace] * AUD_BATCHES, batches))
        return ci_from_batch_means(means, confidence)
    ages = decisions_at(trace, epochs[start:]).ages
    if size >= 2:
        return mean_ci(ages, confidence)
    if size == 1:
        return EstimateWithCI(float(ages[0]), math.inf, 1, confidence)
    return None


@dataclass(frozen=True)
class _Point:
    """One simulated (lambda, mu) point: its trace, seed and warm-up cut."""

    config: ExperimentConfig
    params: SystemParams
    seed: int
    trace: UpdateTrace
    warm: int  # updates cut as warm-up
    warm_epoch: float  # departure of the last warm-up update, 0.0 without one

    def aud(self, nu: float) -> tuple[EstimateWithCI | None, dict]:
        """Mean age upon the decisions at rate ``nu`` after the warm-up, and their counts.

        The decision epochs (8 bytes per decision) are dropped on return.
        """
        epochs = _decision_epochs(self.trace, nu, self.seed, self.config.periodic)
        est = _aud_estimate(self.trace, epochs, self.warm_epoch, self.config.confidence)
        estimated = len(epochs) - _first_estimated(self.trace, epochs, self.warm_epoch)
        return est, {
            "nu": nu,
            "total": len(epochs),
            "after_warmup": estimated,
            "undefined": _n_undefined(self.trace, epochs),
            # est.n counts batches, or single decisions below 2 * AUD_BATCHES
            "batch_length": estimated // est.n if est else 0,
        }


def _simulate_point(config: ExperimentConfig, grid_index: int, params: SystemParams) -> _Point:
    seed = derive_point_seed(config.seed, grid_index)
    trace = simulate(params, config.n_updates, seed, allow_unstable=config.allow_unstable)
    warm = _warmup_count(config, trace.n)
    warm_epoch = float(trace.departure_times[warm - 1]) if warm >= 1 else 0.0
    return _Point(config, params, seed, trace, warm, warm_epoch)


def _ks_samples(point: _Point) -> tuple[int, np.ndarray, np.ndarray]:
    """The full ``decorrelation_lag``, the system times thinned at it and the departure gaps.

    Both samples start after the warm-up and hold at most KS_MAX_SAMPLES values.
    """
    trace, warm = point.trace, point.warm
    lag = decorrelation_lag(point.params.utilization)
    thinned = trace.system_times[warm:][::lag][:KS_MAX_SAMPLES]
    return lag, thinned, trace.interdeparture_times[warm:][:KS_MAX_SAMPLES]


def _ks_p_value(samples: np.ndarray, rate: float) -> float | None:
    """K-S p-value against Exponential(rate); None (a blank field) below the test's floor."""
    try:
        return ks_exponential(samples, rate).p_value
    except InsufficientDataError:
        return None


def _pairwise_overlap(estimates) -> tuple[float, float, bool]:
    """Largest pairwise mean difference, its CI allowance, and whether all CIs overlap.

    Pairs are visited in the order given; the first pair reaching the
    largest difference supplies the allowance.
    """
    max_diff, max_allow, consistent = 0.0, 0.0, True
    for i, a in enumerate(estimates):
        for b in estimates[i + 1:]:
            diff = abs(a.mean - b.mean)
            allow = a.half_width + b.half_width
            if diff > max_diff:
                max_diff, max_allow = diff, allow
            consistent = consistent and diff <= allow
    return max_diff, max_allow, consistent


def _point_rows(config: ExperimentConfig, grid_index: int, arrival_rate: float,
                service_rate: float) -> list[SweepRow]:
    """All rows (one per decision rate) for a single (lambda, mu) grid point."""
    params = SystemParams(arrival_rate, service_rate, config.decision_rates[0])
    try:
        analytic_value = analytic.average_aud(params)
    except StabilityError:
        analytic_value = None

    unstable = params.utilization >= 1.0
    if unstable and not config.allow_unstable:
        return [
            SweepRow(arrival_rate, service_rate, nu, None, None, None, None, None,
                     None, None, "unstable")
            for nu in config.decision_rates
        ]

    point = _simulate_point(config, grid_index, params)
    stationary = point.trace.stationary
    ks_t_p = ks_y_p = None
    if stationary:
        _, thinned, gaps = _ks_samples(point)
        ks_t_p = _ks_p_value(thinned, analytic.system_time_rate(params))
        ks_y_p = _ks_p_value(gaps, params.arrival_rate)

    rows = []
    for nu in config.decision_rates:
        est, counts = point.aud(nu)
        half_width = est.half_width if est and math.isfinite(est.half_width) else None
        rows.append(SweepRow(arrival_rate, service_rate, nu, analytic_value,
                             est.mean if est else None, half_width, counts["total"],
                             counts["undefined"], ks_t_p, ks_y_p,
                             "ok" if stationary else "unstable-simulated"))
    return rows


def _grid_points(config: ExperimentConfig) -> list[tuple]:
    if config.mode == "sweep_lambda":
        if len(config.service_rates) != 1:
            raise ParameterError("sweep_lambda expects a single service rate")
        return [(lam, config.service_rates[0]) for lam in config.arrival_rates]
    if config.mode == "sweep_mu":
        if len(config.arrival_rates) != 1:
            raise ParameterError("sweep_mu expects a single arrival rate")
        return [(config.arrival_rates[0], mu) for mu in config.service_rates]
    if config.mode == "grid_lambda_mu":
        return [(lam, mu) for lam in config.arrival_rates for mu in config.service_rates]
    # nu_invariance / validate run a single point
    return [(config.arrival_rates[0], config.service_rates[0])]


def run_sweep(config: ExperimentConfig) -> SweepResult:
    """One simulated row per (grid point, decision rate); CSV + manifest if configured."""
    started = time.monotonic()
    workers = worker_limit()
    points = _grid_points(config)
    rows_by_point: list = [None] * len(points)
    with concurrent.futures.ThreadPoolExecutor(min(len(points), workers)) as pool:
        futures = {
            pool.submit(_point_rows, config, i, lam, mu): i
            for i, (lam, mu) in enumerate(points)
        }
        for fut in concurrent.futures.as_completed(futures):
            rows_by_point[futures[fut]] = fut.result()
    rows = tuple(row for point_rows in rows_by_point for row in point_rows)
    result = SweepResult(config, rows)
    _write_outputs(config, result, started, workers)
    return result


@dataclass(frozen=True)
class NuInvarianceResult:
    sweep: SweepResult
    estimates: dict
    max_pairwise_diff: float
    max_pairwise_allowance: float
    consistent: bool


def run_nu_invariance(config: ExperimentConfig) -> NuInvarianceResult:
    """Paired comparison of decision rates on one shared trace.

    Every decision rate samples the same simulated path, so differences in
    the per-rate age means reflect decision sampling only.  Consistency
    means every pair of batch-means confidence intervals overlaps.
    """
    started = time.monotonic()
    workers = worker_limit()
    sweep = run_sweep(replace(config, mode="nu_invariance", output_path=None))
    estimates = {}
    for row in sweep.rows:
        if row.empirical_aud is None:
            raise InsufficientDataError("nu invariance point produced no defined decisions")
        estimates[row.decision_rate] = EstimateWithCI(
            row.empirical_aud, row.ci_half_width or math.inf, 0, config.confidence
        )
    max_diff, max_allow, consistent = _pairwise_overlap(list(estimates.values()))
    _write_outputs(config, sweep, started, workers)
    return NuInvarianceResult(sweep, estimates, max_diff, max_allow, consistent)


@dataclass(frozen=True)
class CheckResult:
    """One check's verdict; ``passed`` is None when the check was skipped."""

    name: str
    passed: bool | None
    observed: float
    expected: float
    tolerance: float
    detail: str = ""

    def as_csv(self) -> str:
        verdict = "skipped" if self.passed is None else "true" if self.passed else "false"
        numbers = (repr(float(v)) for v in (self.observed, self.expected, self.tolerance))
        return ",".join((self.name, verdict, *numbers, self.detail.replace(",", ";")))


@dataclass(frozen=True)
class ValidationReport:
    config: ExperimentConfig
    checks: tuple
    low_power: bool

    @property
    def passed(self) -> bool:
        """No check failed; a skipped check counts as neither pass nor fail."""
        return all(check.passed or check.passed is None for check in self.checks)

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(VALIDATION_CSV_HEADER + "\n")
            fh.writelines(check.as_csv() + "\n" for check in self.checks)

    def summary(self) -> str:
        lines = [
            f"{'SKIP' if c.passed is None else 'PASS' if c.passed else 'FAIL'}  {c.name}: "
            f"observed={c.observed:.6g} expected={c.expected:.6g} tol={c.tolerance:.6g}"
            + (f"  [{c.detail}]" if c.detail else "")
            for c in self.checks
        ]
        verdict = "ALL CHECKS PASSED" if self.passed else "SOME CHECKS FAILED"
        skipped = sum(c.passed is None for c in self.checks)
        verdict += f" ({skipped} skipped: too few samples)" if skipped else ""
        if self.low_power:
            verdict += " (low-power run: tolerances widened)"
        return "\n".join(lines + [verdict])


def _require(enough: bool, reason: str) -> None:
    """Raise InsufficientDataError with ``reason`` unless there is ``enough`` data."""
    if not enough:
        raise InsufficientDataError(reason)


def _mean(sample: np.ndarray) -> float:
    """The mean of a sample taken after the warm-up, which must not be empty."""
    _require(sample.size > 0, "no samples after the warm-up")
    return float(sample.mean())


def _at_most(observed: float, tolerance: float, detail: str = "") -> tuple:
    """Verdict of a check that passes when ``observed`` (expected 0) is at most ``tolerance``."""
    return observed <= tolerance, observed, 0.0, tolerance, detail


def _validation_checks(point: _Point) -> tuple[list[CheckResult], dict]:
    """Every oracle check on one simulated point, and the run sizes for the manifest.

    Each check is a function named after it that returns its verdict,
    observed, expected and tolerance values and detail.  One whose sample is
    below its estimator's floor raises InsufficientDataError and is reported
    as skipped, with the reason.  The closed forms are evaluated at
    ``point.params``, so a point simulated at other rates is checked against
    the wrong oracle.
    """
    config, params, trace, warm = point.config, point.params, point.trace, point.warm
    lam, mu = params.arrival_rate, params.service_rate
    tol_scale = max(1.0, math.sqrt(LOW_POWER_UPDATES / config.n_updates))
    significance = 0.01 if config.n_updates >= LOW_POWER_UPDATES else 0.001

    # The mean age at each decision rate, and at nu = 1 for the PASTA check,
    # on one trace; each rate's epochs are dropped once estimated and counted.
    estimates, decision_sizes = {}, []
    pasta_rate = () if 1.0 in config.decision_rates else (1.0,)
    for nu in (*config.decision_rates, *pasta_rate):
        estimates[nu], counts = point.aud(nu)
        decision_sizes.append(counts)

    def estimate(nu: float) -> EstimateWithCI:
        _require(estimates[nu] is not None, f"no defined decisions at decision rate {nu}")
        return estimates[nu]

    lag, thinned, gaps = _ks_samples(point)
    # The time windows start no earlier than the first departure, where the
    # age path begins; with a warm-up that is the warm-up's last departure.
    edges = np.linspace(max(point.warm_epoch, float(trace.departure_times[0])),
                        trace.last_departure, 101)
    spans_time = bool((np.diff(edges) > 0.0).all())

    def aud_mc_vs_theory():
        theory = analytic.average_aud(params)
        rated = {nu: estimate(nu) for nu in config.decision_rates}
        worst_rel = max(abs(e.mean - theory) / theory for e in rated.values())
        return _at_most(worst_rel, 0.01 * tol_scale, f"theory={theory:.6g}; rates={sorted(rated)}")

    def aud_nu_invariance():
        by_rate = [estimate(nu) for nu in sorted(set(config.decision_rates))]
        max_diff, max_allow, all_overlap = _pairwise_overlap(by_rate)
        return all_overlap, max_diff, 0.0, max_allow, "pairwise CI overlap on shared trace"

    def ks_system_time():
        ks = ks_exponential(thinned, analytic.system_time_rate(params))
        return (ks.p_value >= significance, ks.p_value, significance, 0.0,
                f"n={ks.n}; D={ks.statistic:.6g}; lag={lag}")

    def ks_interdeparture():
        ks = ks_exponential(gaps, lam)
        return (ks.p_value >= significance, ks.p_value, significance, 0.0,
                f"n={ks.n}; D={ks.statistic:.6g}")

    def interdeparture_mean():
        return _at_most(abs(_mean(gaps) - 1.0 / lam) * lam, 0.01 * tol_scale)

    def interdeparture_second_moment():
        rel_y2 = abs(_mean(gaps**2) - 2.0 / lam**2) / (2.0 / lam**2)
        return _at_most(rel_y2, 0.02 * tol_scale)

    def queue_length_distribution():
        # Levels 0-10 vs the geometric law, batch CIs over the windows.  The
        # eleven levels are asserted jointly, so each gets a Bonferroni-adjusted
        # confidence to keep the family-wise false-alarm rate nominal.
        _require(spans_time, "no time after the warm-up")
        per_batch = occupancy_fractions(queue_length_process(trace), 10, edges)
        pi = analytic.stationary_queue_dist(params, 10)
        z_joint = z_value(1.0 - (1.0 - config.confidence) / len(pi))
        frac_mean = per_batch.mean(axis=0)
        frac_half = z_joint * per_batch.std(axis=0, ddof=1) / 10.0
        ratios = np.abs(frac_mean - pi) / np.where(frac_half > 0, frac_half, np.inf)
        return _at_most(float(ratios.max()), 1.0, f"worst level {int(np.argmax(ratios))}")

    def prob_busy_on_arrival():
        busy = arrivals_seeing_busy(trace).astype(float)[warm:]
        busy_est = batch_means_ci(busy, config.confidence)
        sigma = busy_est.half_width / z_value(config.confidence)
        return _at_most(abs(busy_est.mean - params.utilization), 3.0 * sigma)

    def mgf_mixture_identity():
        # Busy/idle mixture must reassemble the plain rate transform.
        s_stream = SeededStream(config.seed, 0xC0FFEE)
        s_hi = min(lam, mu)
        s_values = -2.0 * s_hi + 2.95 * s_hi * np.asarray(s_stream.uniform_open(10))
        rho = params.utilization
        worst_mgf = 0.0
        for s in map(float, s_values):
            mixed = (rho * analytic.interdeparture_mgf_given_busy_arrival(params, s)
                     + (1.0 - rho) * analytic.interdeparture_mgf_given_idle_arrival(params, s))
            direct = analytic.interdeparture_mgf(params, s)
            worst_mgf = max(worst_mgf, abs(mixed - direct) / abs(direct))
        return _at_most(worst_mgf, 1e-10)

    def cross_moment():
        prod = (trace.system_times[:-1] * trace.interdeparture_times)[warm:]
        cross_theory = analytic.cross_moment_system_interdeparture(params)
        rel_cross = abs(_mean(prod) - cross_theory) / cross_theory
        return _at_most(rel_cross, 0.02 * tol_scale, f"theory={cross_theory:.6g}")

    def aud_dual_path():
        # Two derivations of the average age must coincide across the stable region.
        u = np.asarray(SeededStream(config.seed, 0xD0A1).uniform_open(200)).reshape(100, 2)
        worst_dual = 0.0
        for u_rho, u_mu in u:
            mu_r = 0.1 + 9.9 * u_mu
            rho_r = 0.01 + 0.98 * u_rho
            p = SystemParams(rho_r * mu_r, mu_r)
            direct = analytic.average_aud(p)
            renewal = analytic.average_aud_renewal(p)
            worst_dual = max(worst_dual, abs(direct - renewal) / direct)
        return _at_most(worst_dual, 1e-12)

    # Shape of the closed form: U in arrival rate, decreasing in service rate,
    # and blowing up faster as service capacity vanishes than as arrivals do.
    def shape_lambda_u_curve():
        rho_grid = np.linspace(0.01, 0.99, 999)
        curve = np.array([analytic.average_aud(SystemParams(r, 1.0)) for r in rho_grid])
        interior_min = int(np.argmin(curve))
        rho_at_min = float(rho_grid[interior_min])
        u_ok = (
            0 < interior_min < len(curve) - 1
            and bool((np.diff(curve[: interior_min + 1]) < 0).all())
            and bool((np.diff(curve[interior_min:]) > 0).all())
            and 0.45 <= rho_at_min <= 0.60
        )
        return u_ok, rho_at_min, 0.525, 0.075, "interior minimum of the arrival-rate sweep"

    def shape_mu_decreasing():
        mu_grid = np.linspace(0.6, 3.0, 200)
        mu_curve = np.array([analytic.average_aud(SystemParams(0.5, m)) for m in mu_grid])
        return (bool((np.diff(mu_curve) < 0).all()), float(np.max(np.diff(mu_curve))), 0.0,
                0.0, "age strictly decreases with service rate")

    def shape_divergence_asymmetry():
        try:
            service_starved = analytic.average_aud(SystemParams(0.5, 0.05))
        except StabilityError:
            service_starved = math.inf  # unstable: the age has no finite steady state
        arrival_starved = analytic.average_aud(SystemParams(0.05, 0.5))
        return (service_starved > arrival_starved, arrival_starved, service_starved, 0.0,
                "service starvation must dominate arrival starvation")

    def pasta_time_average():
        # Poisson decisions sample the time average of the age path (PASTA).
        _require(spans_time, "no time after the warm-up")
        aud_est = estimate(1.0)
        aoi_est = ci_from_batch_means(time_average_aoi(aoi_path(trace), edges), config.confidence)
        return _at_most(abs(aoi_est.mean - aud_est.mean), aoi_est.half_width + aud_est.half_width,
                        f"time-average age {aoi_est.mean:.6g}")

    order = [aud_mc_vs_theory, aud_nu_invariance, ks_system_time, ks_interdeparture,
             interdeparture_mean, interdeparture_second_moment, queue_length_distribution,
             prob_busy_on_arrival, mgf_mixture_identity, cross_moment, aud_dual_path,
             shape_lambda_u_curve, shape_mu_decreasing, shape_divergence_asymmetry,
             pasta_time_average]
    if len(set(config.decision_rates)) < 2:
        order.remove(aud_nu_invariance)
    checks = []
    for check in order:
        try:
            verdict = check()
        except InsufficientDataError as exc:
            verdict = None, math.nan, math.nan, math.nan, str(exc)
        checks.append(CheckResult(check.__name__, *verdict))

    sizes = {
        "record": "sizes",
        "n_updates": trace.n,
        "warmup_updates": warm,
        "warm_epoch": point.warm_epoch,
        "decisions": decision_sizes,
        "window_length": float(edges[1] - edges[0]),
        "ks_system_time_samples": len(thinned),
        "ks_system_time_lag": lag,
        "ks_interdeparture_samples": len(gaps),
    }
    return checks, sizes


def run_validation(config: ExperimentConfig) -> ValidationReport:
    """Certify one simulated point against every closed-form oracle."""
    started = time.monotonic()
    workers = worker_limit()
    params = SystemParams(config.arrival_rates[0], config.service_rates[0],
                          config.decision_rates[0])
    analytic.require_stable(params)
    checks, sizes = _validation_checks(_simulate_point(config, 0, params))
    report = ValidationReport(config, tuple(checks), config.n_updates < LOW_POWER_UPDATES)
    _write_outputs(config, report, started, workers, (sizes,))
    return report
