"""Experiment runner: parameter sweeps, decision-rate invariance, validation.

Configurations come from flat ``key = value`` text files (``#`` starts a
comment) and/or keyword overrides; results are written as fixed-schema CSV
plus a JSON-lines manifest (config echo, versions, timings).  Grid points
run concurrently, each with a seed derived from the base seed and its grid
index, and take turns at drawing and averaging their decision epochs, so a
run holds one column of them at a time.  Rows are assembled in grid order
so output is byte-reproducible regardless of scheduling.  Validation runs
its decision-rate estimates, one rate at a time, beside the checks of the
trace alone and the sawtooth's time average, and the checks that compare
the estimates once both are done.  Long random draws and the batch means
of every correlated mean (``_batch_means``: one slice per batch, never a
full-length column) run on the shared block pool
(``distributions.block_pool``).  ``AUD_LAB_THREADS`` caps the threads of
every pool; one thread runs everything in sequence, and no result depends
on it.  A sample below its estimator's floor (InsufficientDataError) gets
no verdict: a sweep leaves that p-value, or a mean age with under
2 * AUD_BATCHES decisions after the warm-up, blank, and validation reports
that check alone as skipped, with the reason.
Validation splits 1 - confidence evenly over its statistical checks, so a
correct run fails with at most that probability (see ``_within``).
"""
from __future__ import annotations

import concurrent.futures
import itertools
import json
import math
import os
import platform
import struct
import threading
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from . import analytic
from .decisions import _mean_age, aoi_path, periodic_epochs, poisson_epochs, time_average_aoi
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
from .stats import EstimateWithCI, ci_from_batch_means, ks_exponential, mean_ci, z_value

MODES = ("sweep_lambda", "sweep_mu", "grid_lambda_mu", "nu_invariance", "validate")

SWEEP_CSV_HEADER = (
    "lambda,mu,nu,analytic_aud,empirical_aud,ci_half_width,"
    "n_decisions,n_undefined_decisions,ks_T_pvalue,ks_Y_pvalue,status"
)

VALIDATION_CSV_HEADER = "check,passed,observed,expected,tolerance,detail"

_MASK64 = 0xFFFFFFFFFFFFFFFF

# Goodness-of-fit tests use at most this many post-warm-up samples.
KS_MAX_SAMPLES = 100_000

# Every correlated mean takes its CI from this many batch means.
AUD_BATCHES = 100

# A batch mean is near-normal once it expects this many events: updates,
# busy and idle arrivals, arrivals at an occupancy level.
MIN_EXPECTED = 5

# A squared Exp departure gap has skewness 592 / 20**1.5 = 6.62, so the mean
# of m of them has 6.62 / sqrt(m).  From this many gaps on that is no larger
# than the skewness 2 / sqrt(99) = 0.20 of the gap mean at 99 gaps, where the
# departure-gap mean check does not false-alarm.
MIN_SQUARED_GAPS = 1085

# Every rate lies in [2^-64, 2^64], so that its gaps, their squares and the
# horizons of a run stay normal doubles.
MIN_RATE, MAX_RATE = 2.0**-64, 2.0**64


def _require(enough: bool, reason: str) -> None:
    """Raise InsufficientDataError with ``reason`` unless there is ``enough`` data."""
    if not enough:
        raise InsufficientDataError(reason)


def _batch_means(stat, start: int, stop: int, confidence: float) -> EstimateWithCI:
    """CI from the means ``stat(a, b)`` of [start, stop) cut into AUD_BATCHES equal slices.

    The remainder is dropped, and the slices' means are taken on the block
    pool, so only the slices in flight are held.  Over a contiguous column
    this equals the row means of its (AUD_BATCHES, per) reshape bit for bit:
    numpy sums a row with the same pairwise tree as the 1-D slice.
    """
    per = (stop - start) // AUD_BATCHES
    _require(per >= 2, f"{stop - start} samples; batch means need {2 * AUD_BATCHES}")
    starts = range(start, start + per * AUD_BATCHES, per)
    means = list(block_pool().map(lambda a: stat(a, a + per), starts))
    return ci_from_batch_means(means, confidence)


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
            if any(not MIN_RATE <= v <= MAX_RATE for v in grid):
                raise ParameterError(f"{name} entries must lie in [2^-64, 2^64], got {grid}")
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
    trace: UpdateTrace, epochs: np.ndarray, first: int, confidence: float
) -> EstimateWithCI | None:
    """Mean age upon the decisions at the sorted ``epochs`` from index ``first`` on.

    The epochs come from ``poisson_epochs`` or ``periodic_epochs`` with the
    last departure as horizon, so they are sorted and end within the trace.
    ``first`` is ``_first_estimated``: the first decision after the warm-up
    with a defined age.  With under 2 * AUD_BATCHES decisions from there on,
    there is no estimate (None).  A slice of epochs gets exactly the ages of
    that slice of one ``decisions_at`` call.
    """
    try:
        return _batch_means(lambda a, b: _mean_age(trace, epochs[a:b]),
                            first, len(epochs), confidence)
    except InsufficientDataError:
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
        first = _first_estimated(self.trace, epochs, self.warm_epoch)
        est = _aud_estimate(self.trace, epochs, first, self.config.confidence)
        estimated = len(epochs) - first
        return est, {
            "nu": nu,
            "total": len(epochs),
            "after_warmup": estimated,
            "undefined": _n_undefined(self.trace, epochs),
            "batch_length": estimated // AUD_BATCHES if est else 0,
        }


def _simulate_point(config: ExperimentConfig, grid_index: int, params: SystemParams) -> _Point:
    seed = derive_point_seed(config.seed, grid_index)
    trace = simulate(params, config.n_updates, seed, allow_unstable=config.allow_unstable)
    warm = _warmup_count(config, trace.n)
    warm_epoch = float(trace.departure_times[warm - 1]) if warm >= 1 else 0.0
    return _Point(config, params, seed, trace, warm, warm_epoch)


def _ks_samples(point: _Point) -> tuple[int, np.ndarray, np.ndarray]:
    """The full ``decorrelation_lag``, the system times thinned at it and the departure gaps.

    Both samples start after the warm-up and hold at most KS_MAX_SAMPLES
    values.  They are taken from slices of the epoch columns, so no
    full-length column is built.
    """
    arr, dep, warm = point.trace.arrival_times, point.trace.departure_times, point.warm
    lag = decorrelation_lag(point.params.utilization)
    stop = warm + lag * KS_MAX_SAMPLES
    thinned = dep[warm:stop:lag] - arr[warm:stop:lag]
    m = min(KS_MAX_SAMPLES, len(dep) - warm - 1)
    return lag, thinned, dep[warm + 1:warm + 1 + m] - dep[warm:warm + m]


def _occupancy_by_window(trace: UpdateTrace, max_length: int, edges: np.ndarray) -> np.ndarray:
    """``occupancy_fractions(queue_length_process(trace), max_length, edges)``, window by window.

    Each window's path merges only the events inside it and starts from the
    level at its start edge.  It has the same pieces, durations and order of
    addition as the path of the whole run, so every row is bit-identical,
    and no path of all 2n events is built.
    """
    return np.vstack([occupancy_fractions(queue_length_process(trace, a, b), max_length, (a, b))
                      for a, b in zip(edges[:-1], edges[1:])])


def _ks_p_value(samples: np.ndarray, rate: float) -> float | None:
    """K-S p-value against Exponential(rate); None (a blank field) below the test's floor."""
    try:
        return ks_exponential(samples, rate).p_value
    except InsufficientDataError:
        return None


def _within(estimates, theory, alpha: float, detail: str = "") -> tuple:
    """Whether every estimate's |mean - theory| is at most z standard errors, as a check row.

    ``theory`` is one value or one per estimate, and z is two-sided at
    ``alpha`` split over the estimates.  Observed is the worst
    |mean - theory| / SE, expected 0 and the tolerance z.
    """
    diffs = np.abs(np.array([e.mean for e in estimates]) - theory)
    ses = np.array([e.half_width / z_value(e.confidence) for e in estimates])
    level = 1.0 - alpha / len(diffs)
    if 0.5 * (1.0 + level) == 1.0:  # z_value's tail level rounds to 1
        raise ParameterError(f"the per-comparison level 1 - {alpha / len(diffs):.3g} has no "
                             "finite z; the confidence is too close to 1")
    z = z_value(level)
    with np.errstate(divide="ignore"):
        worst = float((diffs / ses).max())
    return worst <= z, worst, 0.0, z, detail


def _differences(estimates) -> list[EstimateWithCI]:
    """Every pairwise difference, half-widths in quadrature (conservative within one trace)."""
    return [EstimateWithCI(a.mean - b.mean, math.hypot(a.half_width, b.half_width), 0,
                           a.confidence) for a, b in itertools.combinations(estimates, 2)]


def _point_rows(config: ExperimentConfig, grid_index: int, arrival_rate: float,
                service_rate: float, decision_lock: threading.Lock) -> list[SweepRow]:
    """All rows (one per decision rate) for a single (lambda, mu) grid point.

    Each decision phase (``point.aud``) runs under ``decision_lock``, so the
    points of one sweep hold one column of decision epochs at a time.
    """
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
        with decision_lock:
            est, counts = point.aud(nu)
        rows.append(SweepRow(arrival_rate, service_rate, nu, analytic_value,
                             est.mean if est else None, est.half_width if est else None,
                             counts["total"], counts["undefined"], ks_t_p, ks_y_p,
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
    """One simulated row per (grid point, decision rate); CSV + manifest if configured.

    The points simulate and run their K-S tests concurrently, but take turns
    at the decision phase, whose one column of epochs is drawn and averaged
    on the whole block pool.  The lock holder waits only on block-pool
    tasks, which never wait, so no point deadlocks.
    """
    started = time.monotonic()
    workers = worker_limit()
    points = _grid_points(config)
    rows_by_point: list = [None] * len(points)
    decision_lock = threading.Lock()
    with concurrent.futures.ThreadPoolExecutor(min(len(points), workers)) as pool:
        futures = {
            pool.submit(_point_rows, config, i, lam, mu, decision_lock): i
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
    worst_se_ratio: float
    z: float
    consistent: bool | None


def run_nu_invariance(config: ExperimentConfig) -> NuInvarianceResult:
    """Paired comparison of decision rates on one shared trace.

    Every decision rate samples the same simulated path, so differences in
    the per-rate age means reflect decision sampling only.  The rates with
    an estimate are compared pairwise by ``_within``; a rate with under
    2 * AUD_BATCHES decisions after the warm-up keeps its blank sweep row,
    and below two rates with an estimate ``consistent`` is None.
    """
    started = time.monotonic()
    workers = worker_limit()
    sweep = run_sweep(replace(config, mode="nu_invariance", output_path=None))
    estimates = {
        row.decision_rate: EstimateWithCI(row.empirical_aud, row.ci_half_width, 0,
                                          config.confidence)
        for row in sweep.rows if row.empirical_aud is not None
    }
    consistent, worst, z = None, math.nan, math.nan
    if len(estimates) >= 2:
        consistent, worst, _, z, _ = _within(_differences(estimates.values()), 0.0,
                                             1.0 - config.confidence)
    _write_outputs(config, sweep, started, workers)
    return NuInvarianceResult(sweep, estimates, worst, z, consistent)


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
        return "\n".join(lines + [verdict])


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

    # The mean age and counts at each decision rate, and at nu = 1 for the PASTA
    # check.  Each rate's epochs are dropped once counted; the highest rate's are
    # the run's peak, so it goes first, and the sawtooth's columns wait for it.
    rates = (*config.decision_rates, *(() if 1.0 in config.decision_rates else (1.0,)))
    estimates = {}
    highest_rate_done = threading.Event()

    def estimate_rates() -> list[dict]:
        try:
            for nu in sorted(set(rates), reverse=True):
                estimates[nu] = point.aud(nu)
                highest_rate_done.set()
        finally:
            highest_rate_done.set()
        return [estimates[nu][1] for nu in rates]

    lag, thinned, gaps = _ks_samples(point)
    span = (trace.n - warm) // AUD_BATCHES

    def batched():
        # Batch means are near-independent once a batch spans the relaxation scale, and
        # near-normal once it holds a few updates; such batches leave time in every window.
        _require(span >= lag, f"a batch spans {span} updates; below the decorrelation lag {lag}")
        _require(span >= MIN_EXPECTED, f"a batch spans {span} updates; below {MIN_EXPECTED}")

    def estimate(nu: float) -> EstimateWithCI:
        est, counts = estimates[nu]
        n = counts["after_warmup"]
        _require(n > 0, f"no defined decisions at decision rate {nu}")
        _require(est is not None, f"{n} decisions after the warm-up at decision rate {nu}; "
                                  f"an estimate needs {2 * AUD_BATCHES}")
        batched()
        return est

    # The time windows start no earlier than the first departure, where the
    # age path begins; with a warm-up that is the warm-up's last departure.
    edges = np.linspace(max(point.warm_epoch, float(trace.departure_times[0])),
                        trace.last_departure, 101)

    def aud_mc_vs_theory():
        theory = analytic.average_aud(params)
        ests = {nu: estimate(nu) for nu in config.decision_rates}
        return _within(ests.values(), theory, alpha, f"theory={theory:.6g}; rates={sorted(ests)}")

    def aud_nu_invariance():
        by_rate = [estimate(nu) for nu in sorted(set(config.decision_rates))]
        return _within(_differences(by_rate), 0.0, alpha, "pairwise on the shared trace")

    def ks_system_time():
        ks = ks_exponential(thinned, analytic.system_time_rate(params))
        return (ks.p_value >= alpha, ks.p_value, alpha, 0.0,
                f"n={ks.n}; D={ks.statistic:.6g}; lag={lag}")

    def ks_interdeparture():
        ks = ks_exponential(gaps, lam)
        return ks.p_value >= alpha, ks.p_value, alpha, 0.0, f"n={ks.n}; D={ks.statistic:.6g}"

    # The departure gaps are i.i.d. (the departures are Poisson, by Burke's theorem).
    def interdeparture_mean():
        return _within([mean_ci(gaps, config.confidence)],
                       analytic.mean_interdeparture(params), alpha)

    def interdeparture_second_moment():
        _require(len(gaps) >= MIN_SQUARED_GAPS,
                 f"{len(gaps)} departure gaps; the squared-gap mean needs {MIN_SQUARED_GAPS}")
        return _within([mean_ci(gaps**2, config.confidence)],
                       analytic.second_moment_interdeparture(params), alpha)

    def queue_length_distribution():
        # Levels 0..k-1 and the tail >= k against the geometric law, k the first
        # of levels 0-10 where the level or the tail after it expects fewer than
        # 5 arrivals per window: the normal law breaks down for rarer cells.
        batched()
        pi = analytic.stationary_queue_dist(params, 10)
        expected = lam * (edges[1] - edges[0]) * np.minimum(pi, 1.0 - np.cumsum(pi))
        k = int((expected >= MIN_EXPECTED).sum())  # expected falls with the level
        _require(k > 0, f"fewer than {MIN_EXPECTED} arrivals per window expected at occupancy "
                        "level 0")
        per_batch = _occupancy_by_window(trace, k - 1, edges)
        per_batch = np.column_stack((per_batch, 1.0 - per_batch.sum(axis=1)))
        return _within([ci_from_batch_means(level, config.confidence) for level in per_batch.T],
                       np.append(pi[:k], 1 - pi[:k].sum()), alpha, f"levels 0-{k - 1} and >= {k}")

    def prob_busy_on_arrival():
        # one indicator per update after the warm-up but the last
        batched()
        rho = analytic.prob_busy_on_arrival(params)
        expected = min(rho, 1.0 - rho) * ((trace.n - 1 - warm) // AUD_BATCHES)
        _require(expected >= MIN_EXPECTED,
                 f"{expected:.3g} busy or idle arrivals expected per batch; below {MIN_EXPECTED}")
        est = _batch_means(lambda a, b: arrivals_seeing_busy(trace, a, b).mean(),
                           warm, trace.n - 1, config.confidence)
        return _within([est], rho, alpha)

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
        return worst_mgf <= 1e-10, worst_mgf, 0.0, 1e-10

    def cross_moment():
        batched()
        arr, dep = trace.arrival_times, trace.departure_times

        def mean_product(a: int, b: int) -> np.float64:
            # each departure gap after the warm-up times the system time before it
            prod = dep[a + 1:b + 1] - dep[a:b]
            prod *= dep[a:b] - arr[a:b]
            return prod.mean()

        theory = analytic.cross_moment_system_interdeparture(params)
        est = _batch_means(mean_product, warm, trace.n - 1, config.confidence)
        return _within([est], theory, alpha, f"theory={theory:.6g}")

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
        return worst_dual <= 1e-12, worst_dual, 0.0, 1e-12

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

    def time_average_age() -> EstimateWithCI:
        batched()  # below it the windows can coincide
        highest_rate_done.wait()
        return ci_from_batch_means(time_average_aoi(aoi_path(trace), edges), config.confidence)

    def pasta_time_average():
        # Poisson decisions sample the time average of the age path (PASTA).
        aud = estimate(1.0)
        aoi = sawtooth.result()
        return _within(_differences([aoi, aud]), 0.0, alpha, f"time-average age {aoi.mean:.6g}")

    order = [aud_mc_vs_theory, aud_nu_invariance, ks_system_time, ks_interdeparture,
             interdeparture_mean, interdeparture_second_moment, queue_length_distribution,
             prob_busy_on_arrival, mgf_mixture_identity, cross_moment, aud_dual_path,
             shape_lambda_u_curve, shape_mu_decreasing, shape_divergence_asymmetry,
             pasta_time_average]
    if len(set(config.decision_rates)) < 2:
        order.remove(aud_nu_invariance)
    exact = {mgf_mixture_identity, aud_dual_path, shape_lambda_u_curve, shape_mu_decreasing,
             shape_divergence_asymmetry}
    alpha = (1.0 - config.confidence) / len(set(order) - exact)

    def run(checks) -> dict:
        results = {}
        for check in checks:
            try:
                passed, *rest = check()
            except InsufficientDataError as exc:
                passed, rest = None, (math.nan, math.nan, math.nan, str(exc))
            results[check] = CheckResult(check.__name__, None if passed is None else bool(passed),
                                         *rest)
        return results

    # The checks of the trace alone, then the sawtooth's time average, run
    # beside the decision-rate estimates; with one thread, after them.  No
    # task runs on the block pool, so the block tasks that the tasks wait on
    # never wait themselves.
    uses_estimates = {aud_mc_vs_theory, aud_nu_invariance, pasta_time_average}
    with concurrent.futures.ThreadPoolExecutor(min(2, worker_limit())) as pool:
        estimated = pool.submit(estimate_rates)
        trace_checks = pool.submit(run, [c for c in order if c not in uses_estimates])
        sawtooth = pool.submit(time_average_age)
        decision_sizes, results = estimated.result(), trace_checks.result()
        results.update(run([c for c in order if c in uses_estimates]))
    checks = [results[check] for check in order]

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
    report = ValidationReport(config, tuple(checks))
    _write_outputs(config, report, started, workers, (sizes,))
    return report
