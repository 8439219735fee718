"""Experiment runner: parameter sweeps, decision-rate invariance, validation.

Configurations come from flat ``key = value`` text files (``#`` starts a
comment) and/or keyword overrides; results are written as fixed-schema CSV
plus a JSON-lines manifest (config echo, versions, timings).  Grid points
run one after another in grid order, each with a seed derived from the base
seed and its grid index, so a run holds one trace and one column of decision
epochs at a time, and output is byte-reproducible.  Validation estimates one
decision rate at a time, then runs its checks in order.  Long random draws
and every time window run on the shared block pool
(``distributions.block_pool``), the program's only thread pool.  A point's
AUD_BATCHES time windows (``_Point``) batch every correlated mean: each
window's sum and count of the decision ages, the busy indicators or the
cross-moment products give the ratio of their totals with a delta-method CI
(``stats.ratio_ci``), and validation's occupancy levels and sawtooth time
average are taken per window.  ``_by_window`` maps the windows onto the
pool in a few contiguous groups per thread, each run in order, not one task
per window.  ``AUD_LAB_THREADS``
caps its threads; one thread runs everything in sequence, and no result
depends on it.  A sample below its estimator's floor (InsufficientDataError)
gets no verdict: a sweep leaves that p-value, or a mean age with under
2 * AUD_BATCHES decisions after the warm-up, blank, and validation reports
that check alone as skipped, with the reason.
Validation splits 1 - confidence evenly over its statistical checks, so a
correct run fails with at most that probability (see ``_within``).
"""
from __future__ import annotations

import itertools
import json
import math
import os
import platform
import resource
import struct
import time
from dataclasses import dataclass, fields, replace
from decimal import Decimal

import numpy as np

from . import analytic
from .decisions import _age_sum, aoi_path, poisson_epochs, time_average_aoi
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
from .stats import EstimateWithCI, ks_exponential, mean_ci, ratio_ci, z_value

SWEEP_CSV_HEADER = (
    "lambda,mu,nu,analytic_aud,empirical_aud,ci_half_width,"
    "n_decisions,n_undefined_decisions,ks_T_pvalue,ks_Y_pvalue,status"
)

VALIDATION_CSV_HEADER = "check,passed,observed,expected,tolerance,detail"

_MASK64 = 0xFFFFFFFFFFFFFFFF

# Goodness-of-fit tests use at most this many post-warm-up samples.
KS_MAX_SAMPLES = 100_000

# Every correlated mean takes its CI from this many time windows.
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

# A run simulates at most this many updates and draws at most about this
# many decisions at one rate (nu * n / min(lambda, mu) at a point): one
# column of that many float64 values takes 2 GiB.  Beyond it a run exits
# before simulating, where numpy would fail mid-run.
MAX_COLUMN = 2**28

# A stable point's epochs reach about n / lambda, where adjacent doubles lie
# up to (n / lambda) * 2^-52 apart.  With n * mu / lambda at most this, that
# is at most 2^-12 of a mean service time 1 / mu: rounding cannot bend a
# system time by anything a K-S test on KS_MAX_SAMPLES samples could see.
MAX_HORIZON = 2.0**40


def _require(enough: bool, reason: str) -> None:
    """Raise InsufficientDataError with ``reason`` unless there is ``enough`` data."""
    if not enough:
        raise InsufficientDataError(reason)


# ``_by_window`` hands the block pool this many groups of windows per thread.
GROUPS_PER_THREAD = 2


def _by_window(stat, edges) -> list:
    """``stat(a, b)`` for each pair of consecutive ``edges``, in order, on the block pool.

    The edges are times, or the indices where a point's time windows cut a
    sorted column.  The windows go to the pool in up to GROUPS_PER_THREAD
    contiguous groups per thread; each task runs its group's windows in
    order, so a thread holds one window at a time, and the groups' results
    are joined in order.
    """
    n = len(edges) - 1
    if n < 1:
        return []
    groups = min(n, GROUPS_PER_THREAD * worker_limit())
    cuts = [i * n // groups for i in range(groups + 1)]

    def run(lo: int, hi: int) -> list:
        return [stat(edges[i], edges[i + 1]) for i in range(lo, hi)]

    return list(itertools.chain.from_iterable(block_pool().map(run, cuts[:-1], cuts[1:])))


@dataclass(frozen=True)
class ExperimentConfig:
    arrival_rates: tuple = (0.5,)
    service_rates: tuple = (1.0,)
    decision_rates: tuple = (0.1, 1.0, 10.0)
    n_updates: int = 1_000_000
    seed: int = 42
    confidence: float = 0.99
    output_path: str | None = None
    warmup_updates: int | None = None  # None: max(1000, 1% of n), capped at half

    def __post_init__(self):
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
        if not 0 <= self.seed <= _MASK64:
            raise ParameterError(f"seed must lie in [0, 2^64), got {self.seed}")
        z_value(self.confidence)  # raises for a confidence without a finite, positive z
        if self.n_updates > MAX_COLUMN:
            raise ParameterError(f"{self.n_updates} updates exceed the cap of {MAX_COLUMN} "
                                 "values per column")
        nu = max(self.decision_rates)
        for lam, mu in itertools.product(self.arrival_rates, self.service_rates):
            if lam / mu >= 1.0:
                continue  # an unstable point is not simulated
            count = nu * self.n_updates / min(lam, mu)
            if count > MAX_COLUMN:
                raise ParameterError(
                    f"decision rate {nu:g} at lambda={lam:g}, mu={mu:g} draws about "
                    f"{count:.3g} decisions; the cap is {MAX_COLUMN} values per column")
            span = self.n_updates * mu / lam
            if span > MAX_HORIZON:
                raise ParameterError(
                    f"{self.n_updates} updates at lambda={lam:g}, mu={mu:g} span about "
                    f"{span:.3g} mean service times; epochs that late cannot resolve a "
                    "service time (the cap is 2^40)")


def _parse_number(text: str, kind: type, what: str):
    """``kind(text)``, raising ParameterError rather than ValueError when malformed."""
    try:
        return kind(text.strip())
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ParameterError(f"{what} must be {noun}, got {text.strip()!r}") from None


def parse_rates(text: str) -> tuple:
    """Parse '0.5', '0.1,0.2,0.5', or 'start:stop:step' (stop inclusive).

    A range is counted and stepped in decimal on the flag's text, so each
    rate is the double nearest the decimal value the text names, at any
    scale: '0.1:0.3:0.1' gives 0.3, not 0.30000000000000004.
    """
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ParameterError(f"range syntax is start:stop:step, got {text!r}")
        values = [_parse_number(p, float, "rate") for p in parts]
        if not all(map(math.isfinite, values)) or values[2] <= 0.0 or values[1] < values[0]:
            raise ParameterError(f"bad range {text!r}")
        start, stop, step = (Decimal(p.strip()) for p in parts)
        # the range holds floor(steps) + 1 rates
        steps = (stop - start) / step
        if not steps < MAX_COLUMN:
            raise ParameterError(f"range {text!r} holds about {float(steps):.3g} rates; "
                                 f"the cap is {MAX_COLUMN}")
        return tuple(float(start + i * step) for i in range(int(steps) + 1))
    return tuple(_parse_number(p, float, "rate") for p in text.split(",") if p.strip())


_CONFIG_KEYS = {
    "lambda": ("arrival_rates", parse_rates),
    "mu": ("service_rates", parse_rates),
    "nu": ("decision_rates", parse_rates),
    "updates": ("n_updates", lambda s: _parse_number(s, int, "updates")),
    "seed": ("seed", lambda s: _parse_number(s, int, "seed")),
    "confidence": ("confidence", lambda s: _parse_number(s, float, "confidence")),
    "out": ("output_path", str.strip),
    "warmup": ("warmup_updates", lambda s: _parse_number(s, int, "warmup")),
}


def load_config_file(path: str) -> dict:
    """Read a flat key=value config file into ExperimentConfig field values."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise ParameterError(f"{path}: not UTF-8 text") from None
    values = {}
    for lineno, raw in enumerate(lines, start=1):
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
        if attr in values:
            raise ParameterError(f"{path}:{lineno}: key {key!r} set twice")
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
    return seed ^ splitmix64(grid_index)


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


def _config_record(config: ExperimentConfig, mode: str) -> dict:
    return {
        "record": "config",
        "mode": mode,
        "lambda": list(config.arrival_rates),
        "mu": list(config.service_rates),
        "nu": list(config.decision_rates),
        "n_updates": config.n_updates,
        "seed": config.seed,
        "confidence": config.confidence,
        "output": config.output_path,
        "warmup": config.warmup_updates,
    }


def _cpu_features() -> list[str]:
    """The enabled CPU features numpy dispatches its kernels by, sorted.

    numpy's ``log`` and ``exp`` kernels differ in the last bit between
    dispatch paths, so output bytes are reproducible for one numpy build
    and one set of these features.
    """
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return sorted(name for name, enabled in __cpu_features__.items() if enabled)


def _versions_record() -> dict:
    from . import __version__  # the package module imports this one first

    return {
        "record": "versions",
        "aud_lab": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_features": _cpu_features(),
    }


def write_manifest(
    path: str, config: ExperimentConfig, mode: str, wall_seconds: float, workers: int,
    extra_records: tuple = (),
) -> None:
    """Write the config, versions and timing records, then ``extra_records``.

    The config record names the ``mode``, the verb that ran ``config``.  The
    timing record holds the wall time, ``workers``, the threads of the block
    pool the run used, and the process's peak RSS so far in MiB
    (``ru_maxrss``, which Linux reports in KiB).
    """
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(path, "w", newline="") as fh:
        for record in (
            _config_record(config, mode),
            _versions_record(),
            {"record": "timing", "wall_seconds": wall_seconds, "workers": workers,
             "peak_rss_mb": peak_rss_mb},
            *extra_records,
        ):
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def manifest_path_for(output_path: str) -> str:
    base, _ = os.path.splitext(output_path)
    return base + ".manifest.jsonl"


def _write_outputs(config: ExperimentConfig, mode: str, result, started: float, workers: int,
                   extra_records: tuple = ()) -> None:
    """Write ``result``'s CSV and the manifest next to it, if the config names an output."""
    if config.output_path:
        result.write_csv(config.output_path)
        write_manifest(
            manifest_path_for(config.output_path), config, mode, time.monotonic() - started,
            workers, extra_records,
        )


def _require_single_point(config: ExperimentConfig, mode: str) -> None:
    """Raise ParameterError unless ``config`` names one (lambda, mu) point, as ``mode`` needs."""
    if len(config.arrival_rates) != 1 or len(config.service_rates) != 1:
        raise ParameterError(f"{mode} runs a single (lambda, mu) point")


def _warmup_count(config: ExperimentConfig, n: int) -> int:
    if config.warmup_updates is not None:
        return min(config.warmup_updates, n - 1)
    return default_warmup(n)


def _decision_epochs(trace: UpdateTrace, decision_rate: float, point_seed: int) -> np.ndarray:
    stream = SeededStream(point_seed, decision_stream_id(decision_rate))
    return poisson_epochs(decision_rate, trace.last_departure, stream)


def _n_undefined(trace: UpdateTrace, epochs: np.ndarray) -> int:
    """Decisions ahead of the first departure, which have no age."""
    return int(np.searchsorted(epochs, trace.departure_times[0], side="left"))


@dataclass(frozen=True)
class _Point:
    """One simulated (lambda, mu) point: its trace, seed, warm-up cut and time windows.

    The AUD_BATCHES windows between consecutive ``edges`` split the run from
    the warm-up's last departure, or the first departure, where the age path
    begins, if that is later, to the last departure.  A correlated mean is
    the total of its samples in the windows over their count, with the ratio
    CI of ``stats.ratio_ci`` over the windows' sums and counts.
    """

    config: ExperimentConfig
    params: SystemParams
    seed: int
    trace: UpdateTrace
    warm: int  # updates cut as warm-up
    warm_epoch: float  # departure of the last warm-up update, 0.0 without one
    edges: np.ndarray  # AUD_BATCHES + 1 window edges in time

    def aud(self, nu: float) -> tuple[EstimateWithCI | None, dict]:
        """Mean age upon the decisions at rate ``nu`` in the windows, and their counts.

        A window takes the decisions in (its start, its end].  With under
        2 * AUD_BATCHES of them there is no estimate (None).  The decision
        epochs (8 bytes per decision) are dropped on return.
        """
        epochs = _decision_epochs(self.trace, nu, self.seed)
        cuts = np.searchsorted(epochs, self.edges, side="right")
        counts = np.diff(cuts)
        estimated = int(cuts[-1] - cuts[0])
        est = None
        if estimated >= 2 * AUD_BATCHES:
            sums = _by_window(lambda a, b: _age_sum(self.trace, epochs[a:b]), cuts)
            est = ratio_ci(sums, counts, self.config.confidence)
        return est, {
            "nu": nu,
            "total": len(epochs),
            "after_warmup": estimated,
            "undefined": _n_undefined(self.trace, epochs),
            "min_window_decisions": int(counts.min()),
        }

    def update_mean(self, window_sum) -> EstimateWithCI:
        """Mean of one sample per update after the warm-up but the last, with its ratio CI.

        A window takes the updates that depart in (its start, its end], and
        ``window_sum(a, b)`` sums the samples of updates [a, b).
        """
        cuts = np.searchsorted(self.trace.departure_times, self.edges, side="right")
        np.minimum(cuts, self.trace.n - 1, out=cuts)
        return ratio_ci(_by_window(window_sum, cuts), np.diff(cuts), self.config.confidence)


def _simulate_point(config: ExperimentConfig, grid_index: int, params: SystemParams) -> _Point:
    seed = derive_point_seed(config.seed, grid_index)
    trace = simulate(params, config.n_updates, seed)
    warm = _warmup_count(config, trace.n)
    warm_epoch = float(trace.departure_times[warm - 1]) if warm >= 1 else 0.0
    edges = np.linspace(max(warm_epoch, float(trace.departure_times[0])), trace.last_departure,
                        AUD_BATCHES + 1)
    return _Point(config, params, seed, trace, warm, warm_epoch, edges)


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
                service_rate: float) -> list[SweepRow]:
    """All rows (one per decision rate) for a single (lambda, mu) grid point.

    A point without a closed form (``analytic.average_aud`` raises
    StabilityError: utilization within ``analytic.STABILITY_GUARD`` of 1 or
    above) is not simulated and gets ``unstable`` rows.
    """
    params = SystemParams(arrival_rate, service_rate)
    try:
        analytic_value = analytic.average_aud(params)
    except StabilityError:
        return [
            SweepRow(arrival_rate, service_rate, nu, None, None, None, None, None,
                     None, None, "unstable")
            for nu in config.decision_rates
        ]

    point = _simulate_point(config, grid_index, params)
    _, thinned, gaps = _ks_samples(point)
    ks_t_p = _ks_p_value(thinned, analytic.system_time_rate(params))
    ks_y_p = _ks_p_value(gaps, params.arrival_rate)
    del thinned, gaps  # not held through the decision phase

    rows = []
    for nu in config.decision_rates:
        est, counts = point.aud(nu)
        rows.append(SweepRow(arrival_rate, service_rate, nu, analytic_value,
                             est.mean if est else None, est.half_width if est else None,
                             counts["total"], counts["undefined"], ks_t_p, ks_y_p, "ok"))
    return rows


def run_sweep(config: ExperimentConfig) -> SweepResult:
    """One simulated row per (grid point, decision rate); CSV + manifest if configured.

    The points run one after another in grid order, and each draws and
    averages its decision epochs one rate at a time on the block pool, so a
    run holds one trace and one column of epochs at any thread count.
    """
    started = time.monotonic()
    workers = worker_limit()
    points = itertools.product(config.arrival_rates, config.service_rates)
    rows = tuple(row for i, (lam, mu) in enumerate(points)
                 for row in _point_rows(config, i, lam, mu))
    result = SweepResult(config, rows)
    _write_outputs(config, "sweep", result, started, workers)
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
    and below two rates with an estimate ``consistent`` is None.  A point
    without a steady state raises StabilityError, as in ``run_validation``.
    """
    _require_single_point(config, "nu_invariance")
    if len(config.decision_rates) < 2:
        raise ParameterError("nu_invariance needs at least two decision rates")
    started = time.monotonic()
    workers = worker_limit()
    analytic.require_stable(SystemParams(config.arrival_rates[0], config.service_rates[0]))
    sweep = run_sweep(replace(config, output_path=None))
    estimates = {
        row.decision_rate: EstimateWithCI(row.empirical_aud, row.ci_half_width, 0,
                                          config.confidence)
        for row in sweep.rows if row.empirical_aud is not None
    }
    consistent, worst, z = None, math.nan, math.nan
    if len(estimates) >= 2:
        consistent, worst, _, z, _ = _within(_differences(estimates.values()), 0.0,
                                             1.0 - config.confidence)
    _write_outputs(config, "nu_invariance", sweep, started, workers)
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
    config, params, trace, warm, edges = (point.config, point.params, point.trace, point.warm,
                                          point.edges)
    lam, mu = params.arrival_rate, params.service_rate

    # The mean age and counts at each decision rate; each rate's epochs are
    # dropped once counted, before any check runs.
    distinct = sorted(set(config.decision_rates))
    estimates = {nu: point.aud(nu) for nu in distinct}

    lag, thinned, gaps = _ks_samples(point)
    # the updates in a window, as ``_Point.update_mean`` cuts them: those after
    # the warm-up but the last
    span = (trace.n - 1 - warm) // AUD_BATCHES

    def batched():
        # Window means are near-independent once a window spans the relaxation scale, and
        # near-normal once it holds a few updates.
        _require(span >= lag, f"a window holds {span} updates; below the decorrelation lag {lag}")
        _require(span >= MIN_EXPECTED, f"a window holds {span} updates; below {MIN_EXPECTED}")

    def estimate(nu: float) -> EstimateWithCI:
        est, counts = estimates[nu]
        n = counts["after_warmup"]
        _require(est is not None, f"{n} decisions after the warm-up at decision rate {nu}; "
                                  f"an estimate needs {2 * AUD_BATCHES}")
        batched()
        return est

    def aud_mc_vs_theory():
        theory = analytic.average_aud(params)
        ests = {nu: estimate(nu) for nu in config.decision_rates}
        return _within(ests.values(), theory, alpha, f"theory={theory:.6g}; rates={sorted(ests)}")

    def aud_nu_invariance():
        by_rate = [estimate(nu) for nu in distinct]
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
        # A window's path merges only the events inside it and starts from the
        # level at its start edge: the pieces, durations and order of addition
        # of the whole run's path, without a path of all 2n events.
        per_batch = np.array(_by_window(
            lambda a, b: occupancy_fractions(queue_length_process(trace, a, b), k - 1, a, b),
            edges))
        per_batch = np.column_stack((per_batch, 1.0 - per_batch.sum(axis=1)))
        return _within([mean_ci(level, config.confidence) for level in per_batch.T],
                       np.append(pi[:k], 1 - pi[:k].sum()), alpha, f"levels 0-{k - 1} and >= {k}")

    def prob_busy_on_arrival():
        # one indicator per update after the warm-up but the last
        batched()
        rho = analytic.prob_busy_on_arrival(params)
        expected = min(rho, 1.0 - rho) * span
        _require(expected >= MIN_EXPECTED,
                 f"{expected:.3g} busy or idle arrivals expected per window; below {MIN_EXPECTED}")
        est = point.update_mean(lambda a, b: np.count_nonzero(arrivals_seeing_busy(trace, a, b)))
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

        def product_sum(a: int, b: int) -> np.float64:
            # each departure gap after the warm-up times the system time before it
            prod = dep[a + 1:b + 1] - dep[a:b]
            prod *= dep[a:b] - arr[a:b]
            return prod.sum()

        theory = analytic.cross_moment_system_interdeparture(params)
        est = point.update_mean(product_sum)
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

    def pasta_time_average():
        # Poisson decisions sample the time average of the age path (PASTA).  The
        # median configured rate (the upper one of an even count) draws nothing extra.
        aud = estimate(distinct[len(distinct) // 2])  # its batch rule keeps the windows apart
        path = aoi_path(trace)
        aoi = mean_ci(_by_window(lambda a, b: time_average_aoi(path, a, b), edges),
                      config.confidence)
        return _within(_differences([aoi, aud]), 0.0, alpha, f"time-average age {aoi.mean:.6g}")

    order = [aud_mc_vs_theory, aud_nu_invariance, ks_system_time, ks_interdeparture,
             interdeparture_mean, interdeparture_second_moment, queue_length_distribution,
             prob_busy_on_arrival, mgf_mixture_identity, cross_moment, aud_dual_path,
             shape_lambda_u_curve, shape_mu_decreasing, shape_divergence_asymmetry,
             pasta_time_average]
    if len(distinct) < 2:
        order.remove(aud_nu_invariance)
    exact = {mgf_mixture_identity, aud_dual_path, shape_lambda_u_curve, shape_mu_decreasing,
             shape_divergence_asymmetry}
    alpha = (1.0 - config.confidence) / len(set(order) - exact)

    checks = []
    for check in order:
        try:
            passed, *rest = check()
        except InsufficientDataError as exc:
            passed, rest = None, (math.nan, math.nan, math.nan, str(exc))
        checks.append(CheckResult(check.__name__, None if passed is None else bool(passed), *rest))

    sizes = {
        "record": "sizes",
        "n_updates": trace.n,
        "warmup_updates": warm,
        "warm_epoch": point.warm_epoch,
        "decisions": [estimates[nu][1] for nu in config.decision_rates],
        "window_length": float(edges[1] - edges[0]),
        "ks_system_time_samples": len(thinned),
        "ks_system_time_lag": lag,
        "ks_interdeparture_samples": len(gaps),
    }
    return checks, sizes


def run_validation(config: ExperimentConfig) -> ValidationReport:
    """Certify one simulated point against every closed-form oracle."""
    _require_single_point(config, "validate")
    started = time.monotonic()
    workers = worker_limit()
    params = SystemParams(config.arrival_rates[0], config.service_rates[0])
    analytic.require_stable(params)
    checks, sizes = _validation_checks(_simulate_point(config, 0, params))
    report = ValidationReport(config, tuple(checks))
    _write_outputs(config, "validate", report, started, workers, (sizes,))
    return report
