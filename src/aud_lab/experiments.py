"""Experiment runner: parameter sweeps, decision-rate invariance, validation.

A run is an ``ExperimentConfig``, which the CLI builds from its flags
(``_CONFIG_KEYS``); ``_write_outputs`` writes a run's fixed-schema CSV and the
JSON-lines manifest beside it (config echo, versions, timings).  Grid points
run one after another in grid order, each with a seed derived from the base
seed and its grid index, so a run holds one trace and one block of decision
epochs per pool thread at a time, and output is byte-reproducible.
``_simulate_point`` measures a point once, as a ``_Point``: its mean age at
each distinct decision rate, then its K-S samples.  The sweep rows, the
nu-invariance comparison and validation's checks all read it; the checks are
plain functions of it and the rates they judge it at, in ``CHECKS`` order.  A
point's AUD_BATCHES time windows batch every correlated mean, with a
delta-method CI over the windows' sums and counts (``stats.ratio_ci``): the
decision ages' running window totals (``_Point.aud``) and one table of the
trace's sums per window, which only the checks build (``_Point.windows``).
Long random draws and the decision blocks run on the shared block pool
(``distributions.block_pool``), the program's only thread pool, and the rest
on the calling thread.  ``AUD_LAB_THREADS`` caps the pool's threads; one
thread runs everything in sequence, and no result depends on it.  A sample
below its estimator's floor (InsufficientDataError) gets no verdict: a sweep
leaves that p-value, or a mean age with under 2 * AUD_BATCHES decisions after
the warm-up, blank, and validation reports that check alone as skipped, with
the reason.  Validation splits 1 - confidence evenly over its statistical
checks, so a correct run fails with at most that probability (``_within``).
"""
from __future__ import annotations

import collections
import concurrent.futures
import functools
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import struct
import time
from dataclasses import dataclass, replace
from decimal import Decimal
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import analytic
from .decisions import _age_sum, _with_margin, sawtooth_mean
from .distributions import _MASK64, BLOCK_SIZE, SeededStream, block_pool, splitmix64, worker_limit
from .errors import InsufficientDataError, ParameterError, StabilityError
from .queueing import (
    SystemParams,
    UpdateTrace,
    arrivals_seeing_busy,
    default_warmup,
    occupancy,
    simulate,
)
from .stats import EstimateWithCI, ks_exponential, mean_ci, ratio_ci, z_value

SWEEP_CSV_HEADER = (
    "lambda,mu,nu,analytic_aud,empirical_aud,ci_half_width,"
    "n_decisions,n_undefined_decisions,ks_T_pvalue,ks_Y_pvalue,status"
)

VALIDATION_CSV_HEADER = "check,passed,observed,expected,tolerance,detail"

# Goodness-of-fit tests use at most this many post-warm-up samples.
KS_MAX_SAMPLES = 100_000

# Every correlated mean takes its CI from this many time windows.
AUD_BATCHES = 100

MAX_LEVEL = 10  # validation tests occupancy levels 0..k-1 and >= k, k <= MAX_LEVEL + 1

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
# many decisions at one rate.  It exits before simulating where a stable
# point's expected horizon n / lambda times nu exceeds the cap, and before
# drawing a decision where the simulated horizon times nu does.  That bounds
# the run time.
MAX_COLUMN = 2**28

# ``_Point.aud`` keeps at most this many decision blocks per pool thread
# submitted and not yet added to the window sums.  Each holds its queued task,
# carry future, counts and pieces, about 4 KiB, so a column of any length holds
# a fixed number of them; two per thread keep a block queued for each thread
# while the caller adds the oldest.
BLOCKS_AHEAD_PER_THREAD = 2

# A stable point's epochs reach about n / lambda, where adjacent doubles lie
# up to (n / lambda) * 2^-52 apart.  With n * mu / lambda at most this, that
# is at most 2^-12 of a mean service time 1 / mu: rounding cannot bend a
# system time by anything a K-S test on KS_MAX_SAMPLES samples could see.
# Gaps below half that step still round away, so a long run admits ties: a
# zero sojourn (an idle update departing at its own arrival epoch), tied
# arrivals and tied departures.
MAX_HORIZON = 2.0**40

# A run writes at most this many rows, one per (lambda, mu, nu).  A row
# holds about 430 bytes in memory, so a run's rows stay under 0.5 GB.
MAX_ROWS = 2**20


def _require(enough: bool, reason: str) -> None:
    """Raise InsufficientDataError with ``reason`` unless there is ``enough`` data."""
    if not enough:
        raise InsufficientDataError(reason)


def _block_epochs(stream: SeededStream, rate: float, start: int, out: np.ndarray,
                  carry: concurrent.futures.Future) -> np.ndarray:
    """``out`` filled with the Poisson epochs at ``rate`` from ``stream``'s draw ``start`` on.

    The gaps are drawn first.  Then the running sum waits on ``carry``, the
    future of the epoch before them (0.0 before the first), adds it to the
    first gap and sums left to right: the epochs of one ``np.cumsum`` over
    the stream's gaps from its first draw, bit for bit.
    """
    stream.draw_at(start, out, rate)
    out[0] += carry.result()
    return np.cumsum(out, out=out)


@dataclass(frozen=True)
class ExperimentConfig:
    arrival_rates: tuple = (0.5,)
    service_rates: tuple = (1.0,)
    decision_rates: tuple = (0.1, 1.0, 10.0)
    n_updates: int = 1_000_000
    seed: int = 42
    confidence: float = 0.99
    output_path: str | None = None

    def __post_init__(self):
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
        if self.output_path is not None and not self.output_path.strip():
            raise ParameterError(f"output_path must not be blank, got {self.output_path!r}")
        if self.n_updates > MAX_COLUMN:
            raise ParameterError(f"{self.n_updates} updates exceed the cap of {MAX_COLUMN} "
                                 "values per column")
        rows = len(self.arrival_rates) * len(self.service_rates) * len(self.decision_rates)
        if rows > MAX_ROWS:
            raise ParameterError(f"the grid holds {rows} rows; the cap is {MAX_ROWS}")
        nu = max(self.decision_rates)
        for lam, mu in itertools.product(self.arrival_rates, self.service_rates):
            if not SystemParams(lam, mu).is_stable:
                continue  # a sweep gives it ``unstable`` rows and does not simulate it
            count = nu * self.n_updates / lam
            if count > MAX_COLUMN:
                raise ParameterError(
                    f"decision rate {nu!r} at lambda={lam!r}, mu={mu!r} draws about "
                    f"{count:.3g} decisions; the cap is {MAX_COLUMN} values per column")
            span = self.n_updates * mu / lam
            if span > MAX_HORIZON:
                raise ParameterError(
                    f"{self.n_updates} updates at lambda={lam!r}, mu={mu!r} span about "
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
        if not steps < MAX_ROWS:
            raise ParameterError(f"range {text!r} holds about {float(steps):.3g} rates; "
                                 f"the cap is {MAX_ROWS}")
        return tuple(float(start + i * step) for i in range(int(steps) + 1))
    return tuple(_parse_number(p, float, "rate") for p in text.split(",") if p.strip())


# The one table of input keys: each key is a CLI flag and names its
# ExperimentConfig field, the converter of the flag's text and its help.
# The flags and the manifest's config record both read it.
_CONFIG_KEYS = {
    "lambda": ("arrival_rates", parse_rates, "arrival rate(s)"),
    "mu": ("service_rates", parse_rates, "service rate(s)"),
    "nu": ("decision_rates", parse_rates, "decision rate(s)"),
    "updates": ("n_updates", lambda s: _parse_number(s, int, "updates"),
                "updates to simulate per point"),
    "seed": ("seed", lambda s: _parse_number(s, int, "seed"), "base seed"),
    "out": ("output_path", str.strip, "output CSV path"),
    "confidence": ("confidence", lambda s: _parse_number(s, float, "confidence"),
                   "CI confidence level"),
}


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
        def fmt(v, kind=float):
            return "" if v is None else repr(kind(v))

        return ",".join((*map(fmt, (self.arrival_rate, self.service_rate, self.decision_rate,
                                    self.analytic_aud, self.empirical_aud, self.ci_half_width)),
                         fmt(self.n_decisions, int), fmt(self.n_undefined_decisions, int),
                         fmt(self.ks_system_time_pvalue), fmt(self.ks_interdeparture_pvalue),
                         self.status))


def _config_record(config: ExperimentConfig, mode: str) -> dict:
    """The ``mode`` and each flag's value, so the record reads back as the run's flags."""
    return {"record": "config", "mode": mode,
            **{key: getattr(config, field) for key, (field, _, _) in _CONFIG_KEYS.items()}}


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


def _source_digest() -> str:
    """SHA-256 of the package's modules: each one's path from the package's parent, NUL, its bytes.

    ``__version__`` is not bumped when the code changes, so this names the
    code that ran.
    """
    package = Path(__file__).parent
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        digest.update(str(path.relative_to(package.parent)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _versions_record() -> dict:
    from . import __version__  # the package module imports this one first

    return {
        "record": "versions",
        "aud_lab": __version__,
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_features": _cpu_features(),
    }


def manifest_path_for(output_path: str) -> str:
    base, _ = os.path.splitext(output_path)
    return base + ".manifest.jsonl"


def _write_outputs(config: ExperimentConfig, mode: str, header: str, rows, started: float,
                   workers: int, extra_records: tuple = ()) -> None:
    """Write a run's CSV and the manifest next to it, if the config names an output.

    The CSV is ``header``, then each row's ``as_csv()``.  The manifest
    (``manifest_path_for``) holds one JSON record per line: the config
    record, which names the ``mode``, the verb that ran ``config``; the
    versions; the timing record, with the wall time since ``started`` once
    the CSV is written, ``workers``, the threads of the block pool the run
    used, and the process's peak RSS so far in MiB (``ru_maxrss``, which
    Linux reports in KiB); then ``extra_records``.
    """
    if not config.output_path:
        return
    with open(config.output_path, "w", newline="") as fh:
        fh.write(header + "\n")
        fh.writelines(row.as_csv() + "\n" for row in rows)
    wall_seconds = time.monotonic() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(manifest_path_for(config.output_path), "w", newline="") as fh:
        for record in (
            _config_record(config, mode),
            _versions_record(),
            {"record": "timing", "wall_seconds": wall_seconds, "workers": workers,
             "peak_rss_mb": peak_rss_mb},
            *extra_records,
        ):
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def _require_single_point(config: ExperimentConfig, mode: str) -> None:
    """Raise ParameterError unless ``config`` names one (lambda, mu) point, as ``mode`` needs."""
    if len(config.arrival_rates) != 1 or len(config.service_rates) != 1:
        raise ParameterError(f"{mode} runs a single (lambda, mu) point")


class _Windows(NamedTuple):
    """``_Point.windows``: a point's trace sums, one row per time window."""

    cuts: np.ndarray  # AUD_BATCHES + 1: window w holds updates [cuts[w], cuts[w + 1])
    counts: np.ndarray  # its updates
    busy: np.ndarray  # those whose next update arrives before they depart
    products: np.ndarray  # the sum of each one's system time times the departure gap after it
    occupancy: np.ndarray  # the fractions of its time at levels 0..MAX_LEVEL
    sawtooth: np.ndarray  # the time average of the age over it


@dataclass(frozen=True)
class _Point:
    """What one simulated point measured: trace, seed, warm-up cut, time windows and samples.

    It holds no rates: the checks take the rates they judge the point
    against as an argument, so one point can meet several oracles.  The
    AUD_BATCHES windows between consecutive ``edges`` split the run from
    the warm-up's last departure, or the first departure, where the age path
    begins, if that is later, to the last departure.  A correlated mean is
    the total of its samples in the windows over their count, with the ratio
    CI of ``stats.ratio_ci`` over the windows' sums and counts, or the mean of
    per-window values: ``aud`` sums the decision ages, ``windows`` the trace.
    ``_simulate_point`` fills ``estimates``, then the K-S samples.
    """

    config: ExperimentConfig
    seed: int
    trace: UpdateTrace
    warm: int  # updates cut as warm-up
    warm_epoch: float  # departure of the last warm-up update, 0.0 without one
    edges: np.ndarray  # AUD_BATCHES + 1 window edges in time
    estimates: dict | None = None  # aud(nu) for each distinct configured nu, ascending
    lag: int = 0  # the full decorrelation_lag of the simulated utilization
    thinned: np.ndarray | None = None  # system times after the warm-up, every lag-th
    gaps: np.ndarray | None = None  # departure gaps after the warm-up

    def aud(self, nu: float) -> tuple[EstimateWithCI | None, dict]:
        """Mean age upon the decisions at rate ``nu`` in the windows, and their counts.

        A window takes the decisions in (its start, its end].  With under
        2 * AUD_BATCHES of them there is no estimate (None).  The rate's epoch
        column is drawn with a ``_with_margin`` of the epochs expected, and
        continued from its last epoch while that falls short of the horizon,
        in blocks of BLOCK_SIZE at multiples of BLOCK_SIZE.  Each block is one
        ``block_pool()`` task (``_block_sums``) that draws it into one of this
        call's ``worker_limit()`` arrays, lent to it while it runs: the tasks
        form a chain, each taking the last epoch of the block before it.  The
        caller adds each block's pieces to their windows' running sums in
        block order, the oldest block as soon as it is done, and waits on each
        round's last epoch before the next: the sums are the same bits at any
        thread count.  The arrays are freed when this returns.
        """
        edges, horizon = self.edges, self.trace.last_departure
        stream = SeededStream(self.seed, decision_stream_id(nu))
        pool, threads = block_pool(), worker_limit()
        # one array per pool thread, made here: arrays made and freed by each task
        # would pile up in the pool threads' own malloc arenas
        spare = [np.empty(BLOCK_SIZE) for _ in range(threads)]
        sums, counts = [0.0] * (len(edges) - 1), np.zeros(len(edges) - 1, dtype=np.intp)
        total, undefined = 0, 0
        blocks = collections.deque()  # submitted and not yet added, in block order

        def add_oldest() -> None:
            nonlocal total, undefined, counts
            block_total, block_undefined, block_counts, pieces = blocks.popleft().result()
            total += block_total
            undefined += block_undefined
            counts += block_counts
            for w, piece in pieces:
                sums[w] += piece

        carry = concurrent.futures.Future()
        carry.set_result(0.0)
        drawn, last = 0, 0.0
        while last <= horizon:
            end = drawn + _with_margin(nu * (horizon - last))
            cuts = [drawn, *range((drawn // BLOCK_SIZE + 1) * BLOCK_SIZE, end, BLOCK_SIZE), end]
            for a, b in zip(cuts[:-1], cuts[1:]):
                if len(blocks) == BLOCKS_AHEAD_PER_THREAD * threads:
                    add_oldest()
                carry, previous = concurrent.futures.Future(), carry
                blocks.append(pool.submit(self._block_sums, stream, nu, a, b - a, previous, carry,
                                          spare))
            drawn, last = end, carry.result()
        while blocks:
            add_oldest()
        estimated = int(counts.sum())
        est = (ratio_ci(sums, counts, self.config.confidence)
               if estimated >= 2 * AUD_BATCHES else None)
        return est, {
            "nu": nu,
            "total": total,
            "after_warmup": estimated,
            "undefined": undefined,
            "min_window_decisions": int(counts.min()),
        }

    def _block_sums(self, stream: SeededStream, nu: float, start: int, size: int,
                    carry: concurrent.futures.Future,
                    published: concurrent.futures.Future, spare: list) -> tuple:
        """One block of ``aud``'s epoch column, from its draw ``start`` on, as a pool task.

        The block's ``size`` epochs (``_block_epochs``), drawn into an array
        taken from ``spare`` and put back when done, wait on ``carry``, and
        their last epoch is set on ``published`` for the next block; a block
        that fails sets its error there instead, so the rest of the chain
        fails rather than waits.  Returns the block's decisions up to the
        horizon, those before the first departure, the counts in each window
        and its pieces: each the ``_age_sum`` of the block's part in one
        window, with that window's index, in order.
        """
        # ``aud`` lends one array per pool thread, and no more of its tasks run at once
        block = spare.pop()
        try:
            try:
                epochs = _block_epochs(stream, nu, start, block[:size], carry)
            except BaseException as exc:
                published.set_exception(exc)
                raise
            published.set_result(epochs[-1])
            trace = self.trace
            bounds = np.searchsorted(epochs, self.edges, side="right")
            counts = np.diff(bounds)
            pieces = [(w, _age_sum(trace, epochs[bounds[w]:bounds[w + 1]]))
                      for w in np.flatnonzero(counts).tolist()]
            # the last edge is the horizon, the last departure; decisions ahead of
            # the first departure have no age
            return (int(bounds[-1]),
                    int(np.searchsorted(epochs, trace.departure_times[0], side="left")),
                    counts, pieces)
        finally:
            spare.append(block)  # read or failed: the next task may draw into it

    @functools.cached_property
    def windows(self) -> _Windows:
        """The trace's sums per window that validation's checks read, built once, on first read.

        A window takes the updates but the last that depart in (its start,
        its end], and one call each of ``occupancy`` and ``sawtooth_mean`` on
        the trace: the pieces and order of addition of the whole run, from
        slices of the trace, so no temporary outgrows a window.  The
        occupancy columns stop at MAX_LEVEL, and a check keeps those it
        tests.  Only the checks read it, behind their floors, so the sweep
        and nu-invariance never build it.
        """
        trace, edges = self.trace, self.edges
        arr, dep = trace.arrival_times, trace.departure_times
        cuts = np.searchsorted(dep, edges, side="right")
        np.minimum(cuts, trace.n - 1, out=cuts)
        rows = []
        for a, b, i, j in zip(edges[:-1], edges[1:], cuts[:-1], cuts[1:]):
            # each temporary dies with its expression, before the next is built
            rows.append((np.count_nonzero(arrivals_seeing_busy(trace, i, j)),
                         ((dep[i + 1:j + 1] - dep[i:j]) * (dep[i:j] - arr[i:j])).sum(),
                         occupancy(trace, MAX_LEVEL, a, b), sawtooth_mean(trace, a, b)))
        return _Windows(cuts, np.diff(cuts), *map(np.array, zip(*rows)))


def _simulate_point(config: ExperimentConfig, grid_index: int, params: SystemParams,
                    columns: tuple | None = None) -> _Point:
    """Simulate one grid point and measure it once (see ``_Point``).

    Given ``columns``, the trace is written into them (``simulate``'s ``out``).
    """
    seed = derive_point_seed(config.seed, grid_index)
    trace = simulate(params, config.n_updates, seed, columns)
    nu = max(config.decision_rates)
    if nu * trace.last_departure > MAX_COLUMN:
        raise ParameterError(
            f"decision rate {nu!r} over the simulated horizon {trace.last_departure!r} draws "
            f"about {nu * trace.last_departure:.3g} decisions; the cap is {MAX_COLUMN} values "
            "per column")
    warm = default_warmup(trace.n)
    warm_epoch = float(trace.departure_times[warm - 1]) if warm >= 1 else 0.0
    edges = np.linspace(max(warm_epoch, float(trace.departure_times[0])), trace.last_departure,
                        AUD_BATCHES + 1)
    point = _Point(config, seed, trace, warm, warm_epoch, edges)
    # one rate's decision blocks at a time, then the K-S samples, outside that phase
    estimates = {rate: point.aud(rate) for rate in sorted(set(config.decision_rates))}
    return replace(point, estimates=estimates, **_ks_samples(point, params))


def _ks_samples(point: _Point, params: SystemParams) -> dict:
    """The ``decorrelation_lag`` of ``params``, the system times thinned at it, the departure gaps.

    Both samples start after the warm-up and hold at most KS_MAX_SAMPLES
    values.  They are taken from slices of the epoch columns, so no
    full-length column is built.
    """
    arr, dep, warm = point.trace.arrival_times, point.trace.departure_times, point.warm
    lag = decorrelation_lag(params.utilization)
    stop = warm + lag * KS_MAX_SAMPLES
    m = min(KS_MAX_SAMPLES, len(dep) - warm - 1)
    return {"lag": lag, "thinned": dep[warm:stop:lag] - arr[warm:stop:lag],
            "gaps": dep[warm + 1:warm + 1 + m] - dep[warm:warm + m]}


def _sizes(point: _Point) -> dict:
    """The manifest's ``sizes`` record of a point: its updates, warm-up, decisions and samples."""
    return {
        "record": "sizes",
        "n_updates": point.trace.n,
        "warmup_updates": point.warm,
        "warm_epoch": point.warm_epoch,
        "decisions": [point.estimates[nu][1] for nu in point.config.decision_rates],
        "window_length": float(point.edges[1] - point.edges[0]),
        "ks_system_time_samples": len(point.thinned),
        "ks_system_time_lag": point.lag,
        "ks_interdeparture_samples": len(point.gaps),
    }


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
    return [EstimateWithCI(a.mean - b.mean, math.hypot(a.half_width, b.half_width), a.confidence)
            for a, b in itertools.combinations(estimates, 2)]


def _point_rows(point: _Point, params: SystemParams) -> list[SweepRow]:
    """One row per configured decision rate of a point simulated at ``params``, in config order.

    A repeated rate reads the estimate the point holds for it.
    """
    lam, mu = params.arrival_rate, params.service_rate
    analytic_value = analytic.average_aud(params)
    ks_t_p = _ks_p_value(point.thinned, analytic.system_time_rate(params))
    ks_y_p = _ks_p_value(point.gaps, lam)
    rows = []
    for nu in point.config.decision_rates:
        est, counts = point.estimates[nu]
        rows.append(SweepRow(lam, mu, nu, analytic_value,
                             est.mean if est else None, est.half_width if est else None,
                             counts["total"], counts["undefined"], ks_t_p, ks_y_p, "ok"))
    return rows


def run_sweep(config: ExperimentConfig) -> tuple[SweepRow, ...]:
    """The rows, one per (grid point, decision rate) in grid order; CSV + manifest if configured.

    The points run one after another in grid order, and each draws and
    averages its decision epochs one rate at a time on the block pool, so a
    run holds one trace and a block of epochs per pool thread at any thread
    count.  Every point's trace is written into one pair of columns, reused
    once the point's rows are built.  A point that is not
    ``params.is_stable`` (utilization within ``queueing.STABILITY_GUARD`` of
    1 or above) has no closed form; it is not simulated and gets
    ``unstable`` rows.
    """
    started = time.monotonic()
    workers = worker_limit()
    rows = []
    columns = (np.empty(config.n_updates), np.empty(config.n_updates))
    for i, (lam, mu) in enumerate(itertools.product(config.arrival_rates, config.service_rates)):
        params = SystemParams(lam, mu)
        rows += (_point_rows(_simulate_point(config, i, params, columns), params)
                 if params.is_stable else
                 [SweepRow(lam, mu, nu, *[None] * 7, "unstable") for nu in config.decision_rates])
    _write_outputs(config, "sweep", SWEEP_CSV_HEADER, rows, started, workers)
    return tuple(rows)


@dataclass(frozen=True)
class NuInvarianceResult:
    rows: tuple  # the sweep rows of the point, one per configured decision rate
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
    params = SystemParams(config.arrival_rates[0], config.service_rates[0])
    analytic.require_stable(params)
    point = _simulate_point(config, 0, params)
    rows = tuple(_point_rows(point, params))
    estimates = {nu: est for nu, (est, _) in point.estimates.items() if est is not None}
    consistent, worst, z = None, math.nan, math.nan
    if len(estimates) >= 2:
        consistent, worst, _, z, _ = _within(_differences(estimates.values()), 0.0,
                                             1.0 - config.confidence)
    _write_outputs(config, "nu_invariance", SWEEP_CSV_HEADER, rows, started, workers,
                   (_sizes(point),))
    return NuInvarianceResult(rows, estimates, worst, z, consistent)


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
    checks: tuple

    @property
    def passed(self) -> bool:
        """No check failed; a skipped check counts as neither pass nor fail."""
        return all(check.passed or check.passed is None for check in self.checks)

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


def _batched(point: _Point) -> int:
    """The mean updates per window, rounded down, if window means are usable.

    That is the updates after the warm-up but the last over AUD_BATCHES; the
    windows ``_Point.windows`` cuts by time hold more or fewer each.

    They are near-independent once a window spans the decorrelation lag, and
    near-normal once it holds a few updates.
    """
    span, lag = (point.trace.n - 1 - point.warm) // AUD_BATCHES, point.lag
    _require(span >= lag, f"a window holds {span} updates; below the decorrelation lag {lag}")
    _require(span >= MIN_EXPECTED, f"a window holds {span} updates; below {MIN_EXPECTED}")
    return span


def _estimate(point: _Point, nu: float) -> EstimateWithCI:
    """The mean age at ``nu``, if it has an estimate and ``_batched`` windows."""
    est, counts = point.estimates[nu]
    _require(est is not None, f"{counts['after_warmup']} decisions after the warm-up at decision "
                              f"rate {nu}; an estimate needs {2 * AUD_BATCHES}")
    _batched(point)
    return est


def aud_mc_vs_theory(point: _Point, params: SystemParams, alpha: float) -> tuple:
    theory = analytic.average_aud(params)
    ests = {nu: _estimate(point, nu) for nu in point.config.decision_rates}
    return _within(ests.values(), theory, alpha, f"theory={theory:.6g}; rates={sorted(ests)}")


def aud_nu_invariance(point: _Point, params: SystemParams, alpha: float) -> tuple:
    by_rate = [_estimate(point, nu) for nu in point.estimates]
    return _within(_differences(by_rate), 0.0, alpha, "pairwise on the shared trace")


def ks_system_time(point: _Point, params: SystemParams, alpha: float) -> tuple:
    ks = ks_exponential(point.thinned, analytic.system_time_rate(params))
    return (ks.p_value >= alpha, ks.p_value, alpha, 0.0,
            f"n={ks.n}; D={ks.statistic:.6g}; lag={point.lag}")


def ks_interdeparture(point: _Point, params: SystemParams, alpha: float) -> tuple:
    ks = ks_exponential(point.gaps, params.arrival_rate)
    return ks.p_value >= alpha, ks.p_value, alpha, 0.0, f"n={ks.n}; D={ks.statistic:.6g}"


# The departure gaps are i.i.d. (the departures are Poisson, by Burke's theorem).
def interdeparture_mean(point: _Point, params: SystemParams, alpha: float) -> tuple:
    return _within([mean_ci(point.gaps, point.config.confidence)],
                   analytic.mean_interdeparture(params), alpha)


def interdeparture_second_moment(point: _Point, params: SystemParams, alpha: float) -> tuple:
    gaps = point.gaps
    _require(len(gaps) >= MIN_SQUARED_GAPS,
             f"{len(gaps)} departure gaps; the squared-gap mean needs {MIN_SQUARED_GAPS}")
    return _within([mean_ci(gaps**2, point.config.confidence)],
                   analytic.second_moment_interdeparture(params), alpha)


def queue_length_distribution(point: _Point, params: SystemParams, alpha: float) -> tuple:
    # Levels 0..k-1 and the tail >= k against the geometric law, k the first
    # of levels 0-MAX_LEVEL where the level or the tail after it expects fewer
    # than 5 arrivals per window: the normal law breaks down for rarer cells.
    # A level's fraction takes the same pieces whatever the top level counted.
    _batched(point)
    pi = analytic.stationary_queue_dist(params, MAX_LEVEL)
    expected = (params.arrival_rate * (point.edges[1] - point.edges[0])
                * np.minimum(pi, 1.0 - np.cumsum(pi)))
    k = int((expected >= MIN_EXPECTED).sum())  # expected falls with the level
    _require(k > 0, f"fewer than {MIN_EXPECTED} arrivals per window expected at occupancy "
                    "level 0")
    levels = point.windows.occupancy[:, :k]
    per_batch = np.column_stack((levels, 1.0 - levels.sum(axis=1)))
    return _within([mean_ci(level, point.config.confidence) for level in per_batch.T],
                   np.append(pi[:k], 1 - pi[:k].sum()), alpha, f"levels 0-{k - 1} and >= {k}")


def prob_busy_on_arrival(point: _Point, params: SystemParams, alpha: float) -> tuple:
    # one indicator per update after the warm-up but the last
    span = _batched(point)
    rho = analytic.prob_busy_on_arrival(params)
    expected = min(rho, 1.0 - rho) * span
    _require(expected >= MIN_EXPECTED,
             f"{expected:.3g} busy or idle arrivals expected per window; below {MIN_EXPECTED}")
    windows = point.windows
    return _within([ratio_ci(windows.busy, windows.counts, point.config.confidence)], rho, alpha)


def mgf_mixture_identity(point: _Point, params: SystemParams, alpha: float) -> tuple:
    # Busy/idle mixture must reassemble the plain rate transform, at s up to
    # 0.95 times the arrival rate, the smaller rate of a stable point.
    s_hi, rho = params.arrival_rate, params.utilization
    u = SeededStream(point.config.seed, 0xC0FFEE).uniform_open(10)
    worst_mgf = 0.0
    for s in map(float, -2.0 * s_hi + 2.95 * s_hi * u):
        mixed = (rho * analytic.interdeparture_mgf_given_busy_arrival(params, s)
                 + (1.0 - rho) * analytic.interdeparture_mgf_given_idle_arrival(params, s))
        direct = analytic.interdeparture_mgf(params, s)
        worst_mgf = max(worst_mgf, abs(mixed - direct) / abs(direct))
    return worst_mgf <= 1e-10, worst_mgf, 0.0, 1e-10


def cross_moment(point: _Point, params: SystemParams, alpha: float) -> tuple:
    # each departure gap after the warm-up times the system time before it
    _batched(point)
    theory = analytic.cross_moment_system_interdeparture(params)
    windows = point.windows
    est = ratio_ci(windows.products, windows.counts, point.config.confidence)
    return _within([est], theory, alpha, f"theory={theory:.6g}")


def aud_dual_path(point: _Point, params: SystemParams, alpha: float) -> tuple:
    # Two derivations of the average age must coincide across the stable region.
    u = SeededStream(point.config.seed, 0xD0A1).uniform_open(200).reshape(100, 2)
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
def shape_lambda_u_curve(point: _Point, params: SystemParams, alpha: float) -> tuple:
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


def shape_mu_decreasing(point: _Point, params: SystemParams, alpha: float) -> tuple:
    mu_grid = np.linspace(0.6, 3.0, 200)
    mu_curve = np.array([analytic.average_aud(SystemParams(0.5, m)) for m in mu_grid])
    return (bool((np.diff(mu_curve) < 0).all()), float(np.max(np.diff(mu_curve))), 0.0,
            0.0, "age strictly decreases with service rate")


def shape_divergence_asymmetry(point: _Point, params: SystemParams, alpha: float) -> tuple:
    try:
        service_starved = analytic.average_aud(SystemParams(0.5, 0.05))
    except StabilityError:
        service_starved = math.inf  # unstable: the age has no finite steady state
    arrival_starved = analytic.average_aud(SystemParams(0.05, 0.5))
    return (service_starved > arrival_starved, arrival_starved, service_starved, 0.0,
            "service starvation must dominate arrival starvation")


def pasta_time_average(point: _Point, params: SystemParams, alpha: float) -> tuple:
    # Poisson decisions sample the time average of the age path (PASTA).  The
    # median configured rate (the upper one of an even count) draws nothing extra.
    rates = list(point.estimates)
    aud = _estimate(point, rates[len(rates) // 2])  # its batch rule keeps the windows apart
    aoi = mean_ci(point.windows.sawtooth, point.config.confidence)
    return _within(_differences([aoi, aud]), 0.0, alpha, f"time-average age {aoi.mean:.6g}")


# Validation's checks in row order, each with whether it is exact: a closed-form
# identity or shape, which takes no share of 1 - confidence.  A check is a
# function of a point, the rates it is judged at and alpha, its share, named
# after its row.  It returns its verdict, observed, expected and tolerance values
# and detail, or raises InsufficientDataError (a skipped row) where its sample is
# below its estimator's floor.  The closed forms are evaluated at the rates the
# caller passes, so rates other than the simulated ones are a wrong oracle.
CHECKS = (
    (aud_mc_vs_theory, False), (aud_nu_invariance, False), (ks_system_time, False),
    (ks_interdeparture, False), (interdeparture_mean, False),
    (interdeparture_second_moment, False), (queue_length_distribution, False),
    (prob_busy_on_arrival, False), (mgf_mixture_identity, True), (cross_moment, False),
    (aud_dual_path, True), (shape_lambda_u_curve, True), (shape_mu_decreasing, True),
    (shape_divergence_asymmetry, True), (pasta_time_average, False),
)


def _validation_checks(point: _Point, params: SystemParams) -> list[CheckResult]:
    """The ``CHECKS`` rows of one simulated point judged at ``params``, in order.

    ``aud_nu_invariance`` needs two distinct decision rates.  alpha, fixed
    before the first check runs, splits 1 - confidence over the statistical ones.
    """
    checks = [(check, exact) for check, exact in CHECKS
              if check is not aud_nu_invariance or len(point.estimates) > 1]
    alpha = (1.0 - point.config.confidence) / sum(not exact for _, exact in checks)
    rows = []
    for check, _ in checks:
        try:
            passed, *rest = check(point, params, alpha)
        except InsufficientDataError as exc:
            passed, rest = None, (math.nan, math.nan, math.nan, str(exc))
        rows.append(CheckResult(check.__name__, None if passed is None else bool(passed), *rest))
    return rows


def run_validation(config: ExperimentConfig) -> ValidationReport:
    """Certify one simulated point against every closed-form oracle."""
    _require_single_point(config, "validate")
    started = time.monotonic()
    workers = worker_limit()
    params = SystemParams(config.arrival_rates[0], config.service_rates[0])
    analytic.require_stable(params)
    point = _simulate_point(config, 0, params)
    report = ValidationReport(tuple(_validation_checks(point, params)))
    _write_outputs(config, "validate", VALIDATION_CSV_HEADER, report.checks, started, workers,
                   (_sizes(point),))
    return report
