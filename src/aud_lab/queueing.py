"""Event-driven simulation of the M/M/1 FCFS queue with infinite buffer.

The simulator produces a complete per-update trace: the arrival and
departure epochs as two columnar arrays, 16 bytes per update.  The
work-conserving recursion

    service_start(k) = max(arrival(k), departure(k-1))

fixes the service starts from those two columns, so they are derived on
demand, as are the inter-arrival, waiting, service, system and
inter-departure times.  The simulator evaluates the recursion in closed
vector form: with C(k) the running sum of service times,
departure(k) = C(k) + max_{j<=k}(arrival(j) - C(j-1)).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    ARRIVAL_STREAM,
    SERVICE_STREAM,
    SeededStream,
    exponential_epochs,
    exponential_gaps,
)
from .errors import InsufficientDataError, ParameterError, StabilityError

# ``simulate`` runs its Lindley scan over this many updates at a time.
SCAN_CHUNK = 2**16

# Utilizations this close to 1 count as unstable: the closed forms blow up
# there, and silent overflow would poison parameter sweeps.
STABILITY_GUARD = 1e-9


@dataclass(frozen=True)
class SystemParams:
    """Rates of the M/M/1 queue that the updates flow through.

    The average age upon decisions depends on these two rates only, so the
    decision rate is not one of them: a run takes it from its config, and
    ``decisions.poisson_epochs`` takes it as an argument.  ``is_stable`` is
    the one stability rule: utilization below 1 - STABILITY_GUARD, where
    the closed forms hold, and the only points ``simulate`` runs.

    Attributes:
        arrival_rate: update arrivals per unit time.
        service_rate: service completions per unit time while busy.
    """

    arrival_rate: float
    service_rate: float

    def __post_init__(self):
        for name in ("arrival_rate", "service_rate"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ParameterError(f"{name} must be positive and finite, got {value!r}")

    @property
    def utilization(self) -> float:
        return self.arrival_rate / self.service_rate

    @property
    def is_stable(self) -> bool:
        return self.utilization < 1.0 - STABILITY_GUARD


def require_stable(params: SystemParams) -> None:
    if not params.is_stable:
        raise StabilityError(f"utilization {params.utilization!r} is not safely below 1")


def _non_decreasing(epochs: np.ndarray) -> bool:
    """Whether every gap ``np.diff(epochs)`` is >= 0, without building the gaps.

    A gap fails on a NaN and on two equal infinities (inf - inf is NaN), and
    in a sorted column equal infinities can only sit at its two ends.
    """
    return bool((epochs[1:] >= epochs[:-1]).all()) and not (
        epochs[0] == epochs[1] == -np.inf or epochs[-2] == epochs[-1] == np.inf
    )


@dataclass(frozen=True)
class UpdateTrace:
    """Columnar per-update record of a FCFS single-server run.

    Only the arrival and departure epochs are stored.  The checks below
    (each update departs no earlier than it arrives, and both columns are
    non-decreasing) imply arrival <= service start <= departure.
    """

    arrival_times: np.ndarray
    departure_times: np.ndarray

    def __post_init__(self):
        for name in ("arrival_times", "departure_times"):
            # read-only view: traces are shared across threads after construction
            col = np.asarray(getattr(self, name), dtype=float).view()
            if len(col) and col[0] == 0.0:
                # A non-decreasing column holds zeros only at its start; +0.0
                # keeps the int64 keys of the decision lookup in the order of
                # the values (-0.0 has the sign bit set).
                col = col + 0.0
            col.flags.writeable = False
            object.__setattr__(self, name, col)
        arr, dep = self.arrival_times, self.departure_times
        n = len(arr)
        if n < 1 or len(dep) != n:
            raise ParameterError("trace columns must be non-empty and equally long")
        if arr[0] < 0.0:
            raise ParameterError("first arrival epoch must be non-negative")
        # Epochs may tie: a gap below half an ulp of a long run's epoch rounds away.
        if n > 1 and not _non_decreasing(arr):
            raise ParameterError("arrival epochs must be non-decreasing")
        if n > 1 and not _non_decreasing(dep):
            raise ParameterError("departure epochs must be non-decreasing")
        if not (dep >= arr).all():
            raise ParameterError("each update needs arrival <= departure")

    @property
    def n(self) -> int:
        return len(self.arrival_times)

    @property
    def service_start_times(self) -> np.ndarray:
        """FCFS service starts: the later of each arrival and the previous departure."""
        starts = self.arrival_times.copy()
        np.maximum(starts[1:], self.departure_times[:-1], out=starts[1:])
        return starts

    @property
    def waiting_times(self) -> np.ndarray:
        return self.service_start_times - self.arrival_times

    @property
    def system_times(self) -> np.ndarray:
        return self.departure_times - self.arrival_times

    @property
    def interdeparture_times(self) -> np.ndarray:
        """Gaps between consecutive departures (length n - 1, defined for k >= 2)."""
        return np.diff(self.departure_times)

    @property
    def last_departure(self) -> float:
        return float(self.departure_times[-1])


@dataclass(frozen=True)
class QueueLengthPath:
    """Piecewise-constant number-in-system path.

    ``lengths[i]`` holds on [epochs[i], epochs[i+1]); before the first epoch
    the system holds ``initial`` updates (none on a path of the whole run).
    Simultaneous events are ordered departure first, so an update and its
    same-instant replacement are not counted twice; but an update that
    departs at its own arrival epoch leaves before it arrives, and the
    zero-length piece between the two may show level -1.
    """

    epochs: np.ndarray
    lengths: np.ndarray
    initial: int = 0


def simulate(params: SystemParams, n_updates: int, seed: int,
             out: tuple[np.ndarray, np.ndarray] | None = None) -> UpdateTrace:
    """Simulate ``n_updates`` through the M/M/1 FCFS queue of ``params``.

    Inter-arrival and service times are exponential at
    ``params.arrival_rate`` and ``params.service_rate``, drawn from two
    independent streams keyed by ``seed``, so the trace is a deterministic
    function of (params, n_updates, seed).  Given ``out``, two float columns
    of ``n_updates`` each, the arrival and departure epochs are written into
    them and the trace views them: a caller that reuses the columns for its
    next trace must be done with this one.

    Raises:
        StabilityError: ``params`` is not stable (utilization within
            STABILITY_GUARD of 1 or above it), as for the closed forms.
        ParameterError: ``n_updates`` < 1, or ``out``'s columns are not that long.
    """
    if n_updates < 1:
        raise ParameterError(f"n_updates must be >= 1, got {n_updates}")
    require_stable(params)
    if out is not None and any(len(col) != n_updates for col in out):
        raise ParameterError(f"the columns to fill must hold {n_updates} values each")

    # The departures overwrite the service gaps in place, SCAN_CHUNK updates
    # at a time, so the scan holds the trace's two columns and two chunks.
    arrivals, services = (None, None) if out is None else out
    arrivals = exponential_epochs(SeededStream(seed, ARRIVAL_STREAM), params.arrival_rate,
                                  n_updates, out=arrivals)
    services = exponential_gaps(SeededStream(seed, SERVICE_STREAM), params.service_rate,
                                n_updates, out=services)
    # start(k) = max(arrival(k), departure(k-1)) unrolls to
    # shifted_cum_service(k) + max_{j<=k}(arrival(j) - shifted_cum_service(j));
    # the outer maximum re-pins idle starts to the arrival epoch exactly.
    # Across a seam the chunks carry the next shifted sum and the running
    # maximum; cumsum adds left to right, so every value is that of one scan.
    chunk = min(SCAN_CHUNK, n_updates)
    shifted_buf, starts_buf = np.empty(chunk), np.empty(chunk)
    carry, headroom = 0.0, -math.inf
    for a in range(0, n_updates, chunk):
        b = min(a + chunk, n_updates)
        shifted, starts, service = shifted_buf[:b - a], starts_buf[:b - a], services[a:b]
        shifted[0] = carry
        shifted[1:] = service[:-1]
        np.cumsum(shifted, out=shifted)
        carry = shifted[-1] + service[-1]
        np.subtract(arrivals[a:b], shifted, out=starts)
        starts[0] = max(starts[0], headroom)
        # fmax is faster than maximum and gives the same bits on input free of
        # NaN and -0.0.  The gaps are finite and positive and the headroom
        # starts at -inf, so the differences scanned here hold neither.
        np.fmax.accumulate(starts, out=starts)
        headroom = starts[-1]
        np.add(shifted, starts, out=starts)
        np.maximum(arrivals[a:b], starts, out=starts)
        np.add(starts, service, out=service)
    return UpdateTrace(arrivals, services)


def queue_length_process(
    trace: UpdateTrace, start: float = -math.inf, end: float = math.inf
) -> QueueLengthPath:
    """Number-in-system path implied by the trace's arrival/departure epochs.

    Only the events in (start, end] are merged, and the path starts from
    the level after the events at or before ``start``: the arrivals less
    the departures up to then.  By default that is the whole run.
    """
    arr, dep = trace.arrival_times, trace.departure_times
    a0, a1 = np.searchsorted(arr, (start, end), side="right")
    d0, d1 = np.searchsorted(dep, (start, end), side="right")
    na, nd = a1 - a0, d1 - d0
    times = np.concatenate([dep[d0:d1], arr[a0:a1]])
    delta = np.ones(nd + na, dtype=np.int64)
    delta[:nd] = -1
    # a stable sort keeps the departures, listed first, ahead of arrivals at equal epochs
    order = np.argsort(times, kind="stable")
    initial = int(a0 - d0)
    lengths = np.cumsum(delta[order])
    lengths += initial
    return QueueLengthPath(times[order], lengths, initial)


def occupancy_fractions(path: QueueLengthPath, max_length: int, start: float,
                        end: float) -> np.ndarray:
    """Time-weighted fraction of [start, end] spent at each occupancy level 0..max_length.

    Levels above ``max_length`` are not reported, so the fractions may sum
    to < 1.  The path's ``initial`` level holds before its first event, and
    the last event's level after it.  Every stretch between consecutive
    bounds (the window's edges and the events inside it) is one piece at one
    level, and ``np.bincount`` adds the piece durations per level in time
    order, the levels above ``max_length`` into one overflow bin that is
    dropped, and a level -1 (``QueueLengthPath``) into level 0: its piece adds
    +0.0.
    """
    if max_length < 0:
        raise ParameterError(f"max_length must be >= 0, got {max_length}")
    if not start < end:
        raise ParameterError(f"need start < end, got window [{start}, {end}]")
    i, j = np.searchsorted(path.epochs, (start, end), side="right")
    bounds = np.concatenate(([start], path.epochs[i:j], [end]))
    # the level of a piece is that after the events at or before its start
    levels = path.lengths[i - 1:j] if i else np.concatenate(([path.initial], path.lengths[:j]))
    totals = np.bincount(np.clip(levels, 0, max_length + 1), weights=np.diff(bounds),
                         minlength=max_length + 2)
    return totals[:max_length + 1] / (end - start)


def arrivals_seeing_busy(trace: UpdateTrace, start: int = 0,
                         stop: int | None = None) -> np.ndarray:
    """Whether update i + 1 arrives before update i departs, for i in [start, stop), or all i."""
    if trace.n < 2:
        raise InsufficientDataError("need at least 2 updates to compare gaps with system times")
    stop = trace.n - 1 if stop is None else stop
    arr, dep = trace.arrival_times[start:stop + 1], trace.departure_times[start:stop]
    return arr[1:] - arr[:-1] < dep - arr[:-1]


def default_warmup(n_updates: int) -> int:
    """Updates to discard before steady-state estimation: max(1000, 1%), capped at half."""
    return min(max(1000, n_updates // 100), n_updates // 2)
