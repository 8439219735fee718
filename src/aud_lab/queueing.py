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


def _require_window(trace: UpdateTrace, start: float, end: float) -> None:
    """Raise ParameterError unless first departure <= start < end <= last departure."""
    lo, hi = float(trace.departure_times[0]), trace.last_departure
    if not lo <= start < end <= hi:
        raise ParameterError(f"window [{start}, {end}] is not an interval within the "
                             f"trace's span [{lo:.6g}, {hi:.6g}]")


def occupancy(trace: UpdateTrace, max_level: int, start: float, end: float) -> np.ndarray:
    """Time-weighted fraction of [start, end] spent at each number in system 0..max_level.

    The window lies within [first departure, last departure].  Its path
    starts from the level left by the events at or before ``start`` (the
    arrivals less the departures up to then), and only the events in
    (start, end] are merged: a stable sort keeps the departures ahead of the
    arrivals at equal epochs, so an update and its same-instant replacement
    are not counted twice.  Every stretch between consecutive bounds (the
    window's edges and the events inside it) is one piece at one level, and
    ``np.bincount`` adds the piece durations per level in time order, the
    levels above ``max_level`` into one overflow bin that is dropped, so the
    fractions may sum to < 1.  An update that departs at its own arrival
    epoch leaves before it arrives; the zero-length piece between the two
    shows level -1 and adds +0.0 to level 0.
    """
    if max_level < 0:
        raise ParameterError(f"max_level must be >= 0, got {max_level}")
    _require_window(trace, start, end)
    arr, dep = trace.arrival_times, trace.departure_times
    a0, a1 = np.searchsorted(arr, (start, end), side="right")
    d0, d1 = np.searchsorted(dep, (start, end), side="right")
    times = np.concatenate([dep[d0:d1], arr[a0:a1]])
    order = np.argsort(times, kind="stable")
    bounds = np.concatenate(([start], times[order], [end]))
    # the level of a piece is that after the events at or before its start:
    # each departure, listed first, steps it down and each arrival up
    levels = np.cumsum(np.concatenate(([a0 - d0], np.where(order < d1 - d0, -1, 1))))
    np.clip(levels, 0, max_level + 1, out=levels)  # in place: one window-long array fewer
    totals = np.bincount(levels, weights=np.diff(bounds), minlength=max_level + 2)
    return totals[:max_level + 1] / (end - start)


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
