"""Event-driven simulation of a single-server FCFS queue with infinite buffer.

The simulator produces a complete per-update trace (arrival, service-start,
and departure epochs stored as columnar arrays); inter-arrival, waiting,
service, system, and inter-departure times are derived on demand.  The
work-conserving recursion

    service_start(k) = max(arrival(k), departure(k-1))

is evaluated in closed vector form: with C(k) the running sum of service
times, departure(k) = C(k) + max_{j<=k}(arrival(j) - C(j-1)).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    ARRIVAL_STREAM,
    SERVICE_STREAM,
    DistributionSpec,
    Exponential,
    SeededStream,
    sample_many,
)
from .errors import InsufficientDataError, ParameterError, StabilityError


@dataclass(frozen=True)
class SystemParams:
    """Rates of an update-and-decide system.

    Attributes:
        arrival_rate: update arrivals per unit time.
        service_rate: service completions per unit time while busy.
        decision_rate: receiver decisions per unit time.
    """

    arrival_rate: float
    service_rate: float
    decision_rate: float = 1.0

    def __post_init__(self):
        for name in ("arrival_rate", "service_rate", "decision_rate"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ParameterError(f"{name} must be positive and finite, got {value!r}")

    @property
    def utilization(self) -> float:
        return self.arrival_rate / self.service_rate

    @property
    def is_stable(self) -> bool:
        return self.utilization < 1.0


@dataclass(frozen=True)
class UpdateTrace:
    """Columnar per-update record of a FCFS single-server run.

    ``stationary`` is False when the trace was produced under an unstable
    configuration via the ``allow_unstable`` override; steady-state
    estimators must refuse such traces.
    """

    arrival_times: np.ndarray
    service_start_times: np.ndarray
    departure_times: np.ndarray
    stationary: bool = True

    def __post_init__(self):
        columns = {}
        for name in ("arrival_times", "service_start_times", "departure_times"):
            # read-only view: traces are shared across threads after construction
            col = np.asarray(getattr(self, name), dtype=float).view()
            col.flags.writeable = False
            object.__setattr__(self, name, col)
            columns[name] = col
        arr = columns["arrival_times"]
        start = columns["service_start_times"]
        dep = columns["departure_times"]
        n = len(arr)
        if n < 1 or len(start) != n or len(dep) != n:
            raise ParameterError("trace columns must be non-empty and equally long")
        if arr[0] < 0.0:
            raise ParameterError("first arrival epoch must be non-negative")
        # Epochs may tie: a gap below half an ulp of a long run's epoch rounds away.
        if n > 1 and not (np.diff(arr) >= 0.0).all():
            raise ParameterError("arrival epochs must be non-decreasing")
        if n > 1 and not (np.diff(dep) >= 0.0).all():
            raise ParameterError("departure epochs must be non-decreasing")
        if (start < arr).any() or (dep < start).any():
            raise ParameterError("each update needs arrival <= service start <= departure")

    def __len__(self) -> int:
        return len(self.arrival_times)

    @property
    def n(self) -> int:
        return len(self.arrival_times)

    @property
    def interarrival_times(self) -> np.ndarray:
        """Gaps between consecutive arrivals; the first entry is the first epoch."""
        return np.diff(self.arrival_times, prepend=0.0)

    @property
    def waiting_times(self) -> np.ndarray:
        return self.service_start_times - self.arrival_times

    @property
    def service_times(self) -> np.ndarray:
        return self.departure_times - self.service_start_times

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
    the system is empty.  Simultaneous events are ordered departure first,
    so the path never counts an update and its same-instant replacement
    twice.
    """

    epochs: np.ndarray
    lengths: np.ndarray

    def __len__(self) -> int:
        return len(self.epochs)


def _effective_utilization(arrival: DistributionSpec, service: DistributionSpec) -> float:
    return service.mean / arrival.mean


def simulate(
    params: SystemParams,
    n_updates: int,
    seed: int,
    *,
    arrival: DistributionSpec | None = None,
    service: DistributionSpec | None = None,
    allow_unstable: bool = False,
) -> UpdateTrace:
    """Simulate ``n_updates`` through a FCFS single-server queue.

    Arrival and service inter-event distributions default to exponentials at
    ``params.arrival_rate`` and ``params.service_rate`` (the M/M/1 case);
    pass explicit specs for G/G/1 runs.  Draws come from two independent
    streams keyed by ``seed``, so the trace is a deterministic function of
    (params, specs, n_updates, seed).

    Raises:
        StabilityError: utilization >= 1 and ``allow_unstable`` not set.
        ParameterError: invalid sizes, or an exponential spec whose rate
            contradicts ``params``.
    """
    if n_updates < 1:
        raise ParameterError(f"n_updates must be >= 1, got {n_updates}")
    if arrival is None:
        arrival = Exponential(params.arrival_rate)
    elif isinstance(arrival, Exponential) and not math.isclose(
        arrival.rate, params.arrival_rate, rel_tol=1e-9
    ):
        raise ParameterError("exponential arrival spec must match params.arrival_rate")
    if service is None:
        service = Exponential(params.service_rate)
    elif isinstance(service, Exponential) and not math.isclose(
        service.rate, params.service_rate, rel_tol=1e-9
    ):
        raise ParameterError("exponential service spec must match params.service_rate")

    stable = _effective_utilization(arrival, service) < 1.0
    if not stable and not allow_unstable:
        raise StabilityError(
            f"utilization {_effective_utilization(arrival, service):.6g} >= 1; "
            "pass allow_unstable=True to simulate anyway"
        )

    gaps = sample_many(arrival, SeededStream(seed, ARRIVAL_STREAM), n_updates)
    services = sample_many(service, SeededStream(seed, SERVICE_STREAM), n_updates)

    arrivals = np.cumsum(gaps)
    cum_service = np.cumsum(services)
    shifted = np.concatenate(([0.0], cum_service[:-1]))
    # start(k) = max(arrival(k), departure(k-1)) unrolls to
    # shifted_cum_service(k) + max_{j<=k}(arrival(j) - shifted_cum_service(j));
    # the outer maximum re-pins idle starts to the arrival epoch exactly.
    headroom = np.maximum.accumulate(arrivals - shifted)
    starts = np.maximum(arrivals, shifted + headroom)
    departures = starts + services
    return UpdateTrace(arrivals, starts, departures, stationary=stable)


def queue_length_process(trace: UpdateTrace) -> QueueLengthPath:
    """Number-in-system path implied by the trace's arrival/departure epochs."""
    n = trace.n
    times = np.concatenate([trace.arrival_times, trace.departure_times])
    delta = np.concatenate([np.ones(n, dtype=np.int64), -np.ones(n, dtype=np.int64)])
    # lexsort is stable: equal epochs keep departures (priority 0) ahead of arrivals
    priority = np.concatenate([np.ones(n, dtype=np.int8), np.zeros(n, dtype=np.int8)])
    order = np.lexsort((priority, times))
    lengths = np.cumsum(delta[order])
    return QueueLengthPath(times[order], lengths)


def locate_window_edges(breaks: np.ndarray, edges) -> tuple[np.ndarray, np.ndarray]:
    """Check window edges and count the sorted ``breaks`` at or before each edge.

    ``edges`` lists W + 1 strictly increasing epochs that bound the W
    adjacent windows [edges[w], edges[w + 1]].  Returns the edges as a float
    array and ``searchsorted(breaks, edges, side="right")``.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or len(edges) < 2:
        raise ParameterError("window edges must be a 1-D sequence of at least two epochs")
    increasing = edges[1:] > edges[:-1]
    if not increasing.all():
        w = int(np.argmin(increasing))
        raise ParameterError(f"need start < end, got window [{edges[w]}, {edges[w + 1]}]")
    return edges, np.searchsorted(breaks, edges, side="right")


def occupancy_fractions(path: QueueLengthPath, max_length: int, edges) -> np.ndarray:
    """Time-weighted fraction spent at each occupancy level 0..max_length, per window.

    ``edges`` bound adjacent windows [edges[w], edges[w + 1]]; a single
    window is ``[start, end]``.  Returns an array of shape
    (len(edges) - 1, max_length + 1).  Levels above ``max_length`` are not
    reported, so a row may sum to < 1.  The system is empty before the first
    event, and the last event's level holds after it.

    The windows are computed in one pass: the window edges are merged into
    the event epochs, every stretch between consecutive merged epochs is one
    piece of one window at one level, and ``np.bincount`` adds the piece
    durations per (window, level) in time order.  That is the order in which
    a window-by-window scan adds them, so each row is bit-identical to
    computing its window alone.
    """
    if max_length < 0:
        raise ParameterError(f"max_length must be >= 0, got {max_length}")
    edges, pos = locate_window_edges(path.epochs, edges)
    n_windows = len(edges) - 1
    bounds = np.insert(path.epochs[pos[0]:pos[-1]], pos - pos[0], edges)
    # window w has one piece from its start edge plus one per event inside it
    window = np.repeat(np.arange(n_windows), np.diff(pos) + 1)
    # the level of a piece is that after the events at or before its start
    levels = np.concatenate(([0], path.lengths))
    level = levels[np.arange(len(window)) - window + pos[0]]
    keep = level <= max_length
    totals = np.bincount(
        window[keep] * (max_length + 1) + level[keep],
        weights=np.diff(bounds)[keep],
        minlength=n_windows * (max_length + 1),
    )
    return totals.reshape(n_windows, max_length + 1) / np.diff(edges)[:, None]


def arrivals_seeing_busy(trace: UpdateTrace) -> np.ndarray:
    """Whether each update from the second on arrives before its predecessor departs."""
    if trace.n < 2:
        raise InsufficientDataError("need at least 2 updates to compare gaps with system times")
    return trace.interarrival_times[1:] < trace.system_times[:-1]


def empirical_prob_arrival_sees_busy(trace: UpdateTrace) -> float:
    """Fraction of updates (from the second on) arriving before their predecessor departs."""
    return float(np.mean(arrivals_seeing_busy(trace)))


def default_warmup(n_updates: int) -> int:
    """Updates to discard before steady-state estimation: max(1000, 1%), capped at half."""
    return min(max(1000, n_updates // 100), n_updates // 2)


def write_trace_csv(trace: UpdateTrace, path: str) -> None:
    """Export the trace as CSV with full-precision epochs, one row per update."""
    arr = trace.arrival_times.tolist()
    start = trace.service_start_times.tolist()
    dep = trace.departure_times.tolist()
    with open(path, "w", newline="") as fh:
        fh.write("k,t_arrival,t_service_start,t_depart\n")
        fh.writelines(
            f"{k + 1},{arr[k]!r},{start[k]!r},{dep[k]!r}\n" for k in range(trace.n)
        )
