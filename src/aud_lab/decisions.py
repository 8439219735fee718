"""Decision epochs and the age processes they sample.

A decision made at time tau acts on the freshest update already delivered,
so its age upon decision is tau minus that update's generation (arrival)
epoch.  Decisions falling before the first departure have no delivered
update to act on; they carry an undefined-age marker and are counted
separately rather than imputed.  ``poisson_epochs`` draws a rate's epochs as
one column, ``experiments._Point.aud`` block by block into one array per
pool thread, held for the call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distributions import SeededStream, _require_positive, exponential_epochs
from .errors import ParameterError, TruncationError
from .queueing import UpdateTrace


class DecisionRecord(NamedTuple):
    """One decision: epoch, freshest delivered update, its generation epoch, age."""

    time: float
    freshest_index: int  # 0-based index into the trace; -1 when undefined
    generation_time: float  # NaN when undefined
    age: float  # NaN when undefined


@dataclass(frozen=True)
class DecisionSet:
    """Columnar sequence of decision records over one trace."""

    times: np.ndarray
    freshest_index: np.ndarray
    generation_times: np.ndarray
    ages: np.ndarray

    def __post_init__(self):
        if not (
            len(self.times)
            == len(self.freshest_index)
            == len(self.generation_times)
            == len(self.ages)
        ):
            raise ParameterError("decision columns must be equally long")

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, j: int) -> DecisionRecord:
        return DecisionRecord(
            float(self.times[j]),
            int(self.freshest_index[j]),
            float(self.generation_times[j]),
            float(self.ages[j]),
        )

    @property
    def defined(self) -> np.ndarray:
        return self.freshest_index >= 0

    @property
    def defined_ages(self) -> np.ndarray:
        return self.ages[self.defined]

    @property
    def n_undefined(self) -> int:
        return int((~self.defined).sum())


def decisions_at(trace: UpdateTrace, times) -> DecisionSet:
    """Evaluate decision records at explicit epochs.

    The epochs must be sorted (non-decreasing); unsorted input raises
    ParameterError.  Epochs beyond the last departure cannot certify the
    freshest update and raise TruncationError.  Epochs before the first
    departure yield records with the undefined-age marker.  A decision at a
    departure epoch acts on the update departing then.

    Each epoch is searched into the departures, so a call costs
    O(len(times) * log(trace.n)), and any contiguous slice of epochs gets
    exactly the records of the same slice of a call on all of them.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if not (times[1:] >= times[:-1]).all():
        raise ParameterError("decision epochs must be sorted")
    m = len(times)
    if m and times[-1] > trace.last_departure:
        raise TruncationError("decision epochs extend beyond the last departure")
    if m and not times[0] > 0.0:
        raise ParameterError("decision epochs must be positive")
    freshest = np.searchsorted(trace.departure_times, times, side="right") - 1
    generation = np.where(freshest >= 0, trace.arrival_times[freshest], np.nan)
    return DecisionSet(times, freshest, generation, times - generation)


def _age_sum(trace: UpdateTrace, times: np.ndarray) -> float:
    """Sum of the ages upon decisions at sorted ``times`` in [first departure, last departure].

    With c_j the decisions that act on update j, that is sum(times) -
    sum_j c_j * arrival_j, with no per-decision column.  Only the k
    departures in (times[0], times[-1]] take part: searched into the
    epochs, they cut the decisions into the k + 1 runs that act on updates
    k0 - 1 to k0 + k - 1.  Where the m epochs are fewer than k, the epochs
    are searched into those departures instead, for the same counts in
    m * log(k).  The searches compare int64 views, which sort as
    the doubles do only where no value is negative, NaN or -0.0: the
    departures are non-negative with no -0.0 (``UpdateTrace``), and the
    epochs positive.
    """
    m = len(times)
    if not m:
        return 0.0
    departures, keys = trace.departure_times.view(np.int64), times.view(np.int64)
    # departures[:k0] precede the span, departures[k0:k1] fall inside it
    k0, k1 = np.searchsorted(departures, keys[[0, -1]], side="right")
    if m < k1 - k0:
        # a decision after i of the span's departures acts on update k0 - 1 + i
        counts = np.bincount(np.searchsorted(departures[k0:k1], keys, side="right"),
                             minlength=k1 - k0 + 1)
    else:
        # first[i]: the first decision at or after departure k0 + i
        first = np.searchsorted(keys, departures[k0:k1], side="left")
        counts = np.empty(k1 - k0 + 1, dtype=np.intp)
        counts[:-1] = first
        counts[-1] = m
        np.subtract(counts[1:], first, out=counts[1:])
    # np.multiply, not a dot product: BLAS threads would contend with the pool's
    return float(times.sum() - np.multiply(counts, trace.arrival_times[k0 - 1:k1]).sum())


# A draw of decision epochs takes this many standard deviations more than it expects to need.
MARGIN_SDS = 10.0


def _with_margin(expected: float) -> int:
    """Epochs to draw where ``expected`` are expected: MARGIN_SDS standard deviations more."""
    return int(expected + MARGIN_SDS * math.sqrt(expected) + 16.0)


def poisson_epochs(decision_rate: float, horizon: float, stream: SeededStream) -> np.ndarray:
    """Sorted Poisson epochs at ``decision_rate`` on (0, horizon].

    One draw of the epochs expected with a margin of MARGIN_SDS standard
    deviations, continued from its last epoch while that falls short of
    ``horizon``, is trimmed by a slice: the result holds one column and its
    margin.  Continuing the running sum keeps the epochs one ``np.cumsum`` of
    one sequential draw, bit for bit.
    """
    _require_positive("decision_rate", decision_rate)
    _require_positive("horizon", horizon)
    epochs = exponential_epochs(stream, decision_rate, _with_margin(decision_rate * horizon))
    while epochs[-1] <= horizon:
        rest = _with_margin(decision_rate * (horizon - epochs[-1]))
        epochs = np.concatenate((epochs, exponential_epochs(stream, decision_rate, rest,
                                                            epochs[-1])))
    return epochs[:np.searchsorted(epochs, horizon, side="right")]


@dataclass(frozen=True)
class AoiPath:
    """Age-of-information sawtooth: slope-1 growth, resetting at each departure.

    Stored compactly as the drop epochs (departures) and the post-drop ages
    (system times); the path is defined on [first drop, last drop].
    """

    drop_epochs: np.ndarray
    drop_values: np.ndarray

    @property
    def support(self) -> tuple[float, float]:
        return float(self.drop_epochs[0]), float(self.drop_epochs[-1])

    def vertices(self) -> np.ndarray:
        """Explicit (epoch, age) polyline, two vertices per interior drop."""
        e, v = self.drop_epochs, self.drop_values
        pre_ages = v[:-1] + np.diff(e)
        out = np.empty((2 * len(e) - 1, 2))
        out[0] = (e[0], v[0])
        out[1::2, 0] = e[1:]
        out[1::2, 1] = pre_ages
        out[2::2, 0] = e[1:]
        out[2::2, 1] = v[1:]
        return out


def aoi_path(trace: UpdateTrace, start: float | None = None, end: float | None = None) -> AoiPath:
    """Sawtooth age process of the trace: drops to the system time at each departure.

    Given a window [start, end] within the trace's span, it holds only the
    segments that overlap the window, from slices of the trace: no
    full-length column, and ``time_average_aoi`` over the window takes the
    same terms as on the whole path.
    """
    dep, arr = trace.departure_times, trace.arrival_times
    if start is not None:
        a, b = np.searchsorted(dep, (start, end), side="right")
        window = slice(max(a - 1, 0), min(b, trace.n - 1) + 1)
        dep, arr = dep[window], arr[window]
    return AoiPath(dep, dep - arr)


def time_average_aoi(path: AoiPath, start: float, end: float) -> float:
    """Exact time average of the sawtooth over [start, end], within its support.

    The integral is ``np.sum`` over one term per sawtooth segment that
    overlaps the window.
    """
    lo, hi = path.support
    if not start < end:
        raise ParameterError(f"need start < end, got window [{start}, {end}]")
    if start < lo or end > hi:
        raise ParameterError(
            f"window [{start}, {end}] outside path support [{lo:.6g}, {hi:.6g}]"
        )
    e, v = path.drop_epochs, path.drop_values
    # segments [e[i], e[i + 1]] for a <= i < b are all that overlap the window
    a, b = np.searchsorted(e, (start, end), side="right")
    a, b = a - 1, min(b, len(e) - 1)
    seg_lo = np.maximum(e[a:b], start)
    dur = np.clip(np.minimum(e[a + 1:b + 1], end) - seg_lo, 0.0, None)
    age_at_lo = v[a:b] + (seg_lo - e[a:b])
    return float(np.sum(dur * age_at_lo + 0.5 * dur * dur) / (end - start))

