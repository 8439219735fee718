"""Decision epochs and the age processes they sample.

A decision made at time tau acts on the freshest update already delivered,
so its age upon decision is tau minus that update's generation (arrival)
epoch.  Decisions falling before the first departure have no delivered
update to act on; they carry an undefined-age marker and are counted
separately rather than imputed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distributions import SeededStream, exponential_epochs
from .errors import InsufficientDataError, ParameterError, TruncationError
from .queueing import UpdateTrace, locate_window_edges


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

    The search is local to the epochs' span (``_generation_epochs``), so a
    call on a short run of epochs from a long trace costs O(len(times) +
    departures in the span), and any contiguous slice of epochs gets exactly
    the records of the same slice of a call on all of them.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if trace.n < 1:
        raise InsufficientDataError("empty trace")
    if not (times[1:] >= times[:-1]).all():
        raise ParameterError("decision epochs must be sorted")
    m = len(times)
    if m and times[-1] > trace.last_departure:
        raise TruncationError("decision epochs extend beyond the last departure")
    if m and times[0] <= 0.0:
        raise ParameterError("decision epochs must be positive")
    generation, k0, counts = _generation_epochs(trace, times)
    freshest = np.repeat(np.arange(k0 - 1, k0 - 1 + len(counts)), counts)
    return DecisionSet(times, freshest, generation, times - generation)


def _generation_epochs(
    trace: UpdateTrace, times: np.ndarray
) -> tuple[np.ndarray, int, np.ndarray]:
    """Generation epochs of the freshest delivered update at sorted ``times``.

    Only the departures in (times[0], times[-1]] take part.  Each of them
    starts a run of decisions that act on it, the decisions ahead of the
    first one act on the update that departed last at or before times[0],
    and the generation epochs are those runs' arrival epochs (NaN for
    decisions before the first departure).  Returns them with ``k0``, the
    number of departures at or before times[0], and the run lengths
    ``counts``: counts[0] decisions act on update k0 - 1 (on no update when
    k0 == 0), counts[j] on update k0 - 1 + j.

    The shorter side is searched into the longer one: the departures into
    the epochs, whose runs are then repeated out, or, when the epochs are
    fewer, the epochs into the departures, which gives each decision's run
    directly.  Both give the same values.
    """
    departures = trace.departure_times
    m = len(times)
    # departures[:k0] precede the span, departures[k0:k1] fall inside it
    k0, k1 = np.searchsorted(departures, times[[0, -1]], side="right") if m else (0, 0)
    arrivals = trace.arrival_times
    sources = np.concatenate(([np.nan], arrivals[:k1])) if k0 == 0 else arrivals[k0 - 1:k1]
    if m < k1 - k0:
        run = np.searchsorted(departures[k0:k1], times, side="right")
        return sources[run], int(k0), np.bincount(run, minlength=k1 - k0 + 1)
    counts = np.diff(
        np.searchsorted(times, departures[k0:k1], side="left"), prepend=0, append=m
    )
    return np.repeat(sources, counts), int(k0), counts


def _mean_age(trace: UpdateTrace, times: np.ndarray) -> np.float64:
    """Mean age upon decisions at sorted ``times`` in (first departure, last departure].

    Bit-identical to ``decisions_at(trace, times).ages.mean()``, without the
    record columns or the input checks.
    """
    ages, _, _ = _generation_epochs(trace, times)
    np.subtract(times, ages, out=ages)
    return ages.mean()


def _require_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ParameterError(f"{name} must be positive, got {value!r}")


def poisson_epochs(decision_rate: float, horizon: float, stream: SeededStream) -> np.ndarray:
    """Sorted Poisson epochs at ``decision_rate`` on (0, horizon].

    The gaps are drawn in one request sized ten standard deviations above
    the expected count, topped up request by request in the rare case that
    falls short, and the epochs past the horizon are cut off.  The draws
    consume ``stream`` as one sequential draw would (long requests run in
    counter blocks on the block pool), so the result is deterministic in
    (decision_rate, horizon, stream) and does not depend on the number of
    threads.  The result is a view of the drawn buffer: 8 bytes per epoch
    kept.
    """
    _require_positive("decision_rate", decision_rate)
    _require_positive("horizon", horizon)
    expected = decision_rate * horizon
    chunk = int(expected + 10.0 * math.sqrt(expected) + 16.0)
    epochs = exponential_epochs(stream, decision_rate, chunk)
    while epochs[-1] <= horizon:
        more = exponential_epochs(stream, decision_rate, chunk)
        epochs = np.concatenate([epochs, epochs[-1] + more])
    return epochs[: np.searchsorted(epochs, horizon, side="right")]


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

    def evaluate(self, t):
        """Age at time(s) t within the support; post-drop value at drop epochs."""
        t = np.asarray(t, dtype=float)
        lo, hi = self.support
        if (t < lo).any() or (t > hi).any():
            raise ParameterError(f"evaluation epoch outside path support [{lo:.6g}, {hi:.6g}]")
        idx = np.searchsorted(self.drop_epochs, t, side="right") - 1
        return self.drop_values[idx] + (t - self.drop_epochs[idx])

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


def aoi_path(trace: UpdateTrace) -> AoiPath:
    """Sawtooth age process of the trace: drops to the system time at each departure."""
    if trace.n < 1:
        raise InsufficientDataError("empty trace")
    return AoiPath(trace.departure_times, trace.system_times)


def time_average_aoi(path: AoiPath, edges) -> np.ndarray:
    """Exact time average of the sawtooth over each window, within its support.

    ``edges`` bound adjacent windows [edges[w], edges[w + 1]]; a single
    window is ``[start, end]``.  Returns one average per window.

    Each window's integral is ``np.sum`` over one term per sawtooth segment,
    zero for segments outside the window.  Adding only the window's own
    terms would change numpy's pairwise summation tree and move the last
    bits, so ``_padded_sum`` follows that tree over the window's terms.
    """
    lo, hi = path.support
    e, v = path.drop_epochs, path.drop_values
    edges, pos = locate_window_edges(e, edges)
    if edges[0] < lo or edges[-1] > hi:
        raise ParameterError(
            f"windows [{edges[0]}, {edges[-1]}] outside path support [{lo:.6g}, {hi:.6g}]"
        )
    integrals = np.empty(len(edges) - 1)
    for w, (start, end) in enumerate(zip(edges[:-1], edges[1:])):
        # segments [e[i], e[i + 1]] for a <= i < b are all that overlap the window
        a, b = pos[w] - 1, min(pos[w + 1], len(e) - 1)
        seg_lo = np.maximum(e[a:b], start)
        dur = np.clip(np.minimum(e[a + 1:b + 1], end) - seg_lo, 0.0, None)
        age_at_lo = v[a:b] + (seg_lo - e[a:b])
        integrals[w] = _padded_sum(dur * age_at_lo + 0.5 * dur * dur, a, len(e) - 1)
    return integrals / np.diff(edges)


# numpy sums at most this many values of a contiguous float64 array in one leaf.
_PAIRWISE_LEAF = 128


def _padded_sum(terms: np.ndarray, a: int, n: int) -> float:
    """``np.sum`` of ``n`` values that are ``terms`` at [a, a + len(terms)) and +0.0 elsewhere.

    numpy sums a contiguous float64 array with one pairwise tree: a node of
    more than _PAIRWISE_LEAF values splits at half its length, rounded down
    to a multiple of 8.  Every term is at least +0.0, so a node of padding
    adds exactly +0.0.  A node inside the terms is ``np.sum`` of its slice,
    and one across an edge of them splits further, down to a zero-padded
    leaf.  That is bit-identical to the padded sum in O(len(terms) + log n).
    """
    b = a + len(terms)

    def node(lo: int, size: int):
        hi = lo + size
        if hi <= a or b <= lo:
            return 0.0
        if a <= lo and hi <= b:
            return np.sum(terms[lo - a:hi - a])
        if size <= _PAIRWISE_LEAF:
            leaf = np.zeros(size)
            leaf[max(a, lo) - lo:min(b, hi) - lo] = terms[max(a, lo) - a:min(b, hi) - a]
            return np.sum(leaf)
        half = size // 2 - size // 2 % 8
        return node(lo, half) + node(lo + half, size - half)

    return node(0, n)
