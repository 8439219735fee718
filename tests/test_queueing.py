import heapq
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aud_lab import distributions, queueing
from aud_lab.distributions import ARRIVAL_STREAM, SERVICE_STREAM, SeededStream, exponential_gaps
from aud_lab.errors import InsufficientDataError, ParameterError, StabilityError
from aud_lab.queueing import (
    SystemParams,
    UpdateTrace,
    _non_decreasing,
    arrivals_seeing_busy,
    default_warmup,
    occupancy_fractions,
    queue_length_process,
    simulate,
)


def event_loop_oracle(interarrivals, services):
    """Brute-force discrete-event oracle: a heap of timed events, departures first.

    Independent of the engine's closed-form recursion; this is the obvious
    one-event-at-a-time implementation.
    """
    n = len(interarrivals)
    arrivals = np.cumsum(interarrivals)
    starts = np.empty(n)
    departures = np.empty(n)
    heap = [(arrivals[0], 1, "arrival", 0)]
    waiting: list[int] = []
    in_service = None
    next_arrival = 1
    while heap:
        t, _, kind, k = heapq.heappop(heap)
        if kind == "arrival":
            waiting.append(k)
            if next_arrival < n:
                heapq.heappush(heap, (arrivals[next_arrival], 1, "arrival", next_arrival))
                next_arrival += 1
        else:
            departures[in_service] = t
            in_service = None
        if in_service is None and waiting:
            in_service = waiting.pop(0)
            starts[in_service] = t if t > arrivals[in_service] else arrivals[in_service]
            # priority 0 puts departures ahead of same-instant arrivals
            heapq.heappush(heap, (starts[in_service] + services[in_service], 0, "departure", in_service))
    return arrivals, starts, departures


@pytest.mark.parametrize("lam,mu,seed", [(0.5, 1.0, 7), (0.8, 1.0, 8), (0.2, 0.7, 9)])
def test_engine_matches_event_loop_oracle(lam, mu, seed):
    n = 3000
    params = SystemParams(lam, mu)
    trace = simulate(params, n, seed)
    x = exponential_gaps(SeededStream(seed, 0), lam, n)
    s = exponential_gaps(SeededStream(seed, 1), mu, n)
    arr, starts, deps = event_loop_oracle(x, s)
    assert np.allclose(trace.arrival_times, arr, rtol=1e-12, atol=1e-9)
    assert np.allclose(trace.service_start_times, starts, rtol=1e-12, atol=1e-9)
    assert np.allclose(trace.departure_times, deps, rtol=1e-12, atol=1e-9)


def dd1_trace(n: int, gap: float) -> UpdateTrace:
    """D/D/1 run: an arrival every ``gap``, each served on arrival for one time unit."""
    arrivals = gap * np.arange(1, n + 1)
    return UpdateTrace(arrivals, arrivals + 1.0)


def test_dd1_queue_length_cycle():
    n = 100
    trace = dd1_trace(n, 2.0)
    path = queue_length_process(trace)
    assert set(np.unique(path.lengths)) == {0, 1}
    # whole cycles: busy exactly half the time
    fractions = occupancy_fractions(path, 1, 2.0, 2.0 * n)
    assert fractions[1] == pytest.approx(0.5, abs=1e-12)
    assert fractions[0] == pytest.approx(0.5, abs=1e-12)


def test_single_update_pulse():
    params = SystemParams(0.5, 1.0)
    trace = simulate(params, 1, 3)
    path = queue_length_process(trace)
    assert list(path.lengths) == [1, 0]
    width = trace.departure_times[0] - trace.arrival_times[0]
    fractions = occupancy_fractions(path, 1, 0.0, trace.last_departure)
    assert fractions[1] * trace.last_departure == pytest.approx(width, rel=1e-12)


def test_mean_system_time_matches_closed_form():
    # stationary mean system time is 1/(mu 1 - utilization)) = 2.0 here
    trace = simulate(SystemParams(0.5, 1.0), 1_000_000, 42)
    warm = default_warmup(trace.n)
    assert trace.system_times[warm:].mean() == pytest.approx(2.0, rel=0.01)


def test_mean_interdeparture_matches_arrival_rate():
    trace = simulate(SystemParams(0.5, 1.0), 1_000_000, 42)
    warm = default_warmup(trace.n)
    assert trace.interdeparture_times[warm:].mean() == pytest.approx(2.0, rel=0.01)


def test_empty_fraction_matches_geometric_head():
    trace = simulate(SystemParams(0.5, 1.0), 1_000_000, 43)
    path = queue_length_process(trace)
    warm_epoch = trace.departure_times[default_warmup(trace.n) - 1]
    fractions = occupancy_fractions(path, 0, warm_epoch, trace.last_departure)
    assert fractions[0] == pytest.approx(0.5, rel=0.01)


def test_busy_time_equals_total_service():
    trace = simulate(SystemParams(0.6, 1.0), 50_000, 5)
    path = queue_length_process(trace)
    end = trace.last_departure
    fractions = occupancy_fractions(path, 10_000, 0.0, end)
    idle = fractions[0] * end
    service = trace.departure_times - trace.service_start_times
    assert end - idle == pytest.approx(service.sum(), rel=1e-9)


@pytest.mark.parametrize("lam,expected", [(0.5, 0.5), (0.8, 0.8)])
def test_prob_arrival_sees_busy(lam, expected):
    trace = simulate(SystemParams(lam, 1.0), 1_000_000, 44)
    assert arrivals_seeing_busy(trace).mean() == pytest.approx(expected, abs=0.005)


def test_prob_arrival_sees_busy_dd1():
    assert arrivals_seeing_busy(dd1_trace(50, 2.0)).mean() == 0.0


def test_busy_indicator_is_the_gap_against_the_previous_system_time():
    trace = simulate(SystemParams(0.5, 1.0), 20_000, 3)
    reference = np.diff(trace.arrival_times) < trace.system_times[:-1]
    assert np.array_equal(arrivals_seeing_busy(trace), reference)
    # an index range gives the same entries as the slice of the whole column
    for start, stop in ((0, None), (0, 19_999), (1000, 1190), (19_998, 19_999), (7, 7)):
        got = arrivals_seeing_busy(trace, start, stop)
        assert np.array_equal(got, reference[start:stop])


def test_prob_busy_needs_two_updates():
    trace = simulate(SystemParams(0.5, 1.0), 1, 2)
    with pytest.raises(InsufficientDataError):
        arrivals_seeing_busy(trace)


def test_unstable_raises_without_override():
    with pytest.raises(StabilityError):
        simulate(SystemParams(1.2, 1.0), 100, 0)
    # and the guard band the closed forms refuse
    with pytest.raises(StabilityError, match="utilization 0.9999999999 is not safely below 1"):
        simulate(SystemParams(1 - 1e-10, 1.0), 10, 1)


def test_simultaneous_events_depart_before_arrive():
    # deterministic X = S = 1: every arrival coincides with the previous departure,
    # so the queue never holds two updates at once
    path = queue_length_process(dd1_trace(500, 1.0))
    assert path.lengths.max() == 1
    assert path.lengths.min() == 0


def test_lindley_recursion_holds():
    trace = simulate(SystemParams(0.7, 1.0), 20_000, 12)
    x = np.diff(trace.arrival_times)
    w = trace.waiting_times[1:]
    t_prev = trace.system_times[:-1]
    assert np.allclose(w, np.maximum(0.0, t_prev - x), rtol=1e-9, atol=1e-9)


def test_interdeparture_case_split():
    # gap equals service alone iff the update arrived while its predecessor
    # was still in the system; otherwise the idle stretch is added
    trace = simulate(SystemParams(0.5, 1.0), 20_000, 13)
    x = np.diff(trace.arrival_times)
    s = (trace.departure_times - trace.service_start_times)[1:]
    t_prev = trace.system_times[:-1]
    y = trace.interdeparture_times
    busy = x < t_prev
    assert np.allclose(y[busy], s[busy], rtol=1e-9, atol=1e-9)
    idle = ~busy
    assert np.allclose(y[idle], (x + s - t_prev)[idle], rtol=1e-9, atol=1e-9)


def test_trace_invariants_on_mm1():
    trace = simulate(SystemParams(0.9, 1.0), 10_000, 21)
    assert (np.diff(trace.arrival_times) > 0).all()
    assert (np.diff(trace.departure_times) > 0).all()
    assert (trace.departure_times >= trace.arrival_times).all()
    assert np.allclose(
        trace.system_times,
        trace.waiting_times + (trace.departure_times - trace.service_start_times),
        rtol=1e-12, atol=1e-12,
    )


def test_queue_length_path_closes_at_zero():
    trace = simulate(SystemParams(0.7, 1.0), 5000, 2)
    path = queue_length_process(trace)
    assert path.lengths.min() >= 0
    assert path.lengths[-1] == 0  # every update departs by the end


def test_default_warmup_rule():
    assert default_warmup(1_000_000) == 10_000
    assert default_warmup(50_000) == 1000
    assert default_warmup(100) == 50
    assert default_warmup(1) == 0


def test_crafted_trace_validation():
    with pytest.raises(ParameterError):
        UpdateTrace(np.array([1.0, 0.5]), np.array([2.0, 3.0]))
    with pytest.raises(ParameterError):
        simulate(SystemParams(0.5, 1.0), 0, 0)


def tied_arrivals():
    # updates 1 and 2 arrive together at 2.0
    return UpdateTrace(np.array([1.0, 2.0, 2.0, 5.0]), np.array([2.0, 3.0, 4.0, 6.0]))


def tied_departures():
    # update 1 has a zero service time and departs with update 0 at 2.0
    return UpdateTrace(np.array([1.0, 1.5, 4.0]), np.array([2.0, 2.0, 5.0]))


def test_trace_accepts_tied_epochs_and_rejects_decreasing_ones():
    assert list(np.diff(tied_arrivals().arrival_times, prepend=0.0)) == [1.0, 1.0, 0.0, 3.0]
    assert list(tied_departures().interdeparture_times) == [0.0, 3.0]
    # an update arriving with its predecessor finds the server busy
    assert list(arrivals_seeing_busy(tied_arrivals())) == [False, True, False]
    with pytest.raises(ParameterError, match="arrival epochs must be non-decreasing"):
        UpdateTrace(np.array([1.0, 0.5]), np.array([2.0, 3.0]))
    with pytest.raises(ParameterError, match="departure epochs must be non-decreasing"):
        UpdateTrace(np.array([1.0, 1.5]), np.array([2.0, 1.9]))
    with pytest.raises(ParameterError, match="arrival <= departure"):
        UpdateTrace(np.array([1.0, 2.0, 2.5]), np.array([2.0, 2.0, 2.4]))
    # the service starts follow from the two columns
    assert list(tied_arrivals().service_start_times) == [1.0, 2.0, 3.0, 5.0]
    assert list(tied_departures().service_start_times) == [1.0, 2.0, 4.0]


def test_queue_length_path_of_tied_epochs():
    # at a shared epoch departures come first, then the arrivals one by one
    path = queue_length_process(tied_arrivals())
    assert list(path.epochs) == [1.0, 2.0, 2.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    assert list(path.lengths) == [1, 0, 1, 2, 1, 0, 1, 0]
    path = queue_length_process(tied_departures())
    assert list(path.epochs) == [1.0, 1.5, 2.0, 2.0, 4.0, 5.0]
    assert list(path.lengths) == [1, 2, 1, 0, 1, 0]


def test_occupancy_of_tied_epochs():
    path = queue_length_process(tied_arrivals())
    assert occupancy_fractions(path, 2, 0.0, 2.0).tolist() == [0.5, 0.5, 0.0]
    assert occupancy_fractions(path, 2, 2.0, 6.0).tolist() == [0.25, 0.5, 0.25]
    got = occupancy_fractions(queue_length_process(tied_departures()), 2, 0.0, 5.0)
    assert got == pytest.approx([0.6, 0.3, 0.1], abs=1e-15)


def test_occupancy_of_a_zero_sojourn():
    # an idle update departing at its own arrival epoch leaves before it
    # arrives: the zero-length piece between shows level -1 and adds +0.0 to level 0
    path = queue_length_process(UpdateTrace([1.0, 2.0, 4.0], [1.0, 3.0, 5.0]))
    assert list(path.lengths) == [-1, 0, 1, 0, 1, 0]
    got = occupancy_fractions(path, 3, 0.5, 5.0)
    assert got.tolist() == [2.5 / 4.5, 2.0 / 4.5, 0.0, 0.0]


@given(seed=st.integers(0, 2**32), lam=st.floats(0.1, 0.9))
@settings(max_examples=25, deadline=None)
def test_engine_invariants_property(seed, lam):
    trace = simulate(SystemParams(lam, 1.0), 300, seed)
    assert (np.diff(trace.arrival_times) > 0).all()
    assert (np.diff(trace.departure_times) > 0).all()
    starts = trace.service_start_times
    assert (starts >= trace.arrival_times).all() and (starts <= trace.departure_times).all()
    # work conservation: start at the later of own arrival and predecessor departure
    expected_start = np.maximum(trace.arrival_times[1:], trace.departure_times[:-1])
    assert np.array_equal(starts[1:], expected_start)
    assert starts[0] == trace.arrival_times[0]


def occupancy_reference(path, max_length, start, end):
    """A scan of every piece of the whole path, clipped to the window."""
    lo = np.concatenate(([0.0], path.epochs))
    hi = np.concatenate((path.epochs, [end]))
    levels = np.concatenate(([0], path.lengths))
    durations = np.clip(np.minimum(hi, end) - np.maximum(lo, start), 0.0, None)
    out = np.zeros(max_length + 1)
    mask = levels <= max_length
    np.add.at(out, levels[mask], durations[mask])
    return out / (end - start)


def assert_occupancy_matches_reference(path, max_length, edges):
    for start, end in zip(edges[:-1], edges[1:]):
        got = occupancy_fractions(path, max_length, start, end)
        assert got.shape == (max_length + 1,)
        assert np.array_equal(got, occupancy_reference(path, max_length, start, end))


@pytest.mark.parametrize("seed", [42, 1009])
def test_batched_occupancy_is_bit_identical_to_window_scan(seed):
    trace = simulate(SystemParams(0.5, 1.0), 100_000, seed)
    warm_epoch = trace.departure_times[default_warmup(trace.n) - 1]
    edges = np.linspace(warm_epoch, trace.last_departure, 101)
    assert_occupancy_matches_reference(queue_length_process(trace), 10, edges)


def test_batched_occupancy_window_edge_cases():
    trace = simulate(SystemParams(0.7, 1.0), 2000, 8)
    path = queue_length_process(trace)
    epochs = path.epochs
    # edges exactly on event epochs
    assert_occupancy_matches_reference(path, 5, epochs[[3, 40, 41, 900, 2500]])
    # a window that starts before the first event, and one past the last event
    edges = [0.0, 0.5 * epochs[0], epochs[10], epochs[-1], epochs[-1] + 3.0]
    assert_occupancy_matches_reference(path, 5, edges)
    assert occupancy_fractions(path, 5, edges[0], edges[1]).tolist() == [1.0, 0, 0, 0, 0, 0]
    # a single window
    assert_occupancy_matches_reference(path, 5, [epochs[7] + 0.1, epochs[1500] - 0.1])


def test_batched_occupancy_edges_on_simultaneous_events():
    # every arrival coincides with the previous departure
    path = queue_length_process(dd1_trace(200, 1.0))
    assert_occupancy_matches_reference(path, 2, [1.0, 2.0, 3.0, 50.0, 50.5, 200.0])


def test_occupancy_rejects_bad_edges():
    path = queue_length_process(simulate(SystemParams(0.5, 1.0), 100, 1))
    for start, end in ((4.0, 4.0), (4.0, 1.0), (np.nan, 4.0), (1.0, np.nan)):
        with pytest.raises(ParameterError, match="need start < end"):
            occupancy_fractions(path, 3, start, end)
    with pytest.raises(ParameterError, match="max_length"):
        occupancy_fractions(path, -1, 1.0, 4.0)


def assert_windowed_occupancy_matches(trace, max_length, edges):
    # validate's windows: each one's path holds only the events inside it
    whole = queue_length_process(trace)
    for start, end in zip(edges[:-1], edges[1:]):
        windowed = queue_length_process(trace, start, end)
        assert np.array_equal(occupancy_fractions(windowed, max_length, start, end),
                              occupancy_fractions(whole, max_length, start, end))


@pytest.mark.parametrize("lam,seed", [(0.5, 42), (0.5, 1009), (0.9, 7)])
def test_windowed_occupancy_is_bit_identical_to_the_whole_path(lam, seed):
    trace = simulate(SystemParams(lam, 1.0), 100_000, seed)
    warm_epoch = trace.departure_times[default_warmup(trace.n) - 1]
    edges = np.linspace(warm_epoch, trace.last_departure, 101)
    for max_length in (0, 4, 10):
        assert_windowed_occupancy_matches(trace, max_length, edges)


def test_windowed_occupancy_of_tied_epochs():
    assert_windowed_occupancy_matches(tied_arrivals(), 2, [0.0, 2.0, 6.0])
    assert_windowed_occupancy_matches(tied_arrivals(), 3, [1.0, 2.0, 3.0, 5.5, 6.0])
    assert_windowed_occupancy_matches(tied_departures(), 2, [0.0, 5.0])
    assert_windowed_occupancy_matches(tied_departures(), 2, [1.0, 1.5, 2.0, 4.5, 5.0])


def test_windowed_occupancy_edge_cases():
    trace = simulate(SystemParams(0.7, 1.0), 2000, 8)
    epochs = queue_length_process(trace).epochs
    # edges on event epochs, including a window between two events
    assert_windowed_occupancy_matches(trace, 5, epochs[[3, 40, 41, 900, 2500]])
    # windows with no event: before the first event, within one gap, past the last
    gap = np.linspace(epochs[10], epochs[11], 6)
    edges = np.concatenate(([0.0, 0.5 * epochs[0]], gap, [epochs[-1], epochs[-1] + 3.0]))
    assert_windowed_occupancy_matches(trace, 5, edges)
    # every arrival coincides with the previous departure
    assert_windowed_occupancy_matches(dd1_trace(200, 1.0), 2, [1.0, 2.0, 3.0, 50.0, 50.5, 200.0])


def masked_occupancy(path, max_length, start, end):
    """``occupancy_fractions`` as a mask of the levels up to ``max_length`` computed it."""
    i, j = np.searchsorted(path.epochs, (start, end), side="right")
    bounds = np.concatenate(([start], path.epochs[i:j], [end]))
    levels = path.lengths[i - 1:j] if i else np.concatenate(([path.initial], path.lengths[:j]))
    keep = levels <= max_length
    totals = np.bincount(levels[keep], weights=np.diff(bounds)[keep], minlength=max_length + 1)
    return totals / (end - start)


@pytest.mark.parametrize("lam,seed", [(0.5, 42), (0.9, 7)])
def test_overflow_bin_occupancy_is_bit_identical_to_the_masked_form(lam, seed):
    # at rho = 0.9 most windows reach levels far above each max_length, and
    # many start above it, so the overflow bin takes pieces in every window
    trace = simulate(SystemParams(lam, 1.0), 100_000, seed)
    edges = np.linspace(trace.departure_times[default_warmup(trace.n) - 1],
                        trace.last_departure, 101)
    overflowed = 0
    for start, end in zip(edges[:-1], edges[1:]):
        path = queue_length_process(trace, start, end)
        overflowed += int(path.initial > 3)
        for max_length in (0, 3, 10):
            got = occupancy_fractions(path, max_length, start, end)
            assert got.tobytes() == masked_occupancy(path, max_length, start, end).tobytes()
    assert overflowed > 0


def test_queue_length_path_of_a_window_starts_from_its_level():
    # (2, 4] of the tied arrivals: three updates arrived and one departed by 2.0
    path = queue_length_process(tied_arrivals(), 2.0, 4.0)
    assert (path.initial, list(path.epochs), list(path.lengths)) == (2, [3.0, 4.0], [1, 0])
    path = queue_length_process(tied_departures(), 1.5, 2.0)
    assert (path.initial, list(path.epochs), list(path.lengths)) == (2, [2.0, 2.0], [1, 0])
    empty = queue_length_process(tied_departures(), 2.5, 3.5)
    assert (empty.initial, len(empty.epochs)) == (0, 0)
    assert occupancy_fractions(empty, 1, 2.5, 3.5).tolist() == [1.0, 0.0]
    whole = queue_length_process(tied_arrivals())
    assert whole.initial == 0 and len(whole.epochs) == 8


@pytest.mark.parametrize("epochs", [
    [1.0, 2.0], [2.0, 1.0], [1.0, 1.0], [0.0, -0.0], [-0.0, 0.0],
    [np.nan, 1.0], [1.0, np.nan], [0.0, 1.0, np.nan, 2.0], [np.nan, np.nan],
    [np.inf, np.inf], [-np.inf, -np.inf], [-np.inf, np.inf], [np.inf, -np.inf],
    [1.0, np.inf], [np.inf, 1.0], [-np.inf, 1.0], [1.0, -np.inf],
    [1.0, np.inf, np.inf], [-np.inf, -np.inf, 0.0], [-np.inf, 0.0, np.inf],
    [-np.inf, 0.0, 0.0, np.inf, np.inf], [0.0, 0.0, 0.0],
])
def test_order_check_gives_the_verdict_of_the_gaps(epochs):
    epochs = np.array(epochs)
    with np.errstate(invalid="ignore"):
        expected = bool((np.diff(epochs) >= 0.0).all())
    assert _non_decreasing(epochs) is expected


@given(st.lists(st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 0.5, 1.0, np.inf, np.nan]),
                min_size=2, max_size=6))
@settings(max_examples=200, deadline=None)
def test_order_check_property(values):
    epochs = np.array(values)
    with np.errstate(invalid="ignore"):
        expected = bool((np.diff(epochs) >= 0.0).all())
    assert _non_decreasing(epochs) is expected


def simulate_reference(lam, mu, n, seed):
    """The column arithmetic of ``simulate`` before it worked in place: arrivals, departures."""
    gaps = -np.log(SeededStream(seed, ARRIVAL_STREAM).uniform_open(n)) / lam
    services = -np.log(SeededStream(seed, SERVICE_STREAM).uniform_open(n)) / mu
    arrivals = np.cumsum(gaps)
    cum_service = np.cumsum(services)
    shifted = np.concatenate(([0.0], cum_service[:-1]))
    headroom = np.maximum.accumulate(arrivals - shifted)
    starts = np.maximum(arrivals, shifted + headroom)
    return arrivals, starts + services


@pytest.mark.parametrize("block", [None, 4096])
def test_simulate_in_place_is_bit_identical_to_the_reference(block, monkeypatch):
    if block:  # long draws then take the block path
        monkeypatch.setattr(distributions, "BLOCK_SIZE", block)
    for chunk in (queueing.SCAN_CHUNK, 64):
        monkeypatch.setattr(queueing, "SCAN_CHUNK", chunk)
        for lam, mu in ((0.5, 1.0), (0.93, 1.0), (0.3, 0.7)):
            # one update, the chunk less one, exactly one, one more, and several chunks
            for n, seed in ((1, 3), (2, 4), (5, 5), (chunk - 1, 6), (chunk, 7),
                            (chunk + 1, 8), (5 * chunk + 17, 9), (20_000, 10)):
                trace = simulate(SystemParams(lam, mu), n, seed)
                got = (trace.arrival_times, trace.departure_times)
                expected = simulate_reference(lam, mu, n, seed)
                assert all(np.array_equal(a, b) for a, b in zip(got, expected))


def test_lindley_scan_with_fmax_keeps_the_departures_of_maximum():
    # simulate scans with np.fmax.accumulate; the reference uses np.maximum.accumulate
    chunk = queueing.SCAN_CHUNK
    for lam in (0.5, 0.95):
        for n in (chunk - 1, chunk + 1, 3 * chunk + 5):
            for seed in (1, 2, 3):
                trace = simulate(SystemParams(lam, 1.0), n, seed)
                _, departures = simulate_reference(lam, 1.0, n, seed)
                assert np.array_equal(trace.departure_times, departures)


def queue_length_reference(trace):
    """The lexsort merge ``queue_length_process`` replaced: departures first at equal epochs."""
    arr, dep = trace.arrival_times, trace.departure_times
    times = np.concatenate([arr, dep])
    delta = np.concatenate([np.ones(len(arr), dtype=np.int64), -np.ones(len(dep), dtype=np.int64)])
    priority = np.concatenate([np.ones(len(arr), dtype=np.int8), np.zeros(len(dep), dtype=np.int8)])
    order = np.lexsort((priority, times))
    return times[order], np.cumsum(delta[order])


def test_stable_merge_matches_the_lexsort_merge_on_tied_epochs():
    # arrivals tie with each other and with departures, and departures tie
    ties = UpdateTrace(np.array([1.0, 2.0, 2.0, 3.0, 4.0, 4.0, 6.0]),
                       np.array([2.0, 3.0, 4.0, 4.0, 5.0, 6.0, 7.0]))
    for trace in (ties, tied_arrivals(), tied_departures(), dd1_trace(50, 1.0),
                  simulate(SystemParams(0.9, 1.0), 5000, 4)):
        path = queue_length_process(trace)
        epochs, lengths = queue_length_reference(trace)
        assert np.array_equal(path.epochs, epochs) and np.array_equal(path.lengths, lengths)
    path = queue_length_process(ties)
    assert list(path.epochs) == [1, 2, 2, 2, 3, 3, 4, 4, 4, 4, 5, 6, 6, 7]
    assert list(path.lengths) == [1, 0, 1, 2, 1, 2, 1, 0, 1, 2, 1, 0, 1, 0]


def test_simulated_trace_holds_16_bytes_per_update():
    n = 100_000
    trace = simulate(SystemParams(0.5, 1.0), n, 3)
    assert trace.arrival_times.nbytes + trace.departure_times.nbytes == 16 * n
    n = 2**20
    simulate(SystemParams(0.5, 1.0), n, 3)  # start the block pool's threads
    tracemalloc.start()
    try:
        simulate(SystemParams(0.5, 1.0), n, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the two columns, two chunks of the scan and the trace's order checks
    assert peak < 16 * n + 3 * 2**20


def test_simulate_fills_caller_owned_columns():
    # the same trace, written into the caller's columns and viewing them; a
    # second trace into the same columns overwrites the first
    params = SystemParams(0.5, 1.0)
    columns = (np.empty(5000), np.empty(5000))
    for seed in (3, 4):
        trace = simulate(params, 5000, seed, columns)
        want = simulate(params, 5000, seed)
        for got, col, ref in zip((trace.arrival_times, trace.departure_times), columns,
                                 (want.arrival_times, want.departure_times)):
            assert np.shares_memory(got, col) and np.array_equal(got, ref)
    with pytest.raises(ParameterError, match="5001 values each"):
        simulate(params, 5001, 3, columns)


def test_sample_many_keeps_from_uniform_pure(monkeypatch):
    # a gap draw transforms only its own buffer: uniforms drawn earlier stay as
    # they were, each gap is -log(U) / rate of them, and the stream ends where
    # one uniform draw of the same length leaves it; drawn in one block and in
    # several
    for block in (distributions.BLOCK_SIZE, 256):
        monkeypatch.setattr(distributions, "BLOCK_SIZE", block)
        u = SeededStream(4, 0).uniform_open(1000)
        kept = u.copy()
        stream = SeededStream(4, 0)
        gaps = exponential_gaps(stream, 0.3, 1000)
        assert np.array_equal(u, kept)
        assert np.array_equal(gaps, -np.log(kept) / 0.3)
        plain = SeededStream(4, 0)
        plain.uniform_open(1000)
        assert np.array_equal(stream.uniform_open(10), plain.uniform_open(10))
