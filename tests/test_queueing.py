import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aud_lab.distributions import Deterministic, Exponential, SeededStream, Uniform, sample_many
from aud_lab.errors import InsufficientDataError, ParameterError, StabilityError
from aud_lab.queueing import (
    SystemParams,
    UpdateTrace,
    arrivals_seeing_busy,
    default_warmup,
    empirical_prob_arrival_sees_busy,
    occupancy_fractions,
    queue_length_process,
    simulate,
    write_trace_csv,
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
    x = sample_many(Exponential(lam), SeededStream(seed, 0), n)
    s = sample_many(Exponential(mu), SeededStream(seed, 1), n)
    arr, starts, deps = event_loop_oracle(x, s)
    assert np.allclose(trace.arrival_times, arr, rtol=1e-12, atol=1e-9)
    assert np.allclose(trace.service_start_times, starts, rtol=1e-12, atol=1e-9)
    assert np.allclose(trace.departure_times, deps, rtol=1e-12, atol=1e-9)


def test_dd1_never_queues():
    # deterministic arrivals every 2, service 1: no waiting, system time 1, gap 2
    params = SystemParams(0.5, 1.0)
    trace = simulate(params, 200, 1, arrival=Deterministic(2.0), service=Deterministic(1.0))
    assert np.allclose(trace.waiting_times, 0.0, atol=1e-12)
    assert np.allclose(trace.system_times, 1.0, atol=1e-12)
    assert np.allclose(trace.interdeparture_times, 2.0, atol=1e-12)


def test_dd1_queue_length_cycle():
    params = SystemParams(0.5, 1.0)
    n = 100
    trace = simulate(params, n, 1, arrival=Deterministic(2.0), service=Deterministic(1.0))
    path = queue_length_process(trace)
    assert set(np.unique(path.lengths)) == {0, 1}
    # whole cycles: busy exactly half the time
    fractions = occupancy_fractions(path, 1, [2.0, 2.0 * n])[0]
    assert fractions[1] == pytest.approx(0.5, abs=1e-12)
    assert fractions[0] == pytest.approx(0.5, abs=1e-12)


def test_single_update_pulse():
    params = SystemParams(0.5, 1.0)
    trace = simulate(params, 1, 3)
    path = queue_length_process(trace)
    assert list(path.lengths) == [1, 0]
    width = trace.departure_times[0] - trace.arrival_times[0]
    fractions = occupancy_fractions(path, 1, [0.0, trace.last_departure])[0]
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
    fractions = occupancy_fractions(path, 0, [warm_epoch, trace.last_departure])[0]
    assert fractions[0] == pytest.approx(0.5, rel=0.01)


def test_busy_time_equals_total_service():
    trace = simulate(SystemParams(0.6, 1.0), 50_000, 5)
    path = queue_length_process(trace)
    end = trace.last_departure
    fractions = occupancy_fractions(path, 10_000, [0.0, end])[0]
    idle = fractions[0] * end
    assert end - idle == pytest.approx(trace.service_times.sum(), rel=1e-9)


@pytest.mark.parametrize("lam,expected", [(0.5, 0.5), (0.8, 0.8)])
def test_prob_arrival_sees_busy(lam, expected):
    trace = simulate(SystemParams(lam, 1.0), 1_000_000, 44)
    assert empirical_prob_arrival_sees_busy(trace) == pytest.approx(expected, abs=0.005)


def test_prob_arrival_sees_busy_dd1():
    trace = simulate(SystemParams(0.5, 1.0), 50, 1,
                     arrival=Deterministic(2.0), service=Deterministic(1.0))
    assert empirical_prob_arrival_sees_busy(trace) == 0.0


def test_busy_indicator_is_the_gap_against_the_previous_system_time():
    trace = simulate(SystemParams(0.5, 1.0), 20_000, 3)
    reference = trace.interarrival_times[1:] < trace.system_times[:-1]
    assert np.array_equal(arrivals_seeing_busy(trace), reference)
    assert empirical_prob_arrival_sees_busy(trace) == float(np.mean(reference))


def test_prob_busy_needs_two_updates():
    trace = simulate(SystemParams(0.5, 1.0), 1, 2)
    with pytest.raises(InsufficientDataError):
        empirical_prob_arrival_sees_busy(trace)


def test_unstable_raises_without_override():
    with pytest.raises(StabilityError):
        simulate(SystemParams(1.2, 1.0), 100, 0)


def test_unstable_override_tags_trace():
    trace = simulate(SystemParams(1.2, 1.0), 5000, 0, allow_unstable=True)
    assert not trace.stationary
    assert trace.n == 5000


def test_exponential_spec_must_match_params():
    with pytest.raises(ParameterError):
        simulate(SystemParams(0.5, 1.0), 10, 0, arrival=Exponential(0.7))


def test_simultaneous_events_depart_before_arrive():
    # deterministic X = S = 1: every arrival coincides with the previous departure,
    # so the queue never holds two updates at once
    trace = simulate(SystemParams(1.0, 1.0), 500, 0,
                     arrival=Deterministic(1.0), service=Deterministic(1.0),
                     allow_unstable=True)
    path = queue_length_process(trace)
    assert path.lengths.max() == 1
    assert np.allclose(trace.waiting_times, 0.0, atol=1e-12)


def test_lindley_recursion_holds():
    trace = simulate(SystemParams(0.7, 1.0), 20_000, 12)
    x = trace.interarrival_times[1:]
    w = trace.waiting_times[1:]
    t_prev = trace.system_times[:-1]
    assert np.allclose(w, np.maximum(0.0, t_prev - x), rtol=1e-9, atol=1e-9)


def test_interdeparture_case_split():
    # gap equals service alone iff the update arrived while its predecessor
    # was still in the system; otherwise the idle stretch is added
    trace = simulate(SystemParams(0.5, 1.0), 20_000, 13)
    x = trace.interarrival_times[1:]
    s = trace.service_times[1:]
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
        trace.system_times, trace.waiting_times + trace.service_times, rtol=1e-12, atol=1e-12
    )


def test_gg1_uniform_run():
    # G/G/1 with uniform inter-event times: same invariants, effective
    # utilization from the spec means (0.5 / 1.0 here)
    params = SystemParams(1.0, 2.0)
    trace = simulate(params, 50_000, 31,
                     arrival=Uniform(0.5, 1.5), service=Uniform(0.2, 0.8))
    assert trace.stationary
    assert (trace.waiting_times >= 0.0).all()
    assert np.allclose(
        trace.system_times, trace.waiting_times + trace.service_times, rtol=1e-12, atol=1e-12
    )
    assert trace.service_times.mean() == pytest.approx(0.5, rel=0.02)
    again = simulate(params, 50_000, 31,
                     arrival=Uniform(0.5, 1.5), service=Uniform(0.2, 0.8))
    assert (trace.departure_times == again.departure_times).all()


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


def test_trace_csv_roundtrip(tmp_path):
    trace = simulate(SystemParams(0.5, 1.0), 500, 6)
    out = tmp_path / "trace.csv"
    write_trace_csv(trace, str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == "k,t_arrival,t_service_start,t_depart"
    assert len(lines) == 501
    k, arr, start, dep = lines[100].split(",")
    assert int(k) == 100
    # full-precision round trip
    assert float(arr) == trace.arrival_times[99]
    assert float(start) == trace.service_start_times[99]
    assert float(dep) == trace.departure_times[99]


def test_crafted_trace_validation():
    with pytest.raises(ParameterError):
        UpdateTrace(np.array([1.0, 0.5]), np.array([1.0, 1.5]), np.array([2.0, 3.0]))
    with pytest.raises(ParameterError):
        UpdateTrace(np.array([1.0]), np.array([0.5]), np.array([2.0]))
    with pytest.raises(ParameterError):
        simulate(SystemParams(0.5, 1.0), 0, 0)


def tied_arrivals():
    # updates 1 and 2 arrive together at 2.0
    return UpdateTrace(np.array([1.0, 2.0, 2.0, 5.0]), np.array([1.0, 2.0, 3.0, 5.0]),
                       np.array([2.0, 3.0, 4.0, 6.0]))


def tied_departures():
    # update 1 has a zero service time and departs with update 0 at 2.0
    return UpdateTrace(np.array([1.0, 1.5, 4.0]), np.array([1.0, 2.0, 4.0]),
                       np.array([2.0, 2.0, 5.0]))


def test_trace_accepts_tied_epochs_and_rejects_decreasing_ones():
    assert list(tied_arrivals().interarrival_times) == [1.0, 1.0, 0.0, 3.0]
    assert list(tied_departures().interdeparture_times) == [0.0, 3.0]
    # an update arriving with its predecessor finds the server busy
    assert list(arrivals_seeing_busy(tied_arrivals())) == [False, True, False]
    with pytest.raises(ParameterError, match="arrival epochs must be non-decreasing"):
        UpdateTrace(np.array([1.0, 0.5]), np.array([1.0, 1.5]), np.array([2.0, 3.0]))
    with pytest.raises(ParameterError, match="departure epochs must be non-decreasing"):
        UpdateTrace(np.array([1.0, 1.5]), np.array([1.0, 1.5]), np.array([2.0, 1.9]))
    with pytest.raises(ParameterError, match="arrival <= service start"):
        UpdateTrace(np.array([1.0, 2.0, 2.0]), np.array([1.0, 2.0, 1.5]),
                    np.array([2.0, 3.0, 3.0]))


def test_queue_length_path_of_tied_epochs():
    # at a shared epoch departures come first, then the arrivals one by one
    path = queue_length_process(tied_arrivals())
    assert list(path.epochs) == [1.0, 2.0, 2.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    assert list(path.lengths) == [1, 0, 1, 2, 1, 0, 1, 0]
    path = queue_length_process(tied_departures())
    assert list(path.epochs) == [1.0, 1.5, 2.0, 2.0, 4.0, 5.0]
    assert list(path.lengths) == [1, 2, 1, 0, 1, 0]


def test_occupancy_of_tied_epochs():
    got = occupancy_fractions(queue_length_process(tied_arrivals()), 2, [0.0, 2.0, 6.0])
    assert got.tolist() == [[0.5, 0.5, 0.0], [0.25, 0.5, 0.25]]
    got = occupancy_fractions(queue_length_process(tied_departures()), 2, [0.0, 5.0])
    assert got[0] == pytest.approx([0.6, 0.3, 0.1], abs=1e-15)


@given(seed=st.integers(0, 2**32), lam=st.floats(0.1, 0.9))
@settings(max_examples=25, deadline=None)
def test_engine_invariants_property(seed, lam):
    trace = simulate(SystemParams(lam, 1.0), 300, seed)
    assert (np.diff(trace.arrival_times) > 0).all()
    assert (np.diff(trace.departure_times) > 0).all()
    assert (trace.service_start_times >= trace.arrival_times).all()
    # work conservation: start at the later of own arrival and predecessor departure
    expected_start = np.maximum(trace.arrival_times[1:], trace.departure_times[:-1])
    assert np.allclose(trace.service_start_times[1:], expected_start, rtol=1e-9, atol=1e-9)


def occupancy_reference(path, max_length, start, end):
    """One window at a time: the per-window scan the batched estimator replaced."""
    lo = np.concatenate(([0.0], path.epochs))
    hi = np.concatenate((path.epochs, [end]))
    levels = np.concatenate(([0], path.lengths))
    durations = np.clip(np.minimum(hi, end) - np.maximum(lo, start), 0.0, None)
    out = np.zeros(max_length + 1)
    mask = levels <= max_length
    np.add.at(out, levels[mask], durations[mask])
    return out / (end - start)


def assert_occupancy_matches_reference(path, max_length, edges):
    batched = occupancy_fractions(path, max_length, edges)
    reference = np.array([
        occupancy_reference(path, max_length, edges[i], edges[i + 1])
        for i in range(len(edges) - 1)
    ])
    assert batched.shape == (len(edges) - 1, max_length + 1)
    assert np.array_equal(batched, reference)


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
    assert occupancy_fractions(path, 5, edges)[0].tolist() == [1.0, 0, 0, 0, 0, 0]
    # a single window
    assert_occupancy_matches_reference(path, 5, [epochs[7] + 0.1, epochs[1500] - 0.1])


def test_batched_occupancy_edges_on_simultaneous_events():
    # every arrival coincides with the previous departure
    trace = simulate(SystemParams(1.0, 1.0), 200, 0, arrival=Deterministic(1.0),
                     service=Deterministic(1.0), allow_unstable=True)
    path = queue_length_process(trace)
    assert_occupancy_matches_reference(path, 2, [1.0, 2.0, 3.0, 50.0, 50.5, 200.0])


def test_occupancy_rejects_bad_edges():
    path = queue_length_process(simulate(SystemParams(0.5, 1.0), 100, 1))
    with pytest.raises(ParameterError):
        occupancy_fractions(path, 3, [5.0])
    with pytest.raises(ParameterError):
        occupancy_fractions(path, 3, [1.0, 4.0, 4.0])
    with pytest.raises(ParameterError):
        occupancy_fractions(path, 3, [[1.0, 2.0], [3.0, 4.0]])
