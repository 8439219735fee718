import math
import tracemalloc

import numpy as np
import pytest

from aud_lab import decisions, experiments
from aud_lab.decisions import (
    _age_sum,
    decisions_at,
    poisson_epochs,
    sawtooth_mean,
    sawtooth_vertices,
)
from aud_lab.distributions import DECISION_STREAM, SeededStream, exponential_gaps
from aud_lab.errors import ParameterError, TruncationError
from aud_lab.experiments import ExperimentConfig, _simulate_point, decision_stream_id
from aud_lab.queueing import SystemParams, UpdateTrace, default_warmup, occupancy, simulate
from aud_lab.stats import ks_exponential, mean_ci
from test_experiments import column_reference


def batch_means_ci(ages):
    """The CI from the means of 100 equal batches of a column, its remainder dropped."""
    per = len(ages) // 100
    return mean_ci(ages[:100 * per].reshape(100, per).mean(axis=1))


def evaluate(trace, t):
    """Reference: the age at time(s) t within the trace's span; the post-drop value at a drop."""
    t = np.asarray(t, dtype=float)
    dep = trace.departure_times
    assert ((dep[0] <= t) & (t <= dep[-1])).all(), "evaluation epoch outside the trace's span"
    idx = np.searchsorted(dep, t, side="right") - 1
    return trace.system_times[idx] + (t - dep[idx])


def crafted_trace():
    # update 1: arrives 2, departs 3 (system time 1)
    # update 2: arrives 3, departs 5 (system time 2)
    # update 3: arrives 6.5, departs 7.5
    return UpdateTrace(np.array([2.0, 3.0, 6.5]), np.array([3.0, 5.0, 7.5]))


def test_decision_exactly_at_departure():
    freshest, ages = decisions_at(crafted_trace(), [3.0])
    assert freshest[0] == 0
    assert ages[0] == pytest.approx(1.0, abs=1e-12)  # the system time of update 1


def test_decision_inside_following_gap():
    # tau = 6 falls between departures 5 and 7.5: age is update 2's system
    # time plus the elapsed 1.0 since its departure
    trace = crafted_trace()
    freshest, ages = decisions_at(trace, [6.0])
    assert freshest[0] == 1
    assert trace.arrival_times[freshest[0]] == 3.0
    assert ages[0] == pytest.approx(3.0, abs=1e-12)


def tied_arrivals():
    # updates 1 and 2 both arrive at 2.0 and depart at 3.0 and 4.0
    return UpdateTrace(np.array([1.0, 2.0, 2.0, 5.0]), np.array([2.0, 3.0, 4.0, 6.0]))


def tied_departures():
    # updates 0 and 1 both depart at 2.0, update 1 after a zero service time
    return UpdateTrace(np.array([1.0, 1.5, 4.0]), np.array([2.0, 2.0, 5.0]))


def test_decisions_at_tied_epochs():
    # a decision at tied departures acts on the later, fresher update
    freshest, ages = decisions_at(tied_departures(), [1.5, 2.0, 3.0, 5.0])
    assert list(freshest) == [-1, 1, 1, 2]
    assert list(ages[1:]) == [0.5, 1.5, 1.0]
    freshest, ages = decisions_at(tied_arrivals(), [3.0, 4.0, 4.5])
    assert list(freshest) == [1, 2, 2]
    assert list(ages) == [1.0, 2.0, 2.5]


def test_time_average_over_tied_epochs():
    # the tied departures leave a zero-length sawtooth segment
    trace = tied_departures()
    assert [sawtooth_mean(trace, 2.0, 3.5), sawtooth_mean(trace, 3.5, 5.0)] == [1.25, 2.75]
    assert sawtooth_mean(tied_arrivals(), 2.0, 6.0) == 2.25


def test_decisions_before_first_departure_are_undefined():
    freshest, ages = decisions_at(crafted_trace(), [0.5, 1.0, 4.0])
    assert list(freshest) == [-1, -1, 0]
    assert math.isnan(ages[0]) and math.isnan(ages[1])
    assert list(ages[freshest >= 0]) == [2.0]  # tau 4.0 minus generation epoch 2.0


def test_horizon_beyond_trace_rejected():
    trace = crafted_trace()
    with pytest.raises(TruncationError):
        decisions_at(trace, poisson_epochs(1.0, 100.0, SeededStream(0, DECISION_STREAM)))
    with pytest.raises(TruncationError):
        decisions_at(trace, [8.0])


def test_bad_decision_arguments():
    trace = crafted_trace()
    with pytest.raises(ParameterError):
        poisson_epochs(0.0, 5.0, SeededStream(0, DECISION_STREAM))
    with pytest.raises(ParameterError):
        poisson_epochs(1.0, -1.0, SeededStream(0, DECISION_STREAM))
    with pytest.raises(ParameterError):
        decisions_at(trace, [0.0])
    for nan in (math.nan, -math.nan):  # a lone NaN passes the order check
        with pytest.raises(ParameterError, match="must be positive"):
            decisions_at(trace, [nan])


def test_poisson_decision_count():
    trace = simulate(SystemParams(0.5, 1.0), 1_000_000, 42)
    horizon = trace.last_departure
    epochs = poisson_epochs(1.0, horizon, SeededStream(42, DECISION_STREAM))
    assert len(epochs) == pytest.approx(horizon, rel=0.01)


def test_interdecision_gaps_are_exponential():
    trace = simulate(SystemParams(0.5, 1.0), 200_000, 3)
    gaps = np.diff(poisson_epochs(2.0, trace.last_departure, SeededStream(3, DECISION_STREAM)))
    assert ks_exponential(gaps[:100_000], 2.0).p_value >= 0.01


def test_decision_determinism():
    trace = simulate(SystemParams(0.5, 1.0), 10_000, 5)
    a = poisson_epochs(1.0, trace.last_departure, SeededStream(5, 7))
    b = poisson_epochs(1.0, trace.last_departure, SeededStream(5, 7))
    assert (a == b).all()
    assert np.array_equal(decisions_at(trace, a)[1], decisions_at(trace, b)[1], equal_nan=True)


def test_aud_mean_matches_closed_form():
    # the closed form at utilization 0.5 gives 3.5
    trace = simulate(SystemParams(0.5, 1.0), 1_000_000, 42)
    epochs = poisson_epochs(1.0, trace.last_departure, SeededStream(42, DECISION_STREAM))
    freshest, ages = decisions_at(trace, epochs)
    warm_epoch = trace.departure_times[default_warmup(trace.n) - 1]
    ages = ages[(freshest >= 0) & (epochs > warm_epoch)]
    assert ages.mean() == pytest.approx(3.5, rel=0.01)


def test_aud_invariant_across_decision_rates():
    # the same trace sampled at rates 0.1 and 10 must agree within joint CIs
    trace = simulate(SystemParams(0.5, 1.0), 1_000_000, 42)
    warm_epoch = trace.departure_times[default_warmup(trace.n) - 1]
    estimates = []
    for nu, sid in ((0.1, 100), (10.0, 101)):
        epochs = poisson_epochs(nu, trace.last_departure, SeededStream(42, sid))
        freshest, ages = decisions_at(trace, epochs)
        estimates.append(batch_means_ci(ages[(freshest >= 0) & (epochs > warm_epoch)]))
    a, b = estimates
    assert abs(a.mean - b.mean) <= a.half_width + b.half_width  # the intervals overlap


def test_sawtooth_of_a_single_update():
    trace = UpdateTrace(np.array([0.0]), np.array([1.0]))
    assert sawtooth_vertices(trace).tolist() == [[1.0, 1.0]]
    assert evaluate(trace, 1.0) == pytest.approx(1.0)


def test_dd1_sawtooth():
    # D/D/1: an arrival every 2, each served on arrival for 1
    arrivals = 2.0 * np.arange(1, 51)
    trace = UpdateTrace(arrivals, arrivals + 1.0)
    # age oscillates between 1 (just after a departure) and 3 (just before the next)
    assert evaluate(trace, 3.0) == pytest.approx(1.0)
    assert evaluate(trace, 4.999999) == pytest.approx(2.999999)
    verts = sawtooth_vertices(trace)
    assert verts[:, 1].min() == pytest.approx(1.0)
    assert verts[:, 1].max() == pytest.approx(3.0)
    # over whole periods the ramp from 1 to 3 averages 2
    assert sawtooth_mean(trace, 3.0, 99.0) == pytest.approx(2.0, abs=1e-12)


def test_sawtooth_vertices_of_tied_departures():
    # the tied departures drop the age at 2.0 twice: a zero-length segment at age 1
    assert sawtooth_vertices(tied_departures()).tolist() == [
        [2.0, 1.0], [2.0, 1.0], [2.0, 0.5], [5.0, 3.5], [5.0, 1.0]]


def test_time_average_on_constant_slope_segment():
    # a pure ramp from age a over window w averages a + w/2
    trace = UpdateTrace(np.array([0.0, 9.0]), np.array([1.0, 10.0]))
    assert sawtooth_mean(trace, 1.0, 5.0) == pytest.approx(1.0 + 4.0 / 2.0, abs=1e-12)
    assert sawtooth_mean(trace, 2.0, 3.0) == pytest.approx(2.0 + 0.5, abs=1e-12)


def test_time_average_matches_riemann_oracle():
    # independent check: dense midpoint quadrature over the sawtooth
    trace = simulate(SystemParams(0.6, 1.0), 400, 17)
    lo, hi = trace.departure_times[0], trace.last_departure
    a, b = lo + 0.1 * (hi - lo), lo + 0.9 * (hi - lo)
    grid = np.linspace(a, b, 2_000_001)
    mids = 0.5 * (grid[:-1] + grid[1:])
    riemann = evaluate(trace, mids).mean()
    assert sawtooth_mean(trace, a, b) == pytest.approx(riemann, abs=2e-4)


def test_time_average_window_validation():
    for start, end in ((5.0, 5.0), (5.0, 4.0), (np.nan, 5.0), (1.0, 6.0), (4.0, 9.0)):
        with pytest.raises(ParameterError, match="within the trace's span"):
            sawtooth_mean(crafted_trace(), start, end)


WINDOW_TRACE = dict(params=SystemParams(0.5, 1.0), n_updates=1000, seed=1)


@pytest.mark.parametrize("start,end", [
    (300.0, 100.0),  # reversed
    (100.0, 100.0),  # empty
    (math.nan, 300.0), (100.0, math.nan), (math.nan, math.nan),
    (5.0, 300.0),  # starts before the first departure
    (100.0, 1e6),  # ends after the last departure
    (-math.inf, math.inf),
])
@pytest.mark.parametrize("statistic", ["occupancy", "sawtooth_mean"])
def test_window_statistics_reject_a_window_outside_the_trace(start, end, statistic):
    trace = simulate(**WINDOW_TRACE)
    assert 5.0 < trace.departure_times[0] < 100.0 and trace.last_departure < 1e6
    call = {"occupancy": lambda: occupancy(trace, 3, start, end),
            "sawtooth_mean": lambda: sawtooth_mean(trace, start, end)}[statistic]
    with pytest.raises(ParameterError, match="within the trace's span"):
        call()


def test_window_statistics_accept_any_window_within_the_span():
    trace = simulate(**WINDOW_TRACE)
    for start, end in ((trace.departure_times[0], trace.last_departure), (50.0, 300.0)):
        assert occupancy(trace, 100, start, end).sum() == pytest.approx(1.0, rel=1e-12)
        assert sawtooth_mean(trace, start, end) == pytest.approx(
            sawtooth_reference(trace, start, end), rel=1e-12, abs=0.0)


def test_decision_ages_equal_path_evaluation():
    # pointwise identity: a decision's age is the sawtooth sampled at its epoch
    trace = simulate(SystemParams(0.5, 1.0), 20_000, 23)
    epochs = poisson_epochs(1.5, trace.last_departure, SeededStream(23, 9))
    freshest, ages = decisions_at(trace, epochs)
    mask = freshest >= 0
    assert np.allclose(ages[mask], evaluate(trace, epochs[mask]), rtol=1e-12, atol=1e-9)
    # an age can never undercut the acted-on update's own time in the system
    floor = trace.system_times[freshest[mask]]
    assert (ages[mask] >= floor - 1e-9).all()


def test_pasta_time_average_matches_decision_mean():
    trace = simulate(SystemParams(0.5, 1.0), 1_000_000, 42)
    warm_epoch = trace.departure_times[default_warmup(trace.n) - 1]
    horizon = trace.last_departure
    epochs = poisson_epochs(1.0, horizon, SeededStream(42, DECISION_STREAM))
    freshest, ages = decisions_at(trace, epochs)
    est = batch_means_ci(ages[(freshest >= 0) & (epochs > warm_epoch)])
    average = sawtooth_mean(trace, warm_epoch, horizon)
    assert abs(est.mean - average) <= est.half_width


def test_empty_trace_rejected():
    with pytest.raises(ParameterError):
        UpdateTrace(np.array([]), np.array([]))


def sawtooth_reference(trace, start, end):
    """``np.sum`` over one term per segment of the whole run, zero outside the window."""
    e, v = trace.departure_times, trace.system_times
    seg_lo = np.maximum(e[:-1], start)
    seg_hi = np.minimum(e[1:], end)
    dur = np.clip(seg_hi - seg_lo, 0.0, None)
    age_at_lo = v[:-1] + (seg_lo - e[:-1])
    integral = float(np.sum(dur * age_at_lo + 0.5 * dur * dur))
    return integral / (end - start)


def window_trace(trace, start, end):
    """The updates whose sawtooth segments overlap [start, end]: those departing in it and one
    either side."""
    dep = trace.departure_times
    a, b = np.searchsorted(dep, (start, end), side="right")
    cut = slice(a - 1, min(b, trace.n - 1) + 1)
    return UpdateTrace(trace.arrival_times[cut], dep[cut])


def assert_sawtooth_matches_reference(trace, edges):
    # the window's own terms add up in another order than the padded sum's, and
    # a trace of only the window's segments gives the same bits as the whole run
    for start, end in zip(edges[:-1], edges[1:]):
        average = sawtooth_mean(trace, start, end)
        assert average == pytest.approx(sawtooth_reference(trace, start, end), rel=1e-12, abs=0.0)
        assert sawtooth_mean(window_trace(trace, start, end), start, end) == average


@pytest.mark.parametrize("seed", [42, 1009])
def test_batched_sawtooth_matches_the_window_scan(seed):
    trace = simulate(SystemParams(0.5, 1.0), 100_000, seed)
    warm_epoch = trace.departure_times[default_warmup(trace.n) - 1]
    edges = np.linspace(warm_epoch, trace.last_departure, 101)
    assert_sawtooth_matches_reference(trace, edges)


def test_batched_sawtooth_window_edge_cases():
    trace = simulate(SystemParams(0.6, 1.0), 3000, 11)
    drops = trace.departure_times
    # edges exactly on drop epochs, including both ends of the support
    assert_sawtooth_matches_reference(trace, drops[[0, 1, 2, 700, 701, 2999]])
    # a single window
    assert_sawtooth_matches_reference(trace, [drops[5] + 0.25, drops[2000] - 0.25])
    # edges on tied drops
    assert_sawtooth_matches_reference(tied_departures(), [2.0, 3.0, 5.0])
    assert_sawtooth_matches_reference(tied_arrivals(), [2.0, 3.0, 4.0, 6.0])
    with pytest.raises(ParameterError):
        sawtooth_mean(trace, drops[10], drops[9])


def test_sawtooth_matches_the_padded_sum_at_a_million_updates():
    trace = simulate(SystemParams(0.5, 1.0), 1_000_000, 7)
    drops = trace.departure_times
    assert_sawtooth_matches_reference(trace, np.linspace(drops[1000], drops[-1], 11))
    # a window over a few segments, and one over a few hundred
    mid = len(drops) // 2
    assert_sawtooth_matches_reference(trace, [drops[mid - 3] + 0.25, drops[mid + 2]])
    assert_sawtooth_matches_reference(trace, [drops[mid - 200], drops[mid + 300] - 0.25])


def decisions_reference(trace, times):
    """Search each decision epoch into the departures: the scan decisions_at replaced."""
    times = np.asarray(times, dtype=float)
    freshest = np.searchsorted(trace.departure_times, times, side="right") - 1
    defined = freshest >= 0
    ages = np.full(len(times), np.nan)
    ages[defined] = times[defined] - trace.arrival_times[freshest[defined]]
    freshest[~defined] = -1
    return freshest, ages


def assert_decisions_match_reference(trace, times):
    freshest, ages = decisions_at(trace, times)
    want_freshest, want_ages = decisions_reference(trace, times)
    assert freshest.dtype == want_freshest.dtype
    assert np.array_equal(freshest, want_freshest)
    assert np.array_equal(ages, want_ages, equal_nan=True)


@pytest.mark.parametrize("seed", [42, 1009])
def test_inverted_decision_search_is_identical(seed):
    trace = simulate(SystemParams(0.5, 1.0), 100_000, seed)
    for nu in (0.1, 10.0):
        stream = SeededStream(seed, DECISION_STREAM)
        epochs = poisson_epochs(nu, trace.last_departure, stream)
        assert_decisions_match_reference(trace, epochs)


def test_inverted_decision_search_edge_cases():
    trace = crafted_trace()
    # epochs exactly on departures, repeated epochs, and the last departure
    assert_decisions_match_reference(trace, [3.0, 3.0, 4.0, 5.0, 7.5])
    # every epoch before the first departure
    assert_decisions_match_reference(trace, [0.5, 1.0, 2.999])
    # no epochs at all
    freshest, ages = decisions_at(trace, [])
    assert len(freshest) == len(ages) == 0 and freshest.dtype == np.intp


def test_decisions_at_rejects_unsorted_epochs():
    with pytest.raises(ParameterError):
        decisions_at(crafted_trace(), [3.0, 6.0, 4.0])


def assert_slice_matches_full_call(trace, epochs, a, b):
    full_freshest, full_ages = decisions_at(trace, epochs)
    freshest, ages = decisions_at(trace, epochs[a:b])
    assert freshest.dtype == full_freshest.dtype
    assert np.array_equal(freshest, full_freshest[a:b])
    assert np.array_equal(ages, full_ages[a:b], equal_nan=True)


@pytest.mark.parametrize("seed", [42, 1009])
def test_decisions_on_a_slice_equal_the_slice_of_the_full_call(seed):
    trace = simulate(SystemParams(0.5, 1.0), 20_000, seed)
    epochs = poisson_epochs(3.0, trace.last_departure, SeededStream(seed, DECISION_STREAM))
    m = len(epochs)
    for a, b in ((m // 3, m // 3 + 1000), (0, 50), (m - 777, m), (m // 2, m // 2 + 1), (5, 5)):
        assert_slice_matches_full_call(trace, epochs, a, b)


def test_decision_slices_at_the_span_boundaries():
    trace = crafted_trace()
    epochs = np.array([0.5, 1.0, 2.999, 3.0, 3.0, 4.0, 5.0, 6.0, 7.5])
    # starting exactly on a departure, wholly before the first departure,
    # ending on a departure, a single epoch, and empty
    for a, b in ((3, 9), (6, 8), (0, 3), (0, 4), (4, 7), (8, 9), (2, 2)):
        assert_slice_matches_full_call(trace, epochs, a, b)
    # a slice between two departures acts only on the earlier one
    freshest, _ = decisions_at(trace, [5.5, 6.0, 7.0])
    assert list(freshest) == [1, 1, 1]


def test_epoch_generators_match_the_record_builders():
    trace = simulate(SystemParams(0.5, 1.0), 5000, 3)
    horizon = trace.last_departure
    epochs = poisson_epochs(2.0, horizon, SeededStream(3, 9))
    assert np.array_equal(epochs, poisson_epochs(2.0, horizon, SeededStream(3, 9)))
    assert 0.0 < epochs[0] and epochs[-1] <= horizon < epochs[-1] + 10.0
    with pytest.raises(ParameterError):
        poisson_epochs(0.0, 5.0, SeededStream(0, DECISION_STREAM))
    with pytest.raises(ParameterError):
        poisson_epochs(1.0, math.inf, SeededStream(0, DECISION_STREAM))


@pytest.mark.parametrize("margin", [-5.0, -7.5])
@pytest.mark.parametrize("block", [2**12, 2**22])
def test_short_fills_continue_one_running_sum(monkeypatch, margin, block):
    # draws 5 or 7.5 standard deviations short of the epochs expected to
    # remain (about 1e4 at first) need further draws, each from the last
    # epoch: poisson_epochs' one column, and _Point.aud's chain of blocks of
    # at most BLOCK_SIZE, a block holding the run's epochs or not
    point = _simulate_point(ExperimentConfig(n_updates=5000, seed=5), 0, SystemParams(0.5, 1.0))
    want = point.aud(1.0)
    monkeypatch.setattr(decisions, "MARGIN_SDS", margin)
    monkeypatch.setattr(experiments, "BLOCK_SIZE", block)
    fills, drawn = [], []
    draw = decisions.exponential_epochs
    monkeypatch.setattr(decisions, "exponential_epochs",
                        lambda *args: fills.append(args[2]) or draw(*args))
    epochs = poisson_epochs(1.0, 1e4, SeededStream(5, 7))
    column = np.cumsum(exponential_gaps(SeededStream(5, 7), 1.0, sum(fills)))
    assert len(epochs) == np.searchsorted(column, 1e4, side="right") < len(column)
    np.testing.assert_array_equal(epochs, column[:len(epochs)])
    assert fills[0] == int(1e4 + margin * 100.0 + 16.0) and len(fills) >= 3
    # the same short draws in _Point.aud: one column, the same counts, and
    # each window summed in pieces cut at the blocks and where a draw continued
    block_epochs, with_margin, rounds = experiments._block_epochs, experiments._with_margin, []

    def recorded_block(stream, rate, start, out, carry):
        drawn.append((start, block_epochs(stream, rate, start, out, carry).copy()))
        return out

    monkeypatch.setattr(experiments, "_block_epochs", recorded_block)
    monkeypatch.setattr(experiments, "_with_margin",
                        lambda expected: rounds.append(with_margin(expected)) or rounds[-1])
    got = point.aud(1.0)
    assert got[1] == want[1]
    expected = point.trace.last_departure
    assert rounds[0] == int(expected + margin * math.sqrt(expected) + 16.0) and len(rounds) >= 3
    drawn.sort(key=lambda d: d[0])
    assert [start for start, _ in drawn] == sorted(
        {*range(0, sum(rounds), block), *np.cumsum([0, *rounds[:-1]]).tolist()})
    assert drawn[-1][1][-1] > expected
    column = np.cumsum(exponential_gaps(SeededStream(point.seed, decision_stream_id(1.0)), 1.0,
                                        sum(rounds)))
    np.testing.assert_array_equal(np.concatenate([e for _, e in drawn]), column)
    starts = np.cumsum([0, *rounds[:-1]]).tolist()
    assert got == column_reference(point, column[column <= expected], starts)


def test_poisson_epochs_holds_one_column_and_its_margin():
    # one draw of the expected epochs and their margin, trimmed by a slice: a
    # column joined from pieces, or a trimmed copy, would hold twice as much
    tracemalloc.start()
    try:
        poisson_epochs(1.0, 3e6, SeededStream(5, 7))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * decisions._with_margin(3e6) + 2**20, peak


def tied_departure_runs():
    # updates 0-1 and 2-3 depart in tied pairs (1 and 3 after zero service times)
    return UpdateTrace(np.array([1.0, 1.5, 3.0, 3.5, 5.0, 6.0, 7.0]),
                       np.array([2.0, 2.0, 4.0, 4.0, 6.0, 7.0, 8.0]))


def assert_age_sum_matches_reference(trace, times):
    """``_age_sum`` against math.fsum of the reference ages, for epochs past the first departure.

    sum(times) rounds by about log2(m) ulp of times[-1] per decision, and an
    age is at least a service time, about 1 / mu: so the relative error is
    within trace.n * 2^-53 * log2(m) for the M/M/1 traces here (times[-1] is
    about n / lambda and lambda < mu).  The hand-built traces have exact sums.
    """
    times = np.asarray(times, dtype=float)
    _, ages = decisions_reference(trace, times)
    assert not np.isnan(ages).any()
    got, want = _age_sum(trace, times), math.fsum(ages)
    assert type(got) is float
    bound = trace.n * 2.0**-53 * math.log2(max(len(times), 2))
    assert abs(got - want) <= bound * abs(want), (got, want)
    return abs(got - want) / want if want else 0.0


def test_generation_epochs_on_tied_departure_runs():
    trace = tied_departure_runs()
    for times in (
        # fewer epochs than departures in their span: 2.0 and 4.0 fall on tied
        # departures and act on the later update, 7.0 on a single departure
        [2.0, 4.0, 7.0],
        [1.5, 6.5],  # from before the first
        # one and more epochs per departure, tied on and between departures
        [2.0, 4.0],
        [1.5, 2.0, 2.0, 3.0, 4.0, 4.0, 5.0, 7.0, 8.0],
        np.repeat([1.5, 2.0, 3.0, 4.0, 4.5, 6.0, 7.0, 8.0], [6, 3, 3, 3, 3, 3, 3, 3]),
        np.repeat([1.5, 2.0, 3.0, 4.0, 4.5, 6.0, 7.0, 8.0], [7, 3, 3, 3, 3, 3, 3, 3]),
        np.repeat([1.5, 2.0, 3.0, 4.0, 4.5, 6.0, 7.0, 8.0], 5),
        [2.5, 3.0, 3.5],  # no departure inside
        [0.5, 1.0, 1.5],  # all before the first
        [7.5],
    ):
        assert_decisions_match_reference(trace, times)
    freshest, _ = decisions_at(trace, [2.0, 4.0, 7.0])
    assert list(trace.arrival_times[freshest]) == [1.5, 3.5, 6.0]
    assert len(decisions_at(trace, [])[0]) == 0
    for times in ([2.0, 4.0, 7.0], [2.5, 3.0, 3.5], [7.5], [8.0],
                  np.repeat([2.0, 3.0, 4.0, 8.0], [1, 2, 3, 4]),
                  np.repeat([2.0, 3.0, 4.0, 4.5, 8.0], 5)):
        assert _age_sum(trace, np.array(times)) == math.fsum(decisions_at(trace, times)[1])
    assert _age_sum(trace, np.empty(0)) == 0.0


def test_age_sum_counts_the_decisions_by_either_search():
    # A span with fewer decisions than departures searches the decisions into
    # the departures, one with more the departures into the decisions: the same
    # counts as the records', so the same bits.
    tied, trace = tied_departure_runs(), simulate(SystemParams(0.5, 1.0), 20_000, 11)
    dep = trace.departure_times
    cases = [(tied, [2.0, 4.0, 7.0]), (tied, [2.0, 8.0]),
             (tied, np.repeat([2.0, 3.0, 4.0, 8.0], [1, 2, 3, 4]))]
    for nu in (0.1, 10.0):  # 0.2 and 20 decisions per departure
        epochs = poisson_epochs(nu, trace.last_departure, SeededStream(11, DECISION_STREAM))
        # and a few decisions exactly on departures
        cases.append((trace, np.sort(np.append(epochs[epochs >= dep[0]], dep[5::997]))))
    fewer = set()
    for tr, times in cases:
        times = np.asarray(times, dtype=float)
        freshest, _ = decisions_at(tr, times)
        lo, hi = freshest[0], freshest[-1]
        counts = np.bincount(freshest - lo, minlength=hi - lo + 1)
        want = times.sum() - np.multiply(counts, tr.arrival_times[lo:hi + 1]).sum()
        assert _age_sum(tr, times) == want
        fewer.add(len(times) < hi - lo)  # the span holds hi - lo departures
    assert fewer == {True, False}


def test_generation_epochs_on_a_trace_that_starts_at_negative_zero():
    # -0.0 passes every check of the trace; its columns keep +0.0 instead, so
    # that the int64 keys of _age_sum's searches sort as the values do
    trace = UpdateTrace(np.array([-0.0, -0.0, 0.0, 1.0, 1.2]),
                        np.array([-0.0, 0.0, 0.5, 2.0, 2.5]))
    for col in (trace.arrival_times, trace.departure_times):
        assert not np.signbit(col).any()
    assert list(trace.system_times) == [0.0, 0.0, 0.5, 1.0, 1.3]
    for times in ([0.25, 2.5], [0.25, 0.5, 1.0, 2.0], [0.5] * 9 + [2.0], [1.0, 1.5]):
        assert_decisions_match_reference(trace, times)
        assert _age_sum(trace, np.array(times)) == math.fsum(decisions_at(trace, times)[1])
    assert list(decisions_at(trace, [0.25, 0.5])[0]) == [1, 2]


def test_mean_age_equals_the_decision_records_across_decisions_per_departure():
    trace = simulate(SystemParams(0.5, 1.0), 20_000, 11)
    for nu in (0.1, 0.5, 1.0, 1.5, 2.5, 5.0, 10.0):  # 0.2 to 20 decisions per departure
        epochs = poisson_epochs(nu, trace.last_departure, SeededStream(11, DECISION_STREAM))
        epochs = epochs[epochs >= trace.departure_times[0]]
        per = len(epochs) // 7
        for a, b in ((0, len(epochs)), (per, 2 * per), (3 * per, 3 * per + 250)):
            times = epochs[a:b]
            mean = _age_sum(trace, times) / len(times)
            assert mean == pytest.approx(decisions_at(trace, times)[1].mean(), rel=1e-10)
            assert_age_sum_matches_reference(trace, times)


@pytest.mark.parametrize("lam", [0.01, 0.5, 0.9])
def test_age_sum_matches_fsum_on_the_windows_of_a_million_updates(lam):
    trace = simulate(SystemParams(lam, 1.0), 1_000_000, 13)
    dep = trace.departure_times
    edges = np.linspace(dep[0], trace.last_departure, 101)
    rng = np.random.default_rng(13)
    worst = 0.0
    for nu in (0.1, 1.0, 10.0):
        for k in (0, 50, 99):  # the first, a middle and the last window
            # at most about 2e5 decisions: the end of the window at high rates
            a, b = max(edges[k], edges[k + 1] - 2e5 / nu), edges[k + 1]
            times = rng.uniform(a, b, size=rng.poisson(nu * (b - a)))
            # and decisions exactly on a few of the window's departures
            on = dep[np.searchsorted(dep, a, side="right"):np.searchsorted(dep, b)][::97]
            times = np.sort(np.concatenate((times, on, [b])))
            worst = max(worst, assert_age_sum_matches_reference(trace, times))
    assert 0.0 < worst
    assert _age_sum(trace, np.empty(0)) == 0.0
