import math

import numpy as np
import pytest

from aud_lab.decisions import (
    _generation_epochs,
    _mean_age,
    aoi_path,
    decisions_at,
    poisson_epochs,
    time_average_aoi,
)
from aud_lab.distributions import DECISION_STREAM, SeededStream
from aud_lab.errors import ParameterError, TruncationError
from aud_lab.experiments import _batch_means
from aud_lab.queueing import SystemParams, UpdateTrace, default_warmup, simulate
from aud_lab.stats import ks_exponential


def crafted_trace():
    # update 1: arrives 2, departs 3 (system time 1)
    # update 2: arrives 3, departs 5 (system time 2)
    # update 3: arrives 6.5, departs 7.5
    return UpdateTrace(np.array([2.0, 3.0, 6.5]), np.array([3.0, 5.0, 7.5]))


def test_decision_exactly_at_departure():
    decisions = decisions_at(crafted_trace(), [3.0])
    rec = decisions[0]
    assert rec.freshest_index == 0
    assert rec.age == pytest.approx(1.0, abs=1e-12)  # the system time of update 1


def test_decision_inside_following_gap():
    # tau = 6 falls between departures 5 and 7.5: age is update 2's system
    # time plus the elapsed 1.0 since its departure
    decisions = decisions_at(crafted_trace(), [6.0])
    rec = decisions[0]
    assert rec.freshest_index == 1
    assert rec.generation_time == 3.0
    assert rec.age == pytest.approx(3.0, abs=1e-12)


def tied_arrivals():
    # updates 1 and 2 both arrive at 2.0 and depart at 3.0 and 4.0
    return UpdateTrace(np.array([1.0, 2.0, 2.0, 5.0]), np.array([2.0, 3.0, 4.0, 6.0]))


def tied_departures():
    # updates 0 and 1 both depart at 2.0, update 1 after a zero service time
    return UpdateTrace(np.array([1.0, 1.5, 4.0]), np.array([2.0, 2.0, 5.0]))


def test_decisions_at_tied_epochs():
    # a decision at tied departures acts on the later, fresher update
    decisions = decisions_at(tied_departures(), [1.5, 2.0, 3.0, 5.0])
    assert list(decisions.freshest_index) == [-1, 1, 1, 2]
    assert list(decisions.ages[1:]) == [0.5, 1.5, 1.0]
    decisions = decisions_at(tied_arrivals(), [3.0, 4.0, 4.5])
    assert list(decisions.freshest_index) == [1, 2, 2]
    assert list(decisions.ages) == [1.0, 2.0, 2.5]


def test_time_average_over_tied_epochs():
    # the tied departures leave a zero-length sawtooth segment
    assert list(time_average_aoi(aoi_path(tied_departures()), [2.0, 3.5, 5.0])) == [1.25, 2.75]
    assert list(time_average_aoi(aoi_path(tied_arrivals()), [2.0, 6.0])) == [2.25]


def test_decisions_before_first_departure_are_undefined():
    decisions = decisions_at(crafted_trace(), [0.5, 1.0, 4.0])
    assert decisions.n_undefined == 2
    assert list(decisions.freshest_index) == [-1, -1, 0]
    assert math.isnan(decisions.ages[0]) and math.isnan(decisions.generation_times[1])
    assert list(decisions.defined_ages) == [2.0]  # tau 4.0 minus generation epoch 2.0


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


def test_poisson_decision_count():
    trace = simulate(SystemParams(0.5, 1.0), 1_000_000, 42)
    horizon = trace.last_departure
    epochs = poisson_epochs(1.0, horizon, SeededStream(42, DECISION_STREAM))
    assert len(epochs) == pytest.approx(horizon, rel=0.01)


def test_interdecision_gaps_are_exponential():
    trace = simulate(SystemParams(0.5, 1.0), 200_000, 3)
    gaps = np.diff(poisson_epochs(2.0, trace.last_departure, SeededStream(3, DECISION_STREAM)))
    assert not ks_exponential(gaps[:100_000], 2.0).reject_at_001


def test_decision_determinism():
    trace = simulate(SystemParams(0.5, 1.0), 10_000, 5)
    a = decisions_at(trace, poisson_epochs(1.0, trace.last_departure, SeededStream(5, 7)))
    b = decisions_at(trace, poisson_epochs(1.0, trace.last_departure, SeededStream(5, 7)))
    assert (a.times == b.times).all()
    assert (a.ages[a.defined] == b.ages[b.defined]).all()


def test_aud_mean_matches_closed_form():
    # the closed form at utilization 0.5 gives 3.5
    trace = simulate(SystemParams(0.5, 1.0), 1_000_000, 42)
    epochs = poisson_epochs(1.0, trace.last_departure, SeededStream(42, DECISION_STREAM))
    decisions = decisions_at(trace, epochs)
    warm_epoch = trace.departure_times[default_warmup(trace.n) - 1]
    ages = decisions.ages[decisions.defined & (decisions.times > warm_epoch)]
    assert ages.mean() == pytest.approx(3.5, rel=0.01)


def test_aud_invariant_across_decision_rates():
    # the same trace sampled at rates 0.1 and 10 must agree within joint CIs
    trace = simulate(SystemParams(0.5, 1.0), 1_000_000, 42)
    warm_epoch = trace.departure_times[default_warmup(trace.n) - 1]
    estimates = []
    for nu, sid in ((0.1, 100), (10.0, 101)):
        epochs = poisson_epochs(nu, trace.last_departure, SeededStream(42, sid))
        decisions = decisions_at(trace, epochs)
        ages = decisions.ages[decisions.defined & (decisions.times > warm_epoch)]
        estimates.append(_batch_means(lambda a, b: ages[a:b].mean(), 0, len(ages), 0.99))
    assert estimates[0].overlaps(estimates[1])


def test_aoi_path_single_update():
    trace = UpdateTrace(np.array([0.0]), np.array([1.0]))
    path = aoi_path(trace)
    assert path.vertices().tolist() == [[1.0, 1.0]]
    assert path.evaluate(1.0) == pytest.approx(1.0)


def test_aoi_path_dd1_sawtooth():
    # D/D/1: an arrival every 2, each served on arrival for 1
    arrivals = 2.0 * np.arange(1, 51)
    path = aoi_path(UpdateTrace(arrivals, arrivals + 1.0))
    # age oscillates between 1 (just after a departure) and 3 (just before the next)
    assert path.evaluate(3.0) == pytest.approx(1.0)
    assert path.evaluate(4.999999) == pytest.approx(2.999999)
    verts = path.vertices()
    assert verts[:, 1].min() == pytest.approx(1.0)
    assert verts[:, 1].max() == pytest.approx(3.0)
    # over whole periods the ramp from 1 to 3 averages 2
    assert time_average_aoi(path, [3.0, 99.0])[0] == pytest.approx(2.0, abs=1e-12)


def test_time_average_on_constant_slope_segment():
    # a pure ramp from age a over window w averages a + w/2
    trace = UpdateTrace(np.array([0.0, 9.0]), np.array([1.0, 10.0]))
    path = aoi_path(trace)
    assert time_average_aoi(path, [1.0, 5.0])[0] == pytest.approx(1.0 + 4.0 / 2.0, abs=1e-12)
    assert time_average_aoi(path, [2.0, 3.0])[0] == pytest.approx(2.0 + 0.5, abs=1e-12)


def test_time_average_matches_riemann_oracle():
    # independent check: dense midpoint quadrature over the sawtooth
    trace = simulate(SystemParams(0.6, 1.0), 400, 17)
    path = aoi_path(trace)
    lo, hi = path.support
    a, b = lo + 0.1 * (hi - lo), lo + 0.9 * (hi - lo)
    grid = np.linspace(a, b, 2_000_001)
    mids = 0.5 * (grid[:-1] + grid[1:])
    riemann = path.evaluate(mids).mean()
    assert time_average_aoi(path, [a, b])[0] == pytest.approx(riemann, abs=2e-4)


def test_time_average_window_validation():
    path = aoi_path(crafted_trace())
    with pytest.raises(ParameterError):
        time_average_aoi(path, [5.0, 5.0])
    with pytest.raises(ParameterError):
        time_average_aoi(path, [1.0, 6.0])
    with pytest.raises(ParameterError):
        time_average_aoi(path, [4.0, 9.0])


def test_decision_ages_equal_path_evaluation():
    # pointwise identity: a decision's age is the sawtooth sampled at its epoch
    trace = simulate(SystemParams(0.5, 1.0), 20_000, 23)
    decisions = decisions_at(trace, poisson_epochs(1.5, trace.last_departure, SeededStream(23, 9)))
    path = aoi_path(trace)
    mask = decisions.defined
    assert np.allclose(
        decisions.ages[mask], path.evaluate(decisions.times[mask]), rtol=1e-12, atol=1e-9
    )
    # an age can never undercut the acted-on update's own time in the system
    floor = trace.system_times[decisions.freshest_index[mask]]
    assert (decisions.ages[mask] >= floor - 1e-9).all()


def test_pasta_time_average_matches_decision_mean():
    trace = simulate(SystemParams(0.5, 1.0), 1_000_000, 42)
    warm_epoch = trace.departure_times[default_warmup(trace.n) - 1]
    horizon = trace.last_departure
    decisions = decisions_at(trace, poisson_epochs(1.0, horizon,
                                                   SeededStream(42, DECISION_STREAM)))
    ages = decisions.ages[decisions.defined & (decisions.times > warm_epoch)]
    est = _batch_means(lambda a, b: ages[a:b].mean(), 0, len(ages), 0.99)
    sawtooth_mean = time_average_aoi(aoi_path(trace), [warm_epoch, horizon])[0]
    assert abs(est.mean - sawtooth_mean) <= est.half_width


def test_empty_trace_rejected():
    with pytest.raises(ParameterError):
        UpdateTrace(np.array([]), np.array([]))


def sawtooth_reference(path, start, end):
    """One window at a time: the per-window integral the batched estimator replaced."""
    e, v = path.drop_epochs, path.drop_values
    seg_lo = np.maximum(e[:-1], start)
    seg_hi = np.minimum(e[1:], end)
    dur = np.clip(seg_hi - seg_lo, 0.0, None)
    age_at_lo = v[:-1] + (seg_lo - e[:-1])
    integral = float(np.sum(dur * age_at_lo + 0.5 * dur * dur))
    return integral / (end - start)


def assert_sawtooth_matches_reference(path, edges):
    batched = time_average_aoi(path, edges)
    reference = [sawtooth_reference(path, edges[i], edges[i + 1]) for i in range(len(edges) - 1)]
    assert np.array_equal(batched, reference)


@pytest.mark.parametrize("seed", [42, 1009])
def test_batched_sawtooth_is_bit_identical_to_window_scan(seed):
    trace = simulate(SystemParams(0.5, 1.0), 100_000, seed)
    warm_epoch = trace.departure_times[default_warmup(trace.n) - 1]
    edges = np.linspace(warm_epoch, trace.last_departure, 101)
    assert_sawtooth_matches_reference(aoi_path(trace), edges)


def test_batched_sawtooth_window_edge_cases():
    trace = simulate(SystemParams(0.6, 1.0), 3000, 11)
    path = aoi_path(trace)
    drops = path.drop_epochs
    # edges exactly on drop epochs, including both ends of the support
    assert_sawtooth_matches_reference(path, drops[[0, 1, 2, 700, 701, 2999]])
    # a single window
    assert_sawtooth_matches_reference(path, [drops[5] + 0.25, drops[2000] - 0.25])
    with pytest.raises(ParameterError):
        time_average_aoi(path, [drops[0], drops[10], drops[9]])


def test_sawtooth_matches_the_padded_sum_at_a_million_updates():
    trace = simulate(SystemParams(0.5, 1.0), 1_000_000, 7)
    path = aoi_path(trace)
    drops = path.drop_epochs
    terms = len(drops) - 1  # one per segment
    split = terms // 2 - terms // 2 % 8  # the root split of numpy's pairwise tree
    assert_sawtooth_matches_reference(path, np.linspace(drops[1000], drops[-1], 11))
    # straddling the root split: within one leaf, and across several leaves
    assert_sawtooth_matches_reference(path, [drops[split - 3] + 0.25, drops[split + 2]])
    assert_sawtooth_matches_reference(path, [drops[split - 200], drops[split + 300] - 0.25])


def decisions_reference(trace, times):
    """Search each decision epoch into the departures: the scan decisions_at replaced."""
    times = np.asarray(times, dtype=float)
    freshest = np.searchsorted(trace.departure_times, times, side="right") - 1
    defined = freshest >= 0
    generation = np.full(len(times), np.nan)
    ages = np.full(len(times), np.nan)
    generation[defined] = trace.arrival_times[freshest[defined]]
    ages[defined] = times[defined] - generation[defined]
    freshest[~defined] = -1
    return freshest, generation, ages


def assert_decisions_match_reference(trace, times):
    decisions = decisions_at(trace, times)
    freshest, generation, ages = decisions_reference(trace, times)
    assert decisions.freshest_index.dtype == freshest.dtype
    assert np.array_equal(decisions.freshest_index, freshest)
    assert np.array_equal(decisions.generation_times, generation, equal_nan=True)
    assert np.array_equal(decisions.ages, ages, equal_nan=True)


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
    empty = decisions_at(trace, [])
    assert len(empty) == 0 and empty.freshest_index.dtype == np.intp


def test_decisions_at_rejects_unsorted_epochs():
    with pytest.raises(ParameterError):
        decisions_at(crafted_trace(), [3.0, 6.0, 4.0])


def assert_slice_matches_full_call(trace, epochs, a, b):
    full = decisions_at(trace, epochs)
    part = decisions_at(trace, epochs[a:b])
    assert np.array_equal(part.times, full.times[a:b])
    assert part.freshest_index.dtype == full.freshest_index.dtype
    assert np.array_equal(part.freshest_index, full.freshest_index[a:b])
    assert np.array_equal(part.generation_times, full.generation_times[a:b], equal_nan=True)
    assert np.array_equal(part.ages, full.ages[a:b], equal_nan=True)


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
    inside = decisions_at(trace, [5.5, 6.0, 7.0])
    assert list(inside.freshest_index) == [1, 1, 1]


def test_epoch_generators_match_the_record_builders():
    trace = simulate(SystemParams(0.5, 1.0), 5000, 3)
    horizon = trace.last_departure
    epochs = poisson_epochs(2.0, horizon, SeededStream(3, 9))
    assert np.array_equal(epochs, poisson_epochs(2.0, horizon, SeededStream(3, 9)))
    assert np.array_equal(epochs, decisions_at(trace, epochs).times)
    assert 0.0 < epochs[0] and epochs[-1] <= horizon < epochs[-1] + 10.0
    with pytest.raises(ParameterError):
        poisson_epochs(0.0, 5.0, SeededStream(0, DECISION_STREAM))
    with pytest.raises(ParameterError):
        poisson_epochs(1.0, math.inf, SeededStream(0, DECISION_STREAM))


def tied_departure_runs():
    # updates 0-1 and 2-3 depart in tied pairs (1 and 3 after zero service times)
    return UpdateTrace(np.array([1.0, 1.5, 3.0, 3.5, 5.0, 6.0, 7.0]),
                       np.array([2.0, 2.0, 4.0, 4.0, 6.0, 7.0, 8.0]))


def assert_generation_epochs_match_reference(trace, times):
    times = np.asarray(times, dtype=float)
    freshest, generation, _ = decisions_reference(trace, times)
    got, k0, counts = _generation_epochs(trace, times)
    assert np.array_equal(got, generation, equal_nan=True)
    assert k0 == np.searchsorted(trace.departure_times, times[0], side="right")
    assert np.array_equal(np.repeat(np.arange(k0 - 1, k0 - 1 + len(counts)), counts), freshest)
    k1 = np.searchsorted(trace.departure_times, times[-1], side="right")
    assert len(counts) == k1 - k0 + 1


def test_generation_epochs_search_the_shorter_side():
    trace = tied_departure_runs()
    # fewer epochs than departures in their span: 2.0 and 4.0 fall on tied
    # departures and act on the later update, 7.0 on a single departure
    sparse = [2.0, 4.0, 7.0]
    k0, k1 = np.searchsorted(trace.departure_times, [2.0, 7.0], side="right")
    assert k1 - k0 > len(sparse)
    assert_generation_epochs_match_reference(trace, sparse)
    assert_generation_epochs_match_reference(trace, [1.5, 6.5])  # from before the first departure
    assert list(_generation_epochs(trace, np.array([2.0, 4.0, 7.0]))[0]) == [1.5, 3.5, 6.0]
    # at least as many epochs as departures in their span
    dense = [1.5, 2.0, 2.0, 3.0, 4.0, 4.0, 5.0, 7.0, 8.0]
    assert_generation_epochs_match_reference(trace, dense)
    assert_generation_epochs_match_reference(trace, [2.0, 4.0])
    for times in (sparse, dense):
        times = np.array(times)
        assert _mean_age(trace, times[times >= 2.0]) == decisions_at(
            trace, times[times >= 2.0]).ages.mean()

