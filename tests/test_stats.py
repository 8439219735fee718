import math

import numpy as np
import pytest
import scipy.stats

from aud_lab.decisions import decisions_at, poisson_epochs
from aud_lab.distributions import DECISION_STREAM, SeededStream, exponential_gaps
from aud_lab.errors import InsufficientDataError, ParameterError
from aud_lab.queueing import SystemParams, UpdateTrace, simulate
from aud_lab.stats import kolmogorov_sf, ks_exponential, mean_ci, z_value


def test_mean_ci_zero_variance():
    est = mean_ci([2.0, 2.0, 2.0, 2.0])
    assert est.mean == 2.0
    assert est.half_width == 0.0
    assert est.n == 4 and est.confidence == 0.99


def test_mean_ci_needs_two_samples():
    with pytest.raises(InsufficientDataError):
        mean_ci([1.0])


def test_mean_ci_against_scipy_z():
    x = np.linspace(0.0, 1.0, 101)
    est = mean_ci(x, confidence=0.95)
    z = scipy.stats.norm.ppf(0.975)
    assert est.half_width == pytest.approx(z * x.std(ddof=1) / math.sqrt(len(x)), rel=1e-12)


def test_ci_coverage_experiment():
    # 100 seeded replications of 1e6 exponential draws: the 99% CI must
    # contain the true mean 2.0 in at least 95 of them
    hits = 0
    for seed in range(100):
        draws = exponential_gaps(SeededStream(1000 + seed, 0), 0.5, 1_000_000)
        if mean_ci(draws, 0.99).contains(2.0):
            hits += 1
    assert hits >= 95


def test_z_value_bounds():
    assert z_value(0.99) == pytest.approx(2.5758, abs=1e-4)
    # the CLI's levels, the last one Bonferroni-adjusted over eleven occupancy levels
    for confidence in (0.9, 0.95, 0.99, 1.0 - 0.01 / 11):
        reference = scipy.stats.norm.ppf(0.5 * (1.0 + confidence))
        assert abs(z_value(confidence) - reference) <= 4 * math.ulp(reference)
    with pytest.raises(ParameterError):
        z_value(1.0)
    # 0.5 * (1 + c) rounds to 1 just below 1; the largest c below that keeps its z
    with pytest.raises(ParameterError, match="too close to 1"):
        z_value(1.0 - 2.0**-53)
    assert math.isfinite(z_value(1.0 - 2.0**-52))


def test_kolmogorov_sf_reference_points():
    # classical critical values of the asymptotic distribution
    assert kolmogorov_sf(1.3581) == pytest.approx(0.05, abs=5e-4)
    assert kolmogorov_sf(1.6276) == pytest.approx(0.01, abs=2e-4)
    assert kolmogorov_sf(0.05) == 1.0
    assert kolmogorov_sf(4.0) < 1e-12


def test_kolmogorov_sf_matches_scipy():
    for x in (0.3, 0.5, 0.8, 1.0, 1.5, 2.0, 3.0):
        assert kolmogorov_sf(x) == pytest.approx(scipy.stats.kstwobign.sf(x), abs=1e-8)


def test_ks_statistic_and_pvalue_match_scipy():
    draws = exponential_gaps(SeededStream(3, 0), 0.8, 5000)
    mine = ks_exponential(draws, 0.8)
    ref = scipy.stats.ks_1samp(
        draws, lambda x: 1.0 - np.exp(-0.8 * x), method="asymp"
    )
    assert mine.statistic == pytest.approx(ref.statistic, abs=1e-12)
    assert mine.p_value == pytest.approx(ref.pvalue, abs=1e-8)


def test_ks_on_gaps_of_tied_epochs_matches_scipy():
    # epochs on a 0.1 grid tie often; with zero service times the departures
    # tie with them, so the gaps hold zeros and repeated values
    arrivals = np.round(np.cumsum(exponential_gaps(SeededStream(5, 0), 1.0, 300)), 1)
    trace = UpdateTrace(arrivals, arrivals)
    gaps = trace.interdeparture_times
    assert (gaps == 0.0).sum() > 10
    mine = ks_exponential(gaps, 1.0)
    ref = scipy.stats.ks_1samp(gaps, lambda x: 1.0 - np.exp(-x), method="asymp")
    assert mine.statistic == pytest.approx(ref.statistic, abs=1e-12)
    assert mine.p_value == pytest.approx(ref.pvalue, abs=1e-8)


def test_ks_calibration_under_null():
    # drawing from the tested law: at most 2 false rejections at the 0.01
    # level over 100 seeded replications
    rejections = 0
    for seed in range(100):
        draws = exponential_gaps(SeededStream(5000 + seed, 0), 1.3, 10_000)
        if ks_exponential(draws, 1.3).reject_at_001:
            rejections += 1
    assert rejections <= 2


def test_ks_power_against_wrong_rate():
    draws = exponential_gaps(SeededStream(8, 0), 1.0, 10_000)
    assert ks_exponential(draws, 2.0).reject_at_001
    assert not ks_exponential(draws, 1.0).reject_at_001


def test_ks_requires_minimum_samples_and_valid_rate():
    with pytest.raises(InsufficientDataError):
        ks_exponential(np.ones(49), 1.0)
    with pytest.raises(ParameterError):
        ks_exponential(np.ones(100), 0.0)


def test_ks_system_times_not_rejected():
    # marginal system times of a half-loaded queue are exponential at rate
    # mu(1 - utilization); thinned samples decorrelate the series
    trace = simulate(SystemParams(0.5, 1.0), 1_300_000, 11)
    thinned = trace.system_times[10_000:][::12][:100_000]
    assert not ks_exponential(thinned, 0.5).reject_at_001


def test_uniform_offsets_of_poisson_decisions():
    trace = simulate(SystemParams(0.5, 1.0), 1_000_000, 42)
    decisions = decisions_at(
        trace, poisson_epochs(1.0, trace.last_departure, SeededStream(42, DECISION_STREAM))
    )
    # each decision inside a complete departure gap, as a fraction of that gap,
    # is Uniform(0, 1) under Poisson decisions
    idx = decisions.freshest_index
    inside = (idx >= 0) & (idx < trace.n - 1)
    left = trace.departure_times[idx[inside]]
    right = trace.departure_times[idx[inside] + 1]
    offsets = (decisions.times[inside] - left) / (right - left)
    assert scipy.stats.kstest(offsets, "uniform").pvalue >= 0.01
