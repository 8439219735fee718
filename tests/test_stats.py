import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from aud_lab.decisions import decisions_at, poisson_epochs
from aud_lab.distributions import DECISION_STREAM, SeededStream, exponential_gaps
from aud_lab.errors import InsufficientDataError, ParameterError
from aud_lab.queueing import SystemParams, UpdateTrace, simulate
from aud_lab.stats import kolmogorov_sf, ks_exponential, mean_ci, ratio_ci, z_value


def test_mean_ci_zero_variance():
    est = mean_ci([2.0, 2.0, 2.0, 2.0])
    assert est.mean == 2.0
    assert est.half_width == 0.0
    assert est.confidence == 0.99


def test_mean_ci_needs_two_samples():
    with pytest.raises(InsufficientDataError):
        mean_ci([1.0])


def test_mean_ci_against_scipy_z():
    x = np.linspace(0.0, 1.0, 101)
    est = mean_ci(x, confidence=0.95)
    z = scipy.stats.norm.ppf(0.975)
    assert est.half_width == pytest.approx(z * x.std(ddof=1) / math.sqrt(len(x)), rel=1e-12)


def test_ratio_ci_with_equal_counts_is_the_mean_ci_of_the_window_means():
    rng = np.random.default_rng(8)
    for count in (1, 7, 1000):
        sums = rng.exponential(size=100) * count
        ratio = ratio_ci(sums, np.full(100, count), 0.95)
        means = mean_ci(sums / count, 0.95)
        assert ratio.confidence == means.confidence == 0.95
        assert ratio.mean == pytest.approx(means.mean, rel=1e-12)
        assert ratio.half_width == pytest.approx(means.half_width, rel=1e-12)


def test_ratio_ci_of_windows_with_unequal_and_zero_counts():
    sums, counts = [3.0, 0.0, 5.0, 4.0], [1, 0, 2, 2]
    est = ratio_ci(sums, counts)
    assert est.mean == 12.0 / 5.0
    # residuals sums - R * counts: 0.6, 0, 0.2, -0.8, over 4 windows
    se = math.sqrt((0.6**2 + 0.2**2 + 0.8**2) * 4 / 3) / 5.0
    assert est.half_width == pytest.approx(z_value(0.99) * se, rel=1e-12)
    assert ratio_ci([2.0, 4.0], [1, 2]).half_width == 0.0  # one ratio in every window


def test_ratio_ci_needs_two_windows_and_a_sample():
    with pytest.raises(InsufficientDataError, match="at least 2 windows"):
        ratio_ci([1.0], [1])
    with pytest.raises(InsufficientDataError, match="at least 2 windows"):
        ratio_ci([], [])
    with pytest.raises(InsufficientDataError, match="no samples"):
        ratio_ci([0.0, 0.0, 0.0], [0, 0, 0])


def test_ci_coverage_experiment():
    # 100 seeded replications of 1e6 exponential draws: the 99% CI must
    # contain the true mean 2.0 in at least 95 of them
    hits = 0
    for seed in range(100):
        draws = exponential_gaps(SeededStream(1000 + seed, 0), 0.5, 1_000_000)
        est = mean_ci(draws, 0.99)
        hits += est.mean - est.half_width <= 2.0 <= est.mean + est.half_width
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


def ks_reference(samples, rate):
    """The statistic and p-value as ``ks_exponential`` once wrote them: one expression per term."""
    x = np.asarray(samples, dtype=float)
    cdf = 1.0 - np.exp(-rate * np.sort(x))
    n = x.size
    i = np.arange(1, n + 1, dtype=float)
    d = max(float((i / n - cdf).max()), float((cdf - (i - 1.0) / n).max()))
    return d, kolmogorov_sf(math.sqrt(n) * d), n


def test_ks_in_place_keeps_the_bits_of_the_written_out_terms():
    # exponential draws at the tested rate and off it, n = 50, tied values
    # (rounded draws and their zeros), and a sample given as a list
    draws = exponential_gaps(SeededStream(3, 0), 0.8, 100_000)
    for samples, rate in ((draws, 0.8), (draws, 1.1), (draws[:50], 0.8),
                          (np.round(draws[:5000], 1), 0.8), (np.round(draws[:300]), 2.0),
                          (draws[:777].tolist(), 0.3)):
        got = ks_exponential(samples, rate)
        assert (got.statistic, got.p_value, got.n) == ks_reference(samples, rate)
    tracemalloc.start()
    try:
        ks_exponential(draws, 0.8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the sorted copy and one array of steps, with 4 KiB of slack
    assert peak <= 2 * draws.nbytes + 4096, peak


def test_ks_calibration_under_null():
    # drawing from the tested law: at most 2 false rejections at the 0.01
    # level over 100 seeded replications
    rejections = 0
    for seed in range(100):
        draws = exponential_gaps(SeededStream(5000 + seed, 0), 1.3, 10_000)
        if ks_exponential(draws, 1.3).p_value < 0.01:
            rejections += 1
    assert rejections <= 2


def test_ks_power_against_wrong_rate():
    draws = exponential_gaps(SeededStream(8, 0), 1.0, 10_000)
    assert ks_exponential(draws, 2.0).p_value < 0.01
    assert ks_exponential(draws, 1.0).p_value >= 0.01


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
    assert ks_exponential(thinned, 0.5).p_value >= 0.01


def test_uniform_offsets_of_poisson_decisions():
    trace = simulate(SystemParams(0.5, 1.0), 1_000_000, 42)
    epochs = poisson_epochs(1.0, trace.last_departure, SeededStream(42, DECISION_STREAM))
    # each decision inside a complete departure gap, as a fraction of that gap,
    # is Uniform(0, 1) under Poisson decisions
    idx, _ = decisions_at(trace, epochs)
    inside = (idx >= 0) & (idx < trace.n - 1)
    left = trace.departure_times[idx[inside]]
    right = trace.departure_times[idx[inside] + 1]
    offsets = (epochs[inside] - left) / (right - left)
    assert scipy.stats.kstest(offsets, "uniform").pvalue >= 0.01
