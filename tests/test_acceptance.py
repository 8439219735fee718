"""Acceptance suite: every release-gating criterion at its stated tolerance.

Each test records a PASS/FAIL line (printed in the terminal summary) and
asserts the criterion.  Heavy traces are shared through module-scoped
fixtures; all runs are seeded and deterministic.
"""
import json
import math
import time

import numpy as np
import pytest

from conftest import record_criterion

from aud_lab import analytic
from aud_lab.decisions import aoi_path, time_average_aoi
from aud_lab.errors import StabilityError
from aud_lab.experiments import (
    ExperimentConfig,
    _batch_means,
    _simulate_point,
    decorrelation_lag,
    manifest_path_for,
    run_validation,
)
from aud_lab.queueing import (
    SystemParams,
    arrivals_seeing_busy,
    default_warmup,
    occupancy_fractions,
    queue_length_process,
    simulate,
)
from aud_lab.stats import ks_exponential, z_value

THEORY_AT_HALF = 3.5  # closed form at utilization 0.5, unit service rate
KS_PARAM_SETS = [(0.5, 1.0), (0.8, 1.0), (0.25, 0.5)]


@pytest.fixture(scope="module")
def trace_half():
    return simulate(SystemParams(0.5, 1.0), 1_000_000, 42)


@pytest.fixture(scope="module")
def point_half():
    """The half-load point as ``validate`` simulates it, and the seconds that took.

    ``point.aud(nu)`` is the mean age upon decisions that ``validate``,
    ``sweep`` and ``nu-invariance`` report at decision rate nu.
    """
    started = time.perf_counter()
    config = ExperimentConfig(n_updates=1_000_000, seed=42, decision_rates=(0.1, 1.0, 10.0))
    point = _simulate_point(config, 0, SystemParams(0.5, 1.0))
    return point, time.perf_counter() - started


@pytest.fixture(scope="module")
def ks_traces():
    """Traces sized so that 1e5 decorrelated system-time samples survive thinning."""
    traces = {}
    for i, (lam, mu) in enumerate(KS_PARAM_SETS):
        lag = decorrelation_lag(lam / mu)
        n = int(1.02 * lag * 100_000) + 2000
        traces[(lam, mu)] = simulate(SystemParams(lam, mu), n, 202 + i)
    return traces


def test_criterion_1_closed_form_reproduction(point_half):
    point, simulate_seconds = point_half
    started = time.perf_counter()
    est = point.aud(1.0)[0]
    elapsed = simulate_seconds + time.perf_counter() - started
    rel_err = abs(est.mean - THEORY_AT_HALF) / THEORY_AT_HALF
    passed = rel_err < 0.01 and elapsed < 10.0
    record_criterion(
        1, "closed-form reproduction at half load",
        passed, f"rel err {rel_err:.4%}, {elapsed:.1f}s",
    )
    assert rel_err < 0.01
    assert elapsed < 10.0


def test_criterion_2_decision_rate_invariance(point_half):
    point, _ = point_half
    estimates = {nu: point.aud(nu)[0] for nu in (0.1, 1.0, 10.0)}
    worst_rel = max(abs(e.mean - THEORY_AT_HALF) / THEORY_AT_HALF for e in estimates.values())
    rates = sorted(estimates)
    overlaps = all(
        estimates[a].overlaps(estimates[b]) for i, a in enumerate(rates) for b in rates[i + 1:]
    )
    passed = worst_rel < 0.01 and overlaps
    record_criterion(
        2, "decision-rate invariance on a shared trace",
        passed, f"worst rel err {worst_rel:.4%}",
    )
    assert worst_rel < 0.01
    assert overlaps


def test_criterion_3_system_time_distribution(ks_traces):
    results = {}
    for (lam, mu), trace in ks_traces.items():
        params = SystemParams(lam, mu)
        warm = default_warmup(trace.n)
        lag = decorrelation_lag(params.utilization)
        samples = trace.system_times[warm:][::lag][:100_000]
        assert len(samples) == 100_000
        results[(lam, mu)] = ks_exponential(samples, analytic.system_time_rate(params))
    passed = not any(r.reject_at_001 for r in results.values())
    detail = "; ".join(f"({lam},{mu}) p={r.p_value:.3f}" for (lam, mu), r in results.items())
    record_criterion(3, "system times exponential at rate mu(1-rho)", passed, detail)
    assert passed, detail


def test_criterion_4_interdeparture_distribution(ks_traces):
    details = []
    passed = True
    for (lam, mu), trace in ks_traces.items():
        warm = default_warmup(trace.n)
        gaps = trace.interdeparture_times[warm:][:100_000]
        ks = ks_exponential(gaps, lam)
        mean_err = abs(gaps.mean() - 1.0 / lam) * lam
        second_err = abs((gaps**2).mean() - 2.0 / lam**2) / (2.0 / lam**2)
        ok = (not ks.reject_at_001) and mean_err < 0.01 and second_err < 0.02
        passed = passed and ok
        details.append(f"({lam},{mu}) p={ks.p_value:.3f} dE[Y]={mean_err:.3%} dE[Y2]={second_err:.3%}")
    record_criterion(4, "departure gaps exponential at the arrival rate", passed, "; ".join(details))
    assert passed, details


@pytest.mark.parametrize("lam,seed", [(0.5, 43), (0.8, 43)])
def test_criterion_5_queue_length_distribution(lam, seed):
    params = SystemParams(lam, 1.0)
    trace = simulate(params, 1_000_000, seed)
    warm_epoch = trace.departure_times[default_warmup(trace.n) - 1]
    horizon = trace.last_departure
    path = queue_length_process(trace)
    edges = np.linspace(warm_epoch, horizon, 101)
    per_batch = occupancy_fractions(path, 10, edges)
    mean = per_batch.mean(axis=0)
    half = z_value(0.99) * per_batch.std(axis=0, ddof=1) / 10.0
    pi = analytic.stationary_queue_dist(params, 10)
    inside = np.abs(mean - pi) <= half
    passed = bool(inside.all())
    record_criterion(
        5, f"occupancy matches geometric law (rho={lam})",
        passed, f"levels in CI: {int(inside.sum())}/11",
    )
    assert passed, (mean, pi, half)


@pytest.mark.parametrize("lam", [0.2, 0.5, 0.8])
def test_criterion_6_busy_probability(lam):
    # the estimate of validate's prob_busy_on_arrival check
    point = _simulate_point(ExperimentConfig(n_updates=1_000_000, seed=44), 0,
                            SystemParams(lam, 1.0))
    trace = point.trace
    est = _batch_means(lambda a, b: arrivals_seeing_busy(trace, a, b).mean(),
                       point.warm, trace.n - 1, 0.99)
    sigma = est.half_width / z_value(0.99)
    err = abs(est.mean - lam)
    passed = err <= 3.0 * sigma
    record_criterion(
        6, f"arrival-sees-busy probability equals utilization (rho={lam})",
        passed, f"err {err:.5f} vs 3-sigma {3 * sigma:.5f}",
    )
    assert passed
    assert est.mean == pytest.approx(lam, abs=0.01)


def test_criterion_6_mgf_mixture_identity():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(10):
        lam = rng.uniform(0.1, 2.0)
        mu = lam / rng.uniform(0.05, 0.95)
        p = SystemParams(lam, mu)
        s = rng.uniform(-2.0 * min(lam, mu), 0.95 * min(lam, mu))
        mixed = p.utilization * analytic.interdeparture_mgf_given_busy_arrival(p, s) + (
            1.0 - p.utilization
        ) * analytic.interdeparture_mgf_given_idle_arrival(p, s)
        worst = max(worst, abs(mixed - analytic.interdeparture_mgf(p, s)) / abs(
            analytic.interdeparture_mgf(p, s)))
    passed = worst <= 1e-10
    record_criterion(6, "transform mixture identity", passed, f"worst rel err {worst:.2e}")
    assert passed


def test_criterion_7_cross_moment(trace_half):
    warm = default_warmup(trace_half.n)
    products = (trace_half.system_times[:-1] * trace_half.interdeparture_times)[warm:]
    theory = analytic.cross_moment_system_interdeparture(SystemParams(0.5, 1.0))
    assert theory == pytest.approx(3.0, abs=1e-12)
    rel_err = abs(products.mean() - theory) / theory
    rng = np.random.default_rng(7)
    worst_dual = 0.0
    for _ in range(100):
        mu = rng.uniform(0.1, 10.0)
        rho = rng.uniform(0.01, 0.99)
        p = SystemParams(rho * mu, mu)
        worst_dual = max(
            worst_dual,
            abs(analytic.average_aud(p) - analytic.average_aud_renewal(p))
            / analytic.average_aud(p),
        )
    passed = rel_err < 0.02 and worst_dual < 1e-12
    record_criterion(
        7, "cross moment and dual derivation identity",
        passed, f"rel err {rel_err:.3%}, dual gap {worst_dual:.2e}",
    )
    assert rel_err < 0.02
    assert worst_dual < 1e-12


def test_criterion_8_figure_shapes():
    grid = np.linspace(0.01, 0.99, 981)
    curve = np.array([analytic.average_aud(SystemParams(r, 1.0)) for r in grid])
    idx = int(np.argmin(curve))
    u_shaped = (
        0 < idx < len(curve) - 1
        and (np.diff(curve[: idx + 1]) < 0).all()
        and (np.diff(curve[idx:]) > 0).all()
    )
    rho_star = float(grid[idx])
    mu_grid = np.linspace(0.55, 3.0, 250)
    decreasing = bool(
        (np.diff([analytic.average_aud(SystemParams(0.5, m)) for m in mu_grid]) < 0).all()
    )
    try:
        service_starved = analytic.average_aud(SystemParams(0.5, 0.05))
    except StabilityError:
        service_starved = math.inf  # unstable: age diverges outright
    arrival_starved = analytic.average_aud(SystemParams(0.05, 0.5))
    asymmetry = service_starved > arrival_starved
    passed = u_shaped and 0.45 <= rho_star <= 0.60 and decreasing and asymmetry
    record_criterion(
        8, "sweep curve shapes and divergence asymmetry",
        passed, f"minimum at utilization {rho_star:.3f}",
    )
    assert u_shaped and 0.45 <= rho_star <= 0.60
    assert decreasing
    assert asymmetry


def test_criterion_9_pasta_cross_check(point_half):
    point, _ = point_half
    aud_est = point.aud(1.0)[0]
    edges = np.linspace(point.warm_epoch, point.trace.last_departure, 101)
    batches = time_average_aoi(aoi_path(point.trace), edges)
    aoi_mean = batches.mean()
    aoi_half = z_value(0.99) * batches.std(ddof=1) / 10.0
    diff = abs(aoi_mean - aud_est.mean)
    allowance = aoi_half + aud_est.half_width
    passed = diff <= allowance
    record_criterion(
        9, "sawtooth time average equals decision-sampled mean",
        passed, f"diff {diff:.5f} vs allowance {allowance:.5f}",
    )
    assert passed


def test_criterion_10_validate_determinism(tmp_path):
    out = tmp_path / "validate.csv"
    config = ExperimentConfig(
        n_updates=200_000, seed=42, output_path=str(out), decision_rates=(0.1, 1.0, 10.0)
    )
    manifest = manifest_path_for(str(out))

    def run_once():
        report = run_validation(config)
        csv_bytes = out.read_bytes()
        manifest_lines = [
            line for line in open(manifest) if json.loads(line)["record"] != "timing"
        ]
        return report, csv_bytes, manifest_lines

    report_a, csv_a, manifest_a = run_once()
    report_b, csv_b, manifest_b = run_once()
    passed = report_a.passed and csv_a == csv_b and manifest_a == manifest_b
    record_criterion(
        10, "byte-identical validation reruns",
        passed, f"{len(report_a.checks)} checks, CSV {len(csv_a)} bytes",
    )
    assert report_a.passed, report_a.summary()
    assert csv_a == csv_b
    assert manifest_a == manifest_b
