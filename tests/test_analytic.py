import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad

from aud_lab import analytic
from aud_lab.errors import DivergenceError, StabilityError
from aud_lab.queueing import SystemParams

HALF = SystemParams(0.5, 1.0)


def test_stationary_distribution_head():
    pi = analytic.stationary_queue_dist(HALF, 2)
    assert pi.tolist() == pytest.approx([0.5, 0.25, 0.125], abs=1e-15)


def test_stationary_distribution_normalizes():
    pi = analytic.stationary_queue_dist(SystemParams(0.8, 1.0), 400)
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)
    assert analytic.stationary_queue_dist(SystemParams(1e-6, 1.0), 0)[0] == pytest.approx(1.0, abs=1e-5)


def test_system_time_density():
    assert analytic.system_time_rate(HALF) == pytest.approx(0.5)
    assert analytic.mean_system_time(HALF) == pytest.approx(2.0)


def test_interdeparture_density_and_moments():
    assert analytic.mean_interdeparture(HALF) == pytest.approx(2.0)
    assert analytic.second_moment_interdeparture(HALF) == pytest.approx(8.0)


def test_prob_busy_on_arrival():
    assert analytic.prob_busy_on_arrival(HALF) == pytest.approx(0.5)
    assert analytic.prob_busy_on_arrival(SystemParams(1e-9, 1.0)) == pytest.approx(0.0, abs=1e-8)


def test_conditional_mgf_values():
    assert analytic.interdeparture_mgf_given_idle_arrival(HALF, 0.0) == pytest.approx(1.0)
    assert analytic.interdeparture_mgf_given_idle_arrival(HALF, 0.25) == pytest.approx(8.0 / 3.0)
    assert analytic.interdeparture_mgf_given_busy_arrival(HALF, 0.0) == pytest.approx(1.0)
    assert analytic.interdeparture_mgf(HALF, 0.25) == pytest.approx(2.0)


def test_mgf_divergence_guard():
    with pytest.raises(DivergenceError):
        analytic.interdeparture_mgf_given_idle_arrival(HALF, 0.5)
    with pytest.raises(DivergenceError):
        analytic.interdeparture_mgf(HALF, 0.6)


def test_mgf_mixture_identity_random_s():
    # busy/idle mixture must reassemble the plain exponential transform
    rng = np.random.default_rng(1)
    for _ in range(10):
        lam = rng.uniform(0.1, 2.0)
        mu = lam / rng.uniform(0.05, 0.95)
        p = SystemParams(lam, mu)
        s = rng.uniform(-2.0 * min(lam, mu), 0.95 * min(lam, mu))
        rho = p.utilization
        mixed = rho * analytic.interdeparture_mgf_given_busy_arrival(p, s) + (
            1.0 - rho
        ) * analytic.interdeparture_mgf_given_idle_arrival(p, s)
        assert mixed == pytest.approx(analytic.interdeparture_mgf(p, s), rel=1e-10)


def test_conditional_mgf_against_quadrature():
    # double integral over the joint density of (leftover arrival wait, service)
    lam, mu, s = 0.5, 1.0, 0.2
    p = SystemParams(lam, mu)
    t_rate = mu * (1 - lam / mu)

    def inner(x, t):  # x: arrival epoch beyond t, weighted by conditional arrival density
        return t_rate * math.exp(-t_rate * t) * lam * math.exp(-lam * (x - t)) * math.exp(s * (x - t))

    leftover, _ = dblquad(inner, 0, 50, lambda t: t, lambda t: t + 60)
    service_part = mu / (mu - s)
    assert leftover * service_part == pytest.approx(
        analytic.interdeparture_mgf_given_idle_arrival(p, s), rel=1e-6
    )


def test_cross_moment_value_and_scaling():
    assert analytic.cross_moment_system_interdeparture(HALF) == pytest.approx(3.0)
    base = analytic.cross_moment_system_interdeparture(SystemParams(0.4, 0.9))
    scaled = analytic.cross_moment_system_interdeparture(SystemParams(1.2, 2.7))
    assert scaled == pytest.approx(base / 9.0, rel=1e-12)


def test_cross_moment_against_quadrature():
    # independent derivation: E[T S] + E[T (X - T)^+] with T, X, S independent
    lam, mu = 0.5, 1.0
    p = SystemParams(lam, mu)
    t_rate = mu * (1 - lam / mu)

    def integrand(t, x):
        return t * (x - t) * t_rate * math.exp(-t_rate * t) * lam * math.exp(-lam * x)

    idle_part, _ = dblquad(integrand, 0, 80, 0, lambda x: x)
    direct = idle_part + (1.0 / t_rate) * (1.0 / mu)
    assert direct == pytest.approx(analytic.cross_moment_system_interdeparture(p), rel=1e-6)


def test_average_aud_closed_form():
    assert analytic.average_aud(HALF) == pytest.approx(3.5, abs=1e-12)
    # scaling both rates by c scales the age by 1/c
    assert analytic.average_aud(SystemParams(0.25, 0.5)) == pytest.approx(7.0, abs=1e-12)


def test_average_aud_renewal_assembly():
    # (E[Y^2] + 2 E[T Y]) / (2 E[Y]) = (8 + 6) / 4 at utilization 0.5
    assert analytic.average_aud_renewal(HALF) == pytest.approx(3.5, abs=1e-12)


@pytest.mark.parametrize("rho", [0.1, 0.9])
def test_dual_paths_agree_at_extremes(rho):
    p = SystemParams(rho, 1.0)
    direct = analytic.average_aud(p)
    renewal = analytic.average_aud_renewal(p)
    assert abs(direct - renewal) / direct < 1e-12


def test_dual_paths_agree_on_random_grid():
    rng = np.random.default_rng(7)
    for _ in range(100):
        mu = rng.uniform(0.1, 10.0)
        rho = rng.uniform(0.01, 0.99)
        p = SystemParams(rho * mu, mu)
        direct = analytic.average_aud(p)
        assert abs(direct - analytic.average_aud_renewal(p)) / direct < 1e-12


def test_stability_guard():
    for lam in (1.0, 1.5, 1.0 - 1e-10):
        with pytest.raises(StabilityError):
            analytic.average_aud(SystemParams(lam, 1.0))
    with pytest.raises(StabilityError):
        analytic.stationary_queue_dist(SystemParams(2.0, 1.0), 3)
    # just inside the guard band still evaluates
    assert math.isfinite(analytic.average_aud(SystemParams(1.0 - 1e-6, 1.0)))


def test_optimal_utilization_in_expected_band():
    point = analytic.optimal_utilization(1.0)
    assert 0.45 <= point.utilization <= 0.60
    assert point.arrival_rate == pytest.approx(point.utilization)


def test_optimal_utilization_independent_of_service_rate():
    a = analytic.optimal_utilization(1.0)
    b = analytic.optimal_utilization(37.0)
    assert a.utilization == pytest.approx(b.utilization, abs=1e-12)
    assert b.arrival_rate == pytest.approx(37.0 * b.utilization, rel=1e-12)


def test_optimizer_agrees_with_derivative_bisection():
    # independent oracle: bisection on the analytic derivative of
    # g(r) = 1 + 1/r + r^2/(1-r), whose root is the minimizer
    def gprime(r):
        return -1.0 / r**2 + r * (2.0 - r) / (1.0 - r) ** 2

    lo, hi = 0.1, 0.9
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gprime(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    by_bisection = 0.5 * (lo + hi)
    by_search = analytic.optimal_utilization(1.0).utilization
    assert abs(by_search - by_bisection) <= 1e-9


def test_optimal_utilization_is_the_root_of_the_quartic():
    # the root below 1 of rho^4 - 2 rho^3 + rho^2 - 2 rho + 1 = 0, at 60 digits
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        two = decimal.Decimal(2)
        root = (1 + two.sqrt() - (2 * two.sqrt() - 1).sqrt()) / 2
        assert abs(root**4 - 2 * root**3 + root**2 - 2 * root + 1) < decimal.Decimal("1e-55")
        rho_star = analytic.optimal_utilization(1.0).utilization
        assert abs(decimal.Decimal(rho_star) - root) <= decimal.Decimal(math.ulp(rho_star))


def test_aud_curve_u_shape_in_arrival_rate():
    # strictly decreasing before the minimizer, strictly increasing after
    rho_star = analytic.optimal_utilization(1.0).utilization
    grid = np.linspace(0.001, 0.999, 1000)
    values = np.array([analytic.average_aud(SystemParams(r, 1.0)) for r in grid])
    below = values[grid <= rho_star]
    above = values[grid >= rho_star]
    assert (np.diff(below) < 0).all()
    assert (np.diff(above) > 0).all()


def test_aud_monotone_decreasing_in_service_rate():
    grid = np.linspace(0.51, 20.0, 500)
    values = np.array([analytic.average_aud(SystemParams(0.5, m)) for m in grid])
    assert (np.diff(values) < 0).all()
    # the formula's large-service-rate limit is the mean inter-arrival time
    assert analytic.average_aud(SystemParams(0.5, 1e7)) == pytest.approx(2.0, rel=1e-4)


def test_aud_blows_up_at_both_ends():
    assert analytic.average_aud(SystemParams(1e-6, 1.0)) > 1e5
    assert analytic.average_aud(SystemParams(1.0 - 1e-7, 1.0)) > 1e5


@given(
    c=st.floats(0.01, 100.0),
    rho=st.floats(0.02, 0.98),
    mu=st.floats(0.1, 10.0),
)
@settings(max_examples=100, deadline=None)
def test_rate_scaling_covariance(c, rho, mu):
    base = analytic.average_aud(SystemParams(rho * mu, mu))
    scaled = analytic.average_aud(SystemParams(c * rho * mu, c * mu))
    assert scaled * c == pytest.approx(base, rel=1e-9)


def test_analytic_report_consistency():
    params = SystemParams(0.8, 1.0)
    aud = analytic.average_aud(params)
    assert abs(aud - analytic.average_aud_renewal(params)) / aud < 1e-12
    head = analytic.stationary_queue_dist(params, 10)
    assert head.sum() <= 1.0
    assert len(head) == 11
    assert analytic.prob_busy_on_arrival(params) == pytest.approx(0.8)
