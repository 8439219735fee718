import decimal
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad

from aud_lab import analytic
from aud_lab.errors import DivergenceError, StabilityError
from aud_lab.queueing import STABILITY_GUARD, SystemParams

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


def admitted_points(count: int, seed: int) -> list[SystemParams]:
    """Stable points with both rates in [2^-64, 2^64]: the box's corners, then ``count`` drawn.

    The rates are log-uniform; every other point draws 1 - rho log-uniform
    down to STABILITY_GUARD, the others rho log-uniform over the whole box.
    """
    near_one = 1.0 - 2.0 * STABILITY_GUARD
    points = [SystemParams(2.0**-64, 2.0**64), SystemParams(near_one * 2.0**64, 2.0**64),
              SystemParams(2.0**-64, 2.0**-64 / near_one)]
    rng = random.Random(seed)
    while len(points) < count + 3:
        mu = 2.0 ** rng.uniform(-64, 64)
        rho = (1.0 - 10.0 ** rng.uniform(math.log10(STABILITY_GUARD), -0.3) if len(points) % 2
               else 2.0 ** rng.uniform(-128, 0))
        params = SystemParams(rho * mu, mu)
        if params.arrival_rate >= 2.0**-64 and params.is_stable:
            points.append(params)
    return points


# Each closed form's worst relative error over the admitted box, in units of
# 2^-53: one rounding of an exact result is at most 1, and each further
# operation adds about one.  Only writing 1 - rho as (mu - lambda) / mu keeps
# them there as rho -> 1: 1 - rho from the rounded rho cancels.
EXACT_FORMS = {
    "system_time_rate": (1, lambda lam, mu, rho: mu - lam),
    "mean_interdeparture": (1, lambda lam, mu, rho: 1 / lam),
    "second_moment_interdeparture": (2, lambda lam, mu, rho: 2 / lam**2),
    "prob_busy_on_arrival": (1, lambda lam, mu, rho: rho),
    "cross_moment_system_interdeparture":
        (4, lambda lam, mu, rho: 1 / (mu**2 * (1 - rho)) + (1 - rho) / (mu**2 * rho)),
    "average_aud": (4, lambda lam, mu, rho: (1 + 1 / rho + rho**2 / (1 - rho)) / mu),
    "average_aud_renewal": (5, lambda lam, mu, rho: (1 + 1 / rho + rho**2 / (1 - rho)) / mu),
}
EXACT_MGFS = {
    "interdeparture_mgf": (2, lambda lam, mu, s: lam / (lam - s)),
    "interdeparture_mgf_given_busy_arrival": (3, lambda lam, mu, s: mu / (mu - s)),
    "interdeparture_mgf_given_idle_arrival":
        (5, lambda lam, mu, s: lam * mu / ((lam - s) * (mu - s))),
}


def units_off(got: float, exact: Fraction) -> float:
    """The relative error of ``got`` against ``exact``, in units of 2^-53."""
    return float(abs(Fraction(got) - exact) / exact) * 2.0**53


def test_closed_forms_match_exact_rationals_over_the_admitted_box():
    # every closed form is rational in the two float rates (and s), so
    # Fraction arithmetic gives its exact value
    for params in admitted_points(300, 17):
        lam, mu = Fraction(params.arrival_rate), Fraction(params.service_rate)
        rho = lam / mu
        for name, (bound, exact) in EXACT_FORMS.items():
            got = getattr(analytic, name)(params)
            assert units_off(got, exact(lam, mu, rho)) <= bound, (name, params)
        for u in (-3.0, -1.0, 0.25, 0.5, 0.999):
            s = u * params.arrival_rate
            for name, (bound, exact) in EXACT_MGFS.items():
                got = getattr(analytic, name)(params, s)
                assert units_off(got, exact(lam, mu, Fraction(s))) <= bound, (name, params, u)
        # level k adds k roundings of rho; levels below the normal range lose
        # relative precision to gradual underflow and are not compared
        for k, got in enumerate(analytic.stationary_queue_dist(params, 40)):
            exact = (1 - rho) * rho**k
            if exact < Fraction(sys.float_info.min):
                break
            assert units_off(float(got), exact) <= 4 + k, (k, params)


def test_optimal_utilization_in_expected_band():
    rho_star = analytic.optimal_utilization()
    assert type(rho_star) is float and 0.45 <= rho_star <= 0.60


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
    by_search = analytic.optimal_utilization()
    assert abs(by_search - by_bisection) <= 1e-9


def test_optimal_utilization_is_the_root_of_the_quartic():
    # the root below 1 of rho^4 - 2 rho^3 + rho^2 - 2 rho + 1 = 0, at 60 digits
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        two = decimal.Decimal(2)
        root = (1 + two.sqrt() - (2 * two.sqrt() - 1).sqrt()) / 2
        assert abs(root**4 - 2 * root**3 + root**2 - 2 * root + 1) < decimal.Decimal("1e-55")
        rho_star = analytic.optimal_utilization()
        assert abs(decimal.Decimal(rho_star) - root) <= decimal.Decimal(math.ulp(rho_star))


def test_aud_curve_u_shape_in_arrival_rate():
    # strictly decreasing before the minimizer, strictly increasing after
    rho_star = analytic.optimal_utilization()
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
