"""Closed-form steady-state quantities for the M/M/1 update-and-decide queue.

These are the oracles the simulator is checked against.  The average age
upon decisions is available through two independent derivations (a direct
closed form and a renewal-reward ratio of moments) that must agree to
near machine precision; keeping both guards each against transcription
slips in the other.

Every 1 - rho is written as (mu - lambda) / mu.  mu - lambda is exact for
rho >= 1/2 (Sterbenz's lemma), so no form cancels as rho -> 1: each is
within a few units of 2^-53 of its exact rational value over the whole
admitted box, down to 1 - rho = STABILITY_GUARD.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DivergenceError, ParameterError
from .queueing import SystemParams, require_stable


def stationary_queue_dist(params: SystemParams, max_length: int) -> np.ndarray:
    """Geometric stationary number-in-system probabilities for levels 0..max_length."""
    require_stable(params)
    if max_length < 0:
        raise ParameterError(f"max_length must be >= 0, got {max_length}")
    lam, mu = params.arrival_rate, params.service_rate
    return (mu - lam) / mu * params.utilization ** np.arange(max_length + 1)


def system_time_rate(params: SystemParams) -> float:
    """Exponential rate of the stationary system time: service_rate - arrival_rate."""
    require_stable(params)
    return params.service_rate - params.arrival_rate


def mean_interdeparture(params: SystemParams) -> float:
    require_stable(params)
    return 1.0 / params.arrival_rate


def second_moment_interdeparture(params: SystemParams) -> float:
    require_stable(params)
    return 2.0 / params.arrival_rate**2


def prob_busy_on_arrival(params: SystemParams) -> float:
    """Probability an arriving update finds its predecessor still in the system."""
    require_stable(params)
    return params.utilization


def interdeparture_mgf_given_idle_arrival(params: SystemParams, s: float) -> float:
    """MGF of the departure gap when the update arrived to an empty system.

    Such a gap is the leftover arrival wait plus a fresh service time, so
    the transform is the product of two exponential MGFs; it diverges for
    s >= arrival_rate, the smaller rate of a stable point.
    """
    require_stable(params)
    lam, mu = params.arrival_rate, params.service_rate
    if s >= lam:
        raise DivergenceError(f"transform diverges for s >= {lam:.6g}")
    return lam * mu / ((lam - s) * (mu - s))


def interdeparture_mgf_given_busy_arrival(params: SystemParams, s: float) -> float:
    """MGF of the departure gap when the update arrived to a busy system (pure service)."""
    require_stable(params)
    mu = params.service_rate
    if s >= mu:
        raise DivergenceError(f"transform diverges for s >= {mu:.6g}")
    return mu / (mu - s)


def interdeparture_mgf(params: SystemParams, s: float) -> float:
    """Unconditional MGF of the departure gap: exponential at the arrival rate."""
    require_stable(params)
    lam = params.arrival_rate
    if s >= lam:
        raise DivergenceError(f"transform diverges for s >= {lam:.6g}")
    return lam / (lam - s)


def cross_moment_system_interdeparture(params: SystemParams) -> float:
    """Expected product of an update's system time and the following departure gap.

    Diverges as utilization -> 0 (the idle-wait term grows like 1/utilization).
    """
    require_stable(params)
    lam, mu = params.arrival_rate, params.service_rate
    return 1.0 / (mu * (mu - lam)) + (mu - lam) / (mu * lam * mu)


def average_aud(params: SystemParams) -> float:
    """Mean age upon decisions; depends on the two queue rates only.

    Poisson-timed decisions see the time-average age (PASTA), so the
    decision rate does not appear: making decisions more often cannot make
    them act on fresher data.  It is (1/mu)(1 + 1/rho + rho^2/(1 - rho)).
    """
    require_stable(params)
    lam, mu = params.arrival_rate, params.service_rate
    return (1.0 + mu / lam + lam / mu * lam / (mu - lam)) / mu


def average_aud_renewal(params: SystemParams) -> float:
    """Mean age upon decisions assembled from renewal-reward moment ratios.

    Equals ``average_aud`` to within floating-point noise; the two paths are
    kept separate deliberately.
    """
    y1 = mean_interdeparture(params)
    y2 = second_moment_interdeparture(params)
    ty = cross_moment_system_interdeparture(params)
    return (y2 + 2.0 * ty) / (2.0 * y1)


def optimal_utilization() -> float:
    """The utilization rho* minimizing the average age upon decisions.

    service_rate * average_aud is g(rho) = 1 + 1/rho + rho^2/(1 - rho), so the
    minimizer does not depend on the service rate: the minimizing arrival
    rate is rho* times it.  g'(rho) = 0 clears to the palindromic quartic
    rho^4 - 2 rho^3 + rho^2 - 2 rho + 1 = 0; divided by rho^2 it is
    x^2 - 2x - 1 = 0 in x = rho + 1/rho, so x = 1 + sqrt(2) and

        rho* = (x - sqrt(x^2 - 4)) / 2 = (1 + sqrt(2) - sqrt(2 sqrt(2) - 1)) / 2.

    It is evaluated as 2 / (x + sqrt(x^2 - 4)), which adds where the first
    form cancels, and lands within an ulp of the root.
    """
    return 2.0 / (1.0 + math.sqrt(2.0) + math.sqrt(2.0 * math.sqrt(2.0) - 1.0))
