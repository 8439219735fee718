"""Estimators and goodness-of-fit tests used to certify simulation output.

Confidence intervals use the normal approximation (every certification run
has n >= 1e4).  A serially correlated series such as the decision ages gets
its interval from its sums and counts over near-independent time windows
(``experiments._Point``): ``ratio_ci`` takes the ratio of their totals and
its delta-method interval, so the width reflects the true estimator variance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import InsufficientDataError, ParameterError


def z_value(confidence: float) -> float:
    """Two-sided normal quantile at ``confidence``.

    A confidence so close to 1 that its upper tail level 0.5 * (1 +
    confidence) rounds to 1 raises ParameterError: it has no finite z.  So
    does one so close to 0 that the level rounds to 0.5: its z is 0, and
    no standard error can be recovered from a half-width of z * SE.
    """
    if not 0.0 < confidence < 1.0:
        raise ParameterError(f"confidence must be in (0, 1), got {confidence}")
    level = 0.5 * (1.0 + confidence)
    if level == 1.0:
        raise ParameterError(f"confidence {confidence!r} is too close to 1: "
                             "its tail level rounds to 1 and has no finite z")
    if level == 0.5:
        raise ParameterError(f"confidence {confidence!r} is too close to 0: "
                             "its tail level rounds to 0.5 and gives z = 0")
    return NormalDist().inv_cdf(level)


@dataclass(frozen=True)
class EstimateWithCI:
    """Point estimate with a symmetric confidence interval half-width."""

    mean: float
    half_width: float
    confidence: float = 0.99


def mean_ci(samples, confidence: float = 0.99) -> EstimateWithCI:
    """Normal-approximation CI for the mean of (approximately) i.i.d. samples.

    Near-independent batch means are such samples.
    """
    x = np.asarray(samples, dtype=float)
    if x.size < 2:
        raise InsufficientDataError(f"need at least 2 samples, got {x.size}")
    z = z_value(confidence)
    half = z * float(x.std(ddof=1)) / math.sqrt(x.size)
    return EstimateWithCI(float(x.mean()), half, confidence)


def ratio_ci(sums, counts, confidence: float = 0.99) -> EstimateWithCI:
    """Normal-approximation CI for sum(sums) / sum(counts) over near-independent windows.

    The delta method gives the ratio R a standard error of
    sqrt(sum((sums - R * counts)**2) * K / (K - 1)) / sum(counts) over K
    windows; with equal counts that is ``mean_ci`` of the window means.  A
    window may hold no samples.
    """
    s, c = np.asarray(sums, dtype=float), np.asarray(counts, dtype=float)
    if s.size < 2:
        raise InsufficientDataError(f"need at least 2 windows, got {s.size}")
    total = float(c.sum())
    if not total > 0.0:
        raise InsufficientDataError("the windows hold no samples")
    ratio = float(s.sum()) / total
    residuals = s - ratio * c
    se = math.sqrt(float(np.square(residuals).sum()) * s.size / (s.size - 1)) / total
    return EstimateWithCI(ratio, z_value(confidence) * se, confidence)


def kolmogorov_sf(x: float) -> float:
    """Survival function of the asymptotic Kolmogorov distribution.

    Alternating series 2*sum((-1)^(k-1) exp(-2 k^2 x^2)), truncated once a
    term drops below 1e-10; below x = 0.1 the value is 1 to double precision.
    """
    if x <= 0.1:
        return 1.0
    total = 0.0
    sign = 1.0
    for k in range(1, 1000):
        term = math.exp(-2.0 * k * k * x * x)
        total += sign * term
        if term < 1e-10:
            break
        sign = -sign
    return min(1.0, max(0.0, 2.0 * total))


@dataclass(frozen=True)
class KsResult:
    """One-sample Kolmogorov-Smirnov outcome against a fully specified law."""

    statistic: float
    p_value: float
    n: int


def ks_exponential(samples, rate: float) -> KsResult:
    """K-S test of the samples against Exponential(rate).

    The law's CDF 1 - exp(-rate * x) is taken in place on one sorted copy of
    the samples, and each of D+ and D- needs one more array of the sample's
    size: two at a time, the same bits as the expressions written out.
    """
    x = np.asarray(samples, dtype=float)
    if x.size < 50:
        raise InsufficientDataError(f"K-S needs at least 50 samples, got {x.size}")
    if not (math.isfinite(rate) and rate > 0.0):
        raise ParameterError(f"rate must be positive, got {rate!r}")
    n = x.size
    cdf = np.sort(x)
    cdf *= -rate
    np.exp(cdf, out=cdf)
    np.subtract(1.0, cdf, out=cdf)
    upper = np.arange(1, n + 1, dtype=float)  # i / n
    upper /= n
    d_plus = float(np.subtract(upper, cdf, out=upper).max())
    del upper  # freed before the lower steps are built
    lower = np.arange(0, n, dtype=float)  # (i - 1) / n
    lower /= n
    d_minus = float(np.subtract(cdf, lower, out=lower).max())
    d = max(d_plus, d_minus)
    p = kolmogorov_sf(math.sqrt(n) * d)
    return KsResult(d, p, n)
