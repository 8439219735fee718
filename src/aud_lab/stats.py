"""Estimators and goodness-of-fit tests used to certify simulation output.

Confidence intervals use the normal approximation (every certification run
has n >= 1e4).  A serially correlated series such as the decision ages gets
its interval from near-independent batch means (``experiments._batch_means``
feeds them to ``mean_ci``), so the width reflects the true estimator variance.
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
    n: int
    confidence: float = 0.99

    @property
    def lo(self) -> float:
        return self.mean - self.half_width

    @property
    def hi(self) -> float:
        return self.mean + self.half_width

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi

    def overlaps(self, other: "EstimateWithCI") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi


def mean_ci(samples, confidence: float = 0.99) -> EstimateWithCI:
    """Normal-approximation CI for the mean of (approximately) i.i.d. samples.

    Near-independent batch means are such samples; ``n`` is then the number
    of batches.
    """
    x = np.asarray(samples, dtype=float)
    if x.size < 2:
        raise InsufficientDataError(f"need at least 2 samples, got {x.size}")
    z = z_value(confidence)
    half = z * float(x.std(ddof=1)) / math.sqrt(x.size)
    return EstimateWithCI(float(x.mean()), half, int(x.size), confidence)


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
    reject_at_001: bool


def ks_exponential(samples, rate: float) -> KsResult:
    """K-S test of the samples against Exponential(rate)."""
    x = np.asarray(samples, dtype=float)
    if x.size < 50:
        raise InsufficientDataError(f"K-S needs at least 50 samples, got {x.size}")
    if not (math.isfinite(rate) and rate > 0.0):
        raise ParameterError(f"rate must be positive, got {rate!r}")
    cdf = 1.0 - np.exp(-rate * np.sort(x))
    n = x.size
    i = np.arange(1, n + 1, dtype=float)
    d_plus = float((i / n - cdf).max())
    d_minus = float((cdf - (i - 1.0) / n).max())
    d = max(d_plus, d_minus)
    p = kolmogorov_sf(math.sqrt(n) * d)
    return KsResult(d, p, n, p < 0.01)
