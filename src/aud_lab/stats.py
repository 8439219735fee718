"""Estimators and goodness-of-fit tests used to certify simulation output.

Confidence intervals use the normal approximation (every certification run
has n >= 1e4); serially correlated series such as decision ages go through
batch means so the interval width reflects the true estimator variance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .decisions import DecisionSet
from .errors import InsufficientDataError, ParameterError
from .queueing import UpdateTrace


def z_value(confidence: float) -> float:
    """Two-sided normal quantile at ``confidence``.

    A confidence so close to 1 that its upper tail level 0.5 * (1 +
    confidence) rounds to 1 raises ParameterError: it has no finite z.
    """
    if not 0.0 < confidence < 1.0:
        raise ParameterError(f"confidence must be in (0, 1), got {confidence}")
    level = 0.5 * (1.0 + confidence)
    if level == 1.0:
        raise ParameterError(f"confidence {confidence!r} is too close to 1: "
                             "its tail level rounds to 1 and has no finite z")
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
    """Normal-approximation CI for the mean of (approximately) i.i.d. samples."""
    x = np.asarray(samples, dtype=float)
    if x.size < 2:
        raise InsufficientDataError(f"need at least 2 samples, got {x.size}")
    z = z_value(confidence)
    half = z * float(x.std(ddof=1)) / math.sqrt(x.size)
    return EstimateWithCI(float(x.mean()), half, int(x.size), confidence)


def batch_means_ci(samples, confidence: float = 0.99, n_batches: int = 100) -> EstimateWithCI:
    """CI for the mean of a serially correlated series via batch means.

    The series is split in order into ``n_batches`` equal batches (tail
    remainder dropped); batch averages are near-independent once batches
    are long against the correlation time, so the usual CI applies to them.
    ``n`` in the result is the number of batches.
    """
    x = np.asarray(samples, dtype=float)
    if n_batches < 2:
        raise ParameterError(f"need at least 2 batches, got {n_batches}")
    if x.size < n_batches:
        raise InsufficientDataError(f"need >= {n_batches} samples, got {x.size}")
    per = x.size // n_batches
    return ci_from_batch_means(x[: per * n_batches].reshape(n_batches, per).mean(axis=1),
                               confidence)


def ci_from_batch_means(means, confidence: float = 0.99) -> EstimateWithCI:
    """CI for the grand mean from already computed, near-independent batch means.

    ``n`` in the result is the number of batches.
    """
    means = np.asarray(means, dtype=float)
    z = z_value(confidence)
    half = z * float(means.std(ddof=1)) / math.sqrt(means.size)
    return EstimateWithCI(float(means.mean()), half, int(means.size), confidence)


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


def _ks_from_cdf_values(cdf_sorted: np.ndarray) -> KsResult:
    n = len(cdf_sorted)
    i = np.arange(1, n + 1, dtype=float)
    d_plus = float((i / n - cdf_sorted).max())
    d_minus = float((cdf_sorted - (i - 1.0) / n).max())
    d = max(d_plus, d_minus)
    p = kolmogorov_sf(math.sqrt(n) * d)
    return KsResult(d, p, n, p < 0.01)


def ks_exponential(samples, rate: float) -> KsResult:
    """K-S test of the samples against Exponential(rate)."""
    x = np.asarray(samples, dtype=float)
    if x.size < 50:
        raise InsufficientDataError(f"K-S needs at least 50 samples, got {x.size}")
    if not (math.isfinite(rate) and rate > 0.0):
        raise ParameterError(f"rate must be positive, got {rate!r}")
    cdf = 1.0 - np.exp(-rate * np.sort(x))
    return _ks_from_cdf_values(cdf)


def ks_uniform(samples) -> KsResult:
    """K-S test of the samples against Uniform(0, 1)."""
    x = np.asarray(samples, dtype=float)
    if x.size < 50:
        raise InsufficientDataError(f"K-S needs at least 50 samples, got {x.size}")
    cdf = np.clip(np.sort(x), 0.0, 1.0)
    return _ks_from_cdf_values(cdf)


def uniformity_offsets(decisions: DecisionSet, trace: UpdateTrace) -> KsResult:
    """Test that decision offsets are uniform within their departure gaps.

    Each decision inside a complete inter-departure interval is mapped to
    (tau - previous departure) / interval length; under Poisson decisions
    these normalized offsets are i.i.d. Uniform(0, 1).  Decisions before
    the first departure or after the last complete interval are skipped.
    """
    eligible = (decisions.freshest_index >= 0) & (decisions.freshest_index < trace.n - 1)
    if int(eligible.sum()) < 50:
        raise InsufficientDataError(
            f"need >= 50 decisions inside complete intervals, got {int(eligible.sum())}"
        )
    idx = decisions.freshest_index[eligible]
    left = trace.departure_times[idx]
    right = trace.departure_times[idx + 1]
    offsets = (decisions.times[eligible] - left) / (right - left)
    return ks_uniform(offsets)
