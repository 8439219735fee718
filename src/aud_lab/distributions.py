"""Seeded random-variate generation for inter-event times.

Every variate is an inverse-CDF transform of a uniform draw from a
counter-based Philox stream, so a given (seed, stream_id) pair reproduces
the same sequence on any platform, and distinct stream ids give
statistically independent streams for the arrival, service, and decision
processes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .errors import ParameterError

# Conventional stream ids for the three processes driving a simulation.
ARRIVAL_STREAM = 0
SERVICE_STREAM = 1
DECISION_STREAM = 2

_MASK64 = 0xFFFFFFFFFFFFFFFF


def splitmix64(x: int) -> int:
    """Stable 64-bit integer hash (splitmix64 finalizer)."""
    x &= _MASK64
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def _require_positive_finite(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ParameterError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class Exponential:
    """Exponential inter-event times with the given rate (mean 1/rate)."""

    rate: float

    def __post_init__(self):
        _require_positive_finite("rate", self.rate)

    @property
    def mean(self) -> float:
        return 1.0 / self.rate

    def from_uniform(self, u):
        """Map uniform draws on (0, 1) to variates via -ln(u)/rate."""
        return -np.log(u) / self.rate


@dataclass(frozen=True)
class Deterministic:
    """Degenerate distribution: every draw equals ``value``."""

    value: float

    def __post_init__(self):
        _require_positive_finite("value", self.value)

    @property
    def mean(self) -> float:
        return self.value

    def from_uniform(self, u):
        return np.full(np.shape(u), self.value, dtype=float)


@dataclass(frozen=True)
class Uniform:
    """Uniform inter-event times on (lo, hi) with 0 <= lo < hi."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ParameterError(f"bounds must be finite, got ({self.lo!r}, {self.hi!r})")
        if not (0.0 <= self.lo < self.hi):
            raise ParameterError(f"bounds must satisfy 0 <= lo < hi, got ({self.lo}, {self.hi})")

    @property
    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def from_uniform(self, u):
        return self.lo + (self.hi - self.lo) * np.asarray(u, dtype=float)


DistributionSpec = Union[Exponential, Deterministic, Uniform]


class SeededStream:
    """Reproducible uniform source identified by (seed, stream_id).

    Identical (seed, stream_id) pairs produce bit-identical sequences across
    runs and platforms; distinct stream ids key independent Philox streams.
    A stream is single-owner: never share one between concurrent consumers.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
            raise ParameterError(f"seed must be an integer, got {seed!r}")
        if isinstance(stream_id, bool) or not isinstance(stream_id, (int, np.integer)):
            raise ParameterError(f"stream_id must be an integer, got {stream_id!r}")
        if not 0 <= seed <= _MASK64:
            raise ParameterError(f"seed must fit in 64 bits, got {seed}")
        if stream_id < 0:
            raise ParameterError(f"stream_id must be non-negative, got {stream_id}")
        self.seed = int(seed)
        self.stream_id = int(stream_id) & _MASK64
        key = SeedSequence(
            entropy=self.seed,
            spawn_key=(self.stream_id & 0xFFFFFFFF, self.stream_id >> 32),
        )
        self._gen = Generator(Philox(key))

    def __repr__(self):
        return f"SeededStream(seed={self.seed}, stream_id={self.stream_id})"

    def uniform_open(self, size: int | None = None):
        """Uniform draws on the open interval (0, 1); exact 0.0 is rejected."""
        if size is None:
            u = self._gen.random()
            while u == 0.0:
                u = self._gen.random()
            return u
        if size < 0:
            raise ParameterError(f"size must be non-negative, got {size}")
        u = self._gen.random(size)
        bad = u == 0.0
        while bad.any():
            u[bad] = self._gen.random(int(bad.sum()))
            bad = u == 0.0
        return u


def sample(spec: DistributionSpec, stream: SeededStream) -> float:
    """Draw one inter-event time from ``spec`` using ``stream``."""
    return float(spec.from_uniform(stream.uniform_open()))


def sample_many(spec: DistributionSpec, stream: SeededStream, n: int) -> np.ndarray:
    """Draw ``n`` inter-event times from ``spec`` as a float array."""
    return np.asarray(spec.from_uniform(stream.uniform_open(n)), dtype=float)
