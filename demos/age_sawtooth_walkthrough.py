"""Tiny worked example of the age process and decisions sampling it.

Ten updates flow through the queue; the script prints the per-update
timeline, the sawtooth the receiver's age follows, and a handful of
decision epochs with the update each one acts on.  A long run then shows
that Poisson-timed decisions reproduce the sawtooth's time average.
"""
import numpy as np

from aud_lab import (
    SeededStream,
    SystemParams,
    aoi_path,
    decisions_at,
    default_warmup,
    poisson_epochs,
    simulate,
    time_average_aoi,
)
from aud_lab.distributions import DECISION_STREAM

params = SystemParams(0.5, 1.0)
trace = simulate(params, 10, 1)

print(f"{'k':>2} {'arrival':>8} {'start':>8} {'depart':>8} {'waited':>7} {'system':>7}")
for k in range(trace.n):
    print(f"{k + 1:2d} {trace.arrival_times[k]:8.3f} {trace.service_start_times[k]:8.3f} "
          f"{trace.departure_times[k]:8.3f} {trace.waiting_times[k]:7.3f} "
          f"{trace.system_times[k]:7.3f}")

path = aoi_path(trace)
print("\nsawtooth vertices (epoch, age):")
for epoch, age in path.vertices():
    print(f"  ({epoch:7.3f}, {age:6.3f})")

lo, hi = path.support
taus = np.round(np.linspace(lo + 0.5, hi - 0.5, 5), 3)
decisions = decisions_at(trace, taus)
print("\ndecisions:")
for rec in (decisions[j] for j in range(len(decisions))):
    print(f"  t={rec.time:7.3f} acts on update {rec.freshest_index + 1} "
          f"(generated {rec.generation_time:.3f}) -> age {rec.age:.3f}")

long_trace = simulate(params, 200_000, 9)
warm_epoch = long_trace.departure_times[default_warmup(long_trace.n) - 1]
poisson = decisions_at(long_trace, poisson_epochs(1.0, long_trace.last_departure,
                                                  SeededStream(9, DECISION_STREAM)))
kept = poisson.ages[poisson.defined & (poisson.times > warm_epoch)]
sawtooth_avg = time_average_aoi(aoi_path(long_trace), [warm_epoch, long_trace.last_departure])[0]
print(f"\nlong run: sawtooth time average {sawtooth_avg:.4f}, "
      f"decision-sampled mean {kept.mean():.4f} "
      f"({len(poisson) - poisson.n_undefined} decisions)")
