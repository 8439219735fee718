"""Certify one simulated run against every closed-form distributional law.

System times and departure gaps are tested for exponentiality, the
occupancy histogram is compared level by level with the geometric
stationary law, and the busy-on-arrival probability and the system-time /
departure-gap cross moment are checked against their formulas.
"""
import numpy as np

from aud_lab import (
    SystemParams,
    arrivals_seeing_busy,
    default_warmup,
    ks_exponential,
    occupancy,
    simulate,
    stationary_queue_dist,
    system_time_rate,
)
from aud_lab.analytic import (
    cross_moment_system_interdeparture,
    mean_interdeparture,
    second_moment_interdeparture,
)
from aud_lab.experiments import decorrelation_lag

params = SystemParams(0.8, 1.0)
trace = simulate(params, 1_000_000, 7)
warm = default_warmup(trace.n)

lag = decorrelation_lag(params.utilization)
system_sample = trace.system_times[warm:][::lag][:100_000]
ks_t = ks_exponential(system_sample, system_time_rate(params))
print(f"system times (every {lag}th sample, n={ks_t.n}): "
      f"D={ks_t.statistic:.5f}, p={ks_t.p_value:.3f}")

gaps = trace.interdeparture_times[warm:][:100_000]
ks_y = ks_exponential(gaps, params.arrival_rate)
print(f"departure gaps (n={ks_y.n}): D={ks_y.statistic:.5f}, p={ks_y.p_value:.3f}")
print(f"gap mean {gaps.mean():.4f} vs {mean_interdeparture(params):.4f}, "
      f"second moment {np.mean(gaps**2):.4f} vs {second_moment_interdeparture(params):.4f}\n")

warm_epoch = trace.departure_times[warm - 1]
observed = occupancy(trace, 8, warm_epoch, trace.last_departure)
expected = stationary_queue_dist(params, 8)
print(f"{'level':>5} {'observed':>9} {'geometric':>9}")
for level, (obs, exp) in enumerate(zip(observed, expected)):
    print(f"{level:5d} {obs:9.5f} {exp:9.5f}")

busy = arrivals_seeing_busy(trace).mean()
print(f"\narrival sees busy: {busy:.4f} vs utilization {params.utilization:.4f}")
cross = (trace.system_times[:-1] * trace.interdeparture_times)[warm:].mean()
print(f"cross moment: {cross:.4f} vs {cross_moment_system_interdeparture(params):.4f}")
