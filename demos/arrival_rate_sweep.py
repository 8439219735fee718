"""Sweep the arrival rate at fixed service capacity.

Average age upon decisions is large both when updates are rare (stale by
the time anyone acts) and when the queue is overloaded (updates arrive
fresh but wait forever).  The sweet spot sits near half utilization; this
script prints the analytic curve next to Monte Carlo estimates and writes
the same rows as CSV for plotting.
"""
import numpy as np

from aud_lab import optimal_utilization
from aud_lab.experiments import ExperimentConfig, run_sweep

config = ExperimentConfig(
    arrival_rates=tuple(np.round(np.arange(0.05, 0.96, 0.05), 10)),
    service_rates=(1.0,),
    decision_rates=(1.0,),
    n_updates=200_000,
    seed=2024,
    output_path="arrival_rate_sweep.csv",
)
result = run_sweep(config)

print(f"{'lambda':>8} {'analytic':>10} {'simulated':>10} {'ci±':>8}")
for row in result.rows:
    print(
        f"{row.arrival_rate:8.2f} {row.analytic_aud:10.4f} "
        f"{row.empirical_aud:10.4f} {row.ci_half_width:8.4f}"
    )

best = optimal_utilization(service_rate=1.0)
print(f"\nminimizing utilization: {best.utilization:.6f} "
      f"(arrival rate {best.arrival_rate:.6f} at unit service rate)")
print(f"rows written to {config.output_path}")
