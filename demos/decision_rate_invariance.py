"""Deciding more often does not make decisions act on fresher data.

One simulated path is sampled by Poisson decision processes at three very
different rates; the per-rate mean ages agree pairwise within a few
window-means standard errors, and all match the closed form that contains no
decision rate at all.
"""
from aud_lab import SystemParams, average_aud
from aud_lab.experiments import ExperimentConfig, run_nu_invariance

params = SystemParams(0.5, 1.0)
config = ExperimentConfig(
    arrival_rates=(params.arrival_rate,),
    service_rates=(params.service_rate,),
    decision_rates=(0.1, 1.0, 10.0),
    n_updates=1_000_000,
    seed=42,
)
result = run_nu_invariance(config)

theory = average_aud(params)
print(f"closed-form average age: {theory:.4f} (no decision rate anywhere in it)\n")
print(f"{'decision rate':>14} {'decisions':>10} {'mean age':>9} {'99% ci±':>9}")
for row in result.sweep.rows:
    print(f"{row.decision_rate:14.1f} {row.n_decisions:10d} "
          f"{row.empirical_aud:9.4f} {row.ci_half_width:9.4f}")

print(f"\nworst pairwise difference: {result.worst_se_ratio:.4f} standard errors "
      f"(gate {result.z:.4f}) -> " + ("consistent" if result.consistent else "inconsistent"))
