"""Age-upon-decisions analysis for FCFS update-and-decide queues.

A receiver acts on status updates flowing through a single-server queue;
each decision uses the freshest update already delivered, and the age upon
decision is the elapsed time since that update was generated.  The package
pairs closed-form steady-state results for the M/M/1 case with a seeded
simulator of the same queue and the statistical machinery to certify one
against the other.
"""

from .analytic import (
    AnalyticReport,
    OptimalOperatingPoint,
    analytic_report,
    average_aud,
    average_aud_renewal,
    cross_moment_system_interdeparture,
    interdeparture_mgf,
    interdeparture_mgf_given_busy_arrival,
    interdeparture_mgf_given_idle_arrival,
    mean_interdeparture,
    mean_system_time,
    optimal_utilization,
    prob_busy_on_arrival,
    second_moment_interdeparture,
    stationary_queue_dist,
    system_time_rate,
)
from .decisions import (
    AoiPath,
    AudSummary,
    DecisionRecord,
    DecisionSet,
    aoi_path,
    average_aud as empirical_average_aud,
    decisions_at,
    generate_decisions,
    time_average_aoi,
)
from .distributions import (
    ARRIVAL_STREAM,
    DECISION_STREAM,
    SERVICE_STREAM,
    SeededStream,
)
from .errors import (
    AudLabError,
    DivergenceError,
    InsufficientDataError,
    ParameterError,
    StabilityError,
    TruncationError,
)
from .experiments import (
    ExperimentConfig,
    NuInvarianceResult,
    SweepResult,
    ValidationReport,
    build_config,
    run_nu_invariance,
    run_sweep,
    run_validation,
)
from .queueing import (
    QueueLengthPath,
    SystemParams,
    UpdateTrace,
    default_warmup,
    empirical_prob_arrival_sees_busy,
    occupancy_fractions,
    queue_length_process,
    simulate,
)
from .stats import (
    EstimateWithCI,
    KsResult,
    batch_means_ci,
    kolmogorov_sf,
    ks_exponential,
    mean_ci,
)

__version__ = "0.1.0"
