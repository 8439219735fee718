"""Age-upon-decisions analysis for FCFS update-and-decide queues.

A receiver acts on status updates flowing through a single-server queue;
each decision uses the freshest update already delivered, and the age upon
decision is the elapsed time since that update was generated.  The package
pairs closed-form steady-state results for the M/M/1 case with a seeded
simulator of the same queue and the statistical machinery to certify one
against the other.

The names below are those the demos and the README quickstart use; the
rest of the API lives in the submodules (``aud_lab.experiments`` runs the
``aud-lab`` verbs).
"""

from .analytic import (
    analytic_report,
    average_aud,
    optimal_utilization,
    stationary_queue_dist,
    system_time_rate,
)
from .decisions import aoi_path, decisions_at, poisson_epochs, time_average_aoi
from .distributions import SeededStream
from .queueing import (
    SystemParams,
    arrivals_seeing_busy,
    default_warmup,
    occupancy_fractions,
    queue_length_process,
    simulate,
)
from .stats import ks_exponential

__version__ = "0.1.0"
