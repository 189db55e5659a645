"""fedcost: federated-learning cost simulation and control-variable optimization.

Simulates federated averaging over heterogeneous edge clients with per-round
time/energy accounting, schedules the uplink optimally, estimates the
convergence-difficulty ratio from pilot runs, and picks the client count K
and local step count E minimizing a blended time+energy cost under a
precision constraint.
"""

from .costmodel import (
    ConvergenceCoeffs,
    convergence_bound,
    expected_energy,
    expected_time_approx,
    expected_time_exact,
    p3_objective,
    rounds_needed,
    sampling_penalty,
)
from .datagen import (
    ClientShard,
    FederatedDataset,
    gen_synthetic,
    load_idx,
    partition_by_label,
)
from .learner import (
    ModelParams,
    RoundTrace,
    TrainConfig,
    aggregate,
    global_loss,
    local_sgd,
    run_fedavg,
)
from .optimizer import (
    AcsConfig,
    EstimationPlan,
    PilotRecord,
    RhoEstimate,
    Solution,
    acs_optimize,
    estimate_rho,
    grid_search,
    rho_from_pilots,
    run_pilots,
    solve_e_given_k,
    solve_k_given_e,
    verify_properties,
)
from .scheduler import RoundJob, Strategy, brute_force_min_time, round_time
from .system import (
    AveragedCosts,
    SystemProfile,
    averaged_costs,
    draw_round_costs,
    sample_profile,
)

__version__ = "0.1.0"
