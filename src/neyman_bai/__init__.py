"""Two-armed fixed-budget best-arm identification toolkit.

Adaptive Neyman allocation with AIPW recommendation, oracle and uniform
baselines, a deterministic Monte Carlo engine and closed-form bound
calculators, plus a CLI (`neyman-bai`) wrapping it all.
"""

from .distributions import (
    Family,
    Instance,
    Marginal,
    best_arm,
    fisher_information,
    kl_divergence,
    lower_bound_alternative,
)
from .engine import (
    DEFAULT_GRID,
    ConsistencyPoint,
    MCReport,
    SweepPoint,
    SweepResult,
    TrialConfig,
    TrialResult,
    consistency_curve,
    replicate,
    run_monte_carlo,
    run_trial,
    run_trial_records,
    sweep_worst_case,
)
from .estimators import (
    RoundRecord,
    aipw_estimate,
    ipw_estimate,
    recommend,
    sample_mean_estimate,
)
from .policies import (
    AdaptiveNeyman,
    AllocationState,
    OracleNeyman,
    Policy,
    Uniform,
    allocation_probability,
    block_cut,
    policy_from_config,
    policy_to_config,
    update,
)
from .rng import spawn
from .theory import (
    TransportReport,
    binary_relative_entropy,
    check_transportation,
    minimax_lower_bound_constant,
    misid_upper_bound,
    regret_upper_bound_curve,
    worst_case_gap,
)

__version__ = "0.13.2"

__all__ = [
    "AdaptiveNeyman",
    "AllocationState",
    "ConsistencyPoint",
    "DEFAULT_GRID",
    "Family",
    "Instance",
    "MCReport",
    "Marginal",
    "OracleNeyman",
    "Policy",
    "RoundRecord",
    "SweepPoint",
    "SweepResult",
    "TransportReport",
    "TrialConfig",
    "TrialResult",
    "Uniform",
    "aipw_estimate",
    "allocation_probability",
    "best_arm",
    "binary_relative_entropy",
    "block_cut",
    "check_transportation",
    "consistency_curve",
    "fisher_information",
    "ipw_estimate",
    "kl_divergence",
    "lower_bound_alternative",
    "minimax_lower_bound_constant",
    "misid_upper_bound",
    "policy_from_config",
    "policy_to_config",
    "recommend",
    "regret_upper_bound_curve",
    "replicate",
    "run_monte_carlo",
    "run_trial",
    "run_trial_records",
    "sample_mean_estimate",
    "spawn",
    "sweep_worst_case",
    "update",
    "worst_case_gap",
]
