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
    martingale_residuals,
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
    variance_estimate,
)
from .rng import spawn
from .theory import (
    BernoulliConstants,
    TransportReport,
    bernoulli_constants,
    binary_relative_entropy,
    check_transportation,
    minimax_lower_bound_constant,
    misid_exponent,
    misid_upper_bound,
    regret_upper_bound_curve,
    worst_case_gap,
)

__version__ = "0.4.0"

__all__ = [
    "AdaptiveNeyman",
    "AllocationState",
    "BernoulliConstants",
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
    "bernoulli_constants",
    "best_arm",
    "binary_relative_entropy",
    "block_cut",
    "check_transportation",
    "consistency_curve",
    "fisher_information",
    "ipw_estimate",
    "kl_divergence",
    "lower_bound_alternative",
    "martingale_residuals",
    "minimax_lower_bound_constant",
    "misid_exponent",
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
    "variance_estimate",
    "worst_case_gap",
]
