"""Two-armed fixed-budget best-arm identification toolkit.

Adaptive Neyman allocation with AIPW recommendation, oracle and uniform
baselines, a deterministic Monte Carlo engine and closed-form bound
calculators, plus a CLI (`neyman-bai`) wrapping it all.
"""

from .distributions import (
    Family,
    Instance,
    Marginal,
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
    OracleNeyman,
    Policy,
    Uniform,
    block_cut,
)
from .rng import spawn
from .theory import (
    TransportReport,
    binary_relative_entropy,
    check_transportation,
    chernoff_envelope,
    misid_upper_bound,
    worst_case_gap,
)

__version__ = "0.15.0"

__all__ = [
    "AdaptiveNeyman",
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
    "binary_relative_entropy",
    "block_cut",
    "check_transportation",
    "chernoff_envelope",
    "consistency_curve",
    "fisher_information",
    "ipw_estimate",
    "kl_divergence",
    "lower_bound_alternative",
    "misid_upper_bound",
    "recommend",
    "replicate",
    "run_monte_carlo",
    "run_trial",
    "run_trial_records",
    "sample_mean_estimate",
    "spawn",
    "sweep_worst_case",
    "worst_case_gap",
]
