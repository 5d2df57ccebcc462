"""Closed-form bounds and inequality verifiers for the two-armed problem.

Everything here is analytic except check_transportation, which backs the
change-of-measure inequality with Monte Carlo event frequencies from the
engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import Instance, _bernoulli_kl, kl_divergence
from .engine import Replications, TrialConfig, _require_int, replicate
from .policies import Policy


def _require(sigma1: float, sigma2: float, T: int | None = None, gap: float = 0.0) -> None:
    """Reject an input outside the bounds' domain, naming the argument."""
    # 1e50 is the schema's and Marginal's sigma limit; 2^53 TrialConfig's budget limit.
    for name, sigma in (("sigma1", sigma1), ("sigma2", sigma2)):
        if not 0.0 < sigma <= 1e50:
            raise ValueError(f"{name} must lie in (0, 1e50], got {sigma!r}")
    if not 0.0 <= gap < math.inf:
        raise ValueError(f"gap must be finite and >= 0, got {gap!r}")
    if T is not None:
        _require_int("T", T, 53)
        if T < 1:
            raise ValueError(f"budget T must be >= 1, got {T}")


def chernoff_envelope(sigma1: float, sigma2: float) -> float:
    """sqrt(T) times the peak of gap * misid_upper_bound: (sigma1+sigma2)/sqrt(e).

    Verify check 3 enforces it as an upper envelope on scaled regret, and
    every simulated allocation sits well below it: at sigmas (1, 3),
    x = 0.75 and T = 2000 uniform allocation scores 0.736 against 2.43, so
    the check cannot tell Neyman allocation from uniform.
    """
    _require(sigma1, sigma2)
    return (sigma1 + sigma2) * math.exp(-0.5)


def _misid_exponent(sigma1: float, sigma2: float, gap: float, T: int) -> float:
    """Raw exponent T*gap^2 / (2*(sigma1+sigma2)^2) of misid_upper_bound."""
    _require(sigma1, sigma2, T, gap)
    s = sigma1 + sigma2
    denominator = 2.0 * s * s
    if denominator == 0.0:
        raise ValueError(
            f"standard deviations ({sigma1!r}, {sigma2!r}) are too small: "
            "2*(sigma1+sigma2)^2 underflows to 0"
        )
    return T * gap * gap / denominator


def misid_upper_bound(sigma1: float, sigma2: float, gap: float, T: int) -> float:
    """Chernoff-type misidentification bound exp(-T*gap^2/(2*(s1+s2)^2)).

    Holds for the Neyman allocation on Gaussian arms. Times the gap it is
    the simple-regret bound, which over gap >= 0 rises, peaks at
    worst_case_gap and falls; sqrt(T) times its peak is chernoff_envelope.
    """
    return math.exp(-_misid_exponent(sigma1, sigma2, gap, T))


def worst_case_gap(sigma1: float, sigma2: float, T: int) -> float:
    """The gap (sigma1+sigma2)/sqrt(T) maximizing the regret bound."""
    _require(sigma1, sigma2, T)
    return (sigma1 + sigma2) / math.sqrt(T)


def binary_relative_entropy(x: float, y: float) -> float:
    """KL divergence d(x, y) between Bernoulli(x) and Bernoulli(y).

    Conventions: d(x, x) = 0 including at the endpoints, and the result is
    +inf when y is 0 or 1 while x differs from it.
    """
    if not 0.0 <= x <= 1.0 or not 0.0 <= y <= 1.0:
        raise ValueError(f"arguments must lie in [0, 1], got ({x}, {y})")
    if x == y:
        return 0.0
    if y == 0.0 or y == 1.0:
        return math.inf
    if x == 0.0:
        return -math.log1p(-y)
    if x == 1.0:
        return -math.log(y)
    return _bernoulli_kl(x, y)


@dataclass(frozen=True)
class TransportReport:
    """Outcome of one change-of-measure inequality check.

    lhs is the allocation-weighted KL between the two models under the
    baseline; rhs the binary relative entropy between the two event
    frequencies. The inequality lhs >= rhs is a theorem, so `satisfied`
    allows 3 standard errors of Monte Carlo slack and a violation beyond
    that indicates a bug.
    """

    lhs: float
    rhs: float
    margin: float
    se: float
    satisfied: bool
    p_baseline: float
    p_alternative: float
    mean_n1: float


def _event_frequency(reps: Replications) -> tuple[float, float, float, float]:
    """(P(arm 1 recommended), its SE, mean N1, SE of mean N1) over one model's replications."""
    R = len(reps.n1)
    p = np.count_nonzero(reps.recommended == 1) / R
    p_se = math.sqrt(p * (1.0 - p) / R)
    n1_mean = float(reps.n1.mean())
    n1_sd = float(reps.n1.std(ddof=1)) if R > 1 else 0.0
    return p, p_se, n1_mean, n1_sd / math.sqrt(R)


def check_transportation(
    baseline: Instance,
    alternative: Instance,
    policy: Policy,
    T: int,
    R: int,
    seed: int,
    threads: int = 1,
) -> TransportReport:
    """Verify E[N1]*KL1 + E[N2]*KL2 >= d(P_base(E), P_alt(E)), E = {arm 1 recommended}.

    Expected pull counts are taken under the baseline model; KLs are
    closed form per arm; event frequencies come from Monte Carlo under
    both models with the same seed and the sample-mean estimator, in one
    replicate call, so both models read one fill of the tables. Count
    another event on the two Replications that call returns.
    """
    kl1 = kl_divergence(baseline.arm1, alternative.arm1)
    kl2 = kl_divergence(baseline.arm2, alternative.arm2)

    cfg = TrialConfig(baseline, T, policy, "sample_mean", seed)
    base_reps, alt_reps = replicate(cfg, R, threads, instances=[baseline, alternative])
    p, p_se, n1_mean, n1_mean_se = _event_frequency(base_reps)
    q, q_se, _, _ = _event_frequency(alt_reps)

    lhs = n1_mean * kl1 + (T - n1_mean) * kl2
    lhs_se = abs(kl1 - kl2) * n1_mean_se
    rhs = binary_relative_entropy(p, q)

    # Delta-method SE for d(p, q); pieces with zero sampling error
    # contribute nothing even where the derivative blows up.
    if p_se == 0.0 or p in (0.0, 1.0) or q in (0.0, 1.0):
        dp_term = 0.0
    else:
        dp = math.log(p / q) - math.log((1.0 - p) / (1.0 - q))
        dp_term = abs(dp) * p_se
    if q_se == 0.0 or q in (0.0, 1.0):
        dq_term = 0.0
    else:
        dq = (1.0 - p) / (1.0 - q) - p / q
        dq_term = abs(dq) * q_se
    se = math.sqrt(lhs_se * lhs_se + dp_term * dp_term + dq_term * dq_term)

    margin = lhs - rhs
    satisfied = lhs + 3.0 * se >= rhs
    return TransportReport(lhs, rhs, margin, se, satisfied, p, q, n1_mean)
