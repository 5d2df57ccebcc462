"""Closed-form bounds and inequality verifiers for the two-armed problem.

Everything here is analytic except check_transportation, which backs the
change-of-measure inequality with Monte Carlo event frequencies from the
engine. Probability bounds are clipped at 1; the raw exponent is exposed
separately so exponent-level identities can be tested without the clip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import Instance, kl_divergence
from .engine import Replications, TrialConfig, replicate
from .policies import Policy


def _require_sigmas(sigma1: float, sigma2: float) -> None:
    if sigma1 <= 0.0 or sigma2 <= 0.0:
        raise ValueError(
            f"standard deviations must be positive, got ({sigma1}, {sigma2})"
        )


def minimax_lower_bound_constant(sigma1: float, sigma2: float) -> float:
    """Worst-case constant (sigma1+sigma2)/sqrt(e) for sqrt(T)-scaled regret.

    No allocation can beat this asymptotically over Gaussian instances
    with these variances: sqrt(T) times the worst-case simple regret is at
    least this value in the large-T limit.
    """
    _require_sigmas(sigma1, sigma2)
    return (sigma1 + sigma2) * math.exp(-0.5)


def misid_exponent(sigma1: float, sigma2: float, gap: float, T: int) -> float:
    """Raw exponent T*gap^2 / (2*(sigma1+sigma2)^2), before any clipping."""
    _require_sigmas(sigma1, sigma2)
    if gap < 0.0:
        raise ValueError(f"gap must be nonnegative, got {gap}")
    if T < 1:
        raise ValueError(f"budget T must be >= 1, got {T}")
    s = sigma1 + sigma2
    return T * gap * gap / (2.0 * s * s)


def misid_upper_bound(sigma1: float, sigma2: float, gap: float, T: int) -> float:
    """Chernoff-type misidentification bound exp(-T*gap^2/(2*(s1+s2)^2)).

    Holds for the Neyman allocation on Gaussian arms; clipped at 1 so the
    result is always a probability.
    """
    return min(1.0, math.exp(-misid_exponent(sigma1, sigma2, gap, T)))


def regret_upper_bound_curve(sigma1: float, sigma2: float, T: int, gap: float) -> float:
    """Simple-regret bound gap * misid_upper_bound as a function of the gap.

    Over gap >= 0 the curve rises, peaks at worst_case_gap, and falls;
    sqrt(T) times its peak value equals minimax_lower_bound_constant.
    """
    return gap * misid_upper_bound(sigma1, sigma2, gap, T)


def worst_case_gap(sigma1: float, sigma2: float, T: int) -> float:
    """The gap (sigma1+sigma2)/sqrt(T) maximizing the regret bound curve."""
    _require_sigmas(sigma1, sigma2)
    if T < 1:
        raise ValueError(f"budget T must be >= 1, got {T}")
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
    return x * math.log(x / y) + (1.0 - x) * math.log((1.0 - x) / (1.0 - y))


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


def _event_frequency(
    instance: Instance,
    policy: Policy,
    T: int,
    R: int,
    seed: int,
    event: Callable[[Replications], np.ndarray],
    threads: int,
) -> tuple[float, float, float, float]:
    """(event prob, its SE, mean N1, SE of mean N1) under one model."""
    cfg = TrialConfig(instance, T, policy, "sample_mean", seed)
    reps = replicate(cfg, R, threads)
    hit = event(reps)
    if not (isinstance(hit, np.ndarray) and hit.dtype == np.bool_ and hit.shape == (R,)):
        shape = getattr(hit, "shape", None)
        raise ValueError(
            f"event must return a boolean array of shape ({R},), one entry per "
            f"replication; got {type(hit).__name__} with shape {shape}"
        )
    p = np.count_nonzero(hit) / R
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
    event: Callable[[Replications], np.ndarray] | None = None,
    threads: int = 1,
) -> TransportReport:
    """Verify E[N1]*KL1 + E[N2]*KL2 >= d(P_base(event), P_alt(event)).

    Expected pull counts are taken under the baseline model; KLs are
    closed form per arm; event frequencies come from Monte Carlo under
    both models with the same seed and the sample-mean estimator. `event`
    maps the R replications of one model to a boolean array of shape (R,)
    marking the replications in the event; anything else raises
    ValueError. The default event is {recommended arm == 1}.
    """
    kl1 = kl_divergence(baseline.arm1, alternative.arm1)
    kl2 = kl_divergence(baseline.arm2, alternative.arm2)
    if event is None:
        event = lambda reps: reps.recommended == 1

    p, p_se, n1_mean, n1_mean_se = _event_frequency(
        baseline, policy, T, R, seed, event, threads
    )
    q, q_se, _, _ = _event_frequency(
        alternative, policy, T, R, seed, event, threads
    )

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


@dataclass(frozen=True)
class BernoulliConstants:
    """The two lower-bound constants in circulation for Bernoulli arms.

    `stated` is the documented corollary value 2*sqrt(5/e). It does not
    follow from plugging the Bernoulli worst-case standard deviation 0.5
    into the Gaussian constant, which instead gives `variance_capped` =
    1/sqrt(e); nor does any p make sd(Bernoulli(p)) exceed 0.5, so the
    two disagree by a factor of 2*sqrt(5). Both are exposed as found and
    neither is corrected here.
    """

    stated: float
    variance_capped: float


def bernoulli_constants() -> BernoulliConstants:
    return BernoulliConstants(
        stated=2.0 * math.sqrt(5.0 / math.e),
        variance_capped=minimax_lower_bound_constant(0.5, 0.5),
    )
