"""Allocation-phase policies.

Three policies cover the allocation phase of a two-armed fixed-budget
trial. AdaptiveNeyman estimates each arm's standard deviation online and
randomizes round t toward the Neyman target w(1) = sd(1)/(sd(1)+sd(2))
computed from rounds 1..t-1 only. OracleNeyman knows the true standard
deviations and plays the deterministic block schedule hitting the target
counts. Uniform is the 50/50 block schedule.

Variance estimates divide by n (population form). An estimate of zero, or
an arm with no observations yet, falls back to the floor eta, so the
allocation probability is always well defined; the probability is further
clamped to [w_min, 1-w_min] so importance weights downstream stay bounded
by 1/w_min.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class AdaptiveNeyman:
    """Online Neyman allocation; round 1 is a fair coin flip."""

    eta: float = 1e-3
    w_min: float = 0.01

    def __post_init__(self) -> None:
        if not 0.0 < self.eta < 1.0:
            raise ValueError(f"eta must lie strictly in (0, 1), got {self.eta}")
        if not 0.0 < self.w_min <= 0.5:
            raise ValueError(f"w_min must lie in (0, 0.5], got {self.w_min}")


@dataclass(frozen=True)
class OracleNeyman:
    """Neyman allocation with known standard deviations (block schedule)."""

    sigma1: float
    sigma2: float

    def __post_init__(self) -> None:
        if self.sigma1 <= 0.0 or self.sigma2 <= 0.0:
            raise ValueError("oracle standard deviations must be positive")

    @property
    def target_fraction(self) -> float:
        """w*(1) = sigma1 / (sigma1 + sigma2)."""
        return self.sigma1 / (self.sigma1 + self.sigma2)


@dataclass(frozen=True)
class Uniform:
    """Deterministic 50/50 block allocation: arm 1 first, then arm 2."""


Policy = AdaptiveNeyman | OracleNeyman | Uniform

POLICY_KINDS = ("adaptive_neyman", "oracle_neyman", "uniform")


@dataclass(frozen=True)
class AllocationState:
    """Running per-arm statistics, indexed by arm in {1, 2}.

    Holds, per arm: observation count n(a), running mean, and m2(a), the
    sum of squared deviations from the running mean (so m2/n is the
    population variance); n(1) + n(2) rounds have been played. States are
    immutable; `update` returns the successor state.
    """

    counts: tuple[int, int] = (0, 0)
    means: tuple[float, float] = (0.0, 0.0)
    m2: tuple[float, float] = (0.0, 0.0)

    def mean(self, a: int) -> float:
        return self.means[a - 1]


def update(state: AllocationState, a: int, y: float) -> AllocationState:
    """Fold one observation of arm a into the running statistics.

    Single-pass (Welford) recurrence: numerically stable, and after the
    update the running mean equals the arithmetic mean of all observations
    on the arm and m2/n their population variance, up to float round-off.
    """
    if a not in (1, 2):
        raise ValueError(f"arm must be 1 or 2, got {a}")
    i = a - 1
    n = state.counts[i] + 1
    delta = y - state.means[i]
    mean = state.means[i] + delta / n
    m2 = state.m2[i] + delta * (y - mean)

    counts = list(state.counts)
    means = list(state.means)
    m2s = list(state.m2)
    counts[i] = n
    means[i] = mean
    m2s[i] = m2
    return AllocationState(tuple(counts), tuple(means), tuple(m2s))


def variance_estimate(state: AllocationState, a: int, eta: float) -> float:
    """Floored population variance estimate for arm a.

    Returns m2(a)/n(a) when the arm has observations and the estimate is
    positive; returns the floor eta when the arm is unobserved or all its
    observations coincide. Strictly positive for every state.
    """
    i = a - 1
    n = state.counts[i]
    if n == 0:
        return eta
    v = state.m2[i] / n
    return v if v > 0.0 else eta


def allocation_probability(state: AllocationState, policy: Policy) -> float:
    """Probability of selecting arm 1 this round.

    AdaptiveNeyman returns exactly 1/2 in round 1, then
    sd_hat(1)/(sd_hat(1)+sd_hat(2)) clamped to [w_min, 1-w_min]. The block
    policies are deterministic; for them this reports the target fraction
    (w*(1) for the oracle, 1/2 for uniform), which is also the weight the
    AIPW/IPW estimators use on their rounds.
    """
    if isinstance(policy, AdaptiveNeyman):
        if state.counts == (0, 0):
            return 0.5
        s1 = math.sqrt(variance_estimate(state, 1, policy.eta))
        s2 = math.sqrt(variance_estimate(state, 2, policy.eta))
        w = s1 / (s1 + s2)
        return min(max(w, policy.w_min), 1.0 - policy.w_min)
    if isinstance(policy, OracleNeyman):
        return policy.target_fraction
    return 0.5


def block_cut(policy: Policy, T: int) -> int | None:
    """Number of leading rounds given to arm 1 under a block schedule.

    Uniform plays arm 1 for rounds 1..ceil(T/2); OracleNeyman for rounds
    1..round(T*w*(1)) with half-up rounding. Returns None for policies
    that randomize.
    """
    if isinstance(policy, Uniform):
        return (T + 1) // 2
    if isinstance(policy, OracleNeyman):
        return int(math.floor(T * policy.target_fraction + 0.5))
    return None


def policy_to_config(policy: Policy) -> dict:
    """JSON-compatible description of a policy (see the config schema)."""
    if isinstance(policy, AdaptiveNeyman):
        return {"kind": "adaptive_neyman", "eta": policy.eta, "w_min": policy.w_min}
    if isinstance(policy, OracleNeyman):
        return {"kind": "oracle_neyman", "sigma1": policy.sigma1, "sigma2": policy.sigma2}
    return {"kind": "uniform"}


def policy_from_config(cfg: dict) -> Policy:
    """Inverse of policy_to_config; validates kinds and fields."""
    kind = cfg.get("kind")
    if kind == "adaptive_neyman":
        extra = set(cfg) - {"kind", "eta", "w_min"}
        if extra:
            raise ValueError(f"unknown policy keys for adaptive_neyman: {sorted(extra)}")
        return AdaptiveNeyman(cfg.get("eta", 1e-3), cfg.get("w_min", 0.01))
    if kind == "oracle_neyman":
        extra = set(cfg) - {"kind", "sigma1", "sigma2"}
        if extra:
            raise ValueError(f"unknown policy keys for oracle_neyman: {sorted(extra)}")
        if "sigma1" not in cfg or "sigma2" not in cfg:
            raise ValueError("oracle_neyman requires sigma1 and sigma2")
        return OracleNeyman(cfg["sigma1"], cfg["sigma2"])
    if kind == "uniform":
        extra = set(cfg) - {"kind"}
        if extra:
            raise ValueError(f"unknown policy keys for uniform: {sorted(extra)}")
        return Uniform()
    raise ValueError(f"unknown policy kind {kind!r} (expected one of {POLICY_KINDS})")
