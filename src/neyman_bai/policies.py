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
from dataclasses import MISSING, asdict, dataclass, fields


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

_CLASSES = {
    "adaptive_neyman": AdaptiveNeyman,
    "oracle_neyman": OracleNeyman,
    "uniform": Uniform,
}
POLICY_KINDS = tuple(_CLASSES)


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


def _variance_estimate(state: AllocationState, a: int, eta: float) -> float:
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


def allocation_probability(state: AllocationState, policy: AdaptiveNeyman) -> float:
    """Probability that AdaptiveNeyman selects arm 1 this round.

    Returns sd_hat(1)/(sd_hat(1)+sd_hat(2)) clamped to [w_min, 1-w_min]:
    exactly 1/2 in round 1, with both arms on the floor eta (s/(s+s), which
    the clamp keeps as w_min <= 1/2). Raises for a block policy, which
    plays each round's arm with probability 1; block_cut gives its schedule.
    """
    if not isinstance(policy, AdaptiveNeyman):
        name = type(policy).__name__
        raise ValueError(f"{name} has no allocation probability; block_cut gives its schedule")
    s1 = math.sqrt(_variance_estimate(state, 1, policy.eta))
    s2 = math.sqrt(_variance_estimate(state, 2, policy.eta))
    w = s1 / (s1 + s2)
    return min(max(w, policy.w_min), 1.0 - policy.w_min)


def block_cut(policy: Policy, T: int) -> int | None:
    """Number of leading rounds given to arm 1 under a block schedule.

    Uniform plays arm 1 for rounds 1..ceil(T/2); OracleNeyman for rounds
    1..round(T*w*(1)) with half-up rounding. Returns None for
    AdaptiveNeyman, which randomizes, and raises for anything else.
    """
    if isinstance(policy, Uniform):
        return (T + 1) // 2
    if isinstance(policy, OracleNeyman):
        return int(math.floor(T * policy.target_fraction + 0.5))
    if isinstance(policy, AdaptiveNeyman):
        return None
    raise ValueError(f"policy must be AdaptiveNeyman, OracleNeyman or Uniform, got {policy!r}")


def policy_to_config(policy: Policy) -> dict:
    """JSON-compatible description of a policy (see the config schema)."""
    kind = next(k for k, cls in _CLASSES.items() if type(policy) is cls)
    return {"kind": kind, **asdict(policy)}


def policy_from_config(cfg: dict) -> Policy:
    """Inverse of policy_to_config; keys and defaults are the kind's fields."""
    kind = cfg.get("kind")
    if kind not in POLICY_KINDS:
        raise ValueError(f"unknown policy kind {kind!r} (expected one of {POLICY_KINDS})")
    cls = _CLASSES[kind]
    names = [f.name for f in fields(cls)]
    extra = set(cfg) - {"kind", *names}
    if extra:
        raise ValueError(f"unknown policy keys for {kind}: {sorted(extra)}")
    missing = [f.name for f in fields(cls) if f.name not in cfg and f.default is MISSING]
    if missing:
        raise ValueError(f"{kind} requires {' and '.join(missing)}")
    return cls(**{name: cfg[name] for name in names if name in cfg})
