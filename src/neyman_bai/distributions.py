"""Outcome distributions for two-armed trials.

Two families are supported. Gaussian arms form a location-shift class:
means vary freely while each arm's variance is held fixed, and the Fisher
information is the constant 1/sigma^2. Bernoulli arms do not belong to
that fixed-variance class, because their variance mu*(1-mu) moves with
the mean; they are provided for the uniform-allocation comparisons and
carry their own Fisher information 1/(mu*(1-mu)). KL divergence is only
defined within a family.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

# Largest magnitude of a mean or variance (see Marginal).
_MAGNITUDE_LIMIT = 1e100


def _require_int(name: str, value, bits: int | None = None) -> None:
    # Python ints only: numpy integers wrap silently in arithmetic such as 4i + k.
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer (a Python int), got {value!r}")
    if bits is not None and not 0 <= value < 1 << bits:
        raise ValueError(f"{name} must lie in [0, 2^{bits}), got {value}")


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


class Family(str, enum.Enum):
    GAUSSIAN = "gaussian"
    BERNOULLI = "bernoulli"


@dataclass(frozen=True)
class Marginal:
    """One arm's outcome distribution.

    Variance is stored redundantly for Bernoulli arms and the constructor
    enforces variance == mean*(1-mean) bit-exactly; use the `bernoulli`
    helper rather than spelling the variance out. Bernoulli means must lie
    strictly inside (0, 1) so that both outcomes have positive mass.
    Means and variances must not exceed 1e100 in magnitude: outcomes then
    stay near 1e100 at most, so their squares (up to about 1e200) and the
    running sums of squares over any budget remain finite.
    """

    family: Family
    mean: float
    variance: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.mean) or not math.isfinite(self.variance):
            raise ValueError("mean and variance must be finite")
        for name, value in (("mean", self.mean), ("variance", self.variance)):
            if abs(value) > _MAGNITUDE_LIMIT:
                raise ValueError(
                    f"{name} must lie within [-1e100, 1e100], got {value!r}"
                )
        if self.family is Family.GAUSSIAN:
            if self.variance <= 0.0:
                raise ValueError(f"gaussian variance must be positive, got {self.variance}")
        elif self.family is Family.BERNOULLI:
            if not 0.0 < self.mean < 1.0:
                raise ValueError(
                    f"bernoulli mean must lie strictly in (0, 1), got {self.mean}"
                )
            expected = self.mean * (1.0 - self.mean)
            if self.variance != expected:
                raise ValueError(
                    "bernoulli variance must equal mean*(1-mean) "
                    f"(got {self.variance!r}, expected {expected!r})"
                )
        else:  # pragma: no cover - enum is closed
            raise ValueError(f"unknown family {self.family}")

    @classmethod
    def gaussian(cls, mean: float, variance: float) -> "Marginal":
        return cls(Family.GAUSSIAN, float(mean), float(variance))

    @classmethod
    def bernoulli(cls, mean: float) -> "Marginal":
        mean = float(mean)
        return cls(Family.BERNOULLI, mean, mean * (1.0 - mean))

    @property
    def sd(self) -> float:
        return math.sqrt(self.variance)

    def draw(self, gen: np.random.Generator, size: int) -> np.ndarray:
        """Draw `size` outcomes using an externally managed generator.

        Gaussian outcomes are mean + sd * z for standard normals z, Bernoulli
        outcomes u < mean as 0.0/1.0 for uniforms u on [0, 1). `size` is
        required. Batch draws consume the stream exactly like repeated scalar
        draws, so prefixes of a batch match shorter batches from the same
        stream. The scalar oracle, run_trial, draws its outcomes with this.
        """
        if self.family is Family.GAUSSIAN:
            return gen.standard_normal(size) * self.sd + self.mean
        return (gen.random(size) < self.mean).astype(np.float64)


def _entropy_term(p: float, q: float, d: float) -> float:
    """p*log(p/q) + d for p, q > 0 and d = q - p, which is never negative.

    For q/p in (1/2, 2) it is p*(x - log1p(x)) with x = d/p, accurate to
    about 1e-16*|d|. Outside, x can overflow (p = 5e-324) or round to -1
    (q = 1e-300), and the log form is accurate.
    """
    x = d / p
    if -0.5 < x < 1.0:
        return p * (x - math.log1p(x))
    if q < sys.float_info.min:  # subnormal: p / q could overflow
        return p * (math.log(p) - math.log(q)) + d
    return p * math.log(p / q) + d


def _bernoulli_kl(a: float, b: float) -> float:
    """KL divergence between Bernoulli(a) and Bernoulli(b), a and b in (0, 1).

    a*log(a/b) + (1-a)*log((1-a)/(1-b)) with b - a added to the first term
    and a - b to the second, so that close means leave no cancelling terms.
    """
    return _entropy_term(a, b, b - a) + _entropy_term(1.0 - a, 1.0 - b, a - b)


def kl_divergence(p: Marginal, q: Marginal) -> float:
    """Closed-form KL divergence KL(p, q) within one family.

    Gaussian pairs with equal variances use (mu_p - mu_q)^2 / (2 sigma^2),
    which is exact (no cancellation); unequal variances fall back to the
    general Gaussian formula. Bernoulli pairs sum two nonnegative terms, so
    close means do not cancel. Raises for cross-family comparisons, which
    are not comparable models.
    """
    if p.family is not q.family:
        raise ValueError(
            f"KL divergence undefined across families ({p.family.value} vs {q.family.value})"
        )
    if p.family is Family.BERNOULLI:
        return _bernoulli_kl(p.mean, q.mean)
    d = p.mean - q.mean
    if p.variance == q.variance:
        return (d * d) / (2.0 * q.variance)
    kl = (
        0.5 * math.log(q.variance / p.variance)
        + (p.variance + d * d) / (2.0 * q.variance)
        - 0.5
    )
    # Near p == q the terms cancel and rounding can leave a few ulps below 0.
    return max(kl, 0.0)


def fisher_information(m: Marginal) -> float:
    """Fisher information of the mean parameter: 1/sigma^2, resp. 1/(mu(1-mu))."""
    if m.family is Family.GAUSSIAN:
        return 1.0 / m.variance
    return 1.0 / (m.mean * (1.0 - m.mean))


@dataclass(frozen=True)
class Instance:
    """A two-armed bandit model: the pair of marginal outcome distributions."""

    arm1: Marginal
    arm2: Marginal

    @property
    def means(self) -> tuple[float, float]:
        return (self.arm1.mean, self.arm2.mean)

    @property
    def gap(self) -> float:
        """Absolute mean difference between the arms."""
        return abs(self.arm1.mean - self.arm2.mean)


def best_arm(inst: Instance) -> int:
    """Arm with the larger mean; ties resolve to arm 1 (fixed convention)."""
    return 1 if inst.arm1.mean >= inst.arm2.mean else 2


def lower_bound_alternative(sigma1: float, sigma2: float, T: int) -> Instance:
    """The hardest local alternative at budget T.

    Gaussian instance with means (-sigma1/sqrt(T), +sigma2/sqrt(T)) and
    variances (sigma1^2, sigma2^2). Its best arm is 2 and its gap is
    (sigma1+sigma2)/sqrt(T), the scale at which no allocation can separate
    the arms reliably within T rounds.
    """
    _require(sigma1, sigma2, T)
    for name, sigma in (("sigma1", sigma1), ("sigma2", sigma2)):
        if not 0.0 < sigma * sigma <= _MAGNITUDE_LIMIT:
            raise ValueError(f"{name} {sigma!r} squares to {sigma * sigma!r}, outside (0, 1e100]")
    root_t = math.sqrt(T)
    return Instance(
        Marginal.gaussian(-sigma1 / root_t, sigma1 * sigma1),
        Marginal.gaussian(sigma2 / root_t, sigma2 * sigma2),
    )
