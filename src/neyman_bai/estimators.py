"""Recommendation-phase mean estimators.

All three estimators map a trial's per-round records, one per round of
its budget T = len(records), to the pair (mu_hat(1), mu_hat(2)). The AIPW
estimator is the primary one:

    mu_hat(a) = (1/T) * sum_t [ 1{A_t=a} (Y_t - mu_tilde_t(a)) / w_t(a)
                                + mu_tilde_t(a) ]

where mu_tilde_t(a) and w_t(a) are built from rounds 1..t-1 only (strict
predictability). That makes each summand a martingale difference around
the true mean, so the estimator is unbiased in finite samples even under
adaptive allocation. IPW drops the augmentation term (unbiased, larger
variance); the plain sample mean is biased under adaptive allocation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class RoundRecord:
    """What round t looked like when it was played.

    A trial's records are listed in round order, round t at index t - 1.
    w_used is the allocation probability of the arm actually chosen (the
    complementary arm had 1 - w_used): 1.0 in a block schedule's rounds,
    whose arm is fixed in advance. mu_tilde_pre holds both running
    means just before the round's outcome was observed; an arm with no
    observations yet contributes 0.0. Both fields depend only on rounds
    1..t-1, which the engine's construction order enforces.
    """

    arm: int
    outcome: float
    w_used: float
    mu_tilde_pre: tuple[float, float]


def _check_records(records: Sequence[RoundRecord]) -> None:
    if len(records) == 0:
        raise ValueError("cannot estimate from an empty record sequence")


def aipw_estimate(records: Sequence[RoundRecord]) -> tuple[float, float]:
    """Augmented inverse-probability-weighted means for both arms, over T = len(records)."""
    _check_records(records)
    acc1 = 0.0
    acc2 = 0.0
    for r in records:
        m1, m2 = r.mu_tilde_pre
        if r.arm == 1:
            acc1 += (r.outcome - m1) / r.w_used + m1
            acc2 += m2
        else:
            acc1 += m1
            acc2 += (r.outcome - m2) / r.w_used + m2
    return acc1 / len(records), acc2 / len(records)


def ipw_estimate(records: Sequence[RoundRecord]) -> tuple[float, float]:
    """Inverse-probability-weighted means over T = len(records), no augmentation term."""
    _check_records(records)
    acc1 = 0.0
    acc2 = 0.0
    for r in records:
        if r.arm == 1:
            acc1 += r.outcome / r.w_used
        else:
            acc2 += r.outcome / r.w_used
    return acc1 / len(records), acc2 / len(records)


def sample_mean_estimate(records: Sequence[RoundRecord]) -> tuple[float, float]:
    """Per-arm arithmetic means of the observed outcomes.

    Raises if an arm was never observed, in which case its mean is
    undefined.
    """
    _check_records(records)
    tot1 = tot2 = 0.0
    n1 = n2 = 0
    for r in records:
        if r.arm == 1:
            tot1 += r.outcome
            n1 += 1
        else:
            tot2 += r.outcome
            n2 += 1
    if n1 == 0:
        raise ValueError("arm 1 was never observed; its sample mean is undefined")
    if n2 == 0:
        raise ValueError("arm 2 was never observed; its sample mean is undefined")
    return tot1 / n1, tot2 / n2


ESTIMATORS = {
    "aipw": aipw_estimate,
    "ipw": ipw_estimate,
    "sample_mean": sample_mean_estimate,
}

ESTIMATOR_KINDS = tuple(ESTIMATORS)


def recommend(mu_hat: tuple[float, float]) -> int:
    """Argmax of the estimated means; ties resolve to arm 1.

    The tie convention is arbitrary (a measure-zero event for continuous
    outcomes) but must be fixed for reproducibility.
    """
    mu1, mu2 = mu_hat
    return 1 if mu1 >= mu2 else 2

