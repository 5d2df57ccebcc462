"""Independent references: mirror symmetry and exact block-schedule misidentification.

The scalar oracle proves that the vectorized engine does what the spec
says; these tests check the spec itself against facts that hold whatever
the code: swapping the arms' distributions mirrors misidentification,
under a block schedule the sample-mean recommendation has a closed form
at every finite budget, and adaptive AIPW and IPW estimate each arm's
mean without bias.
"""

import math

import numpy as np
import pytest

from neyman_bai.distributions import Family, Instance, Marginal
from neyman_bai.engine import TrialConfig, replicate
from neyman_bai.policies import AdaptiveNeyman, OracleNeyman, Uniform, block_cut

# Every policy/estimator pair TrialConfig admits; None stands for the
# oracle, whose sigmas are the instance's own. eta = 0.5 keeps the sample
# mean from starving an arm at T = 40.
ALLOWED = [
    *(pytest.param(AdaptiveNeyman(eta=0.5), est, id=f"adaptive-{est}")
      for est in ("aipw", "ipw", "sample_mean")),
    pytest.param(None, "sample_mean", id="oracle-sample_mean"),
    pytest.param(Uniform(), "sample_mean", id="uniform-sample_mean"),
]

# Means away from 0, where an estimator that fills an unobserved arm's
# mean with 0.0 recommends the wrong arm.
MIRRORED = {
    "gaussian": (Marginal.gaussian(1.3, 1.0), Marginal.gaussian(1.0, 2.25)),
    "bernoulli": (Marginal.bernoulli(0.6), Marginal.bernoulli(0.4)),
}


def _misid_with_fair_ties(inst: Instance, policy, est: str, R: int, seed: int):
    """Misidentification rate with ties split evenly between the arms, and its SE.

    replicate gives ties to arm 1, which favours the best arm only in one
    order; counting a tie as half a miss makes the rate mirror-symmetric.
    """
    if policy is None:
        policy = OracleNeyman(inst.arm1.sd, inst.arm2.sd)
    mu = replicate(TrialConfig(inst, 40, policy, est, seed), R).mu_hat
    best = 0 if inst.arm1.mean > inst.arm2.mean else 1
    lost = mu[:, best] < mu[:, 1 - best]
    tied = mu[:, best] == mu[:, 1 - best]
    p = (lost.sum() + 0.5 * tied.sum()) / R
    return p, math.sqrt(p * (1.0 - p) / R)


@pytest.mark.parametrize("family", sorted(MIRRORED))
@pytest.mark.parametrize("policy, est", ALLOWED)
def test_swapping_the_arms_mirrors_misidentification(policy, est, family):
    """Means (a, b) and (b, a) misidentify equally often, within 4 SE, at T = 40."""
    a, b = MIRRORED[family]
    R = 2000
    p_ab, se_ab = _misid_with_fair_ties(Instance(a, b), policy, est, R, seed=31)
    p_ba, se_ba = _misid_with_fair_ties(Instance(b, a), policy, est, R, seed=32)
    assert abs(p_ab - p_ba) <= 4.0 * math.hypot(se_ab, se_ba), (p_ab, p_ba)
    assert 0.02 < p_ab < 0.5  # neither rare nor a coin flip, so a bias would show


# Means far from 0: an augmentation or weight that is off by a term moves
# mu_hat by a share of the mean, which means near 0 hide.
FAR_FROM_ZERO = [
    pytest.param(
        Instance(Marginal.gaussian(5.1, 1.0), Marginal.gaussian(5.0, 2.25)), id="gaussian"
    ),
    pytest.param(Instance(Marginal.bernoulli(0.9), Marginal.bernoulli(0.8)), id="bernoulli"),
]


@pytest.mark.parametrize("est", ["aipw", "ipw"])
@pytest.mark.parametrize("inst", FAR_FROM_ZERO)
def test_adaptive_weighted_estimates_are_unbiased(inst, est):
    """E[mu_hat(a)] = mu_a for adaptive AIPW and IPW, within 4 SE, at T = 40.

    Round t's summand has conditional mean mu_a given rounds 1..t-1,
    because its propensity and plug-in mean are fixed before the round and
    the propensity is the true one (Hahn, Hirano & Karlan, JBES 2011), so
    the T-round average is unbiased at every budget.
    """
    R = 20_000
    mu = replicate(TrialConfig(inst, 40, AdaptiveNeyman(eta=0.2), est, seed=37), R).mu_hat
    z = (mu.mean(axis=0) - inst.means) / (mu.std(axis=0, ddof=1) / math.sqrt(R))
    assert np.all(np.abs(z) <= 4.0), z


def _phi_minus(x: float) -> float:
    """Phi(-x), the standard normal upper tail at x."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def _binomial_pmf(n: int, p: float) -> np.ndarray:
    k = np.arange(n + 1)
    log_choose = np.array(
        [math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1) for j in range(n + 1)]
    )
    return np.exp(log_choose + k * math.log(p) + (n - k) * math.log1p(-p))


def exact_block_misid(inst: Instance, T: int, cut: int) -> float:
    """Exact misidentification of sample means when arm 1 gets cut rounds of T.

    Gaussian: the difference of the two sample means is normal, so the
    best arm loses with probability Phi(-|Delta| / sqrt(s1^2/cut +
    s2^2/(T - cut))). Bernoulli: a sum over the two binomial pmfs of the
    event S1/cut >= S2/(T - cut), compared in integers; a tie recommends
    arm 1.
    """
    a1, a2 = inst.arm1, inst.arm2
    m = T - cut
    if a1.family is Family.GAUSSIAN:
        sd = math.sqrt(a1.variance / cut + a2.variance / m)
        return _phi_minus(abs(a1.mean - a2.mean) / sd)
    k1 = np.arange(cut + 1)[:, None]
    k2 = np.arange(m + 1)[None, :]
    joint = _binomial_pmf(cut, a1.mean)[:, None] * _binomial_pmf(m, a2.mean)[None, :]
    p_arm1 = float(joint[k1 * m >= k2 * cut].sum())
    return 1.0 - p_arm1 if a1.mean > a2.mean else p_arm1


GAUSS = Instance(Marginal.gaussian(0.2, 1.0), Marginal.gaussian(0.0, 4.0))
GAUSS_ARM2_BEST = Instance(Marginal.gaussian(0.0, 1.0), Marginal.gaussian(0.3, 2.25))
BERN = Instance(Marginal.bernoulli(0.6), Marginal.bernoulli(0.45))
BERN_ARM2_BEST = Instance(Marginal.bernoulli(0.45), Marginal.bernoulli(0.55))


@pytest.mark.parametrize(
    "inst, T, policy, cut",
    [
        (GAUSS, 20, Uniform(), 10),
        (GAUSS, 51, Uniform(), 26),
        (GAUSS, 30, OracleNeyman(1.0, 2.0), 10),
        (GAUSS_ARM2_BEST, 50, OracleNeyman(3.0, 1.0), 38),
        (BERN, 40, Uniform(), 20),
        (BERN_ARM2_BEST, 41, Uniform(), 21),
        (BERN_ARM2_BEST, 30, OracleNeyman(1.0, 2.0), 10),
        (BERN, 25, OracleNeyman(2.0, 1.0), 17),
    ],
    ids=[
        "gaussian-uniform-20", "gaussian-uniform-51", "gaussian-oracle-30",
        "gaussian-arm2-oracle-50", "bernoulli-uniform-40", "bernoulli-arm2-uniform-41",
        "bernoulli-arm2-oracle-30", "bernoulli-oracle-25",
    ],
)
def test_block_sample_means_match_the_exact_misidentification(inst, T, policy, cut):
    assert block_cut(policy, T) == cut
    R = 20_000
    reps = replicate(TrialConfig(inst, T, policy, "sample_mean", seed=19), R)
    p = exact_block_misid(inst, T, cut)
    se = math.sqrt(p * (1.0 - p) / R)
    got = 1.0 - reps.correct.mean()
    assert abs(got - p) <= 4.0 * se, (got, p, se)


def test_bernoulli_reference_gives_ties_to_arm_one():
    """Bernoulli(1/2) arms on 2 + 2 rounds: arm 1 is recommended 11 times in 16.

    S1 and S2 are Binomial(2, 1/2) with pmf (1, 2, 1) / 4, and arm 1 wins
    when S1 >= S2: the pairs (0,0), (1,0), (1,1), (2,0), (2,1), (2,2) weigh
    1 + 2 + 4 + 1 + 2 + 1 = 11 sixteenths, of which 1 + 4 + 1 are ties.
    """
    half = Instance(Marginal.bernoulli(0.5), Marginal.bernoulli(0.5))
    assert exact_block_misid(half, 4, 2) == pytest.approx(11 / 16, abs=1e-15)
