"""Estimator arithmetic, predictability, and the martingale structure."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neyman_bai.distributions import Instance, Marginal
from neyman_bai.engine import TrialConfig, replicate, run_trial_records, simulate_rounds
from neyman_bai.estimators import (
    RoundRecord,
    aipw_estimate,
    ipw_estimate,
    recommend,
    sample_mean_estimate,
)
from neyman_bai.policies import AdaptiveNeyman, OracleNeyman, Uniform
from neyman_bai.rng import spawn


def _rec(arm, y, w, pre=(0.0, 0.0)):
    return RoundRecord(arm, y, w, pre)


def martingale_residuals(records, instance):
    """Per-round centered AIPW summands Z_t(a), shape (T, 2).

    Z_t(a) = 1{A_t=a} (Y_t - mu_tilde_t(a)) / w_t(a) + mu_tilde_t(a) - mu(a),
    which has zero conditional mean when the true means mu(a) are supplied.
    For the unchosen arm the indicator vanishes and the residual reduces to
    mu_tilde_t(a) - mu(a).
    """
    mu_true = instance.means
    out = np.empty((len(records), 2))
    for i, r in enumerate(records):
        for a in (1, 2):
            pre = r.mu_tilde_pre[a - 1]
            z = pre - mu_true[a - 1]
            if r.arm == a:
                z += (r.outcome - pre) / r.w_used
            out[i, a - 1] = z
    return out


class TestRecordValidation:
    def test_empty_records_rejected(self):
        for est in (aipw_estimate, ipw_estimate, sample_mean_estimate):
            with pytest.raises(ValueError, match="empty"):
                est([])


class TestSingleRoundArithmetic:
    """T = 1 cases pin the per-term arithmetic exactly."""

    def test_aipw(self):
        assert aipw_estimate([_rec(1, 2.0, 0.5)]) == (4.0, 0.0)

    def test_aipw_uses_running_mean(self):
        out = aipw_estimate([_rec(2, 3.0, 0.25, pre=(1.5, 1.0))])
        # arm 2 chosen: (3 - 1) / 0.25 + 1 = 9; arm 1 gets its plug-in 1.5
        assert out == (1.5, 9.0)

    def test_ipw(self):
        assert ipw_estimate([_rec(1, 2.0, 0.5, pre=(9.9, 9.9))]) == (4.0, 0.0)

    def test_sample_mean_requires_both_arms(self):
        with pytest.raises(ValueError, match="arm 2 was never observed"):
            sample_mean_estimate([_rec(1, 2.0, 0.5)])

    def test_sample_mean(self):
        records = [_rec(1, 2.0, 0.5), _rec(1, 4.0, 0.5), _rec(2, -1.0, 0.5)]
        assert sample_mean_estimate(records) == (3.0, -1.0)


def test_aipw_equals_ipw_when_plugin_is_zero():
    """With mu_tilde identically zero the augmentation vanishes term by term."""
    g = spawn(5, 0)
    records = []
    for _ in range(39):
        arm = 1 if g.random() < 0.3 else 2
        records.append(_rec(arm, float(g.standard_normal()), 0.3 if arm == 1 else 0.7))
    a = aipw_estimate(records)
    b = ipw_estimate(records)
    assert a == b


class TestRecommend:
    def test_argmax(self):
        assert recommend((0.2, 0.5)) == 2
        assert recommend((0.6, 0.5)) == 1

    def test_tie_goes_to_arm_one(self):
        assert recommend((0.5, 0.5)) == 1

    def test_recommendation_invariant_to_shared_shift(self):
        """Adding a constant to both arm estimates never flips the argmax."""
        for mu in [(0.1, 0.4), (2.0, -1.0), (0.0, 0.0)]:
            base = recommend(mu)
            shifted = recommend((mu[0] + 5.5, mu[1] + 5.5))
            assert base == shifted


class TestPredictability:
    """mu_tilde and w of round t may depend only on rounds before t."""

    def test_perturbing_an_outcome_leaves_that_round_inputs_alone(self):
        inst = Instance(Marginal.gaussian(0.3, 1.0), Marginal.gaussian(0.0, 2.0))
        cfg = TrialConfig(inst, 30, AdaptiveNeyman(eta=0.2), "aipw", seed=13)
        records, _ = run_trial_records(cfg)

        # replication 0's streams, drawn as run_trial_records draws them
        y1 = inst.arm1.draw(spawn(cfg.seed, 0), cfg.T)
        y2 = inst.arm2.draw(spawn(cfg.seed, 1), cfg.T)
        u = spawn(cfg.seed, 2).random(cfg.T)
        for t_hit in (4, 11, 22):
            y1_mod = y1.copy()
            y2_mod = y2.copy()
            y1_mod[t_hit] += 17.0
            y2_mod[t_hit] -= 9.0
            mod_records, _ = simulate_rounds(cfg, y1_mod, y2_mod, u)
            # everything strictly before the hit round is untouched
            assert mod_records[:t_hit] == records[:t_hit]
            # the hit round's predictable inputs are untouched too
            assert mod_records[t_hit].w_used == records[t_hit].w_used
            assert mod_records[t_hit].mu_tilde_pre == records[t_hit].mu_tilde_pre
            assert mod_records[t_hit].arm == records[t_hit].arm

    @given(
        T=st.integers(2, 40),
        data=st.data(),
        seed=st.integers(0, 2**64 - 1),
        inst=st.sampled_from([
            Instance(Marginal.gaussian(0.3, 1.0), Marginal.gaussian(0.0, 2.0)),
            Instance(Marginal.bernoulli(0.6), Marginal.bernoulli(0.4)),
        ]),
        pair=st.sampled_from([
            (AdaptiveNeyman(), "aipw"),
            (AdaptiveNeyman(eta=0.2), "aipw"),
            (OracleNeyman(1.0, 2.0), "sample_mean"),
        ]),
        delta=st.floats(-50.0, 50.0).filter(lambda d: d != 0.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_perturbing_round_t_keeps_rounds_up_to_t(self, T, data, seed, inst, pair, delta):
        """Against the scalar oracle: w_used and mu_tilde_pre of rounds 1..t
        ignore round t's outcome, for any budget, round, seed and family."""
        cfg = TrialConfig(inst, T, *pair, seed=seed)
        t = data.draw(st.integers(1, T), label="t")
        y1 = inst.arm1.draw(spawn(seed, 0), T)
        y2 = inst.arm2.draw(spawn(seed, 1), T)
        u = spawn(seed, 2).random(T)
        records, _ = simulate_rounds(cfg, y1, y2, u)
        y1[t - 1] += delta
        y2[t - 1] += delta
        moved, _ = simulate_rounds(cfg, y1, y2, u)
        for before, after in zip(records[:t], moved[:t]):
            assert after.w_used == before.w_used
            assert after.mu_tilde_pre == before.mu_tilde_pre

    def test_round_one_plugin_is_zero_and_w_is_half(self):
        inst = Instance(Marginal.gaussian(0.3, 1.0), Marginal.gaussian(0.0, 2.0))
        records, _ = run_trial_records(TrialConfig(inst, 5, AdaptiveNeyman(), "aipw", seed=1))
        assert records[0].mu_tilde_pre == (0.0, 0.0)
        assert records[0].w_used == 0.5


class TestMartingaleResiduals:
    def test_shape_and_unchosen_arm_entries(self):
        inst = Instance(Marginal.gaussian(0.5, 1.0), Marginal.gaussian(0.0, 1.0))
        records, _ = run_trial_records(TrialConfig(inst, 20, Uniform(), "sample_mean", seed=3))
        z = martingale_residuals(records, inst)
        assert z.shape == (20, 2)
        for t, r in enumerate(records):
            other = 2 - (r.arm - 1) - 1  # index of the arm not played
            pre = r.mu_tilde_pre[other]
            assert z[t, other] == pre - inst.means[other]

    def test_mean_residual_near_zero(self):
        """Averaged over replications, AIPW round residuals are centered."""
        inst = Instance(Marginal.gaussian(0.3, 1.0), Marginal.gaussian(0.0, 1.5))
        T = 50
        R = 400
        total = np.zeros(2)
        for i in range(R):
            cfg = TrialConfig(inst, T, AdaptiveNeyman(eta=0.2), "aipw", seed=17)
            records, _ = run_trial_records(cfg, i)
            total += martingale_residuals(records, inst).sum(axis=0)
        mean_sum = total / R
        # Var of a per-trial residual sum is O(T); 5 SE with a generous constant
        bound = 5 * math.sqrt(T * 6.0 / R)
        assert abs(mean_sum[0]) < bound
        assert abs(mean_sum[1]) < bound


def test_aipw_variance_no_worse_than_ipw():
    """On identical trials the augmentation cuts estimator variance.

    The reduction holds for means away from zero, where raw IPW pays
    (mu^2 + sigma^2) / w per pull instead of the residual variance.  An
    arm with mean exactly zero gains nothing from the plug-in and can
    come out marginally worse at finite T, so these fixtures avoid it.
    """
    instances = [
        Instance(Marginal.gaussian(0.5, 1.0), Marginal.gaussian(-0.5, 1.0)),
        Instance(Marginal.gaussian(1.0, 2.0), Marginal.gaussian(0.5, 0.5)),
        Instance(Marginal.bernoulli(0.6), Marginal.bernoulli(0.4)),
    ]
    for inst in instances:
        var = {}
        for est in ("aipw", "ipw"):
            cfg = TrialConfig(inst, 200, AdaptiveNeyman(eta=0.2), est, seed=29)
            reps = replicate(cfg, 2000)
            var[est] = reps.mu_hat.var(axis=0)
        assert var["aipw"][0] < var["ipw"][0]
        assert var["aipw"][1] < var["ipw"][1]
