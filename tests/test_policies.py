"""Allocation state, variance fallback, clamping, and block schedules."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neyman_bai.distributions import Marginal
from neyman_bai.policies import (
    AdaptiveNeyman,
    AllocationState,
    OracleNeyman,
    Uniform,
    allocation_probability,
    block_cut,
    policy_from_config,
    policy_to_config,
    update,
    variance_estimate,
)
from neyman_bai.rng import spawn


def _feed(values, arm=1):
    state = AllocationState()
    for y in values:
        state = update(state, arm, y)
    return state


class TestAllocationState:
    def test_initial(self):
        s = AllocationState()
        assert s.counts == (0, 0)
        assert s.means == (0.0, 0.0)

    def test_update_tracks_both_arms(self):
        s = AllocationState()
        s = update(s, 1, 2.0)
        s = update(s, 2, -1.0)
        s = update(s, 1, 4.0)
        assert s.counts == (2, 1)
        assert s.mean(1) == 3.0
        assert s.mean(2) == -1.0

    def test_update_rejects_bad_arm(self):
        with pytest.raises(ValueError):
            update(AllocationState(), 3, 0.0)

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=60))
    @settings(max_examples=200)
    def test_welford_matches_batch_moments(self, values):
        s = _feed(values)
        arr = np.asarray(values)
        assert s.mean(1) == pytest.approx(arr.mean(), rel=1e-10, abs=1e-10)
        v = variance_estimate(s, 1, eta=1e-3)
        if len(set(values)) == 1:
            # Welford leaves m2 at exactly 0, so the floor applies, while
            # numpy's two-pass var may return a rounding residue above 0.
            assert v == 1e-3
            return
        pop = float(arr.var())
        if pop > 0.0:
            assert v == pytest.approx(pop, rel=1e-8, abs=1e-12)


class TestVarianceEstimate:
    def test_unseen_arm_falls_back_to_eta(self):
        assert variance_estimate(AllocationState(), 1, eta=1e-3) == 1e-3

    def test_single_observation_falls_back_to_eta(self):
        s = _feed([5.0])
        assert variance_estimate(s, 1, eta=0.25) == 0.25

    def test_constant_observations_fall_back_to_eta(self):
        s = _feed([2.0, 2.0, 2.0])
        assert variance_estimate(s, 1, eta=1e-3) == 1e-3

    def test_population_variance_once_positive(self):
        # observations 1, 3: mean 2, squared deviations 1 and 1, m2 = 2
        s = _feed([1.0, 3.0])
        assert variance_estimate(s, 1, eta=1e-3) == 1.0


class TestAdaptivePolicy:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            AdaptiveNeyman(eta=0.0)
        with pytest.raises(ValueError):
            AdaptiveNeyman(eta=1.5)
        with pytest.raises(ValueError):
            AdaptiveNeyman(w_min=0.0)
        with pytest.raises(ValueError):
            AdaptiveNeyman(w_min=0.6)

    def test_first_round_is_half(self):
        assert allocation_probability(AllocationState(), AdaptiveNeyman()) == 0.5

    def test_tracks_sd_ratio(self):
        s = _feed([0.0, 2.0], arm=1)  # sd 1
        s = update(s, 2, 0.0)
        s = update(s, 2, 6.0)  # sd 3
        w = allocation_probability(s, AdaptiveNeyman())
        assert w == pytest.approx(0.25)

    def test_clamps_to_w_min(self):
        pol = AdaptiveNeyman(eta=1e-6, w_min=0.05)
        s = _feed([0.0, 1000.0], arm=2)  # huge sd on arm 2, arm 1 on floor
        w = allocation_probability(s, pol)
        assert w == 0.05
        s1 = _feed([0.0, 1000.0], arm=1)
        assert allocation_probability(s1, pol) == 0.95

    def test_probability_stays_interior(self):
        g = spawn(3, 0)
        state = AllocationState()
        pol = AdaptiveNeyman()
        for t in range(200):
            w = allocation_probability(state, pol)
            assert 0.01 <= w <= 0.99
            arm = 1 if g.random() < w else 2
            state = update(state, arm, float(g.standard_normal()))

    @given(
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.floats(0.0, 0.5, exclude_min=True),
        st.lists(
            st.tuples(st.sampled_from((1, 2)), st.floats(-1e150, 1e150)), min_size=1, max_size=40
        ),
    )
    @settings(max_examples=300)
    def test_probability_stays_within_clamp_for_any_history(self, eta, w_min, history):
        """Every state built by update lands in [w_min, 1 - w_min].

        Outcomes stay within 1e150 in magnitude, so the running means and
        squared deviations stay finite. Larger ones can overflow m2 to inf,
        and then the probability is NaN, not a clamped value.
        """
        pol = AdaptiveNeyman(eta, w_min)
        state = AllocationState()
        for arm, y in history:
            state = update(state, arm, y)
            assert w_min <= allocation_probability(state, pol) <= 1.0 - w_min

    def test_converges_to_neyman_fraction(self):
        """Feeding iid draws from sigma = (1, 2) arms pushes w to 1/3."""
        arm1 = Marginal.gaussian(0.0, 1.0)
        arm2 = Marginal.gaussian(0.0, 4.0)
        y1 = arm1.draw(spawn(11, 0), 4000)
        y2 = arm2.draw(spawn(11, 1), 4000)
        u = spawn(11, 2).random(4000)
        state = AllocationState()
        pol = AdaptiveNeyman()
        for t in range(4000):
            w = allocation_probability(state, pol)
            if u[t] < w:
                state = update(state, 1, float(y1[t]))
            else:
                state = update(state, 2, float(y2[t]))
        assert allocation_probability(state, pol) == pytest.approx(1 / 3, abs=0.03)


class TestBlockPolicies:
    def test_oracle_fraction(self):
        pol = OracleNeyman(1.0, 3.0)
        assert pol.target_fraction == 0.25
        assert allocation_probability(AllocationState(), pol) == 0.25

    def test_oracle_validation(self):
        with pytest.raises(ValueError):
            OracleNeyman(0.0, 1.0)

    def test_uniform_is_half(self):
        assert allocation_probability(AllocationState(), Uniform()) == 0.5

    def test_block_cut_uniform(self):
        assert block_cut(Uniform(), 10) == 5
        assert block_cut(Uniform(), 11) == 6
        assert block_cut(Uniform(), 2) == 1

    def test_block_cut_oracle_rounds_to_nearest(self):
        for s1, s2, T in [(1.0, 1.0, 10), (1.0, 2.0, 100), (1.0, 3.0, 7), (2.0, 1.0, 999)]:
            pol = OracleNeyman(s1, s2)
            cut = block_cut(pol, T)
            assert abs(cut - T * pol.target_fraction) <= 0.5

    def test_block_cut_adaptive_is_none(self):
        assert block_cut(AdaptiveNeyman(), 10) is None


class TestPolicyConfig:
    def test_round_trip(self):
        for pol in (AdaptiveNeyman(0.01, 0.02), OracleNeyman(1.0, 2.0), Uniform()):
            assert policy_from_config(policy_to_config(pol)) == pol

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown policy kind"):
            policy_from_config({"kind": "thompson"})

    def test_kind_specific_keys_enforced(self):
        with pytest.raises(ValueError, match="eta"):
            policy_from_config({"kind": "uniform", "eta": 0.5})
        with pytest.raises(ValueError, match="sigma1 and sigma2"):
            policy_from_config({"kind": "oracle_neyman"})
