"""Closed-form bounds, the information inequality, and their pinned values."""

import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neyman_bai.distributions import Instance, Marginal, kl_divergence, lower_bound_alternative
from neyman_bai.engine import TrialConfig, replicate, sweep_worst_case
from neyman_bai.policies import AdaptiveNeyman, OracleNeyman, Uniform
from neyman_bai.theory import (
    _misid_exponent,
    binary_relative_entropy,
    chernoff_envelope,
    check_transportation,
    misid_upper_bound,
    worst_case_gap,
)

# d(0.1, 0.5) two independent ways: the two-term formula and the
# entropy decomposition log(2) - H(0.1). Both give this float.
D_01_05 = 0.3680642071684971


class TestChernoffEnvelope:
    def test_unit_variances(self):
        assert chernoff_envelope(1.0, 1.0) == 2.0 * math.exp(-0.5)
        assert chernoff_envelope(1.0, 1.0) == 1.2130613194252668

    def test_bernoulli_cap(self):
        assert chernoff_envelope(0.5, 0.5) == 0.6065306597126334

    def test_scales_linearly_in_the_sds(self):
        base = chernoff_envelope(1.0, 2.0)
        assert chernoff_envelope(3.0, 6.0) == pytest.approx(3 * base, rel=1e-15)

    def test_rejects_nonpositive_sds(self):
        with pytest.raises(ValueError):
            chernoff_envelope(0.0, 1.0)
        with pytest.raises(ValueError):
            chernoff_envelope(1.0, -2.0)


class TestMisidBound:
    def test_zero_gap_bound_is_vacuous(self):
        assert misid_upper_bound(1.0, 1.0, 0.0, 100) == 1.0

    def test_exponent_formula(self):
        # T * gap^2 / (2 (s1+s2)^2) with easy numbers: 800 * 0.25 / 18
        assert _misid_exponent(1.0, 2.0, 0.5, 800) == pytest.approx(200.0 / 18.0, rel=1e-15)

    def test_doubling_the_budget_doubles_the_exponent_bitwise(self):
        e1 = _misid_exponent(0.7, 1.3, 0.21, 500)
        e2 = _misid_exponent(0.7, 1.3, 0.21, 1000)
        assert e2 == 2.0 * e1

    def test_doubling_the_budget_squares_the_bound(self):
        b1 = misid_upper_bound(0.7, 1.3, 0.21, 500)
        b2 = misid_upper_bound(0.7, 1.3, 0.21, 1000)
        assert b2 == pytest.approx(b1 * b1, rel=1e-13)

    def test_log_bound_matches_exponent(self):
        for gap in (0.1, 0.3, 0.9):
            b = misid_upper_bound(1.0, 1.0, gap, 2000)
            assert b < 1.0
            assert -math.log(b) == pytest.approx(
                _misid_exponent(1.0, 1.0, gap, 2000), rel=1e-12
            )

    def test_bound_is_at_most_one_and_falls_in_the_gap(self):
        assert misid_upper_bound(1.0, 1.0, 1e-9, 2) <= 1.0
        gaps = [0.0, 0.05, 0.1, 0.5]
        vals = [misid_upper_bound(1.0, 1.0, g, 100) for g in gaps]
        assert vals == sorted(vals, reverse=True)

    def test_sds_whose_squared_sum_underflows_are_named(self):
        """2*(2e-300)^2 is 0.0 in floating point; the exponent cannot be formed."""
        with pytest.raises(ValueError, match=r"\(1e-300, 1e-300\) are too small"):
            _misid_exponent(1e-300, 1e-300, 0.0, 2)
        with pytest.raises(ValueError, match=r"\(5e-324, 1e-300\) are too small"):
            misid_upper_bound(5e-324, 1e-300, 1e-300, 2)


class TestWorstCaseGap:
    def test_exact_values(self):
        assert worst_case_gap(1.0, 1.0, 10000) == 0.02
        assert worst_case_gap(2.0, 1.0, 900) == 0.1

    def test_gap_times_sqrt_budget_recovers_the_sd_sum(self):
        for s1, s2, T in [(1.0, 1.0, 10000), (0.5, 2.5, 333), (1.7, 0.2, 7)]:
            lhs = worst_case_gap(s1, s2, T) * math.sqrt(T)
            assert abs(lhs - (s1 + s2)) <= 2 * math.ulp(s1 + s2)


class TestRegretBoundCurve:
    def test_zero_gap_zero_regret(self):
        assert 0.0 * misid_upper_bound(1.0, 1.0, 0.0, 100) == 0.0

    @pytest.mark.parametrize(
        "s1,s2,T", [(1.0, 1.0, 10000), (1.0, 2.0, 500), (0.3, 0.7, 99)]
    )
    def test_value_at_the_critical_gap(self, s1, s2, T):
        """sqrt(T) * curve at gap (s1+s2)/sqrt(T) equals (s1+s2)/sqrt(e)."""
        gap = worst_case_gap(s1, s2, T)
        got = math.sqrt(T) * (gap * misid_upper_bound(s1, s2, gap, T))
        want = (s1 + s2) * math.exp(-0.5)
        assert abs(got - want) <= 1e-12

    def test_dense_grid_argmax_sits_at_the_critical_gap(self):
        s1 = s2 = 1.0
        T = 400
        crit = worst_case_gap(s1, s2, T)
        gaps = np.linspace(crit / 50, 4 * crit, 200)
        vals = [g * misid_upper_bound(s1, s2, g, T) for g in gaps]
        top = gaps[int(np.argmax(vals))]
        assert abs(top - crit) <= gaps[1] - gaps[0]

    def test_curve_is_unimodal_on_the_grid(self):
        gaps = np.linspace(1e-4, 0.5, 300)
        vals = np.array([g * misid_upper_bound(1.0, 1.0, g, 400) for g in gaps])
        signs = np.sign(np.diff(vals))
        changes = np.count_nonzero(np.diff(signs[signs != 0]))
        assert changes == 1


class TestDomain:
    """Every bound rejects an input outside its domain with a ValueError
    naming the argument, and returns a finite value on the rest."""

    # Sigmas in (0, 1e50], gaps finite and >= 0, budgets Python ints in
    # [1, 2^53) for the bounds and [2, 2^53) for TrialConfig.
    FLOATS = st.one_of(
        st.floats(1e-3, 1e3),
        st.sampled_from([
            math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 5e-324, 1e-300,
            1e50, 1e51, sys.float_info.max,
        ]),
        st.floats(allow_nan=True, allow_infinity=True),
    )
    BUDGETS = st.one_of(
        st.integers(-2, 10**6),
        st.sampled_from([2**53 - 1, 2**53, 10**400, True, False, 2.0, 2.5, 100.0]),
        st.floats(allow_nan=True, allow_infinity=True),
    )
    VALID = {"sigma1": 1.0, "sigma2": 2.0, "gap": 0.1, "T": 100}

    @staticmethod
    def _outside(sigma1, sigma2, T=None, gap=0.0, T_min=1):
        """The names of the arguments outside the documented domain."""
        bad = {n for n, s in (("sigma1", sigma1), ("sigma2", sigma2)) if not 0.0 < s <= 1e50}
        if not (math.isfinite(gap) and gap >= 0.0):
            bad.add("gap")
        if T is not None and (type(T) is not int or not T_min <= T < 2**53):
            bad.add("T")
        return bad

    @staticmethod
    def _call(fn, bad):
        """fn()'s value, or None once it has raised a ValueError naming one of bad."""
        if not bad:
            return fn()
        with pytest.raises(ValueError) as info:
            fn()
        named = [n for n in bad if re.search(rf"\b{n}\b", str(info.value))]
        assert named, f"{info.value} names none of {sorted(bad)}"
        return None

    def _check_bounds(self, sigma1, sigma2, gap, T):
        envelope = self._call(
            lambda: chernoff_envelope(sigma1, sigma2), self._outside(sigma1, sigma2)
        )
        assert envelope is None or math.isfinite(envelope)
        bad = self._outside(sigma1, sigma2, T)
        scale = self._call(lambda: worst_case_gap(sigma1, sigma2, T), bad)
        assert scale is None or 0.0 <= scale < math.inf
        bad = self._outside(sigma1, sigma2, T, gap)
        if not bad and 2.0 * (sigma1 + sigma2) * (sigma1 + sigma2) == 0.0:
            bad = {"sigma1", "sigma2"}  # the exponent's denominator underflows
        bound = self._call(lambda: misid_upper_bound(sigma1, sigma2, gap, T), bad)
        assert bound is None or 0.0 <= bound <= 1.0

    @settings(max_examples=300, deadline=None)
    @given(sigma1=FLOATS, sigma2=FLOATS, gap=FLOATS, T=BUDGETS)
    def test_bounds_reject_or_return_finite_values(self, sigma1, sigma2, gap, T):
        drawn = {"sigma1": sigma1, "sigma2": sigma2, "gap": gap, "T": T}
        # Each drawn value alone among valid ones, then all of them together.
        for args in [*({**self.VALID, k: v} for k, v in drawn.items()), drawn]:
            self._check_bounds(**args)

    @given(T=BUDGETS)
    def test_trial_config_rejects_budgets_outside_its_domain(self, T):
        inst = Instance(Marginal.gaussian(0.1, 1.0), Marginal.gaussian(0.0, 1.0))
        bad = self._outside(1.0, 1.0, T, T_min=2)
        cfg = self._call(lambda: TrialConfig(inst, T, Uniform(), "sample_mean", 0), bad)
        assert cfg is None or cfg.T == T

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda: misid_upper_bound(1.0, 1.0, math.nan, 100), "gap"),
            (lambda: worst_case_gap(math.nan, 1.0, 100), "sigma1"),
            (lambda: worst_case_gap(1.0, 1.0, True), "T"),
            (lambda: misid_upper_bound(1.0, 1.0, 0.5, 2.5), "T"),
            (lambda: misid_upper_bound(1.0, 1.0, 0.5, 2**53), "T"),
            (lambda: chernoff_envelope(1.0, 2e50), "sigma2"),
        ],
        ids=["nan-gap", "nan-sigma", "bool-T", "float-T", "T-2^53", "sigma-past-1e50"],
    )
    def test_reproduced_inputs_are_named(self, call, name):
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            call()


class TestBinaryRelativeEntropy:
    def test_equal_arguments_are_zero(self):
        for x in (0.0, 0.3, 0.5, 1.0):
            assert binary_relative_entropy(x, x) == 0.0

    def test_reference_value(self):
        assert binary_relative_entropy(0.1, 0.5) == D_01_05
        # decomposition oracle: log 2 minus the binary entropy of 0.1
        h = -(0.1 * math.log(0.1) + 0.9 * math.log(0.9))
        assert binary_relative_entropy(0.1, 0.5) == pytest.approx(math.log(2) - h, abs=1e-15)

    def test_interior_agrees_with_kl_divergence(self):
        for x, y in [(5e-324, 0.5), (0.5, 1e-300), (0.3, 0.301), (0.1, 0.5)]:
            bernoulli = kl_divergence(Marginal.bernoulli(x), Marginal.bernoulli(y))
            assert binary_relative_entropy(x, y) == bernoulli

    def test_degenerate_reference_is_infinite(self):
        assert binary_relative_entropy(0.3, 0.0) == math.inf
        assert binary_relative_entropy(0.3, 1.0) == math.inf

    def test_degenerate_first_argument(self):
        assert binary_relative_entropy(0.0, 0.4) == pytest.approx(-math.log(0.6))
        assert binary_relative_entropy(1.0, 0.4) == pytest.approx(-math.log(0.4))

    def test_rejects_values_outside_the_unit_interval(self):
        for x, y in [(-0.1, 0.5), (1.1, 0.5), (0.5, -0.1), (0.5, 1.1)]:
            with pytest.raises(ValueError):
                binary_relative_entropy(x, y)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=1e-9, max_value=1.0 - 1e-9),
    )
    def test_pinsker(self, x, y):
        d = binary_relative_entropy(x, y)
        assert d >= 2.0 * (x - y) ** 2 - 1e-12


class TestTransportation:
    def test_identical_models_are_trivially_satisfied(self):
        inst = Instance(Marginal.gaussian(0.2, 1.0), Marginal.gaussian(0.0, 1.0))
        rep = check_transportation(inst, inst, Uniform(), T=20, R=200, seed=3)
        assert rep.lhs == 0.0
        assert rep.rhs == 0.0
        assert rep.satisfied

    def test_sure_event_gives_zero_rhs(self):
        """Arm 1 leads by 5 sd in both models, so at T = 20 both recommend it
        in every replication: p = q = 1 and d(p, q) = 0, while the models
        differ and the KL side is positive."""
        base = Instance(Marginal.gaussian(5.0, 1.0), Marginal.gaussian(0.0, 1.0))
        alt = Instance(Marginal.gaussian(5.2, 1.0), Marginal.gaussian(0.2, 1.0))
        rep = check_transportation(base, alt, Uniform(), T=20, R=200, seed=3)
        assert rep.p_baseline == 1.0
        assert rep.p_alternative == 1.0
        assert rep.rhs == 0.0
        assert rep.lhs > 0.0
        assert rep.se == 0.0
        assert rep.satisfied

    def test_confusable_pair_satisfies_the_inequality(self):
        base = Instance(Marginal.gaussian(0.01, 1.0), Marginal.gaussian(0.0, 1.0))
        alt = lower_bound_alternative(1.0, 1.0, 50)
        rep = check_transportation(base, alt, Uniform(), T=50, R=10_000, seed=7)
        assert rep.satisfied
        assert rep.lhs + 3.0 * rep.se >= rep.rhs
        assert rep.mean_n1 == 25.0

    @pytest.mark.parametrize(
        "policy", [AdaptiveNeyman(eta=0.2), Uniform()], ids=["adaptive", "uniform"]
    )
    def test_frequencies_equal_separate_replicate_calls(self, policy):
        """The models differ in both arms, the alternative in arm 2's variance too."""
        base = Instance(Marginal.gaussian(0.2, 1.0), Marginal.gaussian(0.0, 1.0))
        alt = Instance(Marginal.gaussian(-0.1, 1.0), Marginal.gaussian(0.3, 2.25))
        T, R, seed = 30, 300, 5
        rep = check_transportation(base, alt, policy, T=T, R=R, seed=seed, threads=2)
        runs = [
            replicate(TrialConfig(inst, T, policy, "sample_mean", seed), R)
            for inst in (base, alt)
        ]
        assert rep.p_baseline == np.count_nonzero(runs[0].recommended == 1) / R
        assert rep.p_alternative == np.count_nonzero(runs[1].recommended == 1) / R
        assert rep.mean_n1 == float(runs[0].n1.mean())
        assert 0.0 < rep.p_alternative < rep.p_baseline < 1.0

    @pytest.mark.parametrize(
        "policy", [AdaptiveNeyman(eta=0.2), Uniform()], ids=["adaptive", "uniform"]
    )
    def test_another_event_is_counted_on_the_checks_own_replicate_call(self, policy):
        """The documented way to count another event: the check's replicate
        call gives its frequencies, and {arm 2 recommended} is the complement."""
        base = Instance(Marginal.gaussian(0.2, 1.0), Marginal.gaussian(0.0, 1.0))
        alt = Instance(Marginal.gaussian(0.0, 1.0), Marginal.gaussian(0.2, 1.0))
        T, R, seed = 30, 400, 3
        rep = check_transportation(base, alt, policy, T=T, R=R, seed=seed)
        cfg = TrialConfig(base, T, policy, "sample_mean", seed)
        base_reps, alt_reps = replicate(cfg, R, instances=[base, alt])
        assert rep.p_baseline == np.count_nonzero(base_reps.recommended == 1) / R
        assert rep.p_alternative == np.count_nonzero(alt_reps.recommended == 1) / R
        assert rep.mean_n1 == float(base_reps.n1.mean())
        assert 0.0 < rep.p_baseline < 1.0
        flipped = np.count_nonzero(base_reps.recommended == 2) / R
        assert flipped == pytest.approx(1.0 - rep.p_baseline, abs=1e-15)

    def test_event_is_no_longer_a_parameter(self):
        """The check counts {arm 1 recommended} only; a custom event is refused
        rather than silently replaced by the default."""
        base = Instance(Marginal.gaussian(0.2, 1.0), Marginal.gaussian(0.0, 1.0))
        with pytest.raises(TypeError, match="event"):
            check_transportation(
                base, base, Uniform(), T=20, R=10, seed=3,
                event=lambda reps: reps.recommended == 2,
            )

    def test_cross_family_models_rejected(self):
        base = Instance(Marginal.gaussian(0.2, 1.0), Marginal.gaussian(0.0, 1.0))
        alt = Instance(Marginal.bernoulli(0.6), Marginal.bernoulli(0.4))
        with pytest.raises(ValueError, match="families"):
            check_transportation(base, alt, Uniform(), T=20, R=10, seed=3)


def test_misid_bound_dominates_an_oracle_simulation():
    """The tail bound must sit above the measured error at every gap."""
    res = sweep_worst_case(
        (1.0, 1.0), 400, OracleNeyman(1.0, 1.0), "sample_mean", R=2000, seed=13
    )
    for p in res.points:
        bound = misid_upper_bound(1.0, 1.0, p.cfg.instance.gap, 400)
        assert bound >= p.report.misid_prob - 3.0 * p.report.misid_se
