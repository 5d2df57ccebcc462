"""Marginals, instances, divergences, and the lower-bound construction."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from neyman_bai.distributions import (
    Family,
    Instance,
    Marginal,
    best_arm,
    fisher_information,
    kl_divergence,
    lower_bound_alternative,
)
from neyman_bai.rng import spawn

# Independent oracle: log 2 minus the natural entropy of 0.1, i.e.
# d(x, 1/2) = log 2 - H(x) with H(x) = -x log x - (1-x) log(1-x).
D_01_05 = math.log(2.0) - (-0.1 * math.log(0.1) - 0.9 * math.log(0.9))


def _exact_bernoulli_kl(a: float, b: float) -> Decimal:
    """KL(Bernoulli(a), Bernoulli(b)) in 400-digit decimal arithmetic.

    The floats convert to Decimal exactly, and 400 digits keep the
    log of (1-a)/(1-b) exact enough even when a and b are near 5e-324.
    """
    with localcontext() as ctx:
        ctx.prec = 400
        a, b, one = Decimal(a), Decimal(b), Decimal(1)
        return a * (a / b).ln() + (one - a) * ((one - a) / (one - b)).ln()


class TestMarginalConstruction:
    def test_gaussian_fields(self):
        m = Marginal.gaussian(0.3, 2.5)
        assert m.family is Family.GAUSSIAN
        assert m.mean == 0.3
        assert m.variance == 2.5
        assert m.sd == math.sqrt(2.5)

    def test_bernoulli_variance_is_bit_exact(self):
        for p in (0.52, 0.48, 0.3, 1e-9, 1 - 1e-9):
            m = Marginal.bernoulli(p)
            assert m.variance == p * (1.0 - p)

    def test_gaussian_rejects_bad_variance(self):
        with pytest.raises(ValueError):
            Marginal.gaussian(0.0, 0.0)
        with pytest.raises(ValueError):
            Marginal.gaussian(0.0, -1.0)

    def test_bernoulli_rejects_boundary_means(self):
        for p in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                Marginal.bernoulli(p)

    def test_rejects_nonfinite_mean(self):
        with pytest.raises(ValueError):
            Marginal.gaussian(math.nan, 1.0)
        with pytest.raises(ValueError):
            Marginal.gaussian(math.inf, 1.0)

    def test_magnitudes_beyond_1e100_rejected(self):
        """Larger outcomes could overflow the running sums of squares."""
        Marginal.gaussian(-1e100, 1e100)
        with pytest.raises(ValueError, match=r"variance must lie within \[-1e100, 1e100\]"):
            Marginal.gaussian(0.0, 1e308)
        for mean in (2e100, -2e100):
            with pytest.raises(ValueError, match=r"mean must lie within \[-1e100, 1e100\]"):
                Marginal.gaussian(mean, 1.0)

    def test_mismatched_bernoulli_variance_rejected(self):
        with pytest.raises(ValueError):
            Marginal(Family.BERNOULLI, 0.3, 0.2)


class TestDraws:
    def test_pinned_draws(self):
        """Marginal.draw's outcomes on stream (42, 0), pinned at version 0.10.1."""
        gaussian = Marginal.gaussian(0.3, 2.5).draw(spawn(42, 0), 5)
        np.testing.assert_array_equal(
            gaussian,
            [0.8337473222999738, -0.9366932358525004, -0.19967971623561998,
             -3.022313163802142, 1.2727024806612404],
        )
        bernoulli = Marginal.bernoulli(0.52).draw(spawn(42, 0), 5)
        np.testing.assert_array_equal(bernoulli, [0.0, 1.0, 0.0, 1.0, 1.0])
        assert gaussian.dtype == bernoulli.dtype == np.float64

    def test_gaussian_moments(self):
        m = Marginal.gaussian(0.7, 4.0)
        x = m.draw(spawn(42, 0), 1_000_000)
        n = x.size
        se_mean = m.sd / math.sqrt(n)
        assert abs(x.mean() - 0.7) < 5 * se_mean
        # variance of the sample variance for a normal is 2 sigma^4 / n
        se_var = math.sqrt(2.0 * m.variance**2 / n)
        assert abs(x.var() - 4.0) < 5 * se_var

    def test_bernoulli_moments_and_support(self):
        m = Marginal.bernoulli(0.3)
        x = m.draw(spawn(42, 1), 1_000_000)
        assert set(np.unique(x)) <= {0.0, 1.0}
        se = m.sd / math.sqrt(x.size)
        assert abs(x.mean() - 0.3) < 5 * se


class TestKL:
    def test_equal_variance_gaussian_is_quadratic(self):
        # the equal-variance branch must be exactly d^2 / (2 v)
        for xi in (1e-2, 1e-3, 0.5):
            p = Marginal.gaussian(0.0, 1.0)
            q = Marginal.gaussian(xi, 1.0)
            assert kl_divergence(p, q) == (xi * xi) / 2.0

    def test_general_gaussian_against_quadrature(self):
        p = Marginal.gaussian(0.3, 1.0)
        q = Marginal.gaussian(0.0, 2.5)
        x = np.linspace(-25.0, 25.0, 2_000_001)
        logp = -0.5 * (x - 0.3) ** 2 - 0.5 * math.log(2 * math.pi)
        logq = -0.5 * x**2 / 2.5 - 0.5 * math.log(2 * math.pi * 2.5)
        oracle = np.trapezoid(np.exp(logp) * (logp - logq), x)
        assert kl_divergence(p, q) == pytest.approx(oracle, abs=1e-12)

    def test_bernoulli_value(self):
        got = kl_divergence(Marginal.bernoulli(0.5), Marginal.bernoulli(0.6))
        # _exact_bernoulli_kl(0.5, 0.6) to 50 digits (0.6 being the float nearest 0.6)
        oracle = 0.020410997260127555525429994034689877651198730129508
        assert got == pytest.approx(oracle, rel=1e-15)
        assert got == pytest.approx(0.0204, abs=5e-5)

    @given(
        a=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        b=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    @example(a=5e-324, b=0.5)  # (b - a)/a overflows
    @example(a=0.5, b=1e-300)  # (b - a)/a rounds to -1
    @example(a=0.5, b=5e-324)  # a/b overflows
    @example(a=0.3, b=0.301)  # verify check 8's pair, where the log terms cancel
    @settings(max_examples=200)
    def test_bernoulli_matches_exact_value(self, a, b):
        """Within 1e-14 relative, plus the rounding of log1p near a == b."""
        got = kl_divergence(Marginal.bernoulli(a), Marginal.bernoulli(b))
        exact = _exact_bernoulli_kl(a, b)
        error = abs(Decimal(got) - exact)
        assert error <= Decimal(1e-14) * exact + Decimal(4.5e-16 * abs(b - a)) + Decimal(1e-320)

    def test_identical_marginals_give_zero(self):
        m = Marginal.gaussian(1.0, 3.0)
        assert kl_divergence(m, m) == 0.0
        b = Marginal.bernoulli(0.2)
        assert kl_divergence(b, b) == 0.0

    def test_family_mismatch_raises(self):
        with pytest.raises(ValueError):
            kl_divergence(Marginal.gaussian(0.5, 0.25), Marginal.bernoulli(0.5))

    @given(
        mu1=st.floats(-5, 5),
        mu2=st.floats(-5, 5),
        v1=st.floats(0.01, 25),
        v2=st.floats(0.01, 25),
    )
    @example(mu1=0.0, mu2=0.0, v1=0.3, v2=0.3000000000000002)
    @settings(max_examples=200)
    def test_gaussian_kl_nonnegative(self, mu1, mu2, v1, v2):
        kl = kl_divergence(Marginal.gaussian(mu1, v1), Marginal.gaussian(mu2, v2))
        assert kl >= 0.0

    @given(p=st.floats(0.001, 0.999), q=st.floats(0.001, 0.999))
    @example(p=0.001, q=0.0010000000000000002)
    @settings(max_examples=200)
    def test_bernoulli_kl_nonnegative(self, p, q):
        assert kl_divergence(Marginal.bernoulli(p), Marginal.bernoulli(q)) >= 0.0


class TestFisherInformation:
    def test_gaussian_is_inverse_variance(self):
        assert fisher_information(Marginal.gaussian(0.0, 4.0)) == 0.25

    def test_bernoulli_is_inverse_variance(self):
        m = Marginal.bernoulli(0.3)
        assert fisher_information(m) == 1.0 / (0.3 * 0.7)

    @given(v=st.floats(0.01, 100))
    @settings(max_examples=50)
    def test_positive(self, v):
        assert fisher_information(Marginal.gaussian(0.0, v)) > 0.0


class TestInstance:
    def test_arm_lookup_and_gap(self):
        inst = Instance(Marginal.gaussian(0.5, 1.0), Marginal.gaussian(0.2, 2.0))
        assert inst.means == (0.5, 0.2)
        assert inst.gap == pytest.approx(0.3)

    def test_best_arm_prefers_higher_mean(self):
        assert best_arm(Instance(Marginal.gaussian(1.0, 1.0), Marginal.gaussian(0.0, 1.0))) == 1
        assert best_arm(Instance(Marginal.gaussian(0.0, 1.0), Marginal.gaussian(1.0, 1.0))) == 2

    def test_best_arm_tie_goes_to_arm_one(self):
        inst = Instance(Marginal.gaussian(0.4, 1.0), Marginal.gaussian(0.4, 9.0))
        assert best_arm(inst) == 1


class TestLowerBoundAlternative:
    def test_construction(self):
        inst = lower_bound_alternative(1.0, 1.0, 50)
        s = math.sqrt(50)
        assert inst.arm1.mean == -1.0 / s
        assert inst.arm2.mean == 1.0 / s
        assert inst.arm1.variance == 1.0
        assert inst.arm2.variance == 1.0
        assert best_arm(inst) == 2

    def test_gap_scaling_identity(self):
        # gap * sqrt(T) == sigma1 + sigma2 up to IEEE round-off; bitwise
        # equality is unattainable for some inputs (one-ulp cases exist)
        for s1, s2, T in [(1.0, 1.0, 100), (1.0, 1.0, 3), (0.3, 0.7, 7),
                          (2.0, 1.0, 10_000), (1.5, 0.25, 33)]:
            inst = lower_bound_alternative(s1, s2, T)
            lhs = inst.gap * math.sqrt(T)
            rhs = s1 + s2
            assert abs(lhs - rhs) <= 2 * math.ulp(rhs)

    def test_validation(self):
        with pytest.raises(ValueError):
            lower_bound_alternative(0.0, 1.0, 10)
        with pytest.raises(ValueError):
            lower_bound_alternative(1.0, -1.0, 10)
        with pytest.raises(ValueError):
            lower_bound_alternative(1.0, 1.0, 0)


def test_binary_entropy_decomposition_oracle():
    """d(0.1, 0.5) equals log 2 minus the entropy of 0.1 (independent route)."""
    from neyman_bai.theory import binary_relative_entropy

    assert binary_relative_entropy(0.1, 0.5) == pytest.approx(D_01_05, abs=1e-15)
