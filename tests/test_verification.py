"""The check suite itself: corrupted thresholds must fail, seeds must not matter."""

import pytest

import neyman_bai.verification as ver
from neyman_bai.distributions import Instance, Marginal, lower_bound_alternative
from neyman_bai.policies import Uniform
from neyman_bai.theory import check_transportation


class TestCheckResultShape:
    def test_fields(self):
        res = ver.check_kl_fisher()
        assert res.name == "kl_fisher_ratio"
        assert isinstance(res.passed, bool)
        assert res.seconds >= 0.0
        assert res.detail


class TestCorruptedThresholds:
    """Tightening a threshold to the impossible must flip its check to FAIL.

    This is the self-test of the harness: a suite that cannot fail
    verifies nothing.
    """

    def test_zero_allocation_tolerance_fails(self, monkeypatch):
        monkeypatch.setitem(ver.THRESHOLDS, "alloc_tol", 0.0)
        assert not ver.check_allocation_convergence(seed=1).passed

    def test_zero_kl_tolerance_fails(self, monkeypatch):
        # the Gaussian ratios are exact, so corrupt the Bernoulli margin
        monkeypatch.setitem(ver.THRESHOLDS, "kl_fisher_tol", 0.0)
        assert not ver.check_kl_fisher().passed

    def test_wrong_fisher_information_fails(self, monkeypatch):
        # the check must take I from fisher_information, not restate it
        true_info = ver.fisher_information
        monkeypatch.setattr(ver, "fisher_information", lambda m: 2.0 * true_info(m))
        res = ver.check_kl_fisher()
        assert not res.passed
        assert "ratio = 0.5" in res.detail

    def test_detail_reports_the_observed_number(self, monkeypatch):
        monkeypatch.setitem(ver.THRESHOLDS, "alloc_tol", 0.0)
        res = ver.check_allocation_convergence(seed=1)
        assert "mean N1/T" in res.detail


class TestSeedRobustness:
    """Fast checks should pass at any seed, not only the shipped default."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 99, 12345])
    def test_allocation_convergence(self, seed):
        assert ver.check_allocation_convergence(seed=seed).passed

    @pytest.mark.parametrize("seed", [1, 2, 3, 99, 12345])
    def test_transportation_at_reduced_replications(self, seed):
        base = Instance(Marginal.gaussian(0.01, 1.0), Marginal.gaussian(0.0, 1.0))
        alt = lower_bound_alternative(1.0, 1.0, 50)
        rep = check_transportation(base, alt, Uniform(), T=50, R=20_000, seed=seed)
        assert rep.satisfied
