"""End-to-end acceptance runs at full scale.

Each test drives one verification check at its shipped scale and asserts
the check itself passes, printing the check's own detail line so the
pytest -v output doubles as the acceptance report. The worst-case sweep
is computed once per session and shared by the two tests that read it.
Expect a few minutes of wall time, dominated by the sweep and the
oracle tail run.
"""

import pytest

from neyman_bai.verification import (
    bound_sweep,
    check_allocation_convergence,
    check_bernoulli_policy_equivalence,
    check_consistency,
    check_estimator_unbiasedness,
    check_kl_fisher,
    check_oracle_tail,
    check_regret_bound_non_violation,
    check_transportation_inequality,
    check_worst_case_maximizer,
)

pytestmark = pytest.mark.slow

SEED = 42
THREADS = 4


@pytest.fixture(scope="module")
def shared_sweep():
    return bound_sweep(seed=SEED, threads=THREADS)


def _report(res):
    status = "PASS" if res.passed else "FAIL"
    print(f"{status} {res.name} ({res.seconds:.1f} s): {res.detail}")
    assert res.passed, res.detail


def test_adaptive_allocation_converges_to_neyman_fractions():
    _report(check_allocation_convergence(seed=SEED, threads=THREADS))


def test_aipw_estimates_are_unbiased_for_both_arms():
    _report(check_estimator_unbiasedness(seed=SEED, threads=THREADS))


def test_scaled_regret_never_exceeds_the_minimax_limit(shared_sweep):
    _report(check_regret_bound_non_violation(shared_sweep))


def test_oracle_allocation_hits_the_gaussian_tail_probability():
    _report(check_oracle_tail(seed=SEED, threads=THREADS))


def test_bound_curve_peaks_at_the_critical_gap(shared_sweep):
    _report(check_worst_case_maximizer(shared_sweep))


def test_misidentification_vanishes_as_the_budget_grows():
    _report(check_consistency(seed=SEED, threads=THREADS))


def test_transportation_inequality_holds_on_a_confusable_pair():
    _report(check_transportation_inequality(seed=SEED, threads=THREADS))


def test_kl_matches_the_fisher_quadratic_at_small_separations():
    _report(check_kl_fisher(seed=SEED, threads=THREADS))


def test_bernoulli_arms_make_adaptive_and_uniform_equivalent():
    _report(check_bernoulli_policy_equivalence(seed=SEED, threads=THREADS))
