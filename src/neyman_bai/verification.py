"""Built-in verification suite behind the `verify` CLI subcommand.

Nine checks exercise the package end to end at fixed scales: allocation
convergence, estimator unbiasedness, regret-bound non-violation, the
oracle tail probability, the worst-case maximizer location, consistency
in the budget, the transportation inequality, the KL-Fisher ratio, and
Bernoulli policy equivalence. Monte Carlo comparisons carry explicit
standard-error slack, so a clean build passes for any seed.

Pass/fail cutoffs live in the module-level THRESHOLDS dict rather than in
the check bodies; tests corrupt an entry to prove a violated bound really
turns into a failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from time import perf_counter

from .distributions import Instance, Marginal, kl_divergence, lower_bound_alternative
from .engine import (
    SweepResult,
    TrialConfig,
    consistency_curve,
    replicate,
    run_monte_carlo,
    sweep_worst_case,
)
from .policies import AdaptiveNeyman, OracleNeyman, Uniform
from .theory import (
    check_transportation,
    minimax_lower_bound_constant,
    regret_upper_bound_curve,
    worst_case_gap,
)

THRESHOLDS = {
    "alloc_target": 1.0 / 3.0,
    "alloc_tol": 0.02,
    "se_mult": 3.0,
    "maximizer_identity_tol": 1e-12,
    "maximizer_x_lo": 0.5,
    "maximizer_x_hi": 1.25,
    "oracle_tail_tol": 0.01,
    "consistency_tail_max": 0.01,
    "kl_fisher_tol": 1e-2,
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _finish(name: str, passed: bool, detail: str, t0: float) -> CheckResult:
    return CheckResult(name, passed, detail, perf_counter() - t0)


def check_allocation_convergence(seed: int = 42, threads: int = 1) -> CheckResult:
    """Adaptive Neyman on sigma = (1, 2) pulls arm 1 about 1/3 of the time."""
    t0 = perf_counter()
    inst = Instance(Marginal.gaussian(0.0, 1.0), Marginal.gaussian(0.0, 4.0))
    cfg = TrialConfig(inst, 20_000, AdaptiveNeyman(eta=1e-3), "aipw", seed)
    rep = run_monte_carlo(cfg, 200, threads)
    frac = rep.mean_alloc_frac[0]
    target = THRESHOLDS["alloc_target"]
    tol = THRESHOLDS["alloc_tol"]
    passed = abs(frac - target) <= tol
    detail = f"mean N1/T = {frac:.5f}, target {target:.5f} +/- {tol}"
    return _finish("allocation_convergence", passed, detail, t0)


def check_estimator_unbiasedness(seed: int = 42, threads: int = 1) -> CheckResult:
    """AIPW replication means match the true arm means within 3 SE."""
    t0 = perf_counter()
    inst = Instance(Marginal.gaussian(0.3, 1.0), Marginal.gaussian(0.0, 1.0))
    R = 10_000
    cfg = TrialConfig(inst, 2_000, AdaptiveNeyman(), "aipw", seed)
    reps = replicate(cfg, R, threads)
    mult = THRESHOLDS["se_mult"]
    parts = []
    passed = True
    for a in (0, 1):
        col = reps.mu_hat[:, a]
        dev = abs(float(col.mean()) - inst.means[a])
        se = float(col.std(ddof=1)) / math.sqrt(R)
        ok = dev <= mult * se
        passed = passed and ok
        parts.append(f"arm {a + 1}: |bias| = {dev:.2e} vs {mult:.0f}*SE = {mult * se:.2e}")
    return _finish("aipw_unbiasedness", passed, "; ".join(parts), t0)


def bound_sweep(seed: int = 42, threads: int = 1) -> SweepResult:
    """The shared sigma = (1, 1) sweep used by the two bound checks."""
    return sweep_worst_case(
        (1.0, 1.0), 10_000, AdaptiveNeyman(), "aipw", R=10_000, seed=seed, threads=threads
    )


def check_regret_bound_non_violation(sweep: SweepResult) -> CheckResult:
    """No sweep point's scaled regret exceeds (s1+s2)/sqrt(e) beyond SE slack."""
    t0 = perf_counter()
    s1, s2 = sweep.sigmas
    limit = minimax_lower_bound_constant(s1, s2)
    mult = THRESHOLDS["se_mult"]
    sqrt_t = math.sqrt(sweep.T)
    worst = None
    passed = True
    for p in sweep.points:
        slack = mult * sqrt_t * p.report.regret_se
        excess = p.report.scaled_regret - (limit + slack)
        if worst is None or excess > worst[1]:
            worst = (p.x, excess)
        if excess > 0.0:
            passed = False
    detail = (
        f"limit {limit:.4f}, worst point x = {worst[0]:g} with "
        f"scaled regret - (limit + {mult:.0f}*SE) = {worst[1]:.4f}"
    )
    return _finish("scaled_regret_bound", passed, detail, t0)


def check_oracle_tail(seed: int = 42, threads: int = 1) -> CheckResult:
    """Oracle Neyman at gap 0.02, T = 10^4 misidentifies with prob ~ Phi(-1)."""
    t0 = perf_counter()
    inst = Instance(Marginal.gaussian(0.02, 1.0), Marginal.gaussian(0.0, 1.0))
    cfg = TrialConfig(inst, 10_000, OracleNeyman(1.0, 1.0), "sample_mean", seed)
    rep = run_monte_carlo(cfg, 100_000, threads)
    target = 0.5 * math.erfc(1.0 / math.sqrt(2.0))
    tol = THRESHOLDS["oracle_tail_tol"]
    dev = abs(rep.misid_prob - target)
    passed = dev <= tol
    detail = f"misid_prob = {rep.misid_prob:.5f}, target {target:.5f} +/- {tol}"
    return _finish("oracle_tail_probability", passed, detail, t0)


def check_worst_case_maximizer(sweep: SweepResult) -> CheckResult:
    """The bound curve peaks where calculus says; the empirical peak is nearby."""
    t0 = perf_counter()
    s1, s2 = sweep.sigmas
    T = sweep.T
    gap_star = worst_case_gap(s1, s2, T)
    ident = abs(
        math.sqrt(T) * regret_upper_bound_curve(s1, s2, T, gap_star)
        - (s1 + s2) / math.sqrt(math.e)
    )
    ident_ok = ident <= THRESHOLDS["maximizer_identity_tol"]
    x_hat = sweep.max_point.x
    lo = THRESHOLDS["maximizer_x_lo"]
    hi = THRESHOLDS["maximizer_x_hi"]
    x_ok = lo <= x_hat <= hi
    detail = (
        f"analytic identity residual = {ident:.2e}; "
        f"empirical argmax x = {x_hat:g}, window [{lo}, {hi}]"
    )
    return _finish("worst_case_maximizer", ident_ok and x_ok, detail, t0)


def check_consistency(seed: int = 42, threads: int = 1) -> CheckResult:
    """Misidentification falls with the budget and is tiny at T = 2000."""
    t0 = perf_counter()
    inst = Instance(Marginal.gaussian(0.5, 1.0), Marginal.gaussian(0.0, 1.0))
    curve = consistency_curve(
        inst, [200, 2_000], AdaptiveNeyman(), "aipw", R=10_000, seed=seed, threads=threads
    )
    small, large = (p.report for p in curve)
    sep = small.misid_prob - large.misid_prob
    se = math.sqrt(small.misid_se**2 + large.misid_se**2)
    tail_max = THRESHOLDS["consistency_tail_max"]
    passed = sep > se and large.misid_prob < tail_max
    detail = (
        f"p(T=200) = {small.misid_prob:.4f}, p(T=2000) = {large.misid_prob:.4f}, "
        f"drop {sep:.4f} vs combined SE {se:.4f}, tail limit {tail_max}"
    )
    return _finish("consistency_in_budget", passed, detail, t0)


def check_transportation_inequality(seed: int = 42, threads: int = 1) -> CheckResult:
    """Change-of-measure inequality holds on the near-null Gaussian fixture."""
    t0 = perf_counter()
    T = 50
    baseline = Instance(Marginal.gaussian(0.01, 1.0), Marginal.gaussian(0.0, 1.0))
    alternative = lower_bound_alternative(1.0, 1.0, T)
    report = check_transportation(
        baseline, alternative, Uniform(), T, R=100_000, seed=seed, threads=threads
    )
    detail = (
        f"lhs = {report.lhs:.5f}, rhs = {report.rhs:.5f}, "
        f"margin = {report.margin:.5f}, se = {report.se:.2e}"
    )
    return _finish("transportation_inequality", report.satisfied, detail, t0)


def check_kl_fisher(seed: int = 42, threads: int = 1) -> CheckResult:
    """KL of a small mean shift matches the Fisher quadratic approximation."""
    t0 = perf_counter()
    parts = []
    passed = True
    for xi in (1e-2, 1e-3):
        p = Marginal.gaussian(0.0, 1.0)
        q = Marginal.gaussian(xi, 1.0)
        ratio = kl_divergence(p, q) * 2.0 * 1.0 / (xi * xi)
        ok = ratio == 1.0
        passed = passed and ok
        parts.append(f"gaussian xi={xi:g}: ratio = {ratio!r}")
    xi = 1e-3
    pb = 0.3
    b1 = Marginal.bernoulli(pb)
    b2 = Marginal.bernoulli(pb + xi)
    ratio = kl_divergence(b1, b2) * 2.0 * pb * (1.0 - pb) / (xi * xi)
    tol = THRESHOLDS["kl_fisher_tol"]
    ok = abs(ratio - 1.0) <= tol
    passed = passed and ok
    parts.append(f"bernoulli p={pb}, xi={xi:g}: ratio = {ratio:.6f} (tol {tol})")
    return _finish("kl_fisher_ratio", passed, "; ".join(parts), t0)


def check_bernoulli_policy_equivalence(seed: int = 42, threads: int = 1) -> CheckResult:
    """Near p = 1/2 the adaptive and uniform policies score the same regret."""
    t0 = perf_counter()
    inst = Instance(Marginal.bernoulli(0.52), Marginal.bernoulli(0.48))
    T = 10_000
    R = 10_000
    reports = {}
    for name, policy in (("adaptive", AdaptiveNeyman()), ("uniform", Uniform())):
        cfg = TrialConfig(inst, T, policy, "aipw", seed)
        reports[name] = run_monte_carlo(cfg, R, threads)
    sqrt_t = math.sqrt(T)
    diff = abs(reports["adaptive"].scaled_regret - reports["uniform"].scaled_regret)
    se = sqrt_t * math.sqrt(
        reports["adaptive"].regret_se ** 2 + reports["uniform"].regret_se ** 2
    )
    mult = THRESHOLDS["se_mult"]
    passed = diff <= mult * se
    detail = (
        f"scaled regret adaptive = {reports['adaptive'].scaled_regret:.5f}, "
        f"uniform = {reports['uniform'].scaled_regret:.5f}, "
        f"|diff| = {diff:.5f} vs {mult:.0f}*SE = {mult * se:.5f}"
    )
    return _finish("bernoulli_policy_equivalence", passed, detail, t0)


def run_all(seed: int = 42, threads: int = 1) -> list[CheckResult]:
    """All nine checks in order; the two bound checks share one sweep."""
    results = [
        check_allocation_convergence(seed, threads),
        check_estimator_unbiasedness(seed, threads),
    ]
    t0 = perf_counter()
    sweep = bound_sweep(seed, threads)
    sweep_seconds = perf_counter() - t0
    bound = check_regret_bound_non_violation(sweep)
    results.append(replace(bound, seconds=bound.seconds + sweep_seconds))
    results.append(check_oracle_tail(seed, threads))
    results.append(check_worst_case_maximizer(sweep))
    results.append(check_consistency(seed, threads))
    results.append(check_transportation_inequality(seed, threads))
    results.append(check_kl_fisher(seed, threads))
    results.append(check_bernoulli_policy_equivalence(seed, threads))
    return results
