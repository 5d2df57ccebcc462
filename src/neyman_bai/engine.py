"""Trial execution and Monte Carlo aggregation.

Determinism contract. Replication i of a run with master seed s owns three
dedicated streams under s: arm-1 outcomes (stream 4i), arm-2 outcomes
(4i+1), and selection uniforms (4i+2). Both arms' potential outcomes are
drawn up front for every round (the policy merely decides which column is
observed), so a trial's random inputs are a pure function of (seed,
replication) and never depend on the policy's path. A chunk opens its
first stream with rng.spawn and every later one by re-keying that same
generator with rng.restart; the draws are identical to a fresh spawn per
stream, so the stream layout alone fixes the tables. run_trial walks these
tables with a readable scalar loop; run_monte_carlo runs the same
arithmetic vectorized across replications in fixed-size chunks. The two
paths produce bit-identical results, replication by replication, and the
aggregate is independent of chunking and thread count.

Regret bookkeeping uses the two-arm identity: expected simple regret equals
gap times misidentification probability, so the engine counts wrong
recommendations and never accumulates per-trial regrets separately.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import Instance, Marginal, best_arm
from .estimators import ESTIMATORS, ESTIMATOR_KINDS, RoundRecord, recommend
from .policies import (
    AdaptiveNeyman,
    AllocationState,
    Policy,
    allocation_probability,
    block_cut,
    update,
)
from .rng import restart, spawn

STREAM_ARM1 = 0
STREAM_ARM2 = 1
STREAM_SELECT = 2
_STREAMS_PER_REP = 4

DEFAULT_GRID = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0)

# Replications per vectorized chunk are sized so one outcome table stays
# around 128 MB; threads share the budget.
_CHUNK_CELLS = 16_000_000

# Stream keys keep a seed's low 64 bits, so a wider seed would alias another.
_SEED_LIMIT = 1 << 64


def _require_int(name: str, value) -> None:
    # Python ints only: a numpy seed would overflow the 64-bit key masking.
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer (a Python int), got {value!r}")


@dataclass(frozen=True)
class TrialConfig:
    """Everything one trial needs; (seed, replication) fixes all randomness."""

    instance: Instance
    T: int
    policy: Policy
    estimator: str = "aipw"
    seed: int = 42
    replication: int = 0

    def __post_init__(self) -> None:
        _require_int("T", self.T)
        _require_int("seed", self.seed)
        if self.T < 2:
            raise ValueError(f"budget T must be >= 2, got {self.T}")
        if self.estimator not in ESTIMATOR_KINDS:
            raise ValueError(
                f"unknown estimator {self.estimator!r} (expected one of {ESTIMATOR_KINDS})"
            )
        if not 0 <= self.seed < _SEED_LIMIT:
            raise ValueError(f"seed must lie in [0, 2^64), got {self.seed}")


@dataclass(frozen=True)
class TrialResult:
    recommended: int
    counts: tuple[int, int]
    mu_hat: tuple[float, float]
    correct: bool


@dataclass(frozen=True)
class MCReport:
    """Monte Carlo aggregate over R replications of one configuration."""

    R: int
    misid_prob: float
    misid_se: float
    mean_regret: float
    regret_se: float
    scaled_regret: float
    mean_alloc_frac: tuple[float, float]


@dataclass(frozen=True)
class Replications:
    """Per-replication outcomes in replication order (index 0..R-1)."""

    recommended: np.ndarray
    correct: np.ndarray
    n1: np.ndarray
    mu_hat: np.ndarray


def _tables(cfg: TrialConfig, lo: int, hi: int):
    """Outcome/selection tables for replications lo..hi-1, one row each.

    Row j belongs to replication lo+j. The selection table is only drawn
    for randomizing policies; block schedules never consume it.
    """
    B = hi - lo
    T = cfg.T
    seed = cfg.seed
    arm1, arm2 = cfg.instance.arm1, cfg.instance.arm2
    y1 = np.empty((B, T))
    y2 = np.empty((B, T))
    adaptive = isinstance(cfg.policy, AdaptiveNeyman)
    u = np.empty((B, T)) if adaptive else None
    # One generator per call (so per worker thread), re-keyed per stream.
    gen = spawn(seed, _STREAMS_PER_REP * lo + STREAM_ARM1)
    for j in range(B):
        base = _STREAMS_PER_REP * (lo + j)
        if j:
            restart(gen, seed, base + STREAM_ARM1)
        y1[j] = arm1.draw(gen, T)
        restart(gen, seed, base + STREAM_ARM2)
        y2[j] = arm2.draw(gen, T)
        if adaptive:
            restart(gen, seed, base + STREAM_SELECT)
            u[j] = gen.random(T)
    return y1, y2, u


def simulate_rounds(
    instance: Instance,
    T: int,
    policy: Policy,
    estimator: str,
    y1: np.ndarray,
    y2: np.ndarray,
    u: np.ndarray | None,
) -> tuple[list[RoundRecord], TrialResult]:
    """Reference scalar trial over explicit outcome tables.

    y1[t] and y2[t] are the round-t potential outcomes; u[t] the round-t
    selection uniform (ignored by block policies). Exposed so harnesses
    can perturb individual rounds and audit predictability: changing the
    round-t outcome must leave w_used and mu_tilde_pre of round t intact.
    """
    state = AllocationState()
    cut = block_cut(policy, T)
    records: list[RoundRecord] = []
    for t in range(T):
        w1 = allocation_probability(state, policy)
        if cut is None:
            arm = 1 if u[t] < w1 else 2
        else:
            arm = 1 if t < cut else 2
        y = float(y1[t] if arm == 1 else y2[t])
        w_used = w1 if arm == 1 else 1.0 - w1
        records.append(RoundRecord(t + 1, arm, y, w_used, state.means))
        state = update(state, arm, y)

    est = ESTIMATORS[estimator](records, T)
    rec = recommend(est)
    result = TrialResult(rec, state.counts, est.mu_hat, rec == best_arm(instance))
    return records, result


def run_trial_records(cfg: TrialConfig) -> tuple[list[RoundRecord], TrialResult]:
    """One trial, returning its per-round records alongside the result."""
    y1, y2, u = _tables(cfg, cfg.replication, cfg.replication + 1)
    return simulate_rounds(
        cfg.instance, cfg.T, cfg.policy, cfg.estimator,
        y1[0], y2[0], u[0] if u is not None else None,
    )


def run_trial(cfg: TrialConfig) -> TrialResult:
    """Allocation phase, then recommendation. Deterministic given cfg."""
    return run_trial_records(cfg)[1]


def _kernel_adaptive(policy: AdaptiveNeyman, estimator: str, y1, y2, u):
    """Adaptive-Neyman rounds, vectorized across replications.

    Mirrors simulate_rounds operation for operation (same divisions, same
    accumulation order over t), so each row equals the scalar path bit for
    bit.
    """
    B, T = y1.shape
    eta = policy.eta
    w_min = policy.w_min
    aipw = estimator == "aipw"
    ipw = estimator == "ipw"

    n1 = np.zeros(B)
    n2 = np.zeros(B)
    mean1 = np.zeros(B)
    mean2 = np.zeros(B)
    m2_1 = np.zeros(B)
    m2_2 = np.zeros(B)
    acc1 = np.zeros(B)
    acc2 = np.zeros(B)

    for t in range(T):
        if t == 0:
            w1 = 0.5
            w2 = 0.5
        else:
            v1 = np.where(m2_1 > 0.0, m2_1 / np.maximum(n1, 1.0), eta)
            v2 = np.where(m2_2 > 0.0, m2_2 / np.maximum(n2, 1.0), eta)
            s1 = np.sqrt(v1)
            s2 = np.sqrt(v2)
            w1 = np.clip(s1 / (s1 + s2), w_min, 1.0 - w_min)
            w2 = 1.0 - w1
        pick = u[:, t] < w1
        notpick = ~pick
        y = np.where(pick, y1[:, t], y2[:, t])

        if aipw:
            acc1 += np.where(pick, (y - mean1) / w1, 0.0) + mean1
            acc2 += np.where(notpick, (y - mean2) / w2, 0.0) + mean2
        elif ipw:
            acc1 += np.where(pick, y / w1, 0.0)
            acc2 += np.where(notpick, y / w2, 0.0)
        else:
            acc1 += np.where(pick, y, 0.0)
            acc2 += np.where(notpick, y, 0.0)

        n1 = n1 + pick
        d1 = y - mean1
        mean1 = np.where(pick, mean1 + d1 / np.maximum(n1, 1.0), mean1)
        m2_1 = np.where(pick, m2_1 + d1 * (y - mean1), m2_1)
        n2 = n2 + notpick
        d2 = y - mean2
        mean2 = np.where(notpick, mean2 + d2 / np.maximum(n2, 1.0), mean2)
        m2_2 = np.where(notpick, m2_2 + d2 * (y - mean2), m2_2)

    if estimator == "sample_mean":
        if (n1 == 0).any():
            raise ValueError("arm 1 was never observed; its sample mean is undefined")
        if (n2 == 0).any():
            raise ValueError("arm 2 was never observed; its sample mean is undefined")
        mu1 = acc1 / n1
        mu2 = acc2 / n2
    else:
        mu1 = acc1 / T
        mu2 = acc2 / T
    return n1.astype(np.int64), mu1, mu2


def _kernel_block(cut: int, w_target: float, estimator: str, y1, y2):
    """Block-schedule rounds (oracle Neyman / uniform), vectorized.

    Arm 1 owns rounds 0..cut-1, arm 2 the rest; counts are deterministic.
    Accumulation order over t matches the scalar path exactly.
    """
    B, T = y1.shape
    aipw = estimator == "aipw"
    ipw = estimator == "ipw"
    if estimator == "sample_mean":
        if cut == 0:
            raise ValueError("arm 1 was never observed; its sample mean is undefined")
        if cut == T:
            raise ValueError("arm 2 was never observed; its sample mean is undefined")
    w1 = w_target
    w2 = 1.0 - w_target

    mean1 = np.zeros(B)
    mean2 = np.zeros(B)
    acc1 = np.zeros(B)
    acc2 = np.zeros(B)

    for t in range(T):
        if t < cut:
            y = y1[:, t]
            if aipw:
                # acc2 would gain mu_tilde(2) == 0.0 on these rounds; skipped.
                acc1 += (y - mean1) / w1 + mean1
                d = y - mean1
                mean1 = mean1 + d / (t + 1)
            elif ipw:
                acc1 += y / w1
            else:
                acc1 += y
        else:
            y = y2[:, t]
            if aipw:
                acc1 += mean1
                acc2 += (y - mean2) / w2 + mean2
                d = y - mean2
                mean2 = mean2 + d / (t - cut + 1)
            elif ipw:
                acc2 += y / w2
            else:
                acc2 += y

    if estimator == "sample_mean":
        mu1 = acc1 / cut
        mu2 = acc2 / (T - cut)
    else:
        mu1 = acc1 / T
        mu2 = acc2 / T
    n1 = np.full(B, cut, dtype=np.int64)
    return n1, mu1, mu2


def _chunk_ranges(R: int, T: int, threads: int) -> list[tuple[int, int]]:
    per_chunk = max(1, _CHUNK_CELLS // T // threads)
    return [(lo, min(lo + per_chunk, R)) for lo in range(0, R, per_chunk)]


def replicate(cfg: TrialConfig, R: int, threads: int = 1) -> Replications:
    """Run replications 0..R-1 of cfg, vectorized, in replication order.

    cfg.replication is ignored; replication i draws from the streams of
    index i under cfg.seed, so element i reproduces
    run_trial(replace(cfg, replication=i)) exactly. Results do not depend
    on chunk boundaries or on `threads`.
    """
    _require_int("R", R)
    _require_int("threads", threads)
    if R < 1:
        raise ValueError(f"R must be >= 1, got {R}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    n1 = np.empty(R, dtype=np.int64)
    mu_hat = np.empty((R, 2))
    adaptive = isinstance(cfg.policy, AdaptiveNeyman)
    cut = block_cut(cfg.policy, cfg.T)
    w_target = None if adaptive else allocation_probability(AllocationState(), cfg.policy)

    def work(bounds: tuple[int, int]) -> None:
        lo, hi = bounds
        y1, y2, u = _tables(cfg, lo, hi)
        if adaptive:
            part_n1, part_mu1, part_mu2 = _kernel_adaptive(cfg.policy, cfg.estimator, y1, y2, u)
        else:
            part_n1, part_mu1, part_mu2 = _kernel_block(cut, w_target, cfg.estimator, y1, y2)
        n1[lo:hi] = part_n1
        mu_hat[lo:hi, 0] = part_mu1
        mu_hat[lo:hi, 1] = part_mu2

    ranges = _chunk_ranges(R, cfg.T, threads)
    if threads <= 1 or len(ranges) == 1:
        for bounds in ranges:
            work(bounds)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, ranges))

    recommended = np.where(mu_hat[:, 0] >= mu_hat[:, 1], 1, 2)
    correct = recommended == best_arm(cfg.instance)
    return Replications(recommended, correct, n1, mu_hat)


def run_monte_carlo(cfg: TrialConfig, R: int, threads: int = 1) -> MCReport:
    """Aggregate R replications into misidentification and regret figures.

    Aggregation uses integer counts only (wrong recommendations, arm-1
    rounds), so the report is bit-identical across thread counts and
    chunkings; mean_regret is computed as gap * misid_prob by definition.
    """
    reps = replicate(cfg, R, threads)
    wrong = R - int(reps.correct.sum())
    p = wrong / R
    se = math.sqrt(p * (1.0 - p) / R)
    gap = cfg.instance.gap
    mean_regret = gap * p
    regret_se = gap * se
    scaled_regret = math.sqrt(cfg.T) * mean_regret
    pulls1 = int(reps.n1.sum())
    total = R * cfg.T
    alloc = (pulls1 / total, (total - pulls1) / total)
    return MCReport(R, p, se, mean_regret, regret_se, scaled_regret, alloc)


@dataclass(frozen=True)
class SweepPoint:
    """One grid multiplier x, the configuration it ran and its report."""

    x: float
    cfg: TrialConfig
    report: MCReport


@dataclass(frozen=True)
class SweepResult:
    sigmas: tuple[float, float]
    T: int
    points: tuple[SweepPoint, ...]

    @property
    def max_point(self) -> SweepPoint:
        """Grid row attaining the largest scaled regret (first on ties)."""
        best = self.points[0]
        for p in self.points[1:]:
            if p.report.scaled_regret > best.report.scaled_regret:
                best = p
        return best


def sweep_worst_case(
    sigmas: tuple[float, float],
    T: int,
    policy: Policy,
    estimator: str,
    R: int,
    seed: int,
    grid: Sequence[float] = DEFAULT_GRID,
    threads: int = 1,
) -> SweepResult:
    """Scaled regret across gaps Delta = x * (sigma1+sigma2)/sqrt(T).

    Each grid multiplier x builds a Gaussian instance with means (Delta, 0)
    and the given variances, then runs a full Monte Carlo. All points share
    the master seed, i.e. common random numbers across the grid, which
    makes the empirical argmax comparison less noisy.
    """
    s1, s2 = sigmas
    if s1 <= 0.0 or s2 <= 0.0:
        raise ValueError("sweep standard deviations must be positive")
    if len(grid) == 0:
        raise ValueError("sweep grid must be non-empty")
    if any(x <= 0.0 for x in grid):
        raise ValueError("sweep grid multipliers must be positive")
    scale = (s1 + s2) / math.sqrt(T)
    points = []
    for x in grid:
        gap = x * scale
        inst = Instance(
            Marginal.gaussian(gap, s1 * s1),
            Marginal.gaussian(0.0, s2 * s2),
        )
        cfg = TrialConfig(inst, T, policy, estimator, seed)
        points.append(SweepPoint(float(x), cfg, run_monte_carlo(cfg, R, threads)))
    return SweepResult((s1, s2), T, tuple(points))


@dataclass(frozen=True)
class ConsistencyPoint:
    """One budget's configuration (cfg.T is the budget) and its report."""

    cfg: TrialConfig
    report: MCReport


def consistency_curve(
    instance: Instance,
    budgets: Sequence[int],
    policy: Policy,
    estimator: str,
    R: int,
    seed: int,
    threads: int = 1,
) -> list[ConsistencyPoint]:
    """Misidentification probability per budget on one fixed instance.

    Budgets share the master seed, so replication i's outcome stream at a
    smaller budget is a prefix of the same stream at a larger one (paired
    comparisons across budgets). For a fixed instance with a positive gap
    the curve should fall toward zero as T grows.
    """
    if len(budgets) == 0:
        raise ValueError("budgets must be non-empty")
    out = []
    for T in budgets:
        cfg = TrialConfig(instance, T, policy, estimator, seed)
        out.append(ConsistencyPoint(cfg, run_monte_carlo(cfg, R, threads)))
    return out
