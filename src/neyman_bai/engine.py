"""Trial execution and Monte Carlo aggregation.

Determinism contract: replicate(cfg, R)[i] == run_trial(cfg, i) for every
replication index i, a Python int in [0, 2^62). Replication i of a run with
master seed s owns three streams under s: arm-1 outcomes (stream 4i), arm-2
outcomes (4i+1), and selection uniforms (4i+2); the bound keeps 4i+3 below
2^64. Both arms' potential outcomes are drawn up front for every round (the
policy merely decides which column is observed), so a trial's random inputs
are a pure function of (seed, i) and never depend on the policy's path.

Tables are drawn in round blocks: replicate takes replications in chunks
of at most _CHUNK_ROWS and draws their rounds into round-major (rounds,
replications) blocks, so memory does not grow with T. A chunk's whole
trials form one block when they fit in _CHUNK_CELLS (4M) cells per
stream; a trial that spans several blocks gets blocks of _BLOCK_CELLS
(1M) cells per stream, or of _MIN_ROUNDS rounds for chunks wider than
2,048 rows. The table buffer, the peak of a call's memory, holds
streams * rounds * rows * 8 bytes: at most 96 MiB for whole trials, 48
MiB for several blocks (24 MiB up to 2,048 rows). A Philox stream is
fixed by its key, and drawing it in pieces gives the same values as one
draw, so the blocks hold exactly one whole-trial draw per stream. A block
of whole trials re-keys one generator from row to row (rng.restarter); a
trial longer than a block keeps each stream's draw method open from block
to block (see _fill).
The blocks hold standard draws only (normals, or uniforms for Bernoulli);
the kernels map both arms to outcomes one round at a time, z * sd + mean
(u < mean for Bernoulli), the same operations as Marginal.draw.
Configurations that differ only in their arms' parameters therefore read
the same tables, so replicate(cfg, R, threads, instances=...) runs them
all on one fill: every kernel keeps (points, replications) sums and maps
each round's draws once per point, or once for an arm that every point
shares. A worst-case sweep's grid and a transportation check's two
models run this way.

run_trial, the audit oracle, draws its replication's streams afresh with
spawn and Marginal.draw and walks them with a readable scalar loop; it
shares no draw code with the fill, which calls numpy's methods itself.
replicate runs the same arithmetic vectorized, one kernel call per chunk
on the calling thread, which walks the chunk's blocks and carries the
running sums. At most min(threads, CPUs) worker threads fill each block,
each its own rows. Results are bit-identical to the scalar path and
independent of blocks, chunks, thread count and the other points of a sweep.

Regret bookkeeping uses the two-arm identity: expected simple regret equals
gap times misidentification probability, so the engine counts wrong
recommendations and never accumulates per-trial regrets separately.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import partial
from typing import Sequence

import numpy as np

from .distributions import Family, Instance, Marginal, best_arm
from .estimators import ESTIMATORS, ESTIMATOR_KINDS, RoundRecord, recommend
from .policies import (
    AdaptiveNeyman,
    AllocationState,
    Policy,
    allocation_probability,
    block_cut,
    update,
)
from .rng import restarter, spawn

_STREAMS_PER_REP = 4

DEFAULT_GRID = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0)

# Replications per chunk, the width of every kernel call: the adaptive
# kernel's cost per cell levels off at a few thousand rows.
_CHUNK_ROWS = 4096

# Cells per stream (8 bytes each) of a block of whole trials: a chunk draws
# all T rounds in one block when T * rows fits. Re-keying a generator costs
# far less than spawning one per stream, so trials that fit stay whole.
_CHUNK_CELLS = 1 << 22

# Cells per stream of a round block when a trial spans several: rounds of
# _BLOCK_CELLS // rows (655 at 1,600 rows), but never fewer than _MIN_ROUNDS.
# Each round block costs one draw call per row and stream, and worker threads
# hand the interpreter lock over at every call: at 4,096 rows, 256-round
# blocks filled about 2x slower at 2 and 4 threads than 512-round ones.
_BLOCK_CELLS = 1 << 20
_MIN_ROUNDS = 512

# Rows drawn into a worker's scratch between transposed copies into a block.
# The scratch holds _BAND * rounds * 8 bytes (fewer rows if the worker has
# fewer): 0.64 MiB at 655 rounds, 1.95 MiB for whole 2,000-round trials.
_BAND = 128

# Stream keys are 64-bit words, and rng.spawn rejects a wider seed;
# replication i keys streams 4i..4i+3, so i stays below 2^62.
_SEED_LIMIT = 1 << 64


def _require_int(name: str, value, bits: int | None = None) -> None:
    # Python ints only: numpy integers wrap silently in arithmetic such as 4i + k.
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer (a Python int), got {value!r}")
    if bits is not None and not 0 <= value < 1 << bits:
        raise ValueError(f"{name} must lie in [0, 2^{bits}), got {value}")


@dataclass(frozen=True)
class TrialConfig:
    """One configuration; its seed and a replication index fix all randomness."""

    instance: Instance
    T: int
    policy: Policy
    estimator: str = "aipw"
    seed: int = 42

    def __post_init__(self) -> None:
        _require_int("T", self.T, 53)
        _require_int("seed", self.seed, 64)
        if self.T < 2:
            raise ValueError(f"budget T must be >= 2, got {self.T}")
        if self.estimator not in ESTIMATOR_KINDS:
            raise ValueError(
                f"unknown estimator {self.estimator!r} (expected one of {ESTIMATOR_KINDS})"
            )
        if block_cut(self.policy, self.T) is not None and self.estimator != "sample_mean":
            # A block schedule plays each arm with probability 1 or 0: no
            # propensity to weight by, so IPW and AIPW are undefined.
            raise ValueError(
                f"estimator {self.estimator!r} needs randomized allocation, but policy "
                f"{type(self.policy).__name__} plays a fixed block schedule; use 'sample_mean'"
            )


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


def _row_fill(arm: Marginal | None, gen: np.random.Generator):
    """gen's method filling out= with standard draws for arm, or selection uniforms for None.

    Normals for a Gaussian arm, uniforms on [0, 1) otherwise. The method is
    numpy's own, so a caller filling many short rows from one generator
    binds it once and pays for no Python frame per row.
    """
    gaussian = arm is not None and arm.family is Family.GAUSSIAN
    return gen.standard_normal if gaussian else gen.random


def _fill(cfg, lo, t0, blocks, kept, rows, scratch) -> None:
    """Draw the rounds of one block for chunk rows a..b-1 (rows = (a, b)).

    blocks[k][t, j] receives round t0 + t of stream 4(lo + j) + k: arm-1
    and arm-2 standard draws (normals, or uniforms for Bernoulli) and, for
    adaptive policies, selection uniforms. The arms are left unmapped
    because their outcomes depend on parameters that differ between the
    points of one replicate call; the kernels map them per round. Under a
    block schedule arm 1 is never observed from the cut on, so those
    rounds of its stream are not drawn and stay unset.

    When the block holds whole trials (kept is None), the call opens one
    generator with spawn and re-keys it to each row's stream in turn (see
    rng.restarter); the call's generator and re-keyer are its own, so
    worker threads share neither. Otherwise kept[k][j] is the draw method
    of stream k of row j, bound to a generator that stays open across
    blocks; the first block (t0 == 0) spawns it.

    Each row's standard draws take one call that releases the interpreter
    lock; every _BAND rows the scratch is transposed into the block, so
    parallel fills seldom wait on the lock.
    """
    a, b = rows
    n = blocks.shape[1]
    seed = cfg.seed
    cut = block_cut(cfg.policy, cfg.T)
    arms = (cfg.instance.arm1, cfg.instance.arm2, None)  # None: selection uniforms
    if kept is None:
        gen = spawn(seed, _STREAMS_PER_REP * (lo + a))
        rekey = restarter(gen, seed)
    for k, block in enumerate(blocks):
        arm = arms[k]
        m = n if k or cut is None else min(n, max(0, cut - t0))
        if m == 0:
            continue
        if kept is None:
            fill = _row_fill(arm, gen)
        for i in range(a, b, _BAND):
            c = min(b, i + _BAND)
            band = scratch[: c - i, :m]
            if kept is None:
                stream = _STREAMS_PER_REP * (lo + i) + k
                for row in band:
                    rekey(stream)
                    fill(out=row)
                    stream += _STREAMS_PER_REP
            else:
                if t0 == 0:
                    for j in range(i, c):
                        kept[k][j] = _row_fill(arm, spawn(seed, _STREAMS_PER_REP * (lo + j) + k))
                for fill, row in zip(kept[k][i:c], band):
                    fill(out=row)
            block[:m, i:c] = band.T


def _blocks(cfg: TrialConfig, lo: int, hi: int, rounds: int, threads: int = 1):
    """Yield (t0, blocks) over round blocks of replications lo..hi-1.

    blocks is a (streams, n, hi - lo) array: rounds t0..t0+n-1, round-major,
    one column per replication (see _fill). The buffer is reused, so read
    each block before asking for the next. min(threads, rows, CPUs) workers
    fill disjoint row ranges of each block, in a thread pool of their own
    if more than one, and the block is yielded once all of them are done.
    """
    B = hi - lo
    T = cfg.T
    nstreams = 3 if block_cut(cfg.policy, T) is None else 2
    buf = np.empty((nstreams, rounds, B))
    parts = min(threads, B, os.cpu_count() or 1)
    edges = [B * p // parts for p in range(parts + 1)]
    ranges = list(zip(edges[:-1], edges[1:]))
    scratch = [np.empty((min(_BAND, b - a), rounds)) for a, b in ranges]
    kept = None if rounds >= T else [[None] * B for _ in range(nstreams)]
    with ThreadPoolExecutor(parts) if parts > 1 else nullcontext() as pool:
        for t0 in range(0, T, rounds):
            blocks = buf[:, : min(rounds, T - t0)]
            fill = partial(_fill, cfg, lo, t0, blocks, kept)
            list((pool.map if pool else map)(fill, ranges, scratch))
            yield t0, blocks


def simulate_rounds(
    cfg: TrialConfig, y1: np.ndarray, y2: np.ndarray, u: np.ndarray | None
) -> tuple[list[RoundRecord], TrialResult]:
    """Reference scalar trial of cfg over explicit outcome tables.

    y1[t] and y2[t] are the round-t potential outcomes for t < cfg.T, y1
    only for the rounds arm 1 can play (block_cut(cfg.policy, cfg.T) of
    them under a block schedule); u[t] is the round-t selection uniform
    (unread, and may be None, under a block schedule). A block round
    records w_used = 1.0, the propensity of its scheduled arm. Exposed so
    harnesses can perturb individual rounds and audit predictability:
    changing the round-t outcome must leave w_used and mu_tilde_pre of
    round t intact.
    """
    state = AllocationState()
    cut = block_cut(cfg.policy, cfg.T)
    records: list[RoundRecord] = []
    for t in range(cfg.T):
        if cut is None:
            w1 = allocation_probability(state, cfg.policy)
            arm = 1 if u[t] < w1 else 2
            w_used = w1 if arm == 1 else 1.0 - w1
        else:
            arm = 1 if t < cut else 2
            w_used = 1.0
        y = float(y1[t] if arm == 1 else y2[t])
        records.append(RoundRecord(arm, y, w_used, state.means))
        state = update(state, arm, y)

    mu_hat = ESTIMATORS[cfg.estimator](records)
    rec = recommend(mu_hat)
    result = TrialResult(rec, state.counts, mu_hat, rec == best_arm(cfg.instance))
    return records, result


def run_trial_records(
    cfg: TrialConfig, replication: int = 0
) -> tuple[list[RoundRecord], TrialResult]:
    """One trial, returning its per-round records alongside the result.

    Its inputs are replication i's own streams, drawn afresh: spawn(seed,
    4i + k) for arm 1 (the rounds it can play), arm 2 and, for adaptive
    policies, the selection uniforms (k = 0, 1, 2).
    """
    _require_int("replication", replication, 62)
    inst, seed, T = cfg.instance, cfg.seed, cfg.T
    cut = block_cut(cfg.policy, T)
    stream = _STREAMS_PER_REP * replication
    y1 = inst.arm1.draw(spawn(seed, stream), T if cut is None else cut)
    y2 = inst.arm2.draw(spawn(seed, stream + 1), T)
    u = spawn(seed, stream + 2).random(T) if cut is None else None
    return simulate_rounds(cfg, y1, y2, u)


def run_trial(cfg: TrialConfig, replication: int = 0) -> TrialResult:
    """Replication `replication` of cfg: allocation phase, then recommendation."""
    return run_trial_records(cfg, replication)[1]


def _arm_outcomes(arms: Sequence[Marginal]):
    """Map one round's standard draws z of one arm, shape (B,), to outcomes.

    arms[g] is point g's marginal of that arm, all of one family. Row g
    holds the outcomes under arms[g]: z * sd + mean for a Gaussian arm,
    (u < mean) as 0.0/1.0 for a Bernoulli one. These are the operations of
    Marginal.draw, in the same order, so every value matches it bit for
    bit. A parameter that every point shares enters as one number, so
    an arm the same at every point maps to one (B,) row that broadcasts.
    """
    mean = _shared([arm.mean for arm in arms])
    if arms[0].family is Family.GAUSSIAN:
        sd = _shared([arm.sd for arm in arms])
        return lambda z: z * sd + mean
    return lambda z: (z < mean).astype(np.float64)


def _shared(values: list[float]):
    """values as a (G, 1) column, or their one value if all are equal bit for bit."""
    col = np.array(values)[:, None]
    bits = col.view(np.uint64)
    return col[0, 0] if (bits == bits[0]).all() else col


def _kernel_adaptive(policy: AdaptiveNeyman, estimator: str, arm1, arm2, blocks, shape):
    """Adaptive-Neyman trials over a chunk's round blocks, vectorized.

    Mirrors simulate_rounds operation for operation (same divisions, same
    accumulation order over t) on every lane np.where keeps, so each column
    equals the scalar path bit for bit once replicate divides. No lane is
    guarded: the floor tests m2 / n as _variance_estimate does (an unplayed
    arm's NaN fails it), the Welford step divides by n, at least 1 where the
    arm was just played, and n2 = rounds - n1 is exact on integer floats;
    the discarded lanes' divisions by zero stay silent. blocks yields _blocks'
    (t0, tables): arm-1 and arm-2 standard draws and selection uniforms,
    each (rounds, B); arm1 and arm2 map a round's draws of their arm to (G, B)
    outcomes, or to (B,) outcomes shared by every point (see _arm_outcomes).
    The (G, B) = shape sums start at zero and carry from block to block;
    returns the outcome sums and arm-1 counts (acc1, acc2, n1).
    """
    eta = policy.eta
    w_min = policy.w_min
    aipw = estimator == "aipw"
    ipw = estimator == "ipw"
    acc1, acc2, n1, mean1, mean2, m2_1, m2_2 = np.zeros((7, *shape))

    with np.errstate(divide="ignore", invalid="ignore"):
        for t0, (z1, z2, u) in blocks:
            n2 = t0 - n1
            for t in range(len(z1)):
                v1 = m2_1 / n1
                v2 = m2_2 / n2
                s1 = np.sqrt(np.where(v1 > 0.0, v1, eta))
                s2 = np.sqrt(np.where(v2 > 0.0, v2, eta))
                w1 = np.clip(s1 / (s1 + s2), w_min, 1.0 - w_min)
                w2 = 1.0 - w1
                pick = u[t] < w1
                y = np.where(pick, arm1(z1[t]), arm2(z2[t]))
                d1 = y - mean1
                d2 = y - mean2

                if aipw:
                    acc1 += np.where(pick, d1 / w1, 0.0) + mean1
                    acc2 += np.where(pick, 0.0, d2 / w2) + mean2
                elif ipw:
                    acc1 += np.where(pick, y / w1, 0.0)
                    acc2 += np.where(pick, 0.0, y / w2)
                else:
                    acc1 += np.where(pick, y, 0.0)
                    acc2 += np.where(pick, 0.0, y)

                n1 = n1 + pick
                n2 = (t0 + t + 1) - n1
                mean1 = np.where(pick, mean1 + d1 / n1, mean1)
                m2_1 = np.where(pick, m2_1 + d1 * (y - mean1), m2_1)
                mean2 = np.where(pick, mean2, mean2 + d2 / n2)
                m2_2 = np.where(pick, m2_2, m2_2 + d2 * (y - mean2))

    return acc1, acc2, n1


def _kernel_block(cut: int, arm1, arm2, blocks, shape):
    """Block-schedule trials (oracle Neyman / uniform) over a chunk's blocks.

    Arm 1 owns rounds 0..cut-1, arm 2 the rest; the sample mean is the only
    estimator TrialConfig admits here. Accumulation order over t matches the
    scalar path exactly. Arguments are as in _kernel_adaptive, without the
    uniforms; returns the outcome sums and arm 1's count, (acc1, acc2, cut).
    """
    acc1, acc2 = np.zeros((2, *shape))
    for t0, (z1, z2) in blocks:
        for t in range(t0, t0 + len(z1)):
            if t < cut:
                acc1 += arm1(z1[t - t0])
            else:
                acc2 += arm2(z2[t - t0])
    return acc1, acc2, cut


def _layout(R: int, T: int) -> tuple[int, int]:
    """Replications per chunk and rounds per block.

    Whole trials when T * rows fits _CHUNK_CELLS; otherwise blocks of
    _BLOCK_CELLS cells per stream and at least _MIN_ROUNDS rounds.
    """
    rows = min(R, _CHUNK_ROWS)
    if T * rows <= _CHUNK_CELLS:
        return rows, T
    return rows, min(T, max(_MIN_ROUNDS, _BLOCK_CELLS // rows))


def _finish(cfg: TrialConfig, acc: np.ndarray, n1: np.ndarray) -> Replications:
    """Replications of cfg from its (R, 2) sums and arm-1 counts.

    Raises for an arm the sample-mean estimator never observed, naming the
    lowest such replication, arm 1 first.
    """
    if cfg.estimator == "sample_mean":
        counts = np.column_stack((n1, cfg.T - n1))
        for arm in (1, 2):
            starved = np.flatnonzero(counts[:, arm - 1] == 0)
            if starved.size:
                raise ValueError(
                    f"arm {arm} was never observed in replication {starved[0]}; "
                    "its sample mean is undefined"
                )
        mu_hat = acc / counts
    else:
        mu_hat = acc / cfg.T
    recommended = np.where(mu_hat[:, 0] >= mu_hat[:, 1], 1, 2)
    correct = recommended == best_arm(cfg.instance)
    return Replications(recommended, correct, n1, mu_hat)


def _points(cfg: TrialConfig, instances: Sequence[Instance]) -> list[TrialConfig]:
    """cfg with its instance replaced by each of instances, in order."""
    if len(instances) == 0:
        raise ValueError("instances must be non-empty")
    arms = (cfg.instance.arm1, cfg.instance.arm2)
    points = []
    for g, inst in enumerate(instances):
        if not isinstance(inst, Instance):
            raise ValueError(f"instances[{g}] must be an Instance, got {inst!r}")
        for k, (got, want) in enumerate(zip((inst.arm1, inst.arm2), arms), 1):
            if got.family is not want.family:
                raise ValueError(
                    f"instances[{g}].arm{k} is {got.family.value}, "
                    f"but cfg's arm {k} is {want.family.value}"
                )
        points.append(replace(cfg, instance=inst))
    return points


def replicate(
    cfg: TrialConfig, R: int, threads: int = 1, *, instances: Sequence[Instance] | None = None
) -> Replications | tuple[Replications, ...]:
    """Run replications 0..R-1 of cfg, vectorized, in replication order.

    Element i reproduces run_trial(cfg, i) exactly. Results, and the error
    for an arm the sample-mean estimator never observed (naming the lowest
    such replication, arm 1 first), do not depend on chunks, blocks or
    `threads`. One kernel call per chunk runs here and walks its blocks;
    at most min(threads, CPUs) worker threads fill them.

    With instances, runs one configuration per instance, replace(cfg,
    instance=inst), and returns a tuple of Replications in that order,
    each equal to replicate() of its configuration. Each arm of every
    instance must be of the family of cfg's arm; means and variances may
    differ. The points share one fill of the tables, and each kernel call
    runs all of them; an error names the first failing point's
    replication, as separate calls in order would.
    """
    _require_int("R", R)
    _require_int("threads", threads)
    if R < 1:
        raise ValueError(f"R must be >= 1, got {R}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    points = [cfg] if instances is None else _points(cfg, instances)
    arm1 = _arm_outcomes([p.instance.arm1 for p in points])
    arm2 = _arm_outcomes([p.instance.arm2 for p in points])
    n1 = np.empty((len(points), R), dtype=np.int64)
    acc = np.empty((len(points), R, 2))
    cut = block_cut(cfg.policy, cfg.T)
    if cut is None:
        kernel = partial(_kernel_adaptive, cfg.policy, cfg.estimator, arm1, arm2)
    else:
        kernel = partial(_kernel_block, cut, arm1, arm2)

    rows, rounds = _layout(R, cfg.T)
    for lo in range(0, R, rows):
        hi = min(lo + rows, R)
        blocks = _blocks(cfg, lo, hi, rounds, threads)
        acc[:, lo:hi, 0], acc[:, lo:hi, 1], n1[:, lo:hi] = kernel(blocks, (len(points), hi - lo))

    reps = tuple(_finish(p, acc[g], n1[g]) for g, p in enumerate(points))
    return reps[0] if instances is None else reps


def _report(cfg: TrialConfig, reps: Replications) -> MCReport:
    """Aggregate cfg's replications into misidentification and regret figures.

    Aggregation uses integer counts only (wrong recommendations, arm-1
    rounds), so the report is bit-identical across thread counts and
    chunkings; mean_regret is computed as gap * misid_prob by definition.
    """
    R = len(reps.correct)
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


def run_monte_carlo(cfg: TrialConfig, R: int, threads: int = 1) -> MCReport:
    """Aggregate R replications into misidentification and regret figures."""
    return _report(cfg, replicate(cfg, R, threads))


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
        return max(self.points, key=lambda p: p.report.scaled_regret)


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
    and the given variances, and gets a full Monte Carlo report. All points
    share the master seed, i.e. common random numbers across the grid,
    which makes the empirical argmax comparison less noisy. One replicate
    call runs them all: the tables are drawn once, and each kernel call
    maps a round's arm-1 draws for every point and its arm-2 draws once,
    since arm 2 is the same at every point. Each point's report equals
    run_monte_carlo on its configuration.
    """
    s1, s2 = sigmas
    if s1 <= 0.0 or s2 <= 0.0:
        raise ValueError("sweep standard deviations must be positive")
    if len(grid) == 0:
        raise ValueError("sweep grid must be non-empty")
    if any(x <= 0.0 for x in grid):
        raise ValueError("sweep grid multipliers must be positive")
    try:
        arm1 = Marginal.gaussian(0.0, s1 * s1)
        arm2 = Marginal.gaussian(0.0, s2 * s2)
    except ValueError as exc:
        raise ValueError(f"sweep sigmas {sigmas!r}: {exc}") from exc
    base = TrialConfig(Instance(arm1, arm2), T, policy, estimator, seed)
    scale = (s1 + s2) / math.sqrt(T)
    cfgs = []
    for x in grid:
        try:
            inst = Instance(Marginal.gaussian(x * scale, s1 * s1), arm2)
        except ValueError as exc:
            raise ValueError(f"sweep grid point x = {x!r}: {exc}") from exc
        cfgs.append(replace(base, instance=inst))
    reps = replicate(base, R, threads, instances=[cfg.instance for cfg in cfgs])
    points = tuple(
        SweepPoint(float(x), cfg, _report(cfg, r)) for x, cfg, r in zip(grid, cfgs, reps)
    )
    return SweepResult((s1, s2), T, points)


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
