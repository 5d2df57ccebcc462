"""Trial execution and Monte Carlo aggregation.

Determinism contract: replicate(cfg, R)[i] == run_trial(cfg, i) for every
replication index i, a Python int in [0, 2^62). Replication i of a run with
master seed s owns three streams under s: arm-1 outcomes (stream 4i), arm-2
outcomes (4i+1), and selection uniforms (4i+2); the bound keeps 4i+3 below
2^64. Both arms' potential outcomes are drawn up front for every round (the
policy merely decides which column is observed), so a trial's random inputs
are a pure function of (seed, i) and never depend on the policy's path.

run_trial, the audit oracle, draws its replication's streams afresh with
spawn and Marginal.draw, sharing no draw code with the fill, and walks them
with a readable scalar loop; replicate runs the same arithmetic vectorized.
From _FORK_CELLS cells on, it splits the rows into at most min(threads,
CPUs) contiguous ranges, runs the first itself and each other in a forked
worker process, every process pinned to a CPU of its own. A range runs in
chunks of at most _CHUNK_ROWS rows, one kernel call per chunk, whose tables
the same thread draws in round-major (rounds, replications) blocks (see
_blocks and _layout), so memory does not grow with T. It peaks at one table
buffer per worker, streams * rounds * rows * 8 bytes: at most 96 MiB for
whole trials, 48 MiB for several blocks (24 MiB up to 2,048 rows). A Philox
stream is fixed by its key: drawing it in pieces repeats one whole draw.

The blocks hold standard draws only (normals, or uniforms for Bernoulli);
the kernels map both arms to outcomes one round at a time, z * sd + mean
(u < mean for Bernoulli), the same operations as Marginal.draw.
Configurations that differ only in their arms' parameters therefore read
the same tables, so replicate(cfg, R, threads, instances=...) runs them
all on one fill: every kernel keeps (points, replications) sums and maps
each round's draws once per point, or once for an arm that every point
shares. A worst-case sweep's grid and a transportation check's two
models run this way. Results are bit-identical to the scalar path and
independent of blocks, chunks, workers and the other points of a sweep.

Regret bookkeeping uses the two-arm identity: expected simple regret equals
gap times misidentification probability, so the engine counts wrong
recommendations and never accumulates per-trial regrets separately.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import threading
from dataclasses import dataclass, replace
from functools import partial
from typing import Sequence

import numpy as np

from .distributions import Family, Instance, Marginal, _require_int, best_arm
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
# _BLOCK_CELLS // rows (655 at 1,600 rows), but never fewer than _MIN_ROUNDS,
# since each round block costs one draw call per row and stream.
_BLOCK_CELLS = 1 << 20
_MIN_ROUNDS = 512

# Rows drawn into a chunk's scratch between transposed copies into a block.
# The scratch holds _BAND * rounds * 8 bytes (fewer rows if the chunk has
# fewer): 0.64 MiB at 655 rounds, 1.95 MiB for whole 2,000-round trials.
_BAND = 128

# Cells (R * T * points) from which replicate forks workers: a fork costs about
# 4 ms, repaid from about 2-5 * 10^5 cells (adaptive) or 10^6 (block schedules).
_FORK_CELLS = 1 << 20

# Stream keys are 64-bit words, and rng.spawn rejects a wider seed;
# replication i keys streams 4i..4i+3, so i stays below 2^62.
_SEED_LIMIT = 1 << 64


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


def _blocks(cfg: TrialConfig, lo: int, hi: int, rounds: int):
    """Yield (t0, blocks) over round blocks of replications lo..hi-1.

    blocks is a (streams, n, hi - lo) array, reused, so read each block
    before asking for the next: blocks[k][t, j] is round t0 + t of stream
    4(lo + j) + k. These are standard draws (normals, or uniforms for
    Bernoulli) of arms 1 and 2, left for the kernels to map since points
    differ in their parameters, and, for adaptive policies, selection
    uniforms. A block schedule's arm-1 rounds from the cut on stay unset.

    A block of whole trials re-keys one spawned generator to each row's
    stream in turn (see rng.restarter); otherwise kept[k][j], spawned by
    the first block, is the draw method of stream k of row j. Each row's
    draws take one call into a row of scratch, transposed into the block
    every _BAND rows, so each draw writes contiguous memory.
    """
    B, T, seed = hi - lo, cfg.T, cfg.seed
    cut = block_cut(cfg.policy, T)
    arms = (cfg.instance.arm1, cfg.instance.arm2, None)[: 3 if cut is None else 2]
    buf = np.empty((len(arms), rounds, B))
    scratch = np.empty((min(_BAND, B), rounds))
    kept = None if rounds >= T else [[None] * B for _ in arms]
    if kept is None:
        gen = spawn(seed, _STREAMS_PER_REP * lo)
        rekey = restarter(gen, seed)
    for t0 in range(0, T, rounds):
        blocks = buf[:, : min(rounds, T - t0)]
        n = blocks.shape[1]
        for k, (arm, block) in enumerate(zip(arms, blocks)):
            m = n if k or cut is None else min(n, max(0, cut - t0))
            if m == 0:
                continue
            for i in range(0, B, _BAND):
                c = min(B, i + _BAND)
                band = scratch[: c - i, :m]
                if kept is None:
                    fill = _row_fill(arm, gen)
                    stream = _STREAMS_PER_REP * (lo + i) + k
                    for row in band:
                        rekey(stream)
                        fill(out=row)
                        stream += _STREAMS_PER_REP
                else:
                    if t0 == 0:
                        for j in range(i, c):
                            stream = _STREAMS_PER_REP * (lo + j) + k
                            kept[k][j] = _row_fill(arm, spawn(seed, stream))
                    for fill, row in zip(kept[k][i:c], band):
                        fill(out=row)
                block[:m, i:c] = band.T
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


def _rows(cfg: TrialConfig, kernel, G: int, lo: int, hi: int):
    """(G, B, 2) outcome sums and (G, B) arm-1 counts of replications lo..hi-1, chunk by chunk."""
    B = hi - lo
    n1, acc = np.empty((G, B), dtype=np.int64), np.empty((G, B, 2))
    rows, rounds = _layout(B, cfg.T)
    for a in range(0, B, rows):
        b = min(a + rows, B)
        blocks = _blocks(cfg, lo + a, lo + b, rounds)
        acc[:, a:b, 0], acc[:, a:b, 1], n1[:, a:b] = kernel(blocks, (G, b - a))
    return acc, n1


def _workers(threads: int, R: int, cells: int) -> int:
    """Worker processes for a replicate call: min(threads, R, CPUs it may run on).

    One below _FORK_CELLS cells, without os.fork or os.sched_setaffinity, or
    while other threads are alive, whose state a forked child would lack.
    """
    if cells < _FORK_CELLS or not (hasattr(os, "fork") and hasattr(os, "sched_setaffinity")):
        return 1
    return 1 if threading.active_count() > 1 else min(threads, R, len(os.sched_getaffinity(0)))


def _child(run, lo: int, hi: int, cpu: int, fd: int) -> None:
    """A forked worker: run(lo, hi) pinned to cpu, its result or exception pickled to fd."""
    try:
        try:
            os.sched_setaffinity(0, {cpu})
            result = run(lo, hi)
        except BaseException as exc:
            result = exc
        with os.fdopen(fd, "wb") as pipe:
            pipe.write(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))  # all or nothing
        os._exit(0)
    finally:
        os._exit(1)


def _forked(run, edges: list[int]) -> list:
    """run(lo, hi) for each range of edges, in order: the first here, each other in a child.

    Each process runs pinned to a CPU of its own; this one gets its mask back.
    Every child is reaped, and killed first if this process raises. A child's
    exception is raised here, and ChildProcessError (exit status -N: signal N)
    for one that ends without a result.
    """
    cpus = sorted(mask := os.sched_getaffinity(0))
    children, codes = [], []
    try:
        for cpu, lo, hi in zip(cpus[1:], edges[1:-1], edges[2:]):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                _child(run, lo, hi, cpu, w)
            children.append((pid, os.fdopen(r, "rb")))
            os.close(w)
        os.sched_setaffinity(0, {cpus[0]})
        parts = [run(edges[0], edges[1])]
        sent = [pipe.read() for _, pipe in children]
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, pipe in children:
            pipe.close()
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
        os.sched_setaffinity(0, mask)
    for data, code, lo, hi in zip(sent, codes, edges[1:-1], edges[2:]):
        why = f"the worker for replications {lo}..{hi - 1} ended without a result"
        part = pickle.loads(data) if data else ChildProcessError(f"{why} (exit status {code})")
        if isinstance(part, BaseException):
            raise part
        parts.append(part)
    return parts


def replicate(
    cfg: TrialConfig, R: int, threads: int = 1, *, instances: Sequence[Instance] | None = None
) -> Replications | tuple[Replications, ...]:
    """Run replications 0..R-1 of cfg, vectorized, in replication order.

    Element i reproduces run_trial(cfg, i) exactly. Results, and the error
    for an arm the sample-mean estimator never observed (naming the lowest
    such replication, arm 1 first), do not depend on chunks, blocks or
    `threads`, which bounds the worker processes (see _workers and _forked);
    each worker fills its rows' tables on its one thread.

    With instances, runs one configuration per instance, replace(cfg,
    instance=inst), and returns a tuple of Replications in that order,
    each equal to replicate() of its configuration. Each arm of every
    instance must be of the family of cfg's arm; means and variances may
    differ. The points share one fill of the tables, and each kernel call
    runs all of them; an error names the first failing point's
    replication, as separate calls in order would.
    """
    for name, value in (("R", R), ("threads", threads)):
        _require_int(name, value)
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    _require_int("R", R, 62)
    points = [cfg] if instances is None else _points(cfg, instances)
    arm1 = _arm_outcomes([p.instance.arm1 for p in points])
    arm2 = _arm_outcomes([p.instance.arm2 for p in points])
    cut = block_cut(cfg.policy, cfg.T)
    if cut is None:
        kernel = partial(_kernel_adaptive, cfg.policy, cfg.estimator, arm1, arm2)
    else:
        kernel = partial(_kernel_block, cut, arm1, arm2)

    run = partial(_rows, cfg, kernel, len(points))
    parts = _workers(threads, R, R * cfg.T * len(points))
    out = [run(0, R)] if parts == 1 else _forked(run, [R * p // parts for p in range(parts + 1)])
    acc, n1 = (np.concatenate(x, axis=1) for x in zip(*out))

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
