"""The benchmark's two workloads.

Each workload turns the benchmark seed into its inputs, runs one operation
against the package (the same operation every time within a run), counts
the replication-rounds ("cells") that operation simulates, and checks an
operation's output with `checks`. Package imports happen inside the
operation, so the set-up probe times them as part of set-up.

Why these two:
- sweep_adaptive_2t: adaptive kernel + Gaussian table fill, the only
  workload whose threads run in parallel (two chunks per grid point).
- transport_short: 50-round rows on the block kernel and one thread, so
  per-replication generator set-up (rng) dominates; the only workload
  through `theory`.
"""

from __future__ import annotations

import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import checks


def master_seed(workload: str, seed: int) -> int:
    """The program's master seed, a fixed function of workload name and seed."""
    return random.Random(f"{workload}:{seed}").getrandbits(63)


def _cli(argv: list[str]) -> str:
    from neyman_bai import cli

    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"neyman-bai {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


class SweepAdaptive:
    """`neyman-bai sweep`: adaptive Neyman + AIPW around the critical gap."""

    name = "sweep_adaptive_2t"
    threads = 2
    sigmas = (1.0, 2.0)
    T = 10_000
    grid = (0.5, 1.0, 1.5)
    # 1600 replications split into two 800-row chunks per point at threads=2
    # (16e6 cells per chunk / T / threads), so both threads have work.
    R = 1600
    resim_count = 3

    def __init__(self, seed: int, workdir: Path):
        self.seed = master_seed(self.name, seed)
        self.config_path = workdir / f"{self.name}-{seed}.json"

    @property
    def cells(self) -> int:
        return len(self.grid) * self.R * self.T

    def write_inputs(self) -> None:
        self.config_path.write_text(json.dumps({
            "sigmas": list(self.sigmas),
            "T": self.T,
            "grid": list(self.grid),
            "policy": {"kind": "adaptive_neyman"},
            "estimator": "aipw",
            "R": self.R,
            "seed": self.seed,
            "threads": self.threads,
        }))

    def operation(self, threads: int) -> str:
        return _cli(["sweep", "--config", str(self.config_path), "--threads", str(threads)])

    def check(self, output: str) -> list[str]:
        errors = checks.check_sweep_rows(
            checks.parse_rows(output), self.sigmas, self.T, self.grid, self.R, self.seed
        )
        return errors + self._check_resimulation()

    def _check_resimulation(self) -> list[str]:
        """Re-simulate the first replications of the middle grid point."""
        from neyman_bai.distributions import Instance, Marginal
        from neyman_bai.engine import TrialConfig, replicate
        from neyman_bai.policies import AdaptiveNeyman

        s1, s2 = self.sigmas
        gap = self.grid[len(self.grid) // 2] * (s1 + s2) / math.sqrt(self.T)
        inst = Instance(Marginal.gaussian(gap, s1 * s1), Marginal.gaussian(0.0, s2 * s2))
        cfg = TrialConfig(inst, self.T, AdaptiveNeyman(), "aipw", self.seed)
        reps = replicate(cfg, self.resim_count)
        return checks.check_resimulation(
            reps,
            lambda i: checks.adaptive_aipw_trial(self.seed, i, (gap, 0.0), self.sigmas, self.T),
            range(self.resim_count),
        )


class TransportShort:
    """theory.check_transportation on verify check 7's near-null pair."""

    name = "transport_short"
    threads = 1
    T = 50
    R = 20_000
    baseline = ((0.01, 1.0), (0.0, 1.0))

    def __init__(self, seed: int, workdir: Path):
        self.seed = master_seed(self.name, seed)
        root_t = math.sqrt(self.T)
        # lower_bound_alternative(1, 1, T): means (-1/sqrt(T), 1/sqrt(T)), unit variances.
        self.alternative = ((-1.0 / root_t, 1.0), (1.0 / root_t, 1.0))

    @property
    def cells(self) -> int:
        return 2 * self.R * self.T

    def write_inputs(self) -> None:
        pass

    def operation(self, threads: int):
        from neyman_bai.distributions import Instance, Marginal, lower_bound_alternative
        from neyman_bai.policies import Uniform
        from neyman_bai.theory import check_transportation

        (m1, v1), (m2, v2) = self.baseline
        base = Instance(Marginal.gaussian(m1, v1), Marginal.gaussian(m2, v2))
        alt = lower_bound_alternative(1.0, 1.0, self.T)
        return check_transportation(
            base, alt, Uniform(), self.T, R=self.R, seed=self.seed, threads=threads
        )

    def check(self, report) -> list[str]:
        return checks.check_transport_report(
            report, self.baseline, self.alternative, self.T, self.R
        )


WORKLOADS = {w.name: w for w in (SweepAdaptive, TransportShort)}
