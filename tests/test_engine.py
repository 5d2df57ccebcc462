"""Monte Carlo engine: scalar/vectorized agreement, determinism, reports."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

import neyman_bai.engine as eng
from neyman_bai.distributions import Instance, Marginal
from neyman_bai.engine import (
    DEFAULT_GRID,
    MCReport,
    SweepPoint,
    SweepResult,
    TrialConfig,
    consistency_curve,
    replicate,
    run_monte_carlo,
    run_trial,
    run_trial_records,
    sweep_worst_case,
)
from neyman_bai.policies import AdaptiveNeyman, OracleNeyman, Uniform
from neyman_bai.rng import spawn

GAUSS = Instance(Marginal.gaussian(0.3, 1.0), Marginal.gaussian(0.0, 2.5))
BERN = Instance(Marginal.bernoulli(0.52), Marginal.bernoulli(0.48))


def _scalar_replications(cfg, R):
    """Reference results, one run_trial call per replication index."""
    rec, corr, n1, mu = [], [], [], []
    for i in range(R):
        res = run_trial(cfg, i)
        assert res.counts[0] + res.counts[1] == cfg.T
        rec.append(res.recommended)
        corr.append(res.correct)
        n1.append(res.counts[0])
        mu.append(res.mu_hat)
    return np.array(rec), np.array(corr), np.array(n1), np.array(mu)


def _combos(inst):
    out = []
    for est in ("aipw", "ipw", "sample_mean"):
        out.append((AdaptiveNeyman(eta=0.2), est))
    # default eta starves sample_mean at this budget, covered separately
    for est in ("aipw", "ipw"):
        out.append((AdaptiveNeyman(), est))
    oracle = OracleNeyman(inst.arm1.sd, inst.arm2.sd)
    for est in ("aipw", "ipw", "sample_mean"):
        out.append((oracle, est))
        out.append((Uniform(), est))
    return out


class TestScalarVectorizedAgreement:
    """replicate() must reproduce run_trial() bit for bit, rep by rep."""

    @pytest.mark.parametrize("inst", [GAUSS, BERN], ids=["gaussian", "bernoulli"])
    def test_all_policy_estimator_combos(self, inst):
        R, T = 23, 37
        for policy, est in _combos(inst):
            cfg = TrialConfig(inst, T, policy, est, seed=7)
            got = replicate(cfg, R)
            rec, corr, n1, mu = _scalar_replications(cfg, R)
            label = f"{type(policy).__name__}/{est}"
            assert np.array_equal(got.recommended, rec), label
            assert np.array_equal(got.correct, corr), label
            assert np.array_equal(got.n1, n1), label
            assert np.array_equal(got.mu_hat, mu), label

    def test_starved_sample_mean_raises_in_both_paths(self):
        """Tiny eta can pin one arm near w_min long enough to starve it.

        At this budget the stingy default exploration leaves some
        replications with zero pulls of one arm, and the sample-mean
        estimator must then refuse identically in the scalar and the
        vectorized path.
        """
        cfg = TrialConfig(GAUSS, 37, AdaptiveNeyman(), "sample_mean", seed=7)
        with pytest.raises(ValueError, match="never observed"):
            replicate(cfg, 23)
        with pytest.raises(ValueError, match="never observed"):
            for i in range(23):
                run_trial(cfg, i)


class TestStarvedArm:
    """The sample-mean error names the arm and the lowest starved replication.

    At T = 37 and seed 5 the default eta leaves arm 2 unobserved in
    replications 4 and 16 and arm 1 in replication 19, so at R = 40 the
    arm-1 rule wins although a lower replication starves arm 2.
    """

    CFG = TrialConfig(GAUSS, 37, AdaptiveNeyman(), "sample_mean", seed=5)

    def _expected(self, R):
        counts = [run_trial(replace(self.CFG, estimator="aipw"), i).counts for i in range(R)]
        for arm in (1, 2):
            starved = [i for i, c in enumerate(counts) if c[arm - 1] == 0]
            if starved:
                return (
                    f"arm {arm} was never observed in replication {starved[0]}; "
                    "its sample mean is undefined"
                )
        raise AssertionError("no replication starves an arm")

    @pytest.mark.parametrize("R, arm", [(40, 1), (19, 2)])
    def test_message_is_independent_of_threads_and_chunks(self, R, arm, monkeypatch):
        want = self._expected(R)
        assert want.startswith(f"arm {arm} ")
        with pytest.raises(ValueError) as one:
            replicate(self.CFG, R)
        monkeypatch.setattr(eng, "_CHUNK_CELLS", self.CFG.T * 7 * 2)  # 7 rows per chunk
        with pytest.raises(ValueError) as two:
            replicate(self.CFG, R, threads=2)
        assert str(one.value) == str(two.value) == want

    def test_block_schedule_starves_replication_zero(self):
        cfg = TrialConfig(GAUSS, 2, OracleNeyman(1.0, 100.0), "sample_mean", seed=1)
        with pytest.raises(ValueError, match="arm 1 was never observed in replication 0;"):
            replicate(cfg, 5)


class TestDeterminism:
    def test_repeat_runs_identical(self):
        cfg = TrialConfig(GAUSS, 64, AdaptiveNeyman(), "aipw", seed=3)
        a = replicate(cfg, 200)
        b = replicate(cfg, 200)
        assert np.array_equal(a.recommended, b.recommended)
        assert np.array_equal(a.mu_hat, b.mu_hat)

    def test_seed_changes_outcomes(self):
        base = TrialConfig(GAUSS, 64, AdaptiveNeyman(), "aipw", seed=3)
        other = replace(base, seed=4)
        a = replicate(base, 200)
        b = replicate(other, 200)
        assert not np.array_equal(a.mu_hat, b.mu_hat)

    def test_threads_do_not_change_results(self):
        cfg = TrialConfig(GAUSS, 64, AdaptiveNeyman(), "aipw", seed=3)
        a = replicate(cfg, 200, threads=1)
        b = replicate(cfg, 200, threads=4)
        assert np.array_equal(a.recommended, b.recommended)
        assert np.array_equal(a.correct, b.correct)
        assert np.array_equal(a.n1, b.n1)
        assert np.array_equal(a.mu_hat, b.mu_hat)
        ra = run_monte_carlo(cfg, 200, threads=1)
        rb = run_monte_carlo(cfg, 200, threads=4)
        assert ra == rb

    def test_chunk_size_does_not_change_results(self, monkeypatch):
        cfg = TrialConfig(GAUSS, 211, AdaptiveNeyman(), "aipw", seed=11)
        whole = replicate(cfg, 101)
        monkeypatch.setattr(eng, "_CHUNK_CELLS", 211 * 7)  # 7 reps per chunk
        chunked = replicate(cfg, 101)
        assert np.array_equal(whole.recommended, chunked.recommended)
        assert np.array_equal(whole.n1, chunked.n1)
        assert np.array_equal(whole.mu_hat, chunked.mu_hat)


class TestStreamIdentity:
    """Table rows are the documented streams, independent of how they are opened.

    The scalar/vectorized agreement tests share _tables, so they cannot
    notice a change in which stream a row comes from; these tests pin the
    rows to fresh spawn(seed, 4i + k) streams and the outputs to digests.
    """

    @pytest.mark.parametrize("inst", [GAUSS, BERN], ids=["gaussian", "bernoulli"])
    @pytest.mark.parametrize("policy", [AdaptiveNeyman(), Uniform()], ids=["adaptive", "block"])
    def test_rows_equal_fresh_spawn_streams(self, inst, policy):
        seed, T, lo, hi = 77, 30, 5, 9
        y1, y2, u = eng._tables(TrialConfig(inst, T, policy, "aipw", seed), lo, hi)
        adaptive = isinstance(policy, AdaptiveNeyman)
        assert (u is not None) == adaptive
        for j, i in enumerate(range(lo, hi)):
            assert y1[j].tobytes() == inst.arm1.draw(spawn(seed, 4 * i), T).tobytes()
            assert y2[j].tobytes() == inst.arm2.draw(spawn(seed, 4 * i + 1), T).tobytes()
            if adaptive:
                assert u[j].tobytes() == spawn(seed, 4 * i + 2).random(T).tobytes()

    # SHA-256 of n1 (<i8) then mu_hat (<f8) for R = 50, computed before
    # streams were opened by re-keying one generator per chunk.
    PINNED = {
        "adaptive": (
            TrialConfig(GAUSS, 40, AdaptiveNeyman(), "aipw", seed=2024),
            "67a3704ec213e9bad2c888b16c956e697ac853456c16995c8dd60410a690c534",
        ),
        "block": (
            TrialConfig(BERN, 41, OracleNeyman(1.0, 2.0), "ipw", seed=2024),
            "2e462aff267ec85f590942213437352775db4e1860aa50f7384bf3fe63bdae23",
        ),
    }

    @staticmethod
    def _digest(reps):
        h = hashlib.sha256(reps.n1.astype("<i8").tobytes())
        h.update(reps.mu_hat.astype("<f8").tobytes())
        return h.hexdigest()

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_replicate_matches_pinned_digest(self, name, monkeypatch):
        cfg, want = self.PINNED[name]
        assert self._digest(replicate(cfg, 50)) == want
        monkeypatch.setattr(eng, "_CHUNK_CELLS", cfg.T * 7)  # 7 reps per chunk
        assert self._digest(replicate(cfg, 50, threads=2)) == want


class TestBlockSchedules:
    def test_uniform_even_budget_splits_exactly(self):
        cfg = TrialConfig(GAUSS, 10, Uniform(), "sample_mean", seed=0)
        records, res = run_trial_records(cfg)
        assert res.counts == (5, 5)
        assert [r.arm for r in records] == [1] * 5 + [2] * 5

    def test_uniform_odd_budget_gives_extra_round_to_arm_one(self):
        res = run_trial(TrialConfig(GAUSS, 11, Uniform(), "sample_mean", seed=0))
        assert res.counts == (6, 5)

    def test_oracle_counts_match_target_fraction(self):
        pol = OracleNeyman(1.0, 3.0)  # target w1 = 1/4
        res = run_trial(TrialConfig(GAUSS, 100, pol, "sample_mean", seed=0))
        assert res.counts == (25, 75)


class TestReports:
    def test_regret_identities_hold_bitwise(self):
        cfg = TrialConfig(GAUSS, 80, AdaptiveNeyman(), "aipw", seed=21)
        rep = run_monte_carlo(cfg, 500)
        assert rep.mean_regret == GAUSS.gap * rep.misid_prob
        assert rep.scaled_regret == math.sqrt(80) * rep.mean_regret
        assert rep.R == 500

    def test_zero_gap_instance(self):
        """At gap zero a recommendation is a coin flip and regret is nil."""
        inst = Instance(Marginal.gaussian(0.0, 1.0), Marginal.gaussian(0.0, 1.0))
        cfg = TrialConfig(inst, 50, Uniform(), "sample_mean", seed=5)
        rep = run_monte_carlo(cfg, 4000)
        se = math.sqrt(0.25 / 4000)
        assert abs(rep.misid_prob - 0.5) < 5 * se
        assert rep.mean_regret == 0.0
        assert rep.scaled_regret == 0.0

    def test_single_replication_has_zero_se(self):
        cfg = TrialConfig(GAUSS, 20, Uniform(), "sample_mean", seed=5)
        rep = run_monte_carlo(cfg, 1)
        assert rep.misid_prob in (0.0, 1.0)
        assert rep.misid_se == 0.0
        assert rep.regret_se == 0.0

    def test_alloc_fraction_comes_from_integer_counts(self):
        cfg = TrialConfig(GAUSS, 40, Uniform(), "sample_mean", seed=5)
        rep = run_monte_carlo(cfg, 10)
        assert rep.mean_alloc_frac == (0.5, 0.5)


class TestSweep:
    def test_grid_layout_and_gaps(self):
        res = sweep_worst_case((1.0, 2.0), 100, Uniform(), "aipw", R=50, seed=9)
        assert res.sigmas == (1.0, 2.0)
        assert res.T == 100
        assert len(res.points) == len(DEFAULT_GRID)
        scale = 3.0 / math.sqrt(100)
        for p, x in zip(res.points, DEFAULT_GRID):
            assert p.x == x
            assert p.cfg.instance.gap == x * scale
            assert p.report.R == 50

    def test_max_point_prefers_first_on_ties(self):
        def point(x, sr):
            cfg = TrialConfig(GAUSS, 100, Uniform(), "aipw")
            return SweepPoint(x, cfg, MCReport(1, 0.0, 0.0, 0.0, 0.0, sr, 0.5))

        pts = (point(0.5, 1.0), point(1.0, 2.0), point(1.5, 2.0))
        assert SweepResult((1.0, 1.0), 100, pts).max_point is pts[1]

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="deviations must be positive"):
            sweep_worst_case((0.0, 1.0), 100, Uniform(), "aipw", R=5, seed=0)
        with pytest.raises(ValueError, match="non-empty"):
            sweep_worst_case((1.0, 1.0), 100, Uniform(), "aipw", R=5, seed=0, grid=())
        with pytest.raises(ValueError, match="positive"):
            sweep_worst_case((1.0, 1.0), 100, Uniform(), "aipw", R=5, seed=0, grid=(0.5, -1.0))


class TestConsistencyCurve:
    def test_budgets_produce_one_point_each(self):
        inst = Instance(Marginal.gaussian(0.5, 1.0), Marginal.gaussian(0.0, 1.0))
        pts = consistency_curve(inst, [20, 40], Uniform(), "sample_mean", R=200, seed=1)
        assert [p.cfg.T for p in pts] == [20, 40]
        for p in pts:
            assert p.cfg.instance is inst
            assert 0.0 <= p.report.misid_prob <= 1.0

    def test_zero_gap_instance_is_allowed(self):
        inst = Instance(Marginal.gaussian(0.0, 1.0), Marginal.gaussian(0.0, 1.0))
        pts = consistency_curve(inst, [30], Uniform(), "sample_mean", R=500, seed=1)
        assert abs(pts[0].report.misid_prob - 0.5) < 0.2

    def test_empty_budgets_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            consistency_curve(GAUSS, [], Uniform(), "sample_mean", R=10, seed=1)


class TestTrialConfigValidation:
    def test_budget_must_cover_both_arms(self):
        with pytest.raises(ValueError, match="T"):
            TrialConfig(GAUSS, 1, Uniform(), "aipw")

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ValueError, match="estimator"):
            TrialConfig(GAUSS, 10, Uniform(), "winsorized")

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected(self, seed):
        """The stream key keeps 64 bits, so seed -1 would run seed 2**64-1."""
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\^64\)"):
            TrialConfig(GAUSS, 10, Uniform(), "aipw", seed=seed)

    def test_largest_seed_accepted(self):
        TrialConfig(GAUSS, 10, Uniform(), "aipw", seed=2**64 - 1)

    @pytest.mark.parametrize(
        "field, kwargs",
        [
            ("T", {"T": 20.0}),
            ("T", {"T": True}),
            ("seed", {"seed": 7.0}),
            ("seed", {"seed": True}),
            ("seed", {"seed": np.int64(3)}),
        ],
    )
    def test_non_integer_rejected(self, field, kwargs):
        cfg = {"instance": GAUSS, "T": 10, "policy": Uniform(), **kwargs}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            TrialConfig(**cfg)


class TestReplicationArgument:
    CFG = TrialConfig(GAUSS, 10, Uniform(), "aipw", seed=5)

    @pytest.mark.parametrize("replication", [-1, 2**62], ids=["negative", "2^62"])
    def test_out_of_range_rejected(self, replication):
        """Stream keys 4i + k keep 64 bits, so -1 would alias 2**62 - 1."""
        with pytest.raises(ValueError, match=r"replication must lie in \[0, 2\^62\)"):
            run_trial(self.CFG, replication)

    @pytest.mark.parametrize("replication", [1.0, True, np.int64(3)], ids=repr)
    def test_non_integer_rejected(self, replication):
        for run in (run_trial, run_trial_records):
            with pytest.raises(ValueError, match="replication must be an integer"):
                run(self.CFG, replication)

    def test_largest_replication_runs(self):
        res = run_trial(self.CFG, 2**62 - 1)
        assert res.counts == (5, 5)
        assert res != run_trial(self.CFG, 0)


class TestReplicateValidation:
    CFG = TrialConfig(GAUSS, 10, Uniform(), "aipw")

    @pytest.mark.parametrize("R", [10.0, True])
    def test_non_integer_reps_rejected(self, R):
        with pytest.raises(ValueError, match="R must be an integer"):
            replicate(self.CFG, R)

    @pytest.mark.parametrize("threads", [0, -2])
    def test_threads_below_one_rejected(self, threads):
        with pytest.raises(ValueError, match="threads must be >= 1"):
            replicate(self.CFG, 5, threads=threads)
