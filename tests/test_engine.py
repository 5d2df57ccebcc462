"""Monte Carlo engine: scalar/vectorized agreement, determinism, reports."""

import hashlib
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import neyman_bai.engine as eng
from neyman_bai.distributions import Family, Instance, Marginal
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
from neyman_bai.policies import AdaptiveNeyman, OracleNeyman, Uniform, block_cut
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


def _starved_message(cfg, R):
    """replicate's sample-mean error for cfg, from the scalar path's counts.

    A block schedule's counts are the same in every replication.
    """
    cut = block_cut(cfg.policy, cfg.T)
    if cut is None:
        counts = [run_trial(replace(cfg, estimator="aipw"), i).counts for i in range(R)]
    else:
        counts = [(cut, cfg.T - cut)] * R
    for arm in (1, 2):
        starved = [i for i, c in enumerate(counts) if c[arm - 1] == 0]
        if starved:
            return (
                f"arm {arm} was never observed in replication {starved[0]}; "
                "its sample mean is undefined"
            )
    return None


def _force_layout(monkeypatch, rows, cells):
    """Chunks of `rows` rows; whole trials up to `cells` cells per stream, or blocks of `cells`."""
    monkeypatch.setattr(eng, "_CHUNK_ROWS", rows)
    monkeypatch.setattr(eng, "_CHUNK_CELLS", cells)
    monkeypatch.setattr(eng, "_BLOCK_CELLS", cells)
    monkeypatch.setattr(eng, "_MIN_ROUNDS", 1)


def _combos(inst):
    """Every policy/estimator pair TrialConfig admits; block policies take sample means only."""
    out = []
    for est in ("aipw", "ipw", "sample_mean"):
        out.append((AdaptiveNeyman(eta=0.2), est))
    # default eta starves sample_mean at this budget, covered separately
    for est in ("aipw", "ipw"):
        out.append((AdaptiveNeyman(), est))
    out.append((OracleNeyman(inst.arm1.sd, inst.arm2.sd), "sample_mean"))
    out.append((Uniform(), "sample_mean"))
    return out


# (policy, estimator) pairs of the sweep tests: every pair TrialConfig admits.
SWEEP_PAIRS = [
    *(pytest.param(AdaptiveNeyman(eta=0.2), est, id=f"adaptive-{est}")
      for est in ("aipw", "ipw", "sample_mean")),
    pytest.param(OracleNeyman(1.0, 2.0), "sample_mean", id="oracle-sample_mean"),
    pytest.param(Uniform(), "sample_mean", id="uniform-sample_mean"),
]


class TestScalarVectorizedAgreement:
    """replicate() must reproduce run_trial() bit for bit, rep by rep."""

    @staticmethod
    def _assert_agrees(cfg, R):
        got = replicate(cfg, R)
        rec, corr, n1, mu = _scalar_replications(cfg, R)
        label = f"{type(cfg.policy).__name__}/{cfg.estimator}"
        assert np.array_equal(got.recommended, rec), label
        assert np.array_equal(got.correct, corr), label
        assert np.array_equal(got.n1, n1), label
        assert np.array_equal(got.mu_hat, mu), label

    @pytest.mark.parametrize("inst", [GAUSS, BERN], ids=["gaussian", "bernoulli"])
    def test_all_policy_estimator_combos(self, inst):
        for policy, est in _combos(inst):
            self._assert_agrees(TrialConfig(inst, 37, policy, est, seed=7), 23)

    def test_variance_estimate_underflowing_to_zero_is_floored(self):
        """m2 > 0 while m2 / n underflows to 0.0: both paths must floor to eta.

        Arm 1's variance, 1e-320, is subnormal, and replication 36 reaches
        m2 / n == 0.0 with m2 > 0: the kernel must test m2 / n, as the
        scalar path does, not m2.
        """
        inst = Instance(Marginal.gaussian(0.0, 1e-320), Marginal.gaussian(0.0, 1.0))
        self._assert_agrees(TrialConfig(inst, 200, AdaptiveNeyman(eta=0.2), "aipw", seed=3), 50)

    @pytest.mark.parametrize(
        "inst",
        [Instance(Marginal.bernoulli(0.97), Marginal.bernoulli(0.95)), GAUSS],
        ids=["bernoulli-near-one", "gaussian"],
    )
    @pytest.mark.parametrize(
        "policy, est",
        [(AdaptiveNeyman(), "aipw"), (AdaptiveNeyman(), "ipw"),
         (AdaptiveNeyman(eta=0.2), "sample_mean")],
        ids=["aipw", "ipw", "sample_mean-eta0.2"],
    )
    def test_discarded_lanes_warn_nothing(self, inst, policy, est):
        """Lanes of an arm unplayed (n = 0) or constant (m2 = 0) for many rounds.

        The kernel divides by n on every lane and keeps the quotient only
        where the arm was played, so the lanes it discards divide by zero;
        that must neither warn nor change a kept value.
        """
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self._assert_agrees(TrialConfig(inst, 37, policy, est, seed=7), 40)

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


class TestOracleStreams:
    """run_trial_records reads replication i's spawn(seed, 4i + k) streams."""

    @pytest.mark.parametrize(
        "policy",
        [AdaptiveNeyman(eta=0.2), Uniform(), OracleNeyman(1.0, 2.5)],
        ids=["adaptive", "uniform", "oracle"],
    )
    def test_records_come_from_the_replications_streams(self, policy):
        cfg = TrialConfig(GAUSS, 25, policy, "sample_mean", seed=11)
        i = 3
        records, _ = run_trial_records(cfg, i)
        y1 = GAUSS.arm1.draw(spawn(cfg.seed, 4 * i), cfg.T)
        y2 = GAUSS.arm2.draw(spawn(cfg.seed, 4 * i + 1), cfg.T)
        for t, rec in enumerate(records):
            assert rec.outcome == (y1[t] if rec.arm == 1 else y2[t]), t
        arms = [rec.arm for rec in records]
        cut = block_cut(policy, cfg.T)
        if cut is not None:
            assert arms == [1] * cut + [2] * (cfg.T - cut)
            assert all(rec.w_used == 1.0 for rec in records)
            return
        u = spawn(cfg.seed, 4 * i + 2).random(cfg.T)
        assert arms[0] == (1 if u[0] < 0.5 else 2)
        for t, rec in enumerate(records):
            if rec.arm == 1:
                assert u[t] < rec.w_used, t
        assert 1 in arms and 2 in arms

    @pytest.mark.parametrize(
        "eta, w_min",
        [(5e-324, 0.5), (5e-324, 0.01), (0.2, 0.5)],
        ids=["subnormal-eta-half-clamp", "subnormal-eta", "half-clamp"],
    )
    def test_first_round_is_half_in_both_paths(self, eta, w_min):
        """Round 1 sits both arms on the floor eta, so w = s / (s + s) = 1/2
        in the scalar and the vectorized path, with no round-1 branch."""
        cfg = TrialConfig(GAUSS, 29, AdaptiveNeyman(eta, w_min), "aipw", seed=7)
        R = 17
        for i in range(R):
            assert run_trial_records(cfg, i)[0][0].w_used == 0.5, i
        got = replicate(cfg, R, 2)
        rec, corr, n1, mu = _scalar_replications(cfg, R)
        assert np.array_equal(got.recommended, rec)
        assert np.array_equal(got.correct, corr)
        assert np.array_equal(got.n1, n1)
        assert np.array_equal(got.mu_hat, mu)


class TestStarvedArm:
    """The sample-mean error names the arm and the lowest starved replication.

    At T = 37 and seed 5 the default eta leaves arm 2 unobserved in
    replications 4 and 16 and arm 1 in replication 19, so at R = 40 the
    arm-1 rule wins although a lower replication starves arm 2.
    """

    CFG = TrialConfig(GAUSS, 37, AdaptiveNeyman(), "sample_mean", seed=5)

    @pytest.mark.parametrize("R, arm", [(40, 1), (19, 2)])
    def test_message_is_independent_of_threads_and_chunks(self, R, arm, monkeypatch):
        want = _starved_message(self.CFG, R)
        assert want.startswith(f"arm {arm} ")
        with pytest.raises(ValueError) as one:
            replicate(self.CFG, R)
        assert str(one.value) == want
        # 7-row chunks of whole trials, then 5-row chunks of 7-round blocks
        for rows, cells in ((7, 7 * self.CFG.T), (5, 35)):
            _force_layout(monkeypatch, rows, cells)
            with pytest.raises(ValueError) as other:
                replicate(self.CFG, R, threads=2)
            assert str(other.value) == want, (rows, cells)

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
        # 7-row chunks of whole trials, then of 30-round blocks
        for cells in (211 * 7, 30 * 7):
            _force_layout(monkeypatch, 7, cells)
            chunked = replicate(cfg, 101)
            assert np.array_equal(whole.recommended, chunked.recommended)
            assert np.array_equal(whole.n1, chunked.n1)
            assert np.array_equal(whole.mu_hat, chunked.mu_hat)


class TestLayout:
    """Whole trials where they fit in _CHUNK_CELLS, round blocks of _BLOCK_CELLS otherwise."""

    def test_benchmark_and_fixture_shapes(self):
        assert eng._layout(20000, 50) == (4096, 50)  # transportation check
        assert eng._layout(1600, 2000) == (1600, 2000)  # whole trials, re-keyed
        assert eng._layout(1600, 10**4) == (1600, 655)  # benchmark sweep
        assert eng._layout(10**4, 10**4) == (4096, 512)  # tier-1 bound sweep

    @given(R=st.integers(1, 10**7), T=st.integers(2, 10**9))
    @settings(max_examples=300)
    def test_several_block_tables_stay_small(self, R, T):
        """At most 24 MiB of tables up to 2,048 rows, 48 MiB at 4,096."""
        rows, rounds = eng._layout(R, T)
        assert rows == min(R, eng._CHUNK_ROWS)
        if T * rows <= eng._CHUNK_CELLS:
            assert rounds == T
        else:
            assert eng._MIN_ROUNDS <= rounds < T
            assert 3 * rounds * rows * 8 <= (24 << 20 if rows <= 2048 else 48 << 20)


class TestFillWorkers:
    """_blocks runs min(threads, rows, CPUs) fill workers, in a pool only if more than one."""

    @pytest.mark.parametrize(
        "cpus, threads, rows, sizes",
        [(1, 4, 300, []), (None, 4, 300, []), (2, 4, 300, [2]), (8, 4, 300, [4]),
         (8, 4, 3, [3]), (8, 1, 300, [])],
    )
    def test_workers_are_capped_by_cpus_and_rows(self, monkeypatch, cpus, threads, rows, sizes):
        """The worker count of each pool _blocks opens for one chunk; [] for none."""
        opened = []

        class Recording(eng.ThreadPoolExecutor):
            def __init__(self, workers):
                opened.append(workers)
                super().__init__(workers)

        monkeypatch.setattr(eng.os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(eng, "ThreadPoolExecutor", Recording)
        cfg = TrialConfig(GAUSS, 30, AdaptiveNeyman(), "aipw", seed=77)
        assert len(list(eng._blocks(cfg, 0, rows, 7, threads))) == 5
        assert opened == sizes


class TestChunkMemory:
    """replicate holds one chunk's table buffer at a time."""

    @pytest.mark.parametrize("threads", [1, 2])
    def test_traced_peak_stays_near_one_table_buffer(self, threads, monkeypatch):
        """Three 400-row chunks of whole 2,000-round trials, adaptive AIPW.

        One chunk's tables take 3 * T * rows * 8 bytes (18.3 MiB). A buffer
        kept alive into the next chunk's fill would double the peak.
        """
        monkeypatch.setattr(eng, "_CHUNK_ROWS", 400)
        T, R = 2000, 1200
        assert eng._layout(R, T) == (400, T)
        cfg = TrialConfig(GAUSS, T, AdaptiveNeyman(), "aipw", seed=5)
        tracemalloc.start()
        try:
            replicate(cfg, R, threads)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 3 * T * 400 * 8, peak / 2**20


class TestBlockBoundaries:
    """replicate equals the scalar oracle across chunk and round-block edges.

    Forced 5-row chunks and 7-round blocks: R = 13 gives chunks of 5, 5 and
    3 rows; T = 37 spans five full blocks and a partial one, while T = 6
    fits in one block, whose streams are opened by re-keying.
    """

    @pytest.mark.parametrize("inst", [GAUSS, BERN], ids=["gaussian", "bernoulli"])
    @pytest.mark.parametrize("T", [37, 6], ids=["several-blocks", "one-block"])
    def test_every_combo_matches_scalar_oracle(self, inst, T, monkeypatch):
        R = 13
        _force_layout(monkeypatch, 5, 35)
        assert eng._layout(R, T) == (5, min(T, 7))
        for policy, est in _combos(inst) + [(AdaptiveNeyman(), "sample_mean")]:
            cfg = TrialConfig(inst, T, policy, est, seed=7)
            label = f"{type(policy).__name__}/{est}/T={T}"
            starved = _starved_message(cfg, R) if est == "sample_mean" else None
            if starved is None:
                rec, corr, n1, mu = _scalar_replications(cfg, R)
            for threads in (1, 2, 4):
                if starved is not None:
                    with pytest.raises(ValueError) as err:
                        replicate(cfg, R, threads)
                    assert str(err.value) == starved, label
                    continue
                got = replicate(cfg, R, threads)
                assert np.array_equal(got.recommended, rec), (label, threads)
                assert np.array_equal(got.correct, corr), (label, threads)
                assert np.array_equal(got.n1, n1), (label, threads)
                assert np.array_equal(got.mu_hat, mu), (label, threads)


class TestStreamIdentity:
    """Table columns are the documented streams, independent of how they are opened.

    The scalar oracle draws fresh spawn(seed, 4i + k) streams, so the
    scalar/vectorized agreement tests catch a fill that reads another
    stream; these tests pin each column to its stream directly, without
    the kernels, and the outputs to digests.
    """

    @staticmethod
    def _assert_fresh_streams(cfg, lo, tables, columns=None):
        """Columns (default: all) equal fresh streams; arm 1 only up to a block schedule's cut.

        The tables hold standard draws: normals for a Gaussian arm, uniforms
        for a Bernoulli arm and for the selection.
        """
        inst, seed, T = cfg.instance, cfg.seed, cfg.T
        cut = block_cut(cfg.policy, T)
        lengths = (T if cut is None else cut, T, T)
        methods = [
            "standard_normal" if arm.family is Family.GAUSSIAN else "random"
            for arm in (inst.arm1, inst.arm2)
        ] + ["random"]
        for j in range(tables.shape[2]) if columns is None else columns:
            for k, (table, n, method) in enumerate(zip(tables, lengths, methods)):
                draws = getattr(spawn(seed, 4 * (lo + j) + k), method)(n)
                assert table[:n, j].tobytes() == draws.tobytes(), (j, k)

    @pytest.mark.parametrize("inst", [GAUSS, BERN], ids=["gaussian", "bernoulli"])
    @pytest.mark.parametrize("policy", [AdaptiveNeyman(), Uniform()], ids=["adaptive", "block"])
    def test_rows_equal_fresh_spawn_streams(self, inst, policy):
        cfg = TrialConfig(inst, 30, policy, "sample_mean", seed=77)
        ((t0, tables),) = eng._blocks(cfg, 5, 9, cfg.T)
        assert t0 == 0
        assert len(tables) == (3 if isinstance(policy, AdaptiveNeyman) else 2)
        self._assert_fresh_streams(cfg, 5, tables)

    @pytest.mark.parametrize("inst", [GAUSS, BERN], ids=["gaussian", "bernoulli"])
    @pytest.mark.parametrize("policy", [AdaptiveNeyman(), Uniform()], ids=["adaptive", "block"])
    def test_band_edges_and_worker_starts_equal_fresh_spawn_streams(
        self, inst, policy, monkeypatch
    ):
        """Whole-trial rows re-keyed one after another, checked where a step could slip.

        Two workers fill rows 0..149 and 150..299 of a 300-row chunk that
        starts at replication 2^61, each in bands of _BAND = 128 rows. The
        CPU count is patched so that the workers run on a 1-CPU host too.
        """
        assert eng._BAND == 128
        monkeypatch.setattr(eng.os, "cpu_count", lambda: 8)
        cfg = TrialConfig(inst, 12, policy, "sample_mean", seed=77)
        lo = 2**61
        ((_, tables),) = eng._blocks(cfg, lo, lo + 300, cfg.T, 2)
        edges = [0, 127, 128, 149, 150, 277, 278, 299]
        self._assert_fresh_streams(cfg, lo, tables, edges)

    @pytest.mark.parametrize("inst", [GAUSS, BERN], ids=["gaussian", "bernoulli"])
    @pytest.mark.parametrize("policy", [AdaptiveNeyman(), Uniform()], ids=["adaptive", "block"])
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_block_filled_streams_equal_whole_stream_draws(
        self, inst, policy, threads, monkeypatch
    ):
        """Streams kept open across 7-round blocks (the last one partial).

        A 300-row chunk from replication 2^61: rows 127/128 straddle a band
        edge, 149/150 the second worker's first row at two threads, and
        99/100 and 199/200 the workers' first rows at three. Uniform's cut
        at round 15 falls inside the third block, and arm 1 is not drawn in
        the last two. The CPU count is patched so that every worker runs
        whatever the host's.
        """
        monkeypatch.setattr(eng.os, "cpu_count", lambda: 8)
        cfg = TrialConfig(inst, 30, policy, "sample_mean", seed=77)
        lo = 2**61
        blocks = [(t0, b.copy()) for t0, b in eng._blocks(cfg, lo, lo + 300, 7, threads)]
        assert [t0 for t0, _ in blocks] == [0, 7, 14, 21, 28]
        tables = np.concatenate([b for _, b in blocks], axis=1)
        edges = [0, 99, 100, 127, 128, 149, 150, 199, 200, 299]
        self._assert_fresh_streams(cfg, lo, tables, edges)

    # SHA-256 of n1 (<i8) then mu_hat (<f8) for R = 50. The adaptive digest
    # was computed before streams were opened by re-keying one generator per
    # chunk, the block one at 0.11.0, whose block kernel also ran AIPW and IPW.
    PINNED = {
        "adaptive": (
            TrialConfig(GAUSS, 40, AdaptiveNeyman(), "aipw", seed=2024),
            "67a3704ec213e9bad2c888b16c956e697ac853456c16995c8dd60410a690c534",
        ),
        "block": (
            TrialConfig(BERN, 41, OracleNeyman(1.0, 2.0), "sample_mean", seed=2024),
            "a64bd963eea01e0e4e8f70dbc0e75f281bc901f1e6bfd1dc98b0d747aca33f10",
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
        _force_layout(monkeypatch, 7, 7 * 9)  # 7-row chunks of 9-round blocks
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


def _sweep_configs(policy, estimator, T, grid, seed, sigmas=(1.0, 2.0)):
    """One configuration per grid point, built the way a sweep documents them."""
    s1, s2 = sigmas
    scale = (s1 + s2) / math.sqrt(T)
    return [
        TrialConfig(
            Instance(Marginal.gaussian(x * scale, s1 * s1), Marginal.gaussian(0.0, s2 * s2)),
            T, policy, estimator, seed,
        )
        for x in grid
    ]


class TestSweep:
    """A sweep runs its points in one replicate call on shared tables.

    Forced 5-row chunks and 7-round blocks (R = 13, T = 37), as in
    TestBlockBoundaries, so the points share several chunks and blocks.
    """

    @pytest.mark.parametrize("policy, est", SWEEP_PAIRS)
    def test_points_equal_separate_replicate_calls(self, policy, est, monkeypatch):
        R, T, grid = 13, 37, (0.25, 1.0, 3.0)
        _force_layout(monkeypatch, 5, 35)
        cfgs = _sweep_configs(policy, est, T, grid, seed=7)
        instances = [cfg.instance for cfg in cfgs]
        for threads in (1, 2):
            stacked = replicate(cfgs[0], R, threads, instances=instances)
            res = sweep_worst_case((1.0, 2.0), T, policy, est, R, seed=7, grid=grid,
                                   threads=threads)
            assert len(stacked) == len(res.points) == len(grid)
            for g, cfg in enumerate(cfgs):
                label = (type(policy).__name__, est, threads, grid[g])
                alone = replicate(cfg, R, threads)
                for field in ("recommended", "correct", "n1", "mu_hat"):
                    got, want = getattr(stacked[g], field), getattr(alone, field)
                    assert got.dtype == want.dtype, (label, field)
                    assert np.array_equal(got, want), (label, field)
                assert res.points[g].cfg == cfg, label
                assert res.points[g].report == run_monte_carlo(cfg, R, threads), label

    def test_starved_sweep_raises_the_first_failing_points_message(self, monkeypatch):
        """The error a sample-mean sweep raises is that of the first point, in
        grid order, whose separate replicate call raises.

        At x = 1e17 and 3e16 arm 1's mean is near 6.7e16 and 2.0e16, where
        outcomes are spaced 8 and 4 apart against a standard deviation of 1.
        Its variance estimate, and so the allocation, then differs from
        x = 0.5's: the first point starves no replication, the second
        starves a later one than the third.
        """
        R, T, grid = 13, 20, (1e17, 3e16, 0.5)
        _force_layout(monkeypatch, 5, 35)
        cfgs = _sweep_configs(AdaptiveNeyman(), "sample_mean", T, grid, seed=16)
        errors = []
        for cfg in cfgs:
            try:
                replicate(cfg, R)
                errors.append(None)
            except ValueError as exc:
                errors.append(str(exc))
        assert errors[0] is None
        assert None not in errors[1:] and errors[1] != errors[2]
        for threads in (1, 2):
            with pytest.raises(ValueError) as err:
                sweep_worst_case((1.0, 2.0), T, AdaptiveNeyman(), "sample_mean", R, seed=16,
                                 grid=grid, threads=threads)
            assert str(err.value) == errors[1]

    @pytest.mark.parametrize("family", ["gaussian", "bernoulli"])
    @pytest.mark.parametrize("policy, est", SWEEP_PAIRS)
    def test_points_differing_in_both_arms_equal_separate_calls(
        self, policy, est, family, monkeypatch
    ):
        """Gaussian points move arm 2's mean and variance as well as arm 1's
        mean; Bernoulli points move both means. The first point repeats
        cfg's instance, so one point shares cfg's parameters and the others
        do not.
        """
        R, T = 13, 37
        _force_layout(monkeypatch, 5, 35)
        if family == "gaussian":
            instances = [
                GAUSS,
                Instance(Marginal.gaussian(-0.4, 1.0), Marginal.gaussian(0.2, 0.25)),
                Instance(Marginal.gaussian(0.3, 1.0), Marginal.gaussian(-1.5, 9.0)),
            ]
        else:
            instances = [
                BERN,
                Instance(Marginal.bernoulli(0.3), Marginal.bernoulli(0.7)),
                Instance(Marginal.bernoulli(0.9), Marginal.bernoulli(0.5)),
            ]
        cfg = TrialConfig(instances[0], T, policy, est, seed=11)
        for threads in (1, 2):
            stacked = replicate(cfg, R, threads, instances=instances)
            assert len(stacked) == len(instances)
            for g, inst in enumerate(instances):
                want = replicate(replace(cfg, instance=inst), R, threads)
                for field in ("recommended", "correct", "n1", "mu_hat"):
                    got = getattr(stacked[g], field)
                    assert got.dtype == getattr(want, field).dtype, (g, threads, field)
                    assert np.array_equal(got, getattr(want, field)), (g, threads, field)

    def test_instances_are_checked(self):
        cfg = TrialConfig(GAUSS, 20, Uniform(), "sample_mean", seed=1)
        with pytest.raises(ValueError, match="instances must be non-empty"):
            replicate(cfg, 5, instances=[])
        mixed = Instance(Marginal.gaussian(0.0, 1.0), Marginal.bernoulli(0.5))
        with pytest.raises(ValueError, match=r"instances\[1\]\.arm2 is bernoulli"):
            replicate(cfg, 5, instances=[GAUSS, mixed])
        with pytest.raises(ValueError, match=r"instances\[0\]\.arm1 is gaussian"):
            replicate(replace(cfg, instance=BERN), 5, instances=[GAUSS])
        with pytest.raises(ValueError, match=r"instances\[0\] must be an Instance"):
            replicate(cfg, 5, instances=[(0.3, 0.0)])

    def test_grid_layout_and_gaps(self):
        res = sweep_worst_case((1.0, 2.0), 100, Uniform(), "sample_mean", R=50, seed=9)
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
            cfg = TrialConfig(GAUSS, 100, Uniform(), "sample_mean")
            return SweepPoint(x, cfg, MCReport(1, 0.0, 0.0, 0.0, 0.0, sr, 0.5))

        pts = (point(0.5, 1.0), point(1.0, 2.0), point(1.5, 2.0))
        assert SweepResult((1.0, 1.0), 100, pts).max_point is pts[1]

    def test_rejects_bad_inputs(self):
        est = "sample_mean"
        with pytest.raises(ValueError, match="deviations must be positive"):
            sweep_worst_case((0.0, 1.0), 100, Uniform(), est, R=5, seed=0)
        with pytest.raises(ValueError, match="non-empty"):
            sweep_worst_case((1.0, 1.0), 100, Uniform(), est, R=5, seed=0, grid=())
        with pytest.raises(ValueError, match="positive"):
            sweep_worst_case((1.0, 1.0), 100, Uniform(), est, R=5, seed=0, grid=(0.5, -1.0))

    def test_grid_point_beyond_the_mean_limit_is_named(self):
        # gap = 1e300 * 2 / 10 = 2e299 lies beyond Marginal's 1e100 limit
        with pytest.raises(ValueError, match=r"grid point x = 1e\+300: mean must lie") as info:
            sweep_worst_case(
                (1.0, 1.0), 100, AdaptiveNeyman(), "aipw", R=5, seed=0, grid=(1.0, 1e300)
            )
        assert isinstance(info.value.__cause__, ValueError)

    def test_variance_beyond_the_limit_names_the_sigmas(self):
        # sigma1^2 = 1e120 fails at every grid point, so no point is blamed
        with pytest.raises(ValueError, match=r"^sweep sigmas \(1e\+60, 1\.0\): variance") as info:
            sweep_worst_case((1e60, 1.0), 100, Uniform(), "sample_mean", R=5, seed=0)
        assert "grid point" not in str(info.value)
        assert isinstance(info.value.__cause__, ValueError)


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
            TrialConfig(GAUSS, 1, Uniform(), "sample_mean")

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ValueError, match="estimator"):
            TrialConfig(GAUSS, 10, Uniform(), "winsorized")

    @pytest.mark.parametrize("est", ["aipw", "ipw"])
    @pytest.mark.parametrize("policy", [Uniform(), OracleNeyman(1.0, 2.0)], ids=["uniform", "oracle"])
    def test_weighted_estimator_with_block_policy_rejected(self, policy, est):
        """A block schedule's propensities are 1 and 0, so IPW and AIPW are undefined."""
        name = type(policy).__name__
        with pytest.raises(ValueError, match=f"^estimator '{est}' .* policy {name} .*'sample_mean'$"):
            TrialConfig(GAUSS, 10, policy, est)

    @pytest.mark.parametrize(
        "policy", ["uniform", None, OracleNeyman], ids=["str", "none", "class"]
    )
    def test_non_policy_rejected(self, policy):
        """block_cut names the policy types, whatever the estimator."""
        with pytest.raises(ValueError, match="^policy must be AdaptiveNeyman, OracleNeyman or"):
            TrialConfig(GAUSS, 10, policy, "sample_mean")

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected(self, seed):
        """The stream key keeps 64 bits, so seed -1 would run seed 2**64-1."""
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\^64\)"):
            TrialConfig(GAUSS, 10, Uniform(), "sample_mean", seed=seed)

    def test_largest_seed_accepted(self):
        TrialConfig(GAUSS, 10, Uniform(), "sample_mean", seed=2**64 - 1)

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
        cfg = {"instance": GAUSS, "T": 10, "policy": Uniform(), "estimator": "sample_mean", **kwargs}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            TrialConfig(**cfg)


class TestReplicationArgument:
    CFG = TrialConfig(GAUSS, 10, Uniform(), "sample_mean", seed=5)

    @pytest.mark.parametrize("replication", [-1, 2**62], ids=["negative", "2^62"])
    def test_out_of_range_rejected(self, replication):
        """Stream keys 4i + k lie in [0, 2^64); the error names the replication, not a stream."""
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
    CFG = TrialConfig(GAUSS, 10, Uniform(), "sample_mean")

    @pytest.mark.parametrize("R", [10.0, True])
    def test_non_integer_reps_rejected(self, R):
        with pytest.raises(ValueError, match="R must be an integer"):
            replicate(self.CFG, R)

    @pytest.mark.parametrize("threads", [0, -2])
    def test_threads_below_one_rejected(self, threads):
        with pytest.raises(ValueError, match="threads must be >= 1"):
            replicate(self.CFG, 5, threads=threads)
