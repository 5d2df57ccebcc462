"""The attributes the benchmark in perfbench/ wraps or stubs must keep working.

perfbench/spans.py wraps package attributes by name from outside, and
perfbench/probe.py replaces engine.spawn to time set-up. This runs tiny
versions of both benchmark operations under the tracer, so a rename or a
call that bypasses a wrapped attribute fails here rather than in a
benchmark run.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402

from neyman_bai import cli, engine, theory  # noqa: E402
from neyman_bai.distributions import Instance, Marginal, lower_bound_alternative  # noqa: E402
from neyman_bai.engine import TrialConfig  # noqa: E402
from neyman_bai.policies import AdaptiveNeyman  # noqa: E402

T = 100
R = 20
THREADS = 2


def _assert_traced(recorded):
    assert any(s.name == spans.REPLICATE for s in recorded)
    assert spans.replicate_wall(recorded) > 0.0
    metrics = spans.layer_metrics(recorded)
    assert metrics["engine.cells"] > 0


def test_traced_sweep(tmp_path):
    """A three-point sweep, traced at two threads and then at one.

    perfbench/run.py repeats the sweep at its thread count and then runs
    it once at the other, and divides by the replicate wall time of each,
    so every sweep must reach engine.replicate through the module attribute.
    """
    doc = {"sigmas": [1.0, 2.0], "T": T, "policy": {"kind": "adaptive_neyman"},
           "estimator": "aipw", "R": R, "grid": [0.5, 1.0, 1.5], "seed": 1}
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out.csv"
    with spans.installed(spans.Tracer()) as tracer:
        for threads in (THREADS, 1):
            argv = ["sweep", "--config", str(cfg), "--out", str(out), "--threads", str(threads)]
            assert cli.main(argv) == 0
            recorded = tracer.take()
            _assert_traced(recorded)
            names = {s.name for s in recorded}
            assert {spans.PARSE, spans.EMIT, spans.DRIVERS[0]} <= names
    assert len(out.read_text(encoding="utf-8").splitlines()) == 1 + len(doc["grid"])


def test_traced_transportation():
    baseline = Instance(Marginal.gaussian(0.01, 1.0), Marginal.gaussian(0.0, 1.0))
    alternative = lower_bound_alternative(1.0, 1.0, T)
    with spans.installed(spans.Tracer()) as tracer:
        theory.check_transportation(
            baseline, alternative, AdaptiveNeyman(), T, R, seed=1, threads=THREADS
        )
    recorded = tracer.take()
    _assert_traced(recorded)
    assert sum(s.name == spans.EVENT_FREQ for s in recorded) == 2


@pytest.mark.parametrize("budget", [T, 300_000], ids=["whole-trial", "several-blocks"])
def test_replicate_opens_streams_through_engine_spawn(budget, monkeypatch):
    """perfbench/probe.py stubs engine.spawn to see the first simulated round.

    Whole trials re-key one spawned generator; at T = 300,000 a trial of
    R = 20 rows spans several blocks, and each stream is spawned and kept.
    """

    class Sentinel(Exception):
        pass

    def stub(*args, **kwargs):
        raise Sentinel

    monkeypatch.setattr(engine, "spawn", stub)
    inst = Instance(Marginal.gaussian(0.0, 1.0), Marginal.gaussian(0.0, 4.0))
    cfg = TrialConfig(inst, budget, AdaptiveNeyman(), "aipw", 1)
    rounds = engine._layout(R, budget)[1]
    assert (rounds == budget) == (budget == T)
    with pytest.raises(Sentinel):
        engine.replicate(cfg, R, THREADS)
