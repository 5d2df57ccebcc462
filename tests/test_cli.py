"""Command-line behavior: formats, exit codes, seed precedence, verify wiring."""

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import neyman_bai.cli as cli
from neyman_bai.cli import COLUMNS, ENV_SEED, main
from neyman_bai.verification import CheckResult

RUN_CONFIG = {
    "instance": {
        "family": "gaussian",
        "means": [0.5, 0.0],
        "variances": [1.0, 1.0],
    },
    "T": 50,
    "policy": {"kind": "adaptive_neyman"},
    "estimator": "aipw",
    "R": 40,
    "seed": 7,
}


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv(ENV_SEED, raising=False)


def _write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _rows(csv_text):
    lines = csv_text.splitlines()
    assert lines[0] == ",".join(COLUMNS)
    return [dict(zip(COLUMNS, line.split(","))) for line in lines[1:]]


class TestRun:
    def test_csv_on_stdout(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, RUN_CONFIG)
        assert main(["run", "--config", cfg]) == 0
        out, err = capsys.readouterr()
        rows = _rows(out)
        assert len(rows) == 1
        row = rows[0]
        assert row["kind"] == "run"
        assert row["T"] == "50"
        assert row["R"] == "40"
        assert row["policy"] == "adaptive_neyman"
        assert row["estimator"] == "aipw"
        assert row["seed"] == "7"
        assert row["x"] == ""  # not a sweep point
        # numeric fields round-trip through float()
        for col in ("sigma1", "gap", "misid_prob", "misid_se", "scaled_regret", "n1_frac"):
            float(row[col])
        assert 0.0 <= float(row["misid_prob"]) <= 1.0
        # logs stay on stderr, results on stdout
        assert "run:" in err
        assert "run:" not in out

    def test_out_file_is_byte_identical_across_reruns(self, tmp_path):
        cfg = _write_config(tmp_path, RUN_CONFIG)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["run", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_reps_flag_overrides_config(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, RUN_CONFIG)
        assert main(["run", "--config", cfg, "--reps", "13"]) == 0
        row = _rows(capsys.readouterr().out)[0]
        assert row["R"] == "13"

    def test_bernoulli_instance(self, tmp_path, capsys):
        doc = dict(RUN_CONFIG)
        doc["instance"] = {"family": "bernoulli", "means": [0.6, 0.4]}
        cfg = _write_config(tmp_path, doc)
        assert main(["run", "--config", cfg]) == 0
        row = _rows(capsys.readouterr().out)[0]
        assert float(row["gap"]) == pytest.approx(0.2)


class TestSweep:
    SWEEP_CONFIG = {
        "sigmas": [1.0, 1.0],
        "T": 100,
        "policy": {"kind": "uniform"},
        "estimator": "sample_mean",
        "R": 30,
        "seed": 3,
    }

    def test_default_grid_rows(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, self.SWEEP_CONFIG)
        assert main(["sweep", "--config", cfg]) == 0
        rows = _rows(capsys.readouterr().out)
        assert len(rows) == 8
        xs = [float(r["x"]) for r in rows]
        assert xs == sorted(xs)
        gaps = [float(r["gap"]) for r in rows]
        for x, g in zip(xs, gaps):
            assert g == pytest.approx(x * 2.0 / 10.0)
        assert {r["kind"] for r in rows} == {"sweep"}

    def test_custom_grid(self, tmp_path, capsys):
        doc = dict(self.SWEEP_CONFIG)
        doc["grid"] = [0.5, 1.0]
        cfg = _write_config(tmp_path, doc)
        assert main(["sweep", "--config", cfg]) == 0
        assert len(_rows(capsys.readouterr().out)) == 2


class TestConsistency:
    def test_one_row_per_budget(self, tmp_path, capsys):
        doc = {
            "instance": {
                "family": "gaussian",
                "means": [0.5, 0.0],
                "variances": [1.0, 1.0],
            },
            "budgets": [20, 40],
            "policy": {"kind": "uniform"},
            "estimator": "sample_mean",
            "R": 25,
        }
        cfg = _write_config(tmp_path, doc)
        assert main(["consistency", "--config", cfg]) == 0
        rows = _rows(capsys.readouterr().out)
        assert [r["T"] for r in rows] == ["20", "40"]
        assert {r["kind"] for r in rows} == {"consistency"}


class TestBounds:
    BOUNDS_CONFIG = {"sigmas": [1.0, 2.0], "T": 400}

    def test_rows_have_nulls_and_need_no_seed(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, self.BOUNDS_CONFIG)
        assert main(["bounds", "--config", cfg]) == 0
        rows = _rows(capsys.readouterr().out)
        assert len(rows) == 8
        for row in rows:
            assert row["kind"] == "bound"
            for empty in ("R", "policy", "estimator", "mu1", "mu2",
                          "misid_se", "regret_se", "n1_frac", "seed"):
                assert row[empty] == ""
            assert 0.0 < float(row["misid_prob"]) <= 1.0

    def test_deterministic(self, tmp_path):
        cfg = _write_config(tmp_path, self.BOUNDS_CONFIG)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["bounds", "--config", cfg, "--out", str(a)]) == 0
        assert main(["bounds", "--config", cfg, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestJsonFormat:
    def _schema(self):
        text = resources.files("neyman_bai.schemas").joinpath(
            "output.schema.json"
        ).read_text("utf-8")
        return json.loads(text)

    def test_run_output_validates(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, RUN_CONFIG)
        assert main(["run", "--config", cfg, "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        jsonschema.validate(rows, self._schema())
        assert rows[0]["x"] is None
        assert rows[0]["seed"] == 7

    def test_bounds_output_validates_with_nulls(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, TestBounds.BOUNDS_CONFIG)
        assert main(["bounds", "--config", cfg, "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        jsonschema.validate(rows, self._schema())
        assert rows[0]["R"] is None
        assert rows[0]["seed"] is None


class TestConfigErrors:
    def test_unknown_key_is_named(self, tmp_path, capsys):
        doc = dict(RUN_CONFIG)
        doc["bogus_key"] = 1
        cfg = _write_config(tmp_path, doc)
        assert main(["run", "--config", cfg]) == 2
        assert "bogus_key" in capsys.readouterr().err

    def test_missing_required_key(self, tmp_path, capsys):
        doc = {k: v for k, v in RUN_CONFIG.items() if k != "T"}
        cfg = _write_config(tmp_path, doc)
        assert main(["run", "--config", cfg]) == 2
        assert "'T'" in capsys.readouterr().err

    def test_out_of_range_nested_value_is_located(self, tmp_path, capsys):
        doc = dict(RUN_CONFIG)
        doc["policy"] = {"kind": "adaptive_neyman", "eta": 1.5}
        cfg = _write_config(tmp_path, doc)
        assert main(["run", "--config", cfg]) == 2
        assert "policy/eta" in capsys.readouterr().err

    def test_bernoulli_variance_mismatch(self, tmp_path, capsys):
        doc = dict(RUN_CONFIG)
        doc["instance"] = {
            "family": "bernoulli",
            "means": [0.6, 0.4],
            "variances": [0.25, 0.24],
        }
        cfg = _write_config(tmp_path, doc)
        assert main(["run", "--config", cfg]) == 2
        assert "mean*(1-mean)" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_missing_config_flag(self, capsys):
        assert main(["run"]) == 2
        assert "--config" in capsys.readouterr().err

    def test_unreadable_config_path(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_invalid_env_seed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(ENV_SEED, "not-a-number")
        doc = {k: v for k, v in RUN_CONFIG.items() if k != "seed"}
        cfg = _write_config(tmp_path, doc)
        assert main(["run", "--config", cfg]) == 2
        assert ENV_SEED in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["T", "R", "seed", "threads"])
    def test_whole_float_for_an_integer_key(self, tmp_path, capsys, key):
        """JSON 2.0 is a number, not an integer, whatever its fraction."""
        cfg = _write_config(tmp_path, {**RUN_CONFIG, key: 2.0})
        assert main(["run", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert f"config key '{key}'" in err and "'integer'" in err

    def test_whole_float_budget_is_located(self, tmp_path, capsys):
        doc = {
            "instance": RUN_CONFIG["instance"],
            "budgets": [20, 40.0],
            "policy": {"kind": "uniform"},
            "R": 5,
        }
        cfg = _write_config(tmp_path, doc)
        assert main(["consistency", "--config", cfg]) == 2
        assert "config key 'budgets/1'" in capsys.readouterr().err


STARVED = {
    "policy": {"kind": "adaptive_neyman"},
    "estimator": "sample_mean",
    "R": 40,
    "seed": 7,
}


@pytest.mark.parametrize(
    "command, doc",
    [
        ("run", {**STARVED, "instance": RUN_CONFIG["instance"], "T": 10}),
        ("sweep", {**STARVED, "sigmas": [1.0, 1.0], "T": 10}),
        ("consistency", {**STARVED, "instance": RUN_CONFIG["instance"], "budgets": [10, 20]}),
    ],
)
def test_starved_arm_is_a_config_error(tmp_path, command, doc):
    """At T=10 the adaptive policy leaves some replication without an arm-1
    pull, so its sample mean is undefined: one error line, exit code 2."""
    cfg = _write_config(tmp_path, doc)
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "neyman_bai.cli", command, "--config", cfg],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "error: arm 1 was never observed" in proc.stderr
    assert "in replication " in proc.stderr


@pytest.mark.parametrize(
    "command, text, literal",
    [
        ("run", json.dumps(RUN_CONFIG).replace("[0.5, 0.0]", "[NaN, 0.0]"), "NaN"),
        ("sweep", '{"sigmas": [1.0, 1.0], "T": 100, "policy": {"kind": "uniform"}, '
                  '"R": 10, "grid": [Infinity]}', "Infinity"),
        ("bounds", '{"sigmas": [NaN, 1.0], "T": 100}', "NaN"),
        ("bounds", '{"sigmas": [1.0, -Infinity], "T": 100}', "-Infinity"),
        ("bounds", '{"sigmas": [1.0, 1.0], "T": 100, "grid": [0.5, 1e999]}', "1e999"),
    ],
)
def test_non_finite_number_is_a_config_error(tmp_path, command, text, literal):
    """json.loads accepts NaN/Infinity literals; the schema's bounds miss NaN."""
    cfg = tmp_path / "config.json"
    cfg.write_text(text, encoding="utf-8")
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "neyman_bai.cli", command, "--config", str(cfg)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert f"error: config number {literal} is not finite" in proc.stderr


def test_unwritable_out_path_is_an_io_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, RUN_CONFIG)
    target = tmp_path / "no" / "such" / "dir" / "out.csv"
    assert main(["run", "--config", cfg, "--out", str(target)]) == 3
    assert "cannot write" in capsys.readouterr().err


class TestSeedRange:
    """Seeds outside [0, 2^64) would wrap onto another seed's streams."""

    @pytest.mark.parametrize("seed", ["-5", str(2**64)])
    def test_flag_out_of_range(self, tmp_path, capsys, seed):
        cfg = _write_config(tmp_path, RUN_CONFIG)
        assert main(["run", "--config", cfg, "--seed", seed]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--seed" in err and seed in err

    @pytest.mark.parametrize("seed", ["-1", str(2**64 + 5)])
    def test_env_out_of_range(self, tmp_path, capsys, monkeypatch, seed):
        monkeypatch.setenv(ENV_SEED, seed)
        doc = {k: v for k, v in RUN_CONFIG.items() if k != "seed"}
        cfg = _write_config(tmp_path, doc)
        assert main(["run", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert ENV_SEED in err and seed in err

    def test_config_out_of_range(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {**RUN_CONFIG, "seed": 2**64})
        assert main(["run", "--config", cfg]) == 2
        assert "'seed'" in capsys.readouterr().err

    def test_verify_flag_out_of_range(self, capsys):
        assert main(["verify", "--seed", "-1"]) == 2
        assert "--seed" in capsys.readouterr().err

    def test_largest_seed_is_accepted(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, RUN_CONFIG)
        top = str(2**64 - 1)
        assert main(["run", "--config", cfg, "--seed", top, "--reps", "5"]) == 0
        assert _rows(capsys.readouterr().out)[0]["seed"] == top


class TestSeedPrecedence:
    def _seed_of(self, capsys):
        return _rows(capsys.readouterr().out)[0]["seed"]

    def test_env_var_fills_in(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(ENV_SEED, "9")
        doc = {k: v for k, v in RUN_CONFIG.items() if k != "seed"}
        cfg = _write_config(tmp_path, doc)
        assert main(["run", "--config", cfg]) == 0
        assert self._seed_of(capsys) == "9"

    def test_config_beats_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(ENV_SEED, "9")
        cfg = _write_config(tmp_path, RUN_CONFIG)  # seed 7 inside
        assert main(["run", "--config", cfg]) == 0
        assert self._seed_of(capsys) == "7"

    def test_flag_beats_config(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(ENV_SEED, "9")
        cfg = _write_config(tmp_path, RUN_CONFIG)
        assert main(["run", "--config", cfg, "--seed", "3"]) == 0
        assert self._seed_of(capsys) == "3"

    def test_default_without_any_source(self, tmp_path, capsys):
        doc = {k: v for k, v in RUN_CONFIG.items() if k != "seed"}
        cfg = _write_config(tmp_path, doc)
        assert main(["run", "--config", cfg]) == 0
        assert self._seed_of(capsys) == "42"


class TestVerifyCommand:
    def test_failures_exit_one(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "run_all",
            lambda seed, threads: [
                CheckResult("alpha", True, "fine", 0.1),
                CheckResult("beta", False, "broke", 0.2),
            ],
        )
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        assert "PASS alpha" in out
        assert "FAIL beta" in out
        assert "1/2 checks passed" in out

    def test_all_green_exits_zero(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "run_all",
            lambda seed, threads: [CheckResult("alpha", True, "fine", 0.1)],
        )
        assert main(["verify"]) == 0
        assert "1/1 checks passed" in capsys.readouterr().out

    def test_seed_flag_reaches_the_suite(self, capsys, monkeypatch):
        seen = {}

        def fake(seed, threads):
            seen["seed"] = seed
            return [CheckResult("alpha", True, "fine", 0.0)]

        monkeypatch.setattr(cli, "run_all", fake)
        assert main(["verify", "--seed", "123"]) == 0
        assert seen["seed"] == 123
