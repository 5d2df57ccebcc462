"""Command-line behavior: formats, exit codes, seed precedence, verify wiring."""

import contextlib
import io
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _bundled_schema(name):
    return json.loads(resources.files("neyman_bai.schemas").joinpath(name).read_text("utf-8"))


OUTPUT_SCHEMA = _bundled_schema("output.schema.json")


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
    def test_run_output_validates(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, RUN_CONFIG)
        assert main(["run", "--config", cfg, "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        jsonschema.validate(rows, OUTPUT_SCHEMA)
        assert rows[0]["x"] is None
        assert rows[0]["seed"] == 7

    def test_bounds_output_validates_with_nulls(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, TestBounds.BOUNDS_CONFIG)
        assert main(["bounds", "--config", cfg, "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        jsonschema.validate(rows, OUTPUT_SCHEMA)
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
            "estimator": "sample_mean",
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
                  '"estimator": "sample_mean", "R": 10, "grid": [Infinity]}', "Infinity"),
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


@pytest.mark.parametrize(
    "command, doc, key",
    [
        ("run", {**RUN_CONFIG, "instance": {**RUN_CONFIG["instance"], "variances": [1e308, 1.0]}},
         "instance/variances/0"),
        ("run", {**RUN_CONFIG, "instance": {**RUN_CONFIG["instance"], "means": [0.0, -1e101]}},
         "instance/means/1"),
        ("sweep", {"sigmas": [1.0, 1e60], "T": 100, "policy": {"kind": "uniform"},
                   "estimator": "sample_mean", "R": 10},
         "sigmas/1"),
    ],
    ids=["variance", "mean", "sigma"],
)
def test_magnitude_beyond_limit_is_a_config_error(tmp_path, command, doc, key):
    """A variance of 1e308 used to overflow the running sums and exit 0."""
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
    assert f"error: config key '{key}': " in proc.stderr


def test_grid_point_beyond_the_mean_limit_is_a_config_error(tmp_path):
    """The grid point's gap 2e299 exceeds the mean limit; the error names it."""
    doc = {"sigmas": [1.0, 1.0], "T": 100, "policy": {"kind": "adaptive_neyman"},
           "R": 10, "grid": [1e300]}
    cfg = _write_config(tmp_path, doc)
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "neyman_bai.cli", "sweep", "--config", cfg],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "error: sweep grid point x = 1e+300: mean must lie" in proc.stderr


def _cli_process(argv):
    src = Path(cli.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-m", "neyman_bai.cli", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
    )


SMALL_CONFIGS = {
    "run": {**RUN_CONFIG, "R": 5},
    "sweep": {"sigmas": [1.0, 2.0], "T": 20, "policy": {"kind": "uniform"},
              "estimator": "sample_mean", "R": 5},
    "consistency": {"instance": RUN_CONFIG["instance"], "budgets": [10, 20],
                    "policy": {"kind": "uniform"}, "estimator": "sample_mean", "R": 5},
}


@pytest.mark.parametrize(
    "command, flag, message",
    [
        (command, flag, message)
        for command in ("run", "sweep", "consistency")
        for flag, message in (("--reps", "R must be >= 1"), ("--threads", "threads must be >= 1"))
    ] + [("verify", "--threads", "threads must be >= 1")],
)
def test_library_rejection_exits_two(tmp_path, command, flag, message):
    """The library rejects R and threads below 1; the CLI prints its message."""
    argv = [command, flag, "0"]
    if command in SMALL_CONFIGS:
        argv += ["--config", _write_config(tmp_path, SMALL_CONFIGS[command])]
    proc = _cli_process(argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert f"error: {message}, got 0" in proc.stderr


@pytest.mark.parametrize(
    "command, policy",
    [
        (command, policy)
        for command in ("run", "sweep", "consistency")
        for policy in ({"kind": "uniform"}, {"kind": "oracle_neyman"})
    ],
)
def test_block_policy_with_the_default_estimator_exits_two(tmp_path, command, policy):
    """With no estimator key the CLI asks for aipw, which a block schedule cannot weight."""
    doc = {**SMALL_CONFIGS[command], "policy": policy}
    doc.pop("estimator")
    proc = _cli_process([command, "--config", _write_config(tmp_path, doc)])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    name = {"uniform": "Uniform", "oracle_neyman": "OracleNeyman"}[policy["kind"]]
    assert (
        f"error: estimator 'aipw' needs randomized allocation, but policy {name} "
        "plays a fixed block schedule; use 'sample_mean'\n"
    ) in proc.stderr


def test_bounds_sds_whose_squared_sum_underflows_exit_two(tmp_path):
    """sigmas (1e-300, 1e-300) pass the schema, but 2*(2e-300)^2 is 0.0: that
    used to end in a ZeroDivisionError traceback and exit code 1."""
    cfg = _write_config(tmp_path, {"sigmas": [1e-300, 1e-300], "T": 2})
    proc = _cli_process(["bounds", "--config", cfg])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "error: standard deviations (1e-300, 1e-300) are too small" in proc.stderr


def _error_lines(err):
    return [line for line in err.splitlines() if line.startswith("error:")]


def test_bounds_grid_point_with_an_infinite_gap_names_grid_and_x(tmp_path, capsys):
    """gap = DBL_MAX * (2e50 / sqrt(2)) overflows: the row used to exit 0
    with "gap": Infinity and "mean_regret": NaN."""
    doc = {"sigmas": [1e50, 1e50], "T": 2, "grid": [sys.float_info.max]}
    assert main(["bounds", "--config", _write_config(tmp_path, doc), "--format", "json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert _error_lines(err) == [
        "error: bounds grid point x = 1.7976931348623157e+308: gap inf is not finite"
    ]


@pytest.mark.parametrize("T", [2**53, 10**400], ids=["2^53", "10^400"])
@pytest.mark.parametrize("command", ["bounds", "sweep"])
def test_budgets_from_2_to_the_53_exit_two(tmp_path, capsys, command, T):
    """10**400 used to end in an OverflowError traceback: the budget was
    converted to a float before anything checked it."""
    doc = {**({"sigmas": [1.0, 2.0]} if command == "bounds" else SMALL_CONFIGS["sweep"]), "T": T}
    assert main([command, "--config", _write_config(tmp_path, doc)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert _error_lines(err) == [f"error: T must lie in [0, 2^53), got {T}"]


def test_config_that_is_not_utf8_names_its_path(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"T": 50, "policy": {"kind": "uniform"}} \xff')
    assert main(["run", "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"error: cannot read config {path}: 'utf-8' codec can't decode" in err


def test_bernoulli_variance_mismatch_names_its_key(tmp_path, capsys):
    instance = {"family": "bernoulli", "means": [0.6, 0.4], "variances": [0.24, 0.25]}
    cfg = _write_config(tmp_path, {**RUN_CONFIG, "instance": instance})
    assert main(["run", "--config", cfg]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error: config key 'instance/variances': bernoulli variance" in err


@pytest.mark.parametrize("given, missing", [("sigma1", "sigma2"), ("sigma2", "sigma1")])
def test_one_missing_oracle_sigma_is_named(tmp_path, capsys, given, missing):
    policy = {"kind": "oracle_neyman", given: 1.0}
    cfg = _write_config(tmp_path, {**RUN_CONFIG, "policy": policy})
    assert main(["run", "--config", cfg]) == 2
    assert f"error: config key 'policy': oracle_neyman requires {missing}\n" in (
        capsys.readouterr().err
    )


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


# --- No input makes the CLI print a traceback -------------------------------

CONFIG_KEYS = _bundled_schema("config.schema.json")["properties"]

# Values at and past every bound the schema and the library state. Values
# are mostly in-domain, so that most configs reach the library; the
# mutations in _cli_configs supply the rest.
EDGE_NUMBERS = (5e-324, 1e-300, 1e50, 1e51, 1e100, 1e101, sys.float_info.max)
POSITIVE = st.one_of(st.sampled_from(EDGE_NUMBERS + (0.5, 1.0, 2.0)), st.floats(1e-3, 4.0))
SIGNED = st.one_of(POSITIVE, POSITIVE.map(lambda v: -v), st.just(0.0))
PROBABILITY = st.one_of(st.sampled_from((5e-324, 1e-300, 0.5)), st.floats(1e-3, 1 - 1e-3))
# What a mutation writes in place of a value: a bool for a number, a
# string, null, a whole float for an integer, and values at the bounds.
WRONG_VALUE = st.one_of(
    st.sampled_from([True, False, "1", None, 20.0, 0, 1, -1, *EDGE_NUMBERS]),
    st.builds(list),
    st.builds(dict),  # a fresh one each time, since a mutation may add keys to it
)


def _pair(values):
    # Equal pairs too: sigmas (1e-300, 1e-300) square to 0.0 only together.
    return st.one_of(st.lists(values, min_size=2, max_size=2), values.map(lambda v: [v, v]))


def _small_list(values):
    return st.lists(values, min_size=1, max_size=3)


@st.composite
def _instances(draw):
    family = draw(st.sampled_from(CONFIG_KEYS["instance"]["properties"]["family"]["enum"]))
    if family == "gaussian":
        return {"family": family, "means": draw(_pair(SIGNED)), "variances": draw(_pair(POSITIVE))}
    means = draw(_pair(PROBABILITY))
    if draw(st.booleans()):
        return {"family": family, "means": means}
    return {"family": family, "means": means, "variances": [m * (1.0 - m) for m in means]}


# A policy's options and their values, per kind; every option is a key of
# the schema's policy.
POLICY_OPTIONS = {
    "adaptive_neyman": {
        "eta": st.one_of(PROBABILITY, st.sampled_from(EDGE_NUMBERS)),
        "w_min": st.one_of(st.sampled_from((5e-324, 0.01, 0.5)), st.floats(1e-3, 0.5)),
    },
    "oracle_neyman": {"sigma1": POSITIVE, "sigma2": POSITIVE},
    "uniform": {},
}

# One value strategy per top-level key of config.schema.json, inside the
# test's budget: R <= 5, T <= 40 and grids of at most 3 points.
CONFIG_VALUES = {
    "instance": _instances(),
    "sigmas": _pair(POSITIVE),
    # Budgets past 2^53 are rejected; an accepted huge budget would run without end.
    "T": st.one_of(st.integers(2, 40), st.sampled_from([2**53, 10**400])),
    "budgets": _small_list(st.integers(2, 40)),
    "policy": st.sampled_from(sorted(POLICY_OPTIONS)).flatmap(
        lambda kind: st.fixed_dictionaries({"kind": st.just(kind)}, optional=POLICY_OPTIONS[kind])
    ),
    "estimator": st.sampled_from(CONFIG_KEYS["estimator"]["enum"]),
    "R": st.integers(1, 5),
    "seed": st.sampled_from([0, 7, 2**64 - 1, 2**64]),
    "grid": _small_list(POSITIVE),
    "threads": st.sampled_from([1, 2]),
}

# Required and optional config keys of each data command (verify takes no config).
COMMAND_KEYS = {
    "run": (("instance", "T", "policy", "R"), ("estimator", "seed", "threads")),
    "sweep": (("sigmas", "T", "policy", "R"), ("grid", "estimator", "seed", "threads")),
    "consistency": (("instance", "budgets", "policy", "R"), ("estimator", "seed", "threads")),
    "bounds": (("sigmas", "T"), ("grid",)),
}


def test_fuzz_strategies_cover_the_schema_keys():
    assert set(CONFIG_VALUES) == set(CONFIG_KEYS)
    policy = CONFIG_KEYS["policy"]["properties"]
    assert set(POLICY_OPTIONS) == set(policy["kind"]["enum"])
    assert {k for opts in POLICY_OPTIONS.values() for k in opts} == set(policy) - {"kind"}


@st.composite
def _cli_configs(draw):
    """A data command and a config for it, with up to two keys dropped,
    replaced by a wrong value, or joined by an unknown key."""
    command = draw(st.sampled_from(sorted(COMMAND_KEYS)))
    required, optional = COMMAND_KEYS[command]
    doc = draw(st.fixed_dictionaries(
        {key: CONFIG_VALUES[key] for key in required},
        optional={key: CONFIG_VALUES[key] for key in optional},
    ))
    for _ in range(draw(st.sampled_from((0, 0, 1, 2)))):
        holders = [doc, *(v for v in doc.values() if isinstance(v, dict))]
        holder = draw(st.sampled_from(holders))
        action = draw(st.sampled_from(["drop", "replace", "unknown"]))
        if action == "unknown" or not holder:
            holder["unknown_key"] = draw(WRONG_VALUE)
        else:
            key = draw(st.sampled_from(sorted(holder)))
            if action == "drop":
                del holder[key]
            else:
                holder[key] = draw(WRONG_VALUE)
    return command, doc


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in the output")


@pytest.fixture(scope="module")
def fuzz_config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "config.json"


@settings(max_examples=200, deadline=None)
@given(case=_cli_configs())
def test_no_config_makes_the_cli_print_a_traceback(fuzz_config_path, case):
    """Every config exits 0 with strict, schema-valid JSON rows, or 2 with one error line."""
    command, doc = case
    fuzz_config_path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--config", str(fuzz_config_path), "--format", "json"])
    if code == 0:
        rows = json.loads(out.getvalue(), parse_constant=_reject_constant)
        jsonschema.validate(rows, OUTPUT_SCHEMA)
    else:
        assert code == 2
        assert out.getvalue() == ""
        assert len(_error_lines(err.getvalue())) == 1, err.getvalue()
