"""Command-line front end.

Subcommands: run (one Monte Carlo), sweep (worst-case gap sweep),
consistency (misidentification versus budget), bounds (closed-form bound
curve), verify (built-in check suite). Configuration is a strict JSON
document validated against the bundled schema; results are CSV (default)
or JSON rows sharing one column set across subcommands. Logs go to
standard error, results to --out or standard output.

run, sweep and consistency share one prologue: config, seed, R, threads
and estimator. Beyond the schema, the CLI checks only which keys a
command needs and where the seed came from; other rules are the library's.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 I/O error. Any input the library rejects with a ValueError exits 2 with
the library's message, for example --reps 0, --threads 0, a block policy
(oracle_neyman, uniform) with aipw, the default, or ipw (both need
randomized allocation), or a Monte Carlo run whose sample-mean estimator
never observes an arm in some replication (possible at small budgets),
which has no defined result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from importlib import resources
from pathlib import Path

import jsonschema

from .distributions import Family, Instance, Marginal
from .engine import (
    _SEED_LIMIT,
    DEFAULT_GRID,
    TrialConfig,
    consistency_curve,
    run_monte_carlo,
    sweep_worst_case,
)
from .policies import OracleNeyman, Policy, policy_from_config, policy_to_config
from .theory import misid_upper_bound, worst_case_gap
from .verification import run_all

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_IO = 3

ENV_SEED = "NEYMAN_BAI_SEED"
DEFAULT_SEED = 42

COLUMNS = (
    "kind", "T", "R", "policy", "estimator", "sigma1", "sigma2",
    "mu1", "mu2", "gap", "x", "misid_prob", "misid_se", "mean_regret",
    "regret_se", "scaled_regret", "n1_frac", "seed",
)


class ConfigError(Exception):
    """Anything wrong with the supplied configuration (exit code 2)."""


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _is_integer(checker, instance) -> bool:
    # jsonschema's default also accepts 7.0; the engine needs Python ints.
    return isinstance(instance, int) and not isinstance(instance, bool)


_ConfigValidator = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", _is_integer
    ),
)


def _finite(literal: str) -> float:
    # json.loads takes NaN and Infinity literals and overflows 1e999 to inf,
    # and the schema's bounds do not catch NaN, so they are rejected here.
    value = float(literal)
    if not math.isfinite(value):
        raise ConfigError(f"config number {literal} is not finite")
    return value


def _schema(name: str) -> dict:
    text = resources.files("neyman_bai.schemas").joinpath(name).read_text("utf-8")
    return json.loads(text)


def parse_config(text: str) -> dict:
    """Parse and strictly validate a configuration document.

    Returns the validated mapping; raises ConfigError naming the offending
    key on any schema violation, including unknown keys, or naming a
    non-finite number (NaN, Infinity, -Infinity, or one that overflows).
    """
    try:
        doc = json.loads(text, parse_constant=_finite, parse_float=_finite)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    validator = _ConfigValidator(_schema("config.schema.json"))
    errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        where = "/".join(str(p) for p in err.absolute_path) or "<root>"
        raise ConfigError(f"config key {where!r}: {err.message}")
    return doc


def _load_config(args: argparse.Namespace, command: str, required: tuple[str, ...]) -> dict:
    if not args.config:
        raise ConfigError(f"the {command} command requires --config")
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    cfg = parse_config(text)
    for key in required:
        if key not in cfg:
            raise ConfigError(f"the {command} command requires config key {key!r}")
    return cfg


def _resolve_seed(args: argparse.Namespace, cfg: dict | None) -> int:
    """The master seed from the first source that sets one, in [0, 2^64).

    A seed is one 64-bit word of the generator key, and rng.spawn rejects
    one outside that range; here it is a configuration error naming its
    source.
    """
    if args.seed is not None:
        seed, source = args.seed, "--seed"
    elif cfg is not None and "seed" in cfg:
        seed, source = cfg["seed"], "config key 'seed'"
    else:
        env = os.environ.get(ENV_SEED)
        if env is None:
            return DEFAULT_SEED
        try:
            seed = int(env)
        except ValueError as exc:
            raise ConfigError(
                f"environment variable {ENV_SEED} must be an integer, got {env!r}"
            ) from exc
        source = f"environment variable {ENV_SEED}"
    if not 0 <= seed < _SEED_LIMIT:
        raise ConfigError(f"{source} must lie in [0, 2^64), got {seed}")
    return seed


def _resolve_reps(args: argparse.Namespace, cfg: dict) -> int:
    if args.reps is not None:
        return args.reps
    if "R" in cfg:
        return cfg["R"]
    raise ConfigError(f"the {args.command} command requires config key 'R' (or pass --reps)")


def _build_instance(cfg: dict) -> Instance:
    spec = cfg["instance"]
    family = Family(spec["family"])
    means = [float(m) for m in spec["means"]]
    if "variances" in spec:
        key, variances = "instance/variances", [float(v) for v in spec["variances"]]
    elif family is Family.BERNOULLI:
        key, variances = "instance/means", [m * (1.0 - m) for m in means]
    else:
        raise ConfigError(
            "config key 'instance/variances': required for gaussian instances"
        )
    try:
        return Instance(*(Marginal(family, m, v) for m, v in zip(means, variances)))
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from exc


def _build_policy(cfg: dict, sigmas: tuple[float, float]) -> Policy:
    """The config's policy; an oracle given no sigmas takes the true ones."""
    try:
        if cfg["policy"] == {"kind": "oracle_neyman"}:
            return OracleNeyman(*sigmas)
        return policy_from_config(cfg["policy"])
    except ValueError as exc:
        raise ConfigError(f"config key 'policy': {exc}") from exc


def _mc_row(kind: str, cfg: TrialConfig, report, x: float | None) -> dict:
    inst = cfg.instance
    return {
        "kind": kind,
        "T": cfg.T,
        "R": report.R,
        "policy": policy_to_config(cfg.policy)["kind"],
        "estimator": cfg.estimator,
        "sigma1": inst.arm1.sd,
        "sigma2": inst.arm2.sd,
        "mu1": inst.arm1.mean,
        "mu2": inst.arm2.mean,
        "gap": inst.gap,
        "x": x,
        "misid_prob": report.misid_prob,
        "misid_se": report.misid_se,
        "mean_regret": report.mean_regret,
        "regret_se": report.regret_se,
        "scaled_regret": report.scaled_regret,
        "n1_frac": report.mean_alloc_frac[0],
        "seed": cfg.seed,
    }


def _csv_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, int):
        return str(v)
    return format(float(v), ".17g")


def format_rows(rows: list[dict], fmt: str) -> str:
    """Render result rows as CSV (fixed column order) or a JSON list."""
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    lines = [",".join(COLUMNS)]
    for row in rows:
        lines.append(",".join(_csv_value(row[c]) for c in COLUMNS))
    return "\n".join(lines) + "\n"


def emit(rows: list[dict], fmt: str, path: str | None) -> None:
    """Write rows to path (or standard output when path is None)."""
    text = format_rows(rows, fmt)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_command(rows: list[dict], args: argparse.Namespace) -> int:
    fmt = args.format or "csv"
    try:
        emit(rows, fmt, args.out)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    if args.out:
        _log(f"wrote {len(rows)} row(s) to {args.out}")
    return EXIT_OK


def _run_rows(cfg: dict, seed: int, R: int, threads: int, estimator: str) -> list[dict]:
    inst = _build_instance(cfg)
    policy = _build_policy(cfg, (inst.arm1.sd, inst.arm2.sd))
    trial = TrialConfig(inst, cfg["T"], policy, estimator, seed)
    _log(
        f"run: T={trial.T} R={R} policy={cfg['policy']['kind']} "
        f"estimator={estimator} seed={seed}"
    )
    report = run_monte_carlo(trial, R, threads)
    return [_mc_row("run", trial, report, None)]


def _sweep_rows(cfg: dict, seed: int, R: int, threads: int, estimator: str) -> list[dict]:
    s1, s2 = (float(s) for s in cfg["sigmas"])
    policy = _build_policy(cfg, (s1, s2))
    grid = [float(x) for x in cfg.get("grid", DEFAULT_GRID)]
    T = cfg["T"]
    _log(
        f"sweep: {len(grid)} points, T={T} R={R} sigmas=({s1:g},{s2:g}) "
        f"policy={cfg['policy']['kind']} estimator={estimator} seed={seed}"
    )
    result = sweep_worst_case(
        (s1, s2), T, policy, estimator, R=R, seed=seed, grid=grid, threads=threads
    )
    return [_mc_row("sweep", p.cfg, p.report, p.x) for p in result.points]


def _consistency_rows(cfg: dict, seed: int, R: int, threads: int, estimator: str) -> list[dict]:
    inst = _build_instance(cfg)
    policy = _build_policy(cfg, (inst.arm1.sd, inst.arm2.sd))
    budgets = cfg["budgets"]
    _log(
        f"consistency: budgets={budgets} R={R} policy={cfg['policy']['kind']} "
        f"estimator={estimator} seed={seed}"
    )
    curve = consistency_curve(
        inst, budgets, policy, estimator, R=R, seed=seed, threads=threads
    )
    return [_mc_row("consistency", p.cfg, p.report, None) for p in curve]


# Monte Carlo commands: the config keys each requires and its row builder.
_MONTE_CARLO = {
    "run": (("instance", "T", "policy"), _run_rows),
    "sweep": (("sigmas", "T", "policy"), _sweep_rows),
    "consistency": (("instance", "budgets", "policy"), _consistency_rows),
}


def _cmd_monte_carlo(args: argparse.Namespace) -> int:
    required, rows = _MONTE_CARLO[args.command]
    cfg = _load_config(args, args.command, required)
    seed = _resolve_seed(args, cfg)
    R = _resolve_reps(args, cfg)
    threads = cfg.get("threads", 1) if args.threads is None else args.threads
    estimator = cfg.get("estimator", "aipw")
    return _emit_command(rows(cfg, seed, R, threads, estimator), args)


def _cmd_bounds(args: argparse.Namespace) -> int:
    cfg = _load_config(args, "bounds", ("sigmas", "T"))
    s1, s2 = (float(s) for s in cfg["sigmas"])
    T = cfg["T"]
    grid = [float(x) for x in cfg.get("grid", DEFAULT_GRID)]
    _log(f"bounds: {len(grid)} points, T={T} sigmas=({s1:g},{s2:g})")
    scale = worst_case_gap(s1, s2, T)
    rows = []
    for x in grid:
        gap = x * scale
        if not math.isfinite(gap):
            raise ValueError(f"bounds grid point x = {x!r}: gap {gap!r} is not finite")
        bound = misid_upper_bound(s1, s2, gap, T)
        regret = gap * bound
        rows.append(dict(
            dict.fromkeys(COLUMNS), kind="bound", T=T, sigma1=s1, sigma2=s2, gap=gap, x=x,
            misid_prob=bound, mean_regret=regret, scaled_regret=math.sqrt(T) * regret,
        ))
    return _emit_command(rows, args)


def _cmd_verify(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args, None)
    _log(f"verify: running the checks at full scale, seed={seed} (takes minutes)")
    results = run_all(seed, args.threads)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name} ({res.seconds:.1f} s): {res.detail}")
    failed = [r for r in results if not r.passed]
    total = sum(r.seconds for r in results)
    print(f"verification: {len(results) - len(failed)}/{len(results)} checks passed "
          f"({total:.1f} s total)")
    return EXIT_VERIFY if failed else EXIT_OK


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neyman-bai",
        description="Two-armed fixed-budget best-arm identification toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser, mc: bool = True) -> None:
        sp.add_argument("--config", metavar="PATH", help="JSON configuration file")
        sp.add_argument("--out", metavar="PATH", help="output file (default: stdout)")
        sp.add_argument("--format", choices=("csv", "json"), help="output format (default: csv)")
        if mc:
            sp.add_argument("--seed", type=int, help="master seed (overrides config and env)")
            sp.add_argument("--reps", type=int, help="replication count (overrides config R)")
            sp.add_argument("--threads", type=int, help="worker threads for replication")

    common(sub.add_parser("run", help="one Monte Carlo run on a fixed instance"))
    common(sub.add_parser("sweep", help="scaled regret across the gap grid"))
    common(sub.add_parser("consistency", help="misidentification versus budget"))
    common(sub.add_parser("bounds", help="closed-form bound curve on the gap grid"), mc=False)
    ver = sub.add_parser("verify", help="run the built-in verification suite")
    ver.add_argument("--seed", type=int, help="master seed (overrides env)")
    ver.add_argument("--threads", type=int, default=1, help="worker threads for replication")
    return parser


_HANDLERS = {
    **dict.fromkeys(_MONTE_CARLO, _cmd_monte_carlo),
    "bounds": _cmd_bounds,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ConfigError, ValueError) as exc:  # or an input the library rejects
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
