"""Layer benchmark of the Monte Carlo engine, written to a BENCH_*.json file.

Usage:
    python3 tools/bench_engine.py --out BENCH_<n>.json --side LABEL=SRC [--side ...]
                                  [--repeats N]

Each side is a label and a source directory holding neyman_bai, for
example `--side parent=../parent/src --side change=src` for a checkout of
the parent commit next to this one. Every repeat measures each side once,
in a fresh interpreter, and the sides alternate which goes first from one
repeat to the next, so a slow stretch of a shared host falls on both
sides alike. One measurement covers:

- the benchmark's sweep (`sweep_adaptive_2t`): sigmas (1, 2), adaptive
  Neyman + AIPW, grid 0.5/1/1.5, R = 1600, T = 10^4, threads 2, as wall
  and CPU time, cells per second and the peak RSS of the interpreter,
  which runs the sweep before anything else;
- table fill: ns per replication-round cell to draw every table a
  replicate call draws, without the kernels, per family, on one thread,
  at two shapes of whole trials (T = 2000, R = 1600 and T = 50,
  R = 20,000) and at the sweep's shape, whose trials span several blocks;
- the adaptive kernel at the sweep's shape, interleaved: every side's
  package is loaded into one interpreter under its own module name
  (neyman_bai_<label>), and the sides' kernels take turns, one call each,
  OPERATIONS_INTERLEAVED times, on the same tables: the sweep's three grid
  points sharing arm 2, 1,600 rows, AIPW, two 655-round blocks (the same
  tables twice) from zero sums. Each call's ns per cell (points x rows x
  2 x rounds) is kept, with the median, and whether every side returned
  the same sums bit for bit. Timing both sides in one process, call by call,
  keeps a shared host's slow stretches from falling on one side only;
- kernel ns/cell for the adaptive (AIPW) and the block (uniform, sample
  means) kernels at 400 to 16,000 rows, on one round-major block of 256
  rounds of Gaussian draws from zero sums, one configuration. BENCH_15.json and earlier
  timed the block kernel with AIPW, which it no longer has, so its figure
  is not comparable with theirs;
- replicate wall and CPU time for adaptive Neyman + AIPW at R = 3200,
  T = 10^4 and threads 1, 2 and 4;
- the benchmark's transportation check (`transport_short`): verify check
  7's pair, uniform allocation, T = 50, R = 20,000, threads 1, as the
  median wall and CPU time of five operations (one operation takes about
  0.1 s, too short to time once) and cells per second over both models;
- the nine verify checks (`verification.run_all(42, threads=1)`), each as
  wall time, PASS flag and detail line, next to the wall and CPU time of
  the whole run;
- the line count of src/ and the size of neyman_bai.__all__.

Each fill figure and kernel width is the median of OPERATIONS (5)
operations. Under `runs`, each label holds the median of every figure
over the repeats and the measurements of each repeat, next to the host (nproc,
CPU model, Python and numpy versions). Labels already in the file and not
measured again are kept. The engine must be at version 0.13.2 or later:
each kernel takes a chunk's (t0, tables) blocks and its (points, rows)
shape, keeps its own sums and returns (acc1, acc2, n1).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

WIDTHS = (400, 800, 1600, 3200, 8000, 16000)
KERNEL_ROUNDS = 256
FILL_SHAPES = ((2000, 1600), (50, 20000), (10_000, 1600))  # (T, R)
OPERATIONS = 5  # per fill figure and kernel width
REPLICATE = {"R": 3200, "T": 10_000}
THREADS = (1, 2, 4)
SWEEP = {"sigmas": (1.0, 2.0), "T": 10_000, "grid": (0.5, 1.0, 1.5), "R": 1600, "threads": 2}
TRANSPORT = {"T": 50, "R": 20_000, "threads": 1, "operations": 5}
SWEEP_KERNEL = {"rows": 1600, "rounds": 655, "estimator": "aipw"}
OPERATIONS_INTERLEAVED = 25


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", type=Path)
    p.add_argument("--side", action="append", default=[], metavar="LABEL=SRC")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.worker is None and (args.out is None or not args.side):
        p.error("--out and at least one --side are required")
    if any("=" not in side for side in args.side):
        p.error("--side takes LABEL=SRC")
    return args


def _host() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _seconds(fn) -> float:
    """Median wall seconds of OPERATIONS calls of fn."""
    walls = []
    for _ in range(OPERATIONS):
        t = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - t)
    return statistics.median(walls)


def _fill_all(engine, cfg, R: int) -> None:
    """Draw the tables replicate(cfg, R) draws on one thread, without the kernels."""
    rows, rounds = engine._layout(R, cfg.T)
    for lo in range(0, R, rows):
        for _ in engine._blocks(cfg, lo, min(lo + rows, R), rounds):
            pass


def _kernels(engine, width: int):
    """(adaptive, block) kernel calls over KERNEL_ROUNDS rounds of `width` rows."""
    from neyman_bai.distributions import Marginal
    from neyman_bai.policies import AdaptiveNeyman

    rng = np.random.default_rng(width)
    shape = (KERNEL_ROUNDS, width)
    z1 = rng.standard_normal(shape)
    z2 = rng.standard_normal(shape)
    u = rng.random(shape)
    policy = AdaptiveNeyman()
    cut = KERNEL_ROUNDS // 2
    arm1, arm2 = Marginal.gaussian(0.03, 1.0), Marginal.gaussian(0.0, 4.0)
    maps = (engine._arm_outcomes([arm1]), engine._arm_outcomes([arm2]))
    return (
        lambda: engine._kernel_adaptive(policy, "aipw", *maps, [(0, (z1, z2, u))], (1, width)),
        lambda: engine._kernel_block(cut, *maps, [(0, (z1, z2))], (1, width)),
    )


def _load(label: str, src: Path):
    """The neyman_bai package under src, imported as neyman_bai_<label>."""
    pkg = src.resolve() / "neyman_bai"
    name = f"neyman_bai_{label}"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _sweep_kernel(pkg, tables):
    """pkg's adaptive kernel on tables at the sweep's shape, as a call without arguments.

    The sweep's grid points share arm 2, so arm 1 maps to one row per point
    and arm 2 to one row for all. Each call runs tables twice, as rounds
    0.. and rounds.., from zero sums and returns (acc1, acc2, n1).
    """
    Marginal = pkg.distributions.Marginal
    engine = pkg.engine
    s1, s2 = SWEEP["sigmas"]
    scale = (s1 + s2) / SWEEP["T"] ** 0.5
    arm2 = Marginal.gaussian(0.0, s2 * s2)
    maps = (
        engine._arm_outcomes([Marginal.gaussian(x * scale, s1 * s1) for x in SWEEP["grid"]]),
        engine._arm_outcomes([arm2] * len(SWEEP["grid"])),
    )
    return partial(
        engine._kernel_adaptive, pkg.policies.AdaptiveNeyman(), SWEEP_KERNEL["estimator"], *maps,
        [(0, tables), (SWEEP_KERNEL["rounds"], tables)], (len(SWEEP["grid"]), SWEEP_KERNEL["rows"]),
    )


def interleaved_kernel(sides) -> dict:
    """The sweep-shape adaptive kernel of every side, timed call by call in turn."""
    rng = np.random.default_rng(7)
    shape = (SWEEP_KERNEL["rounds"], SWEEP_KERNEL["rows"])
    tables = (rng.standard_normal(shape), rng.standard_normal(shape), rng.random(shape))
    cells = len(SWEEP["grid"]) * SWEEP_KERNEL["rows"] * 2 * SWEEP_KERNEL["rounds"]
    kernels = {label: _sweep_kernel(_load(label, Path(src)), tables) for label, src in sides}
    each = {label: [] for label in kernels}
    states = {}
    order = list(kernels)
    for k in range(OPERATIONS_INTERLEAVED):
        for label in order if k % 2 == 0 else order[::-1]:
            call = kernels[label]
            t = time.perf_counter()
            out = call()
            each[label].append((time.perf_counter() - t) / cells * 1e9)
            states[label] = np.array(out)
    first = next(iter(states.values()))
    return {
        "same_state": all(np.array_equal(v, first) for v in states.values()),
        "median": {label: statistics.median(v) for label, v in each.items()},
        "each": each,
    }


def _timed(fn) -> dict:
    c, t = time.process_time(), time.perf_counter()
    fn()
    return {"wall_s": time.perf_counter() - t, "cpu_s": time.process_time() - c}


def measure() -> dict:
    """One measurement of every figure, on the neyman_bai found on sys.path."""
    import neyman_bai
    from neyman_bai import engine, theory, verification
    from neyman_bai.distributions import Instance, Marginal, lower_bound_alternative
    from neyman_bai.policies import AdaptiveNeyman, Uniform

    sweep = _timed(lambda: engine.sweep_worst_case(
        SWEEP["sigmas"], SWEEP["T"], AdaptiveNeyman(), "aipw", SWEEP["R"], 7,
        grid=SWEEP["grid"], threads=SWEEP["threads"],
    ))
    sweep["cells_per_s"] = len(SWEEP["grid"]) * SWEEP["R"] * SWEEP["T"] / sweep["wall_s"]
    sweep["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    families = {
        "gaussian": Instance(Marginal.gaussian(0.03, 1.0), Marginal.gaussian(0.0, 4.0)),
        "bernoulli": Instance(Marginal.bernoulli(0.52), Marginal.bernoulli(0.48)),
    }
    fill = {}
    for name, inst in families.items():
        for T, R in FILL_SHAPES:
            policy = AdaptiveNeyman() if T > 100 else Uniform()
            cfg = engine.TrialConfig(inst, T, policy, "sample_mean", 7)
            s = _seconds(lambda: _fill_all(engine, cfg, R))
            fill[f"{name} T={T} R={R} {type(policy).__name__}"] = s / (R * T) * 1e9

    kernels = {"adaptive": {}, "block": {}}
    for width in WIDTHS:
        for kind, call in zip(kernels, _kernels(engine, width)):
            kernels[kind][str(width)] = _seconds(call) / (KERNEL_ROUNDS * width) * 1e9

    cfg = engine.TrialConfig(families["gaussian"], REPLICATE["T"], AdaptiveNeyman(), "aipw", 7)
    scaling = {
        str(threads): _timed(lambda: engine.replicate(cfg, REPLICATE["R"], threads))
        for threads in THREADS
    }

    T = TRANSPORT["T"]
    transport = _median([_timed(lambda: theory.check_transportation(
        Instance(Marginal.gaussian(0.01, 1.0), Marginal.gaussian(0.0, 1.0)),
        lower_bound_alternative(1.0, 1.0, T), Uniform(), T, R=TRANSPORT["R"], seed=7,
        threads=TRANSPORT["threads"],
    )) for _ in range(TRANSPORT["operations"])])
    transport["cells_per_s"] = 2 * TRANSPORT["R"] * T / transport["wall_s"]

    results = []
    verify = _timed(lambda: results.extend(verification.run_all(42, threads=1)))
    verify["checks"] = {
        r.name: {"wall_s": r.seconds, "passed": int(r.passed), "detail": r.detail}
        for r in results
    }

    src = Path(neyman_bai.__file__).resolve().parent
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src.rglob("*.py"))
    return {
        "fill_ns_per_cell": fill,
        "kernel_ns_per_cell": kernels,
        "replicate_adaptive_aipw_threads": scaling,
        "sweep_adaptive_2t": sweep,
        "transport_short": transport,
        "verify_threads1": verify,
        "src_lines": lines,
        "all_size": len(neyman_bai.__all__),
    }


def _median(values: list):
    """Leaf-wise median of equally shaped nested dicts of numbers.

    A text leaf is kept when every repeat gives the same text, else listed.
    """
    if isinstance(values[0], dict):
        return {k: _median([v[k] for v in values]) for k in values[0]}
    if isinstance(values[0], str):
        return values[0] if len(set(values)) == 1 else values
    return statistics.median(values)


def _run_worker(src: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, __file__, "--worker", str(src)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def main(argv=None) -> None:
    args = _args(argv)
    if args.worker is not None:
        sys.path.insert(0, str(args.worker.resolve()))
        print(json.dumps(measure()))
        return
    sides = [side.split("=", 1) for side in args.side]
    runs = {label: [] for label, _ in sides}
    for k in range(args.repeats):
        for label, src in sides if k % 2 == 0 else sides[::-1]:
            runs[label].append(_run_worker(Path(src)))
            print(f"repeat {k + 1}/{args.repeats}: {label} done", file=sys.stderr)
    print("interleaved sweep kernel", file=sys.stderr)
    kernel = interleaved_kernel(sides)
    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    doc["host"] = _host()
    doc["setup"] = {
        "kernel_rounds": KERNEL_ROUNDS,
        "kernel_estimator": {"adaptive": "aipw", "block": "sample_mean"},
        "operations": OPERATIONS,
        "replicate": REPLICATE, "sweep": SWEEP, "transport": TRANSPORT,
        "sweep_kernel": {**SWEEP_KERNEL, "operations": OPERATIONS_INTERLEAVED},
        "order": "sides alternate which runs first from repeat to repeat",
    }
    doc.setdefault("runs", {})
    for label, measured in runs.items():
        doc["runs"][label] = {
            "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "repeats": len(measured),
            "median": _median(measured),
            "each": measured,
        }
    doc["sweep_kernel_ns_per_cell_interleaved"] = kernel
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({label: doc["runs"][label]["median"] for label in runs}, indent=1))
    print(json.dumps({k: kernel[k] for k in ("same_state", "median")}, indent=1))


if __name__ == "__main__":
    main()
