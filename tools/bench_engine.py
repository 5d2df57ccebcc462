"""Layer benchmark of the Monte Carlo engine, written to a BENCH_*.json file.

Usage:
    python3 tools/bench_engine.py --out BENCH_<n>.json [--src DIR] [--label NAME]

Imports neyman_bai from DIR (default: this checkout's src/) and measures,
on one process:

- table fill: ns per replication-round cell to draw every table a
  replicate call draws, without the kernels, per family, on one thread;
- kernel ns/cell for the adaptive (AIPW) and the block (uniform, AIPW)
  kernels at 400 to 16,000 rows, on one round-major block of 256 rounds
  of Gaussian draws;
- replicate wall and CPU time for adaptive Neyman + AIPW at R = 3200,
  T = 10^4 and threads 1, 2 and 4;
- the line count of src/ and the size of neyman_bai.__all__.

Results go under `label` in the output file, next to the host (nproc,
Python and numpy versions) and any labels already there, so a run on a
checkout of the parent commit (--src that/src --label parent) and one on
this checkout (--label change) sit side by side. The engine must draw its
tables in round blocks (engine._blocks, from version 0.5.0 on).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
WIDTHS = (400, 800, 1600, 3200, 8000, 16000)
KERNEL_ROUNDS = 256
FILL_SHAPES = ((2000, 1600), (50, 20000))  # (T, R)
REPLICATE = {"R": 3200, "T": 10_000}
THREADS = (1, 2, 4)


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--src", type=Path, default=ROOT / "src")
    p.add_argument("--label", default="change")
    p.add_argument("--repeats", type=int, default=3)
    return p.parse_args(argv)


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


def _best(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return min(times)


def _fill_all(engine, cfg, R: int) -> None:
    """Draw the tables replicate(cfg, R) draws on one thread, without the kernels."""
    rows, rounds = engine._layout(R, cfg.T)
    for lo in range(0, R, rows):
        for _ in engine._blocks(cfg, lo, min(lo + rows, R), rounds):
            pass


def _kernels(engine, width: int):
    """(adaptive, block) kernel calls over KERNEL_ROUNDS rounds of `width` rows."""
    from neyman_bai.policies import AdaptiveNeyman

    rng = np.random.default_rng(width)
    shape = (KERNEL_ROUNDS, width)
    y1 = 0.03 + rng.standard_normal(shape)
    y2 = 2.0 * rng.standard_normal(shape)
    u = rng.random(shape)
    policy = AdaptiveNeyman()
    cut = KERNEL_ROUNDS // 2
    return (
        lambda: engine._kernel_adaptive(policy, "aipw", 0, (y1, y2, u)),
        lambda: engine._kernel_block(cut, 0.5, "aipw", 0, (y1, y2)),
    )


def measure(repeats: int) -> dict:
    import neyman_bai
    from neyman_bai import engine
    from neyman_bai.distributions import Instance, Marginal
    from neyman_bai.policies import AdaptiveNeyman, Uniform

    families = {
        "gaussian": Instance(Marginal.gaussian(0.03, 1.0), Marginal.gaussian(0.0, 4.0)),
        "bernoulli": Instance(Marginal.bernoulli(0.52), Marginal.bernoulli(0.48)),
    }
    fill = {}
    for name, inst in families.items():
        for T, R in FILL_SHAPES:
            policy = AdaptiveNeyman() if T > 100 else Uniform()
            cfg = engine.TrialConfig(inst, T, policy, "aipw", 7)
            s = _best(lambda: _fill_all(engine, cfg, R), repeats)
            fill[f"{name} T={T} R={R} {type(policy).__name__}"] = s / (R * T) * 1e9

    kernels = {"adaptive": {}, "block": {}}
    for width in WIDTHS:
        for kind, call in zip(kernels, _kernels(engine, width)):
            kernels[kind][str(width)] = _best(call, repeats) / (KERNEL_ROUNDS * width) * 1e9

    inst = families["gaussian"]
    cfg = engine.TrialConfig(inst, REPLICATE["T"], AdaptiveNeyman(), "aipw", 7)
    walls = {threads: [] for threads in THREADS}
    cpus = {threads: [] for threads in THREADS}
    for _ in range(repeats):  # thread counts interleaved, so drift hits each alike
        for threads in THREADS:
            c, t = time.process_time(), time.perf_counter()
            engine.replicate(cfg, REPLICATE["R"], threads)
            walls[threads].append(time.perf_counter() - t)
            cpus[threads].append(time.process_time() - c)
    scaling = {
        str(threads): {
            "wall_s": statistics.median(walls[threads]),
            "cpu_s": statistics.median(cpus[threads]),
            "wall_s_runs": walls[threads],
        }
        for threads in THREADS
    }

    src = Path(neyman_bai.__file__).resolve().parent
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src.rglob("*.py"))
    return {
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "repeats": repeats,
        "fill_ns_per_cell": fill,
        "kernel_ns_per_cell": {
            "rounds": KERNEL_ROUNDS,
            "estimator": "aipw",
            **kernels,
        },
        "replicate_adaptive_aipw": {**REPLICATE, "threads": scaling},
        "src_lines": lines,
        "all_size": len(neyman_bai.__all__),
    }


def main(argv=None) -> None:
    args = _args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    result = measure(args.repeats)
    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    doc["host"] = _host()
    doc.setdefault("runs", {})[args.label] = result
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({args.label: result}, indent=1))


if __name__ == "__main__":
    main()
