"""Benchmark of the neyman_bai Monte Carlo package, run from a checkout.

Usage:
    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Defaults: --seed 1, --seconds from BENCHMARK.json's run_seconds, --trace 0.

Imports the package from the checkout's src/ (pure Python, nothing to
build), turns --seed into the workload's inputs, repeats the workload's
operation for about S seconds, checks the outputs, and prints each metric
by name and unit. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
wraps the package's layer boundaries (spans.py) and reports the per-layer
metrics instead. Results and span files go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 9


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error(f"--seed must be >= 0, got {args.seed}")
    if args.seconds is not None and args.seconds < 1:
        p.error(f"--seconds must be >= 1, got {args.seconds}")
    return args


def _setup_seconds(wl, seed: int) -> float:
    """Process start to first simulated round, in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "probe.py"), wl.name, str(seed), str(OUT)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1]) - t0


class Run:
    """Operations of one run: outputs, wall and CPU seconds, spans."""

    def __init__(self, wl, tracer):
        self.wl = wl
        self.tracer = tracer
        self.outputs, self.walls, self.cpus, self.spans = [], [], [], []
        self.attempted = 0
        self.failed = 0

    def op(self, threads: int):
        """One operation; returns (output, spans) or None if it raised."""
        self.attempted += 1
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            out = self.wl.operation(threads)
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None
        finally:
            wall = time.perf_counter() - t0
            cpu = time.process_time() - c0
            spans_ = self.tracer.take() if self.tracer else None
        if threads == self.wl.threads:
            self.outputs.append(out)
            self.walls.append(wall)
            self.cpus.append(cpu)
            self.spans.append(spans_)
        return out, spans_

    def repeat(self, seconds: float, reserve: int, probe=None, probes: int = 0) -> list:
        """Operations until another `reserve` operations would pass `seconds`.

        If given, `probe` runs `probes` times, spread over the run: before
        each operation, as many as are due by then, and the rest at the
        end. Probe time does not count against `seconds`. Returns the
        probe results.
        """
        results = []
        start = time.perf_counter()
        probing = 0.0

        def probe_until(n):
            nonlocal probing
            t0 = time.perf_counter()
            while len(results) < n:
                results.append(probe())
            probing += time.perf_counter() - t0

        while True:
            if probe:
                elapsed = time.perf_counter() - start - probing
                probe_until(min(probes, max(1, math.ceil(probes * elapsed / seconds))))
            t0 = time.perf_counter()
            self.op(self.wl.threads)
            last = time.perf_counter() - t0
            if time.perf_counter() - start - probing + reserve * last > seconds:
                break
        if probe:
            probe_until(probes)
        return results


def _check(wl, outputs) -> list[str]:
    """Outputs must all equal the first, and the first must pass wl.check."""
    errors = [
        f"operation {k} output differs from operation 0 on the same inputs"
        for k, out in enumerate(outputs[1:], start=1)
        if out != outputs[0]
    ]
    return errors + wl.check(outputs[0])


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "neyman_bai" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC}/neyman_bai", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(expected one of {sorted(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    seconds = args.seconds or spec["run_seconds"]

    OUT.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, OUT)
    wl.write_inputs()
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        tracer = spans.Tracer()
        run = Run(wl, tracer)
        with spans.installed(tracer):
            # Leave room for one more operation at the other thread count.
            run.repeat(seconds, reserve=2)
            flip = run.op(1 if wl.threads == 2 else 2)
    else:
        run = Run(wl, None)
        setup = run.repeat(seconds, reserve=1,
                           probe=lambda: _setup_seconds(wl, args.seed), probes=SETUP_PROBES)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if not run.outputs:
        print("error: every operation failed", file=sys.stderr)
        return 1

    cells_per_s = statistics.median(wl.cells / w for w in run.walls)
    if args.trace:
        errors = _check(wl, run.outputs + ([flip[0]] if flip else []))
        per_op = [spans.layer_metrics(s) for s in run.spans]
        metrics = {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
        metrics["trace.cells_per_s"] = cells_per_s
        if flip:
            walls = (statistics.median(spans.replicate_wall(s) for s in run.spans),
                     spans.replicate_wall(flip[1]))
            one, two = walls if wl.threads == 1 else walls[::-1]
            metrics["engine.thread_speedup"] = one / two
            origin = min(s.start for s in run.spans[-1])
            spans.write_spans(OUT / f"trace-{tag}.json", run.spans[-1] + flip[1], origin)
    else:
        errors = _check(wl, run.outputs)
        metrics = {
            "setup_s": statistics.median(setup),
            "cells_per_s": cells_per_s,
            "cpu_s": statistics.median(run.cpus),
            "peak_rss_mb": peak_kib / 1024.0,
        }

    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        print(f"error: no value for {missing}", file=sys.stderr)
        return 1
    for e in errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    for name in wanted:
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    result = {
        "correct": not errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in wanted},
    }
    host = {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__}
    (OUT / f"result-{tag}.json").write_text(json.dumps({**result, "host": host}) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
