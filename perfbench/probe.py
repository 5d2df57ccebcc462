"""Set-up probe: one fresh process run up to its first simulated round.

Usage: python3 perfbench/probe.py WORKLOAD SEED WORKDIR

Builds the workload's operation as run.py does and starts it with
neyman_bai.engine.spawn replaced by a stub. The first spawn call opens the
first replication's streams, i.e. the first simulated round; the stub
writes time.monotonic() to standard output and ends the process at once,
from whichever thread it runs on. run.py subtracts the monotonic time at
which it started this process.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> None:
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    wl = workloads.WORKLOADS[name](seed, workdir)

    from neyman_bai import engine

    def first_round(*args, **kwargs):
        os.write(1, f"{time.monotonic()!r}\n".encode())
        os._exit(0)

    engine.spawn = first_round
    wl.operation(wl.threads)
    sys.exit("probe: the operation ended without drawing a random stream")


if __name__ == "__main__":
    main()
