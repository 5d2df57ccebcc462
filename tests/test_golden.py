"""Golden CLI outputs: each data subcommand reproduces stored output byte for byte.

Every `golden/<name>.config.json` runs as
`neyman-bai <command> --config golden/<name>.config.json --format F`, where
<command> is <name> up to its first underscore; standard output must equal
`golden/<name>.csv` resp. `golden/<name>.json`. The stored files pin the
current results. Regenerate them only for an intended change of output, with
`PYTHONPATH=src python tests/test_golden.py`.
"""

import contextlib
import io
from pathlib import Path

import pytest

from neyman_bai.cli import main

GOLDEN = Path(__file__).parent / "golden"
CONFIGS = sorted(GOLDEN.glob("*.config.json"))
FORMATS = ("csv", "json")


def _name(config: Path) -> str:
    return config.name.removesuffix(".config.json")


def _run(config: Path, fmt: str) -> bytes:
    argv = [_name(config).split("_", 1)[0], "--config", str(config), "--format", fmt]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code == 0, f"neyman-bai {' '.join(argv)} exited {code}"
    return out.getvalue().encode("utf-8")


def test_every_subcommand_has_a_golden():
    assert {_name(c).split("_", 1)[0] for c in CONFIGS} == {
        "run", "sweep", "consistency", "bounds",
    }


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("config", CONFIGS, ids=_name)
def test_output_matches_golden(config, fmt):
    assert _run(config, fmt) == (GOLDEN / f"{_name(config)}.{fmt}").read_bytes()


if __name__ == "__main__":
    for config in CONFIGS:
        for fmt in FORMATS:
            (GOLDEN / f"{_name(config)}.{fmt}").write_bytes(_run(config, fmt))
