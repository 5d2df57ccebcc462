"""The README documents the public API, and its Python examples run."""

import importlib
import re
from pathlib import Path

import pytest

import neyman_bai

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, re.M | re.S)

# Names that left the package namespace in 0.14.0, and the module each
# stays importable from.
INTERNAL = {
    "AllocationState": "neyman_bai.policies",
    "update": "neyman_bai.policies",
    "allocation_probability": "neyman_bai.policies",
    "policy_from_config": "neyman_bai.policies",
    "policy_to_config": "neyman_bai.policies",
    "best_arm": "neyman_bai.distributions",
}

# The first block's replication count, cut down for the test.
FULL_R, SMALL_R = "R=10_000", "R=200"


def test_all_is_sorted():
    assert neyman_bai.__all__ == sorted(neyman_bai.__all__)


@pytest.mark.parametrize("name", neyman_bai.__all__)
def test_public_name_is_documented_and_resolves(name):
    assert re.search(rf"\b{re.escape(name)}\b", README), name
    getattr(neyman_bai, name)


@pytest.mark.parametrize("name, module", sorted(INTERNAL.items()))
def test_internal_name_lives_in_its_module_only(name, module):
    assert name not in neyman_bai.__all__
    with pytest.raises(AttributeError):
        getattr(neyman_bai, name)
    getattr(importlib.import_module(module), name)


def test_readme_has_two_python_blocks():
    assert len(PYTHON_BLOCKS) == 2


@pytest.mark.parametrize("index", range(len(PYTHON_BLOCKS)))
def test_python_block_runs(index, capsys):
    code = PYTHON_BLOCKS[index]
    if index == 0:
        assert FULL_R in code
        code = code.replace(FULL_R, SMALL_R)
    exec(compile(code, f"README.md python block {index + 1}", "exec"), {})
    assert capsys.readouterr().out
