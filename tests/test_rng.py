"""Stream and determinism guarantees of the counter-based generators.

The pinned values freeze the (seed, stream) -> sequence mapping; the
whole reproducibility story (engine tables, CLI byte-identical reruns)
sits on top of these.
"""

import numpy as np
import pytest

from neyman_bai.rng import restart, spawn

PINNED_UNIFORMS_42_0 = [0.8201981478608876, 0.18924562408645496, 0.8676608148821462]
PINNED_NORMALS_42_0 = [0.3375714466967798, -0.7821534784435413, -0.3160252007782352]
PINNED_UNIFORMS_42_1 = [0.443746921343274, 0.8163920951010332, 0.5090261862073765]


def test_pinned_uniforms():
    np.testing.assert_array_equal(spawn(42, 0).random(3), PINNED_UNIFORMS_42_0)
    np.testing.assert_array_equal(spawn(42, 1).random(3), PINNED_UNIFORMS_42_1)


def test_pinned_normals():
    np.testing.assert_array_equal(spawn(42, 0).standard_normal(3), PINNED_NORMALS_42_0)


def test_spawn_is_reproducible():
    a = spawn(123, 7).random(100)
    b = spawn(123, 7).random(100)
    np.testing.assert_array_equal(a, b)


def test_streams_are_distinct():
    base = spawn(42, 0).random(50)
    for stream in (1, 2, 3, 1000, 2**40):
        other = spawn(42, stream).random(50)
        assert not np.array_equal(base, other)


def test_seeds_are_distinct():
    assert not np.array_equal(spawn(1, 0).random(50), spawn(2, 0).random(50))


def test_batch_equals_sequential_scalar_draws():
    """One generator yields the same numbers whether asked one at a time
    or in a block; the engine's table construction relies on this."""
    batch_u = spawn(99, 3).random(16)
    gen = spawn(99, 3)
    np.testing.assert_array_equal([gen.random() for _ in range(16)], batch_u)

    batch_n = spawn(99, 3).standard_normal(16)
    gen = spawn(99, 3)
    np.testing.assert_array_equal([gen.standard_normal() for _ in range(16)], batch_n)


def test_large_seed_and_stream_are_masked_consistently():
    big = 2**64 + 5
    np.testing.assert_array_equal(spawn(big, 0).random(4), spawn(5, 0).random(4))
    np.testing.assert_array_equal(spawn(0, big).random(4), spawn(0, 5).random(4))


@pytest.mark.parametrize(
    "draw",
    [
        lambda g: g.standard_normal(9),
        lambda g: g.random(9),
        lambda g: g.integers(0, 2**32, size=9, dtype=np.uint32),
    ],
    ids=["normals", "uniforms", "uint32"],
)
def test_restart_matches_fresh_spawn(draw):
    gen = spawn(1, 0)
    gen.standard_normal(5)
    # An odd number of 32-bit draws leaves half a 64-bit word cached.
    gen.integers(0, 2**32, size=3, dtype=np.uint32)
    assert gen.bit_generator.state["has_uint32"] == 1
    restart(gen, 42, 9)
    np.testing.assert_array_equal(draw(gen), draw(spawn(42, 9)))


def test_restart_masks_like_spawn():
    gen = spawn(1, 0)
    restart(gen, 2**64 + 5, 2**64 + 3)
    np.testing.assert_array_equal(gen.random(4), spawn(5, 3).random(4))
