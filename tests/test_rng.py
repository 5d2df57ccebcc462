"""Stream and determinism guarantees of the counter-based generators.

The pinned values freeze the (seed, stream) -> sequence mapping; the
whole reproducibility story (engine tables, CLI byte-identical reruns)
sits on top of these.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neyman_bai.rng import restarter, spawn

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


@pytest.mark.parametrize("word", [-1, 2**64, 2**64 + 5])
def test_key_words_outside_64_bits_are_rejected(word):
    """Neither word wraps onto another key: spawn(2**64 + 5) is not spawn(5)."""
    with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\^64\)"):
        spawn(word, 0)
    with pytest.raises(ValueError, match=r"stream must lie in \[0, 2\^64\)"):
        spawn(0, word)
    spawn(2**64 - 1, 2**64 - 1)  # the largest words are keys


# The engine's normals and uniforms, and uint32 draws, which can leave half
# a 64-bit word cached.
DRAWS = {
    "normals": lambda g, n: g.standard_normal(n),
    "uniforms": lambda g, n: g.random(n),
    "uint32": lambda g, n: g.integers(0, 2**32, size=n, dtype=np.uint32),
}


@pytest.mark.parametrize("draw", DRAWS.values(), ids=DRAWS.keys())
def test_rekey_matches_fresh_spawn(draw):
    gen = spawn(1, 0)
    gen.standard_normal(5)
    # An odd number of 32-bit draws leaves half a 64-bit word cached.
    gen.integers(0, 2**32, size=3, dtype=np.uint32)
    assert gen.bit_generator.state["has_uint32"] == 1
    restarter(gen, 42)(9)
    np.testing.assert_array_equal(draw(gen, 9), draw(spawn(42, 9), 9))


@pytest.mark.parametrize("seed, stream", [(2**64 + 5, 3), (5, 2**64 + 3), (-1, 3), (5, -1)])
def test_rekey_rejects_key_words_outside_64_bits(seed, stream):
    with pytest.raises(OverflowError):
        restarter(spawn(1, 0), seed)(stream)


WORDS = st.integers(0, 2**64 - 1)
# One earlier step: a draw of some kind and length, or a re-key to a stream.
STEPS = st.one_of(
    st.tuples(st.sampled_from(sorted(DRAWS)), st.integers(0, 9)),
    st.tuples(st.just("rekey"), WORDS),
)


@settings(max_examples=200)
@given(
    start=st.tuples(WORDS, WORDS), seed=WORDS, stream=WORDS, earlier=st.lists(STEPS, max_size=5)
)
def test_rekeyed_generator_draws_what_spawn_draws(start, seed, stream, earlier):
    gen = spawn(*start)
    rekey = restarter(gen, seed)
    for kind, arg in earlier:
        if kind == "rekey":
            rekey(arg)
        else:
            DRAWS[kind](gen, arg)
    rekey(stream)
    fresh = spawn(seed, stream)
    for kind in ("uint32", "normals", "uniforms", "uint32"):
        np.testing.assert_array_equal(DRAWS[kind](gen, 3), DRAWS[kind](fresh, 3))
