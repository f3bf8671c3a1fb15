import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rompkit.rng import _rekey, derive_seed, generate_states, substream


@pytest.mark.parametrize(
    "seed, path",
    [(1.7, (3,)), (1, (2.5,)), (np.float64(1.0), ()), ("1", (3,))],
    ids=["fractional-seed", "fractional-path", "numpy-float-seed", "string-seed"],
)
def test_streams_reject_non_integer_seed_and_path(seed, path):
    # Before, derive_seed(1.7, 3) == derive_seed(1, 3): the float was truncated.
    with pytest.raises(ValueError, match="must be an integer"):
        derive_seed(seed, *path)
    with pytest.raises(ValueError, match="must be an integer"):
        substream(seed, *path)
    with pytest.raises(ValueError, match="must be an integer"):
        generate_states([[seed, *path]], 1)


def test_streams_accept_numpy_integers():
    assert derive_seed(np.int64(1), np.uint8(3)) == derive_seed(1, 3)
    assert substream(np.int32(4), np.int64(2)).integers(1 << 30) == substream(4, 2).integers(1 << 30)
    assert generate_states([[np.int64(1), np.uint8(3)]], 1)[0, 0] == derive_seed(1, 3)


def test_streams_reject_negative_entries():
    with pytest.raises(ValueError, match="non-negative"):
        derive_seed(-1)
    with pytest.raises(ValueError, match="non-negative"):
        substream(1, -2)
    with pytest.raises(ValueError, match="non-negative"):
        generate_states([[1], [1, -2]], 1)


# Entries on each side of the 32- and 64-bit word boundaries, and past them.
ENTRIES = st.one_of(st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64]), st.integers(0, 2**100))


# numpy itself is the oracle, so this also catches a numpy whose
# SeedSequence no longer matches the batched hash.
@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.lists(ENTRIES, min_size=1, max_size=8), min_size=1, max_size=10), count=st.integers(1, 3))
@example(rows=[[0], [2**32 - 1], [2**32], [2**64 - 1]], count=2)
@example(rows=[[1, 1, 128, 8, 0], [2**32 + 1, 1, 128, 8, 19], [2**64 - 1] * 8, [5, 2]], count=1)
def test_generate_states_equals_seed_sequence(rows, count):
    got = generate_states(rows, count)
    assert got.dtype == np.uint64 and got.shape == (len(rows), count)
    for row, state in zip(rows, got):
        assert np.array_equal(state, np.random.SeedSequence(row).generate_state(count, np.uint64))


def test_generate_states_of_no_rows():
    assert generate_states([], 2).shape == (0, 2)


@settings(max_examples=50, deadline=None)
@given(seeds=st.lists(ENTRIES, min_size=1, max_size=4))
def test_rekeyed_generator_draws_as_substream(seeds):
    generator = np.random.Generator(np.random.Philox(0))
    for seed, key in zip(seeds, generate_states([[seed] for seed in seeds], 2)):
        # Leave a partly used output buffer and a held 32-bit half behind.
        generator.standard_normal(3)
        generator.integers(0, 7, size=3, dtype=np.int32)
        stream = substream(seed)
        _rekey(generator, key)
        for draw in (
            lambda g: g.choice(64, size=4, replace=False),
            lambda g: g.integers(0, 7, size=5, dtype=np.int32),
            lambda g: g.standard_normal(5),
            lambda g: g.permutation(9),
        ):
            assert np.array_equal(draw(generator), draw(stream))
