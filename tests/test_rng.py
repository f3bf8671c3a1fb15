import numpy as np
import pytest

from rompkit.rng import derive_seed, substream


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


def test_streams_accept_numpy_integers():
    assert derive_seed(np.int64(1), np.uint8(3)) == derive_seed(1, 3)
    assert substream(np.int32(4), np.int64(2)).integers(1 << 30) == substream(4, 2).integers(1 << 30)


def test_streams_reject_negative_entries():
    with pytest.raises(ValueError, match="non-negative"):
        derive_seed(-1)
    with pytest.raises(ValueError, match="non-negative"):
        substream(1, -2)
