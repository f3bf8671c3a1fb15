"""Reproducible random streams.

Every random quantity in this package is drawn from a numpy ``Philox``
counter-based generator keyed by ``SeedSequence([seed, *path])``.  The path is
a tuple of small non-negative integers naming the consumer (stream tag, cell
parameters, trial index, ...), so independent streams can be derived without
ever sharing generator state.  Two processes that build the same
``(seed, path)`` get bit-identical draws regardless of execution order, which
is what makes sweep output deterministic under parallel or reordered trials.

A sweep cell derives its trials' seeds and Philox keys, and a fresh-matrix
cell its matrices' seeds and keys, in batched passes of
:func:`generate_states`, bit for bit numpy's ``SeedSequence`` (as
``tests/test_rng.py`` checks), and restarts one Philox at each key.
"""

import numpy as np

from .linalg import as_integer

__all__ = ["substream", "derive_seed", "generate_states"]

# numpy.random.SeedSequence's pool of four 32-bit words.  _PAIRS numbers the
# hash that mixes pool word [src] into word [dst]; the diagonal's is discarded.
_MASK32 = 0xFFFFFFFF
_POOL = 4
_SRC, _DST = np.indices((_POOL, _POOL))
_PAIRS = _POOL + (_POOL - 1) * _SRC + _DST - (_DST > _SRC)


def _entropy(seed, path):
    return [as_integer(seed, "seed", 0)] + [as_integer(p, "stream path component", 0) for p in path]


def substream(seed, *path):
    """Return a ``numpy.random.Generator`` for the stream ``(seed, *path)``.

    ``seed`` and all path components must be non-negative integers;
    anything else raises ``ValueError``.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(_entropy(seed, path))))


def derive_seed(seed, *path):
    """Derive a child integer seed from ``(seed, *path)``.

    Used where a config object wants to carry a plain integer seed (e.g. the
    per-trial seed recorded in a sweep CSV) rather than a generator.
    """
    return int(np.random.SeedSequence(_entropy(seed, path)).generate_state(1, np.uint64)[0])


def _chain(init, mult, count):
    """``init * mult**i`` mod 2**32 for i in [0, count], as uint32."""
    return np.multiply.accumulate(np.array([init] + [mult] * count, dtype=np.uint32), dtype=np.uint32)


def _hashmix(values, chain, hashes):
    """SeedSequence's hashes number ``hashes`` of ``values``: xor constant i, times constant i + 1."""
    values = values ^ chain[hashes]
    values *= chain[hashes + 1]
    values ^= values >> 16
    return values


def _mix(pool, hashed):
    out = pool * 0xCA01F9DD
    out -= hashed * 0x4973F715
    out ^= out >> 16
    return out


def generate_states(rows, count):
    """``SeedSequence(row).generate_state(count, np.uint64)`` of each row, as one array.

    Rows of non-negative integers of any size may differ in word count; any
    other entry raises ``ValueError``.  Row ``[seed, *path]`` with count 1
    gives ``derive_seed(seed, *path)``, ``[seed]`` with 2 ``substream(seed)``'s key.
    """
    flat, lengths = [], []
    for row in rows:
        start = len(flat)
        for value in row:
            # Its 32-bit words, low first (one word for 0), as numpy splits it.
            value = as_integer(value, "seed entry", 0)
            flat.append(value & _MASK32)
            while value > _MASK32:
                value >>= 32
                flat.append(value & _MASK32)
        lengths.append(len(flat) - start)
    width = max([_POOL, *lengths])
    lengths = np.array(lengths, dtype=np.int64)[:, None]
    # Zero-padded: a row shorter than the pool hashes zeros, as numpy's does.
    entropy = np.zeros((len(rows), width), dtype=np.uint32)
    entropy[np.arange(width) < lengths] = flat
    chain = _chain(0x43B0D7E5, 0x931E8875, _POOL * width + 1)
    pool = _hashmix(entropy[:, :_POOL], chain, np.arange(_POOL))
    for src in range(_POOL):
        # Every other pool word takes in a hash of this one, which stays.
        kept = pool[:, src]
        pool = _mix(pool, _hashmix(pool[:, src, None], chain, _PAIRS[src]))
        pool[:, src] = kept
    for src in range(_POOL, width):
        # Entropy past the pool mixes into every pool word, on the rows that have it.
        mixed = _mix(pool, _hashmix(entropy[:, src, None], chain, _POOL * src + np.arange(_POOL)))
        pool = np.where(lengths > src, mixed, pool)
    hashes = np.arange(2 * count)
    state = _hashmix(pool[:, hashes % _POOL], _chain(0x8B51F9DD, 0x58F38DED, 2 * count), hashes)
    # Pairs of 32-bit words read as little-endian 64-bit words, as numpy's do.
    return state.astype("<u4", order="C").view("<u8").astype(np.uint64)


def _rekey(generator, key):
    """Restart ``generator``'s Philox at ``key`` with counter 0 and empty buffers, as built."""
    generator.bit_generator.state = {
        "bit_generator": "Philox", "state": {"counter": [0] * 4, "key": key},
        "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return generator
