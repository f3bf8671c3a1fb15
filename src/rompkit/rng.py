"""Reproducible random streams.

Every random quantity in this package is drawn from a numpy ``Philox``
counter-based generator keyed by ``SeedSequence([seed, *path])``.  The path is
a tuple of small non-negative integers naming the consumer (stream tag, cell
parameters, trial index, ...), so independent streams can be derived without
ever sharing generator state.  Two processes that build the same
``(seed, path)`` get bit-identical draws regardless of execution order, which
is what makes sweep output deterministic under parallel or reordered trials.
"""

import numpy as np

from .linalg import as_integer

__all__ = ["substream", "derive_seed"]


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
