"""Test-signal generators, additive Gaussian noise, and m-term truncation."""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_integer
from .rng import substream

__all__ = [
    "FLAT_SPARSE",
    "GAUSSIAN_SPARSE",
    "POWER_LAW",
    "SIGNAL_KINDS",
    "NOISE_TARGETS",
    "SignalSpec",
    "NoiseSpec",
    "generate_signal",
    "best_m_term",
    "add_noise",
]

FLAT_SPARSE = "flat-sparse"
GAUSSIAN_SPARSE = "gaussian-sparse"
POWER_LAW = "power-law"
SIGNAL_KINDS = (FLAT_SPARSE, GAUSSIAN_SPARSE, POWER_LAW)

NOISE_TARGETS = ("measurement", "signal")


@dataclass(frozen=True)
class SignalSpec:
    """Description of one test signal.

    Sparse kinds use ``sparsity`` (number of nonzeros); the power-law kind
    uses ``exponent`` p > 1 and a finite ``scale`` > 0 so the k-th largest
    magnitude is scale * k**-p; a field of the other kind raises ``ValueError``.
    ``dim``, ``sparsity`` and ``seed`` are checked and stored as ints by
    :func:`rompkit.linalg.as_integer`.
    """

    kind: str
    dim: int
    sparsity: int | None = None
    exponent: float | None = None
    scale: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in SIGNAL_KINDS:
            raise ValueError(f"unknown signal kind {self.kind!r}")
        object.__setattr__(self, "dim", as_integer(self.dim, "dim", 1))
        object.__setattr__(self, "seed", as_integer(self.seed, "seed", 0))
        sparse = self.kind in (FLAT_SPARSE, GAUSSIAN_SPARSE)
        for name in ("exponent", "scale") if sparse else ("sparsity",):
            if getattr(self, name) is not None:
                raise ValueError(f"{self.kind} signals take no {name}, got {getattr(self, name)!r}")
        if sparse:
            object.__setattr__(self, "sparsity", as_integer(self.sparsity, "sparsity", 1))
            if self.sparsity > self.dim:
                raise ValueError(f"sparsity must be in [1, {self.dim}] for {self.kind} signals")
        else:
            # Negated comparisons, so NaN fails them.
            if self.exponent is None or not self.exponent > 1.0:
                raise ValueError("power-law exponent must exceed 1")
            if self.scale is None or not 0.0 < self.scale < math.inf:
                raise ValueError("power-law scale must be finite and positive")


@dataclass(frozen=True)
class NoiseSpec:
    """Additive i.i.d. Gaussian noise: target vector kind, per-entry sigma, integer seed."""

    target: str
    sigma: float
    seed: int = 0

    def __post_init__(self):
        if self.target not in NOISE_TARGETS:
            raise ValueError(f"noise target must be one of {NOISE_TARGETS}, got {self.target!r}")
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ValueError("sigma must be finite and non-negative")
        object.__setattr__(self, "seed", as_integer(self.seed, "seed", 0))


def generate_signal(spec):
    """Realize ``spec`` into a vector and its support index set.

    flat-sparse     : ``sparsity`` uniformly chosen positions set to one
    gaussian-sparse : ``sparsity`` positions filled with standard normals
    power-law       : k-th largest magnitude is scale * k**-p, signs and
                      coordinate placement random; every entry is nonzero,
                      so the support is the whole index range
    """
    return _draw_signal(spec, substream(spec.seed))


def _draw_signal(spec, rng):
    """:func:`generate_signal`'s draw from ``rng`` instead of ``spec.seed``'s stream."""
    signal = np.zeros(spec.dim)
    if spec.kind != POWER_LAW:
        support = np.sort(rng.choice(spec.dim, size=spec.sparsity, replace=False))
        signal[support] = 1.0 if spec.kind == FLAT_SPARSE else rng.standard_normal(spec.sparsity)
        return signal, support.astype(np.int64)
    placement = rng.permutation(spec.dim)
    signs = rng.integers(0, 2, size=spec.dim) * 2 - 1
    magnitudes = spec.scale * np.arange(1, spec.dim + 1, dtype=np.float64) ** (-spec.exponent)
    signal[placement] = signs * magnitudes
    return signal, np.arange(spec.dim, dtype=np.int64)


def best_m_term(vec, m):
    """Keep the ``m`` largest-magnitude entries of ``vec``, zero the rest.

    Ties are broken toward lower indices.  ``m`` is a non-negative integer
    (a float, even 2.0, raises ``ValueError``); ``m = 0`` gives the zero
    vector and ``m >= len(vec)`` a copy of ``vec``.
    """
    m = as_integer(m, "m", 0)
    w = np.asarray(vec, dtype=np.float64)
    if m >= w.shape[0]:
        return w.copy()
    out = np.zeros_like(w)
    if m == 0:
        return out
    keep = np.argsort(-np.abs(w), kind="stable")[:m]
    out[keep] = w[keep]
    return out


def add_noise(target, spec):
    """Add i.i.d. normal(0, sigma^2) noise to ``target``.

    Returns ``(perturbed, noise)`` so callers can report the realized noise
    norm.  Deterministic given ``spec.seed``.
    """
    base = np.asarray(target, dtype=np.float64)
    rng = substream(spec.seed)
    noise = spec.sigma * rng.standard_normal(base.shape[0])
    return base + noise, noise
