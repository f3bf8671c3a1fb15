"""Random measurement-matrix ensembles and an empirical isometry probe.

Matrices are scaled so that columns have unit Euclidean norm in expectation
(unit up to roundoff for the trigonometric ensemble), which is what makes a
restricted isometry constant in (0, 1) attainable at all.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix
from .rng import substream

__all__ = [
    "GAUSSIAN",
    "BERNOULLI",
    "PARTIAL_FOURIER_REAL",
    "ENSEMBLE_KINDS",
    "EnsembleSpec",
    "RicEstimate",
    "build_matrix",
    "probe_ric",
]

GAUSSIAN = "gaussian"
BERNOULLI = "bernoulli"
PARTIAL_FOURIER_REAL = "partial-fourier-real"
ENSEMBLE_KINDS = (GAUSSIAN, BERNOULLI, PARTIAL_FOURIER_REAL)


@dataclass(frozen=True)
class EnsembleSpec:
    """Recipe for one random measurement matrix.

    kind : one of ``ENSEMBLE_KINDS``
    rows : number of measurements N (requires N <= cols)
    cols : ambient signal dimension d
    seed : non-negative integer; same spec => bit-identical matrix
    """

    kind: str
    rows: int
    cols: int
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ENSEMBLE_KINDS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        if self.rows < 1 or self.cols < 1:
            raise ValueError("rows and cols must be positive")
        if self.rows > self.cols:
            raise ValueError(f"rows ({self.rows}) must not exceed cols ({self.cols})")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.kind == PARTIAL_FOURIER_REAL:
            if self.rows % 2 != 0:
                raise ValueError("partial-fourier-real needs an even number of rows (cosine/sine pairs)")
            if self.rows // 2 > (self.cols - 1) // 2:
                raise ValueError(
                    f"partial-fourier-real with {self.rows} rows needs {self.rows // 2} distinct "
                    f"frequencies but only {(self.cols - 1) // 2} are available at dimension {self.cols}"
                )


@dataclass(frozen=True)
class RicEstimate:
    """Monte-Carlo lower bound on a restricted isometry constant.

    ``lower``/``upper`` are the extreme observed ratios ||M v||_2 / ||v||_2
    over random ``sparsity``-sparse probe vectors, and ``epsilon_hat`` is
    ``max(1 - lower, upper - 1)``.  Sampling is uniform, not adversarial, so
    this only ever under-estimates the true constant.
    """

    sparsity: int
    lower: float
    upper: float
    epsilon_hat: float
    samples: int


def build_matrix(spec):
    """Realize the measurement matrix described by ``spec``.

    gaussian             : i.i.d. normal entries, mean 0, variance 1/N
    bernoulli            : entries +-1/sqrt(N), each sign with probability 1/2
    partial-fourier-real : N/2 frequencies drawn without replacement from
                           {1, ..., (d-1)//2}; each contributes a cosine row
                           and a sine row on d sample points, scaled by
                           sqrt(2/N) so every column has unit norm up to
                           roundoff

    The trigonometric entries depend only on the phase index
    m = (f j) mod d, which is reduced exactly in integer arithmetic.  Cosine
    and sine are evaluated once on the d angles 2 pi m / d, already scaled by
    sqrt(2/N), and the rows are gathered from those two tables.  So no angle
    is rounded before its reduction, and the build makes 2 d cosine and sine
    evaluations instead of N d.
    """
    rng = substream(spec.seed)
    n_rows, dim = spec.rows, spec.cols
    if spec.kind == GAUSSIAN:
        return rng.standard_normal((n_rows, dim)) / np.sqrt(n_rows)
    if spec.kind == BERNOULLI:
        signs = rng.integers(0, 2, size=(n_rows, dim)) * 2 - 1
        return signs / np.sqrt(n_rows)
    # partial-fourier-real; spec validation guarantees enough frequencies
    n_pairs = n_rows // 2
    available = np.arange(1, (dim - 1) // 2 + 1)
    freqs = np.sort(rng.choice(available, size=n_pairs, replace=False))
    grid = np.arange(dim)
    # phase[k, j] = (f_k * j) mod d, exact in int64 since f_k * j < d**2.
    # Subtracting the floor quotient is about twice as fast as numpy's %.
    phase = np.outer(freqs, grid)
    phase -= phase // dim * dim
    angles = 2.0 * np.pi * grid / dim
    scale = np.sqrt(2.0 / n_rows)
    matrix = np.empty((n_rows, dim))
    matrix[0::2] = (scale * np.cos(angles))[phase]
    matrix[1::2] = (scale * np.sin(angles))[phase]
    return matrix


def probe_ric(matrix, sparsity, samples, seed=0):
    """Probe how far ``matrix`` is from an isometry on sparse vectors.

    Draws ``samples`` random ``sparsity``-sparse unit vectors (uniform random
    support, spherically uniform coefficients) and records the extreme norm
    ratios.  Each sample uses its own substream ``(seed, sample_index)``, so
    enlarging ``samples`` keeps all earlier draws: the estimate is
    non-decreasing under nested sampling.  ``matrix`` must be a nonempty
    2-D array of finite entries, or ``ValueError`` is raised.
    """
    m = as_matrix(matrix)
    dim = m.shape[1]
    if not 1 <= sparsity <= dim:
        raise ValueError(f"sparsity must be in [1, {dim}], got {sparsity}")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    lower = np.inf
    upper = 0.0
    for i in range(samples):
        rng = substream(seed, i)
        support = rng.choice(dim, size=sparsity, replace=False)
        coeffs = rng.standard_normal(sparsity)
        if not np.any(coeffs):  # astronomically unlikely; keep the draw count fixed
            coeffs = np.ones(sparsity)
        probe = np.zeros(dim)
        probe[support] = coeffs
        # same-length norms keep the ratio bit-exact for exact isometries
        ratio = np.linalg.norm(m @ probe) / np.linalg.norm(probe)
        lower = min(lower, ratio)
        upper = max(upper, ratio)
    return RicEstimate(
        sparsity=int(sparsity),
        lower=float(lower),
        upper=float(upper),
        epsilon_hat=float(max(1.0 - lower, upper - 1.0)),
        samples=int(samples),
    )
