"""Random measurement-matrix ensembles and an empirical isometry probe.

Matrices are scaled so that columns have unit Euclidean norm in expectation
(unit up to roundoff for the trigonometric ensemble), which is what makes a
restricted isometry constant in (0, 1) attainable at all.

A partial-Fourier matrix is also available as an operator,
:class:`PartialFourier`, that applies Phi and Phi^T through FFTs and
gathers columns without ever storing the N x d array; ``_Dense`` gives
dense matrices the same calls, and ``_as_operator`` makes any Phi one of them.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .linalg import as_integer, as_matrix
from .rng import substream

__all__ = [
    "GAUSSIAN",
    "BERNOULLI",
    "PARTIAL_FOURIER_REAL",
    "ENSEMBLE_KINDS",
    "EnsembleSpec",
    "PartialFourier",
    "RicEstimate",
    "build_matrix",
    "partial_fourier",
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
    rows : number of measurements N, at least 1 (requires N <= cols)
    cols : ambient signal dimension d, at least 1
    seed : non-negative integer; same spec => bit-identical matrix

    ``rows``, ``cols`` and ``seed`` must be integers as ``operator.index``
    sees them (numpy integers pass); a float, even 32.0, raises
    ``ValueError`` rather than being truncated.
    """

    kind: str
    rows: int
    cols: int
    seed: int = 0

    def __post_init__(self):
        for name, minimum in (("rows", 1), ("cols", 1), ("seed", 0)):
            object.__setattr__(self, name, as_integer(getattr(self, name), name, minimum))
        if self.kind not in ENSEMBLE_KINDS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        if self.rows > self.cols:
            raise ValueError(f"rows ({self.rows}) must not exceed cols ({self.cols})")
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

    The trigonometric matrix is :meth:`PartialFourier.dense` of
    :func:`partial_fourier`, gathered from cosine and sine tables at the
    phase indices (f j) mod d, so no angle is rounded before its reduction.
    """
    matrix = _draw_matrix(spec, substream(spec.seed))
    return matrix.dense() if spec.kind == PARTIAL_FOURIER_REAL else matrix


def partial_fourier(spec):
    """The partial-Fourier operator of ``spec``, never stored as an N x d array.

    It holds the frequencies that :func:`build_matrix` draws for the same
    spec, so its :meth:`PartialFourier.dense` is that matrix byte for byte.
    """
    if spec.kind != PARTIAL_FOURIER_REAL:
        raise ValueError(f"{spec.kind} matrices have no partial-Fourier operator")
    return _draw_matrix(spec, substream(spec.seed))


def _draw_matrix(spec, rng):
    """``spec``'s matrix drawn from ``rng`` instead of ``spec.seed``'s stream: a
    :class:`PartialFourier` for the trigonometric kind, else the array."""
    n_rows, dim = spec.rows, spec.cols
    if spec.kind == PARTIAL_FOURIER_REAL:
        # spec validation guarantees enough frequencies
        available = np.arange(1, (dim - 1) // 2 + 1)
        return PartialFourier(np.sort(rng.choice(available, size=n_rows // 2, replace=False)), dim)
    if spec.kind == GAUSSIAN:
        return rng.standard_normal((n_rows, dim)) / np.sqrt(n_rows)
    signs = rng.integers(0, 2, size=(n_rows, dim)) * 2 - 1
    return signs / np.sqrt(n_rows)


class PartialFourier:
    """A real partial-Fourier Phi, or a stack of them, applied through FFTs.

    ``freqs`` holds the N/2 frequencies of one matrix (1-D), or one row of
    N/2 frequencies per lane of a stack of matrices (2-D).  Frequency f_k
    contributes rows 2k and 2k + 1, ``sqrt(2/N) cos(2 pi f_k j / d)`` and
    ``sqrt(2/N) sin(2 pi f_k j / d)`` for j < d, as in :func:`build_matrix`.
    Within a lane, frequencies increase strictly and lie in 1..(d-1)//2.

    A method given a block of vectors sends row i through lane i of a
    stack; one matrix serves every row.  ``correlate`` (Phi^T r) is one
    batched ``irfft`` and ``apply`` (Phi v) one ``rfft``; both match the
    dense products to roundoff, and each row of a batch is computed as it
    would be alone.  ``columns`` and ``dense`` gather entries from the
    same two phase tables, so a gathered column is bit-equal to the dense
    one.  A stack's ``lane_state`` is its frequencies.
    """

    def __init__(self, freqs, dim):
        dim = as_integer(dim, "dim", 1)
        f = np.asarray(freqs)
        if f.dtype.kind not in "iu" or f.ndim not in (1, 2) or not f.size:
            raise ValueError(f"freqs must be a nonempty 1-D or 2-D integer array, got {f.dtype} of shape {f.shape}")
        if not np.all(f[..., 1:] > f[..., :-1]):
            raise ValueError("frequencies must increase strictly within a lane")
        if f[..., 0].min() < 1 or f[..., -1].max() > (dim - 1) // 2:
            raise ValueError(f"frequencies must lie in 1..{(dim - 1) // 2} at dimension {dim}")
        self.freqs = f.astype(np.int64)
        self.lane_state = (self.freqs,) if f.ndim == 2 else ()
        self.dim = dim
        self.shape = (2 * f.shape[-1], dim)
        self._scale = np.sqrt(2.0 / self.shape[0])

    @functools.cached_property
    def _tables(self):
        # Cosine and sine on the d angles 2 pi m / d, already scaled, so each
        # entry is a table lookup at its phase index m = (f j) mod d.
        angles = 2.0 * np.pi * np.arange(self.dim) / self.dim
        return self._scale * np.cos(angles), self._scale * np.sin(angles)

    def _lane_freqs(self, rows, lo=0):
        """The frequencies that rows 0..rows-1 of a block go through: lanes lo.. of a stack."""
        if self.freqs.ndim == 1:
            return self.freqs
        if lo + rows > len(self.freqs):
            raise ValueError(f"{lo + rows} rows for a stack of {len(self.freqs)} lanes")
        return self.freqs[lo : lo + rows]

    def _rows(self, phase):
        """Interleaved cosine and sine rows (..., N, m) at phases f j (..., N/2, m).

        The phase is reduced mod d exactly in integer arithmetic (f j < d**2
        fits int64), so no angle is rounded before its reduction.
        """
        cos, sin = self._tables
        phase %= self.dim
        out = np.empty(phase.shape[:-2] + (self.shape[0], phase.shape[-1]))
        out[..., 0::2, :] = cos[phase]
        out[..., 1::2, :] = sin[phase]
        return out

    def correlate(self, residuals):
        """Phi^T r for each row r of the (rows, N) block ``residuals``: (rows, d).

        Row i's spectrum holds ``sqrt(2/N) (r_2k - i r_2k+1) / 2`` at its own
        frequency f_k and zeros elsewhere, and one ``irfft`` over the block,
        without the 1/d factor (``norm="forward"``), gives every row's sum of
        cosines and sines.
        """
        r = np.ascontiguousarray(residuals, dtype=np.float64)
        values = r.view(np.complex128).conj()
        values *= 0.5 * self._scale
        spectrum = np.zeros((len(r), self.dim // 2 + 1), dtype=np.complex128)
        spectrum[np.arange(len(r))[:, None], self._lane_freqs(len(r))] = values
        return np.fft.irfft(spectrum, self.dim, norm="forward")

    def apply(self, v):
        """Phi v for one vector of length d, or for each row of a (rows, d) block."""
        v = np.asarray(v, dtype=np.float64)
        block = v.reshape(-1, self.dim)
        spectrum = np.fft.rfft(block)
        picked = spectrum[np.arange(len(block))[:, None], self._lane_freqs(len(block))]
        # conj(X_f) = sum v_j cos + i sum v_j sin, so its float view is the
        # interleaved cosine and sine rows.
        return (picked.conj() * self._scale).view(np.float64).reshape(v.shape[:-1] + (self.shape[0],))

    def columns(self, index, lo=0):
        """Columns of Phi, bit-equal to the same entries of :meth:`dense`.

        ``index`` is (g, m): row i holds the m columns to gather from lane
        ``lo + i`` of a stack, or from the one matrix.  Returns the (g, N, m)
        array of those columns.  An index outside [-d, d) raises
        ``IndexError``, as it does on the dense matrix.
        """
        index = np.asarray(index, dtype=np.int64)
        if index.size and (index.min() < -self.dim or index.max() >= self.dim):
            raise IndexError(f"column index out of range for dimension {self.dim}")
        return self._rows(self._lane_freqs(len(index), lo)[..., None] * index[:, None, :])

    def dense(self):
        """The N x d matrix, or a lanes x N x d array for a stack.

        It equals :func:`build_matrix` for the spec the frequencies came
        from, byte for byte.  The recovery loop never needs it.
        """
        return self._rows(self.freqs[..., None] * np.arange(self.dim))

    def lanes(self, lo, hi):
        """Lanes lo..hi-1 of a stack, copied so the loop may permute them; one matrix is itself."""
        return PartialFourier(self.freqs[lo:hi], self.dim) if self.lane_state else self

    def underflows(self, lane):
        return False  # the first column holds sqrt(2/N)


class _Dense:
    """A dense Phi with :class:`PartialFourier`'s calls, held as a (lanes, N, d) stack.

    One N x d matrix is one lane for every row of a block; a stack sends row
    i through lane i, one BLAS call per lane with a lone matrix's strides.
    ``lanes`` hands out views of a stack, its ``lane_state``, which the loop
    permutes: only :func:`_as_operator` makes one, from its own copy.
    """

    def __init__(self, a):
        self._a = a if a.ndim == 3 else a[None]
        self.lane_state = (a,) if a.ndim == 3 else ()
        self.shape = a.shape[-2:]

    def _lane_stack(self, rows, lo=0):
        """The lanes that rows 0..rows-1 of a block go through: lanes lo.. of a stack, or the one lane."""
        return self._a[lo : lo + rows] if self.lane_state else self._a

    def correlate(self, residuals):
        return (self._lane_stack(len(residuals)).swapaxes(-1, -2) @ residuals[:, :, None])[:, :, 0]

    def apply(self, block):
        return (self._lane_stack(len(block)) @ block[:, :, None])[:, :, 0]

    def columns(self, index, lo=0):
        # Each lane's (N, m) block is column-major, as ``a[:, idx]`` lays it out.
        a_t = self._lane_stack(len(index), lo).swapaxes(-1, -2)
        return a_t[np.arange(len(a_t))[:, None], index].swapaxes(-1, -2)

    def lanes(self, lo, hi):
        return _Dense(self._a[lo:hi]) if self.lane_state else self

    def underflows(self, lane):
        return np.max(np.abs(self._lane_stack(1, lane))) < np.finfo(np.float64).tiny


def _as_operator(phi):
    """The loop's operator for a raw Phi, the one entry.  An operator passes as it is; a block's list of
    per-trial matrices is its one matrix's operator when every entry is that matrix, else one stack of
    their lanes, partial-Fourier or dense.  Each dense matrix is checked by :func:`as_matrix`."""
    if isinstance(phi, list) and phi and all(m is phi[0] for m in phi) and np.ndim(phi[0]) != 1:
        phi = phi[0]
    if isinstance(phi, (PartialFourier, _Dense)):
        return phi
    if isinstance(phi, list) and phi and all(isinstance(m, PartialFourier) and m.dim == phi[0].dim for m in phi):
        return PartialFourier(np.array([m.freqs for m in phi]), phi[0].dim)
    if isinstance(phi, list) and phi and np.ndim(phi[0]) == 2:
        return _Dense(np.stack([as_matrix(m) for m in phi]))
    return _Dense(as_matrix(phi))


def probe_ric(matrix, sparsity, samples, seed=0):
    """Probe how far ``matrix`` is from an isometry on sparse vectors.

    Draws ``samples`` random ``sparsity``-sparse unit vectors (uniform random
    support, spherically uniform coefficients) and records the extreme norm
    ratios.  Each sample uses its own substream ``(seed, sample_index)``, so
    enlarging ``samples`` keeps all earlier draws: the estimate is
    non-decreasing under nested sampling.  ``matrix`` must be a nonempty
    2-D array of finite entries, ``sparsity`` an integer in [1, d] and
    ``samples`` a positive integer (never a float), or ``ValueError`` is raised.
    """
    m = as_matrix(matrix)
    dim = m.shape[1]
    sparsity = as_integer(sparsity, "sparsity", 1)
    samples = as_integer(samples, "samples", 1)
    if sparsity > dim:
        raise ValueError(f"sparsity must be in [1, {dim}], got {sparsity}")
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
        sparsity=sparsity,
        lower=float(lower),
        upper=float(upper),
        epsilon_hat=float(max(1.0 - lower, upper - 1.0)),
        samples=samples,
    )
