"""Input validation, run once where an input enters, and the loop's refit step.

The recovery loop keeps its own QR factor ``A = Q R`` of the selected
columns; its refit ``least_squares`` (not public) takes ``R`` and ``Q^T x``,
re-checks only finiteness and the rank rule on diag R, and back-substitutes.

Matrices are 2-D float64 numpy arrays (row-major) and vectors are 1-D
float64 arrays, both made by one conversion rule, which rejects an entry
that is NaN, Inf or not a real number.  Nothing here mutates its inputs.
"""

import operator

import numpy as np

__all__ = [
    "RankDeficiencyError",
    "as_integer",
    "as_matrix",
    "as_vector",
]

# A least-squares system counts as numerically rank-deficient when the
# smallest |R[i,i]| of its QR factor falls below this ratio times the largest.
RANK_CUTOFF_RATIO = 1e-10


class RankDeficiencyError(ValueError):
    """Least-squares matrix is numerically rank-deficient.

    Carries the detected numerical rank and, when raised from inside a
    recovery run, the index set that produced the offending column submatrix.
    """

    def __init__(self, numerical_rank, shape, support=None):
        self.numerical_rank = int(numerical_rank)
        self.shape = tuple(shape)
        self.support = support
        msg = (
            f"{self.shape[0]}x{self.shape[1]} least-squares matrix has "
            f"numerical rank {self.numerical_rank}"
        )
        if support is not None:
            msg += f" on index set of size {len(support)}"
        super().__init__(msg)


def as_integer(value, name, minimum):
    """``value`` as a Python int, or ``ValueError`` naming ``name``.

    Anything ``operator.index`` accepts passes, numpy integers included;
    a float does not, even an integral one, so it is never truncated.  It
    is the package's one count and seed check: ``minimum`` is 1 for sizes,
    counts and sparsities and 0 for seeds and stream-path entries.
    """
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < minimum:
        bound = "non-negative" if minimum == 0 else f"at least {minimum}"
        raise ValueError(f"{name} must be {bound}, got {value}")
    return value


def _as_array(value, ndim, kind):
    a = np.asarray(value)
    # Checked before the cast, which would keep only the real part.
    if a.dtype.kind == "c":
        raise ValueError(f"{kind} entries must be real numbers, got {a.dtype}")
    try:
        a = a.astype(np.float64, copy=False)
    except TypeError as exc:
        raise ValueError(f"{kind} entries must be real numbers: {exc}") from None
    if a.ndim != ndim or 0 in a.shape:
        raise ValueError(f"expected a {ndim}-D {kind}, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{kind} entries must be finite")
    return a


def as_matrix(m):
    """Coerce to a 2-D float64 array, rejecting NaN/Inf and non-numeric entries."""
    return _as_array(m, 2, "matrix")


def as_vector(v):
    """Coerce to a 1-D float64 array, rejecting NaN/Inf and non-numeric entries."""
    return _as_array(v, 1, "vector")


def least_squares(r, qtx):
    """The loop's refit: ``y`` minimizing ``||x - A y||_2`` from ``R y = Q^T x``, A = QR.

    Not public.  It checks no type or shape, since it trusts the loop's own
    factors: ``r`` is a float64 upper-triangular array (the loop's k x k R)
    and ``qtx`` a float64 vector of its row count (the first k of Q^T x).
    A non-finite entry (a column norm past the float range) raises
    ``ValueError``; then :class:`RankDeficiencyError`, with the numerical
    rank, when the smallest ``|R[i,i]|`` is below ``RANK_CUTOFF_RATIO``
    times the largest or when R (like A) has more columns than rows.
    """
    if not (np.isfinite(r).all() and np.isfinite(qtx).all()):
        raise ValueError("least-squares entries must be finite")
    diag = np.abs(np.diagonal(r))
    dmax = float(diag.max())
    rank = int(np.count_nonzero(diag >= RANK_CUTOFF_RATIO * dmax)) if dmax > 0.0 else 0
    if rank < r.shape[1]:
        raise RankDeficiencyError(rank, r.shape)
    # R is upper triangular with a nonzero diagonal, so LU with partial
    # pivoting swaps no rows and leaves U = R: this is a back-substitution.
    return np.linalg.solve(r, qtx)
