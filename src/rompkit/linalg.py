"""Input validation and the least-squares refit step with its rank rule.

The recovery loop keeps its own QR factor ``A = Q R`` of the selected
columns; :func:`least_squares` takes ``R`` and ``Q^T x``, applies the rank
rule to the diagonal of ``R`` and back-substitutes.  Nothing here factors.

Matrices are 2-D float64 numpy arrays (row-major) and vectors are 1-D
float64 arrays.  Everything here is a pure function; nothing mutates its
inputs.
"""

import numpy as np

__all__ = [
    "RankDeficiencyError",
    "as_matrix",
    "as_vector",
    "least_squares",
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


def as_matrix(m):
    """Coerce to a 2-D float64 array, rejecting NaN/Inf entries."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def as_vector(v):
    """Coerce to a 1-D float64 array, rejecting NaN/Inf entries."""
    a = np.asarray(v, dtype=np.float64)
    if a.ndim != 1 or a.shape[0] < 1:
        raise ValueError(f"expected a 1-D vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("vector entries must be finite")
    return a


def least_squares(r, qtx):
    """Minimize ``||x - A @ y||_2`` by solving ``R y = Q^T x``, where A = QR.

    Raises :class:`RankDeficiencyError` (carrying the detected numerical
    rank) when the smallest diagonal magnitude of R drops below
    ``RANK_CUTOFF_RATIO`` times the largest, or when R (like A) has more
    columns than rows, and ``ValueError`` on non-finite entries.
    """
    r = as_matrix(r)
    qtx = as_vector(qtx)
    if qtx.shape[0] != r.shape[0]:
        raise ValueError(f"dimension mismatch: R has {r.shape[0]} rows, Q^T x has length {qtx.shape[0]}")
    diag = np.abs(np.diagonal(r))
    dmax = float(diag.max())
    rank = int(np.count_nonzero(diag >= RANK_CUTOFF_RATIO * dmax)) if dmax > 0.0 else 0
    if rank < r.shape[1]:
        raise RankDeficiencyError(rank, r.shape)
    # R is upper triangular with a nonzero diagonal, so LU with partial
    # pivoting swaps no rows and leaves U = R: this is a back-substitution.
    return np.linalg.solve(r, qtx)
