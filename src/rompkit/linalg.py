"""Input validation and the least-squares refit used by the recovery loop.

Matrices are 2-D float64 numpy arrays (row-major) and vectors are 1-D
float64 arrays.  Everything here is a pure function; nothing mutates its
inputs.
"""

import numpy as np
import scipy.linalg

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


def least_squares(a, x):
    """Minimize ``||x - A @ y||_2`` for a full-column-rank overdetermined A.

    Householder QR without column pivoting.  The residual of a successful
    solve is orthogonal to the columns of ``A`` up to roundoff.  Raises
    :class:`RankDeficiencyError` (carrying the detected numerical rank) when
    the smallest diagonal magnitude of R drops below ``RANK_CUTOFF_RATIO``
    times the largest, or when A has more columns than rows.
    """
    a = as_matrix(a)
    x = as_vector(x)
    if x.shape[0] != a.shape[0]:
        raise ValueError(f"dimension mismatch: matrix has {a.shape[0]} rows, vector has length {x.shape[0]}")
    q, r = np.linalg.qr(a, mode="reduced")
    diag = np.abs(np.diagonal(r))
    dmax = float(diag.max()) if diag.size else 0.0
    rank = int(np.count_nonzero(diag >= RANK_CUTOFF_RATIO * dmax)) if dmax > 0.0 else 0
    if rank < a.shape[1]:
        raise RankDeficiencyError(rank, a.shape)
    return scipy.linalg.solve_triangular(r, q.T @ x, lower=False)
