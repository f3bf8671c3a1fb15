"""Input validation, run once where an input enters, and the loop's refit step.

The recovery loop keeps its own QR factor ``A = Q R`` of the selected
columns.  Once per iteration ``refit_errors`` (not public) checks the
stacked factors of all its trials at once, for finiteness and the rank rule
on diag R; each trial that passes then refits with ``least_squares`` (not
public), a bare back-substitution in ``R y = Q^T x`` through the LAPACK
gufunc under numpy's ``solve``, without that function's per-call wrapper.

Matrices are 2-D float64 numpy arrays (row-major) and vectors are 1-D
float64 arrays, both made by one conversion rule, which rejects an entry
that is NaN, Inf or not a real number.  Nothing here mutates its inputs.
"""

import operator

import numpy as np
from numpy.linalg import _umath_linalg

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


def refit_errors(r, z, order, sizes, rows):
    """The refit's two rules over a block of lanes: ``{lane: error}`` for each lane that breaks one.

    Not public, and it checks no type or shape, since it trusts the loop's
    own factors.  ``r`` is a (b, c, c) stack of upper-triangular R, ``z`` the
    (b, c) stack of ``Q^T x`` and ``order`` the (b, c) selected column
    indices.  Lane i holds the k = ``sizes[i]`` columns of its N x k matrix,
    N = ``rows``, and its ``r`` and ``z`` are zero past them.  A lane with a
    non-finite entry (a column norm past the float range) gets
    ``ValueError``; a lane whose smallest ``|R[i,i]|`` over its own columns
    is below ``RANK_CUTOFF_RATIO`` times its largest, or whose largest is 0,
    gets :class:`RankDeficiencyError` with its numerical rank, its (N, k)
    shape and its sorted support.  A lane that holds no columns has nothing
    to refit and is not checked.
    """
    k = max(sizes)
    if not k:
        return {}
    r, z = r[:, :k, :k], z[:, :k]
    diag = np.abs(r.diagonal(0, 1, 2))
    top = np.maximum.reduce(diag, axis=1).tolist()
    # A lane's zeros past its own columns must not count as its smallest.
    own = diag if min(sizes) == k else np.where(np.arange(k) < np.array(sizes)[:, None], diag, np.inf)
    low = np.minimum.reduce(own, axis=1).tolist()
    # A few lanes' comparisons cost less as Python floats than as array calls.
    failing = {lane for lane, (least, most) in enumerate(zip(low, top)) if least < RANK_CUTOFF_RATIO * most or not most}
    if np.isfinite(r).all() and np.isfinite(z).all() and not failing:
        return {}
    finite = (np.isfinite(r).all(axis=(1, 2)) & np.isfinite(z).all(axis=1)).tolist()
    errors = {}
    for lane, size in enumerate(sizes):
        if not finite[lane]:
            errors[lane] = ValueError("least-squares entries must be finite")
        elif lane in failing and size:
            cutoff = RANK_CUTOFF_RATIO * top[lane]
            rank = int(np.count_nonzero(diag[lane, :size] >= cutoff)) if top[lane] > 0.0 else 0
            errors[lane] = RankDeficiencyError(rank, (rows, size), support=np.sort(order[lane, :size]))
    return errors


def least_squares(r, qtx):
    """The loop's refit: ``y`` minimizing ``||x - A y||_2`` from ``R y = Q^T x``, A = QR.

    Not public.  It checks nothing: ``r`` is the loop's k x k upper-triangular
    R and ``qtx`` the first k of Q^T x, both of a lane that passed
    :func:`refit_errors`.

    It calls ``solve1``, the LAPACK ``dgesv`` gufunc that ``numpy.linalg``'s
    ``solve`` dispatches to for a 1-D right-hand side, on the same float64
    arrays, so every coefficient is bit-identical to ``solve``'s.  The wrapper
    steps it skips cost most of a small call and cannot act on the loop's
    inputs: the conversions, the square-stack check, the type promotion and
    the final cast and wrap (``r`` and ``qtx`` are already float64, square
    and contiguous in their last axis), and the ``errstate`` that turns a
    singular matrix into ``LinAlgError`` (``refit_errors`` has passed the
    lane, so ``dgesv`` never reports a singular R).  The gufunc clears the
    floating-point flags LAPACK leaves, so a coefficient that overflows is
    inf with no warning, as from ``solve``.  ``_umath_linalg`` is
    private to numpy, but ``numpy.linalg`` itself imports it, so a numpy
    without it fails at import, not mid-sweep.
    """
    # R is upper triangular with a nonzero diagonal, so LU with partial
    # pivoting swaps no rows and leaves U = R: this is a back-substitution.
    return _umath_linalg.solve1(r, qtx, signature="dd->d")
