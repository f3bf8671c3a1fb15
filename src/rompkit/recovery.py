"""Greedy sparse recovery: ROMP and an orthogonal-matching-pursuit baseline.

Both algorithms recover an approximately sparse vector from measurements
``x = Phi @ v + e`` with one loop: correlate the residual against all
columns, select new indices, and refit least squares on every column
selected so far.  Only the selection rule differs.  ROMP takes the ``n``
largest correlations and keeps a whole batch of comparable ones (the
regularization step); OMP picks one coordinate at a time.

The refit never refactors the selected columns: the loop keeps a QR factor
of them and extends it by the newly selected block each iteration, so an
iteration costs one correlation, work proportional to the new columns and
a back-substitution in the small triangular system ``R y = Q^T x``, which
calls LAPACK through numpy's gufunc with none of ``solve``'s per-call
wrapper (:func:`rompkit.linalg.least_squares`).

:func:`recover_block` runs the loop in lockstep over many measurement
vectors, and the single-vector entry points are blocks of one.  Phi is
one matrix for every vector or a stack with its own lane per vector, dense
or a :class:`rompkit.ensembles.PartialFourier` operator that is never
built; every raw Phi becomes the loop's operator through one entry in
:mod:`rompkit.ensembles`.  Each result is bit-identical to a lone recovery.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .ensembles import _as_operator
from .linalg import as_integer, as_matrix, as_vector, least_squares, refit_errors

__all__ = [
    "ALGORITHMS",
    "LOCKSTEP_BYTES",
    "MAX_ITERATIONS",
    "SUPPORT_BUDGET",
    "ZERO_OBSERVATION",
    "ZERO_RESIDUAL",
    "IterationState",
    "RecoveryResult",
    "identify",
    "regularize",
    "romp_recover",
    "omp_recover",
    "recover_block",
    "lockstep_width",
    "energy_floor",
    "verify_iteration_invariants",
]

MAX_ITERATIONS = "max-iterations"
SUPPORT_BUDGET = "support-budget"
ZERO_OBSERVATION = "zero-observation"
ZERO_RESIDUAL = "zero-residual"

# Guaranteed fraction of candidate energy retained by regularization; the
# log is clamped at 1 so the threshold stays finite at sparsity 1.
REGULARIZATION_ENERGY_FACTOR = 2.5
ORTHOGONALITY_TOL = 1e-8
# Relative stopping tolerance: iteration stops once the residual norm falls
# below ``RESIDUAL_TOL * ||x||_2`` (termination ``zero-residual``).
RESIDUAL_TOL = 1e-10
_SMALLEST_SUBNORMAL = np.nextafter(0.0, 1.0)
ALGORITHMS = ("romp", "omp")
# Byte budget of one lockstep block's per-trial state, mostly the stacked QR
# factors; see lockstep_width.
LOCKSTEP_BYTES = 1 << 20


@dataclass
class IterationState:
    """Snapshot of one iteration, taken after the least-squares update.

    ``correlation`` is the observation vector Phi^T r from the start of the
    iteration, zeroed on the support selected before it: exactly the vector
    selection was based on.  ``residual`` and ``coefficients`` reflect the
    state after the update.  ``coefficients`` is embedded in R^d.
    """

    support: np.ndarray
    candidates: np.ndarray
    selected: np.ndarray
    correlation: np.ndarray
    residual: np.ndarray
    coefficients: np.ndarray


@dataclass
class RecoveryResult:
    estimate: np.ndarray
    support: np.ndarray
    iterations: int
    termination: str
    trace: list = field(default_factory=list)


def identify(observation, sparsity):
    """Indices of the up-to-``sparsity`` largest nonzero magnitudes.

    Returns all nonzero coordinates when there are fewer than ``sparsity`` of
    them, and an empty index set exactly when the observation is zero.  Ties
    break toward lower indices.  The indices come back sorted.

    A 2-D ``observation`` holds one observation per row and gives the
    ``(rows, indices)`` pairs of all rows' selections in ``np.nonzero``
    order, so each row selects what it would alone.  Any other shape, and a
    float ``sparsity`` (even 2.0) or one below 1, raises ``ValueError``.
    """
    sparsity = as_integer(sparsity, "sparsity", 1)
    magnitudes = np.abs(np.asarray(observation, dtype=np.float64))
    if magnitudes.ndim not in (1, 2):
        raise ValueError(f"observation must be 1-D or 2-D, got shape {magnitudes.shape}")
    block = magnitudes if magnitudes.ndim == 2 else magnitudes.reshape(1, -1)
    if sparsity == 1:
        # argmax returns the first of equal maxima, the same tie-break.
        top = block.argmax(axis=1)
        rows = np.maximum.reduce(block, axis=1).nonzero()[0]
        selection = rows, top if rows.size == top.size else top[rows]
    else:
        # cut is each row's sparsity-th largest magnitude, or its smallest
        # when sparsity reaches d: everything above it is in, and the
        # lowest-index ties at cut fill the remaining slots.  A zero cut means
        # fewer than ``sparsity`` nonzeros, all of which are in (the smallest
        # subnormal stands in for it, so ``>=`` skips zeros).
        pivot = max(block.shape[1] - sparsity, 0)
        cut = np.partition(block, pivot, axis=1)[:, pivot : pivot + 1]
        keep = block >= np.maximum(cut, _SMALLEST_SUBNORMAL)
        # A row with a positive cut keeps at least ``sparsity`` entries, more
        # exactly when ties at cut outnumber the free slots; then only the
        # first ties stay.  Rows with a zero cut keep fewer, so with one of
        # those about the total count proves nothing and every row is fixed.
        if np.count_nonzero(keep) > sparsity * len(block) or np.count_nonzero(cut) < len(block):
            ties = block == cut
            room = sparsity - np.add.reduce(block > cut, axis=1, keepdims=True)
            keep &= ~ties | (np.cumsum(ties, axis=1) <= room)
        selection = keep.nonzero()
    return selection if magnitudes.ndim == 2 else selection[1]


def regularize(observation, candidates):
    """Max-energy subset of ``candidates`` with pairwise comparable magnitudes.

    Comparable means every pair satisfies |u(i)| <= 2 |u(j)|.  Sorting the
    candidate magnitudes in decreasing order, any comparable subset sits
    inside a contiguous window whose first entry is at most twice its last,
    and widening such a window only adds energy, so the best maximal window
    is the exact optimum.  Each maximal window's energy is a difference of
    one prefix sum of the squared magnitudes, and the first maximum wins:
    the earliest start, never a window nested in an earlier one.  So the
    first window wins outright when it reaches the smallest magnitude, and
    no energies are computed then, nor when the largest magnitude is
    infinite (an overflowed Phi^T r): the first window holds every infinite
    entry, and ``inf - inf`` would make the energies NaN.
    """
    u = np.asarray(observation, dtype=np.float64)
    idx = np.asarray(candidates, dtype=np.int64)
    if idx.size == 0:
        raise ValueError("candidate set must be nonempty")
    magnitudes = np.abs(u[idx])
    keep = magnitudes > 0.0
    if not keep.any():
        raise ValueError("observation is zero on the candidate set")
    idx = idx[keep]
    magnitudes = magnitudes[keep]
    # descending magnitude, ties toward lower index
    order = (-magnitudes).argsort(kind="stable")
    # Scale by a power of two so the largest magnitude lies in [1/2, 1):
    # window energies can then neither overflow nor all underflow to zero,
    # and the scaling is exact, so it never changes which window wins.
    top = float(magnitudes[order[0]])
    sorted_mags = np.ldexp(magnitudes[order], -math.frexp(top)[1])
    # The window at start lo ends before the first entry j with
    # sorted_mags[lo] > 2 sorted_mags[j]; doubling and negating are exact, so
    # this bound compares the same values as the pairwise test.
    ends = (-2.0 * sorted_mags).searchsorted(-sorted_mags, side="right")
    start = 0
    if ends[0] < ends.size and top < math.inf:
        energy = np.zeros(ends.size + 1)
        np.add.accumulate(sorted_mags * sorted_mags, out=energy[1:])
        start = (energy[ends] - energy[:-1]).argmax()
    chosen = idx[order[start : ends[start]]]
    chosen.sort()
    return chosen


def _capacity(algo, rows, sparsity):
    # OMP's support grows by one per iteration, to at most n.  ROMP's stays
    # below 2n before a selection of at most n.  Neither exceeds the N rows.
    return min(rows, sparsity if algo == "omp" else 3 * sparsity)


def lockstep_width(algo, rows, dim, sparsity):
    """How many trials one lockstep block recovers at once (at least one).

    A trial's lane holds its QR factor (``capacity x (N + capacity)``
    floats) and a few vectors of length N and d; ``LOCKSTEP_BYTES`` bounds
    the lanes of one block together.  Its 1 MiB comes from a scan of 256 KiB
    to 2 MiB on both sweep benchmarks, recorded in ``BENCH_pr26.json``:
    wider blocks ran the fresh partial-Fourier sweep faster, and 2 MiB
    raised the shared Gaussian sweep's peak memory twice as much as 1 MiB.
    """
    capacity = _capacity(algo, rows, sparsity)
    lane_bytes = 8 * (capacity * (rows + capacity) + 4 * (rows + dim))
    return max(1, LOCKSTEP_BYTES // lane_bytes)


def _extend(columns, qt, r, z, x, k):
    """Append ``columns`` to the QR factors of a group of g lanes.

    The group is a contiguous run of lanes that each hold k columns and add
    m; for m > 1 one stacked ``np.linalg.qr`` serves them all.  ``columns`` is
    (g, N, m), ``qt``, ``r`` and ``z`` are the group's lanes of the stacked
    factors and ``x`` its (g, N, 1) measurements.  ``columns`` is
    overwritten.  A stacked product is one BLAS call per lane, of the shape
    and strides a lone lane's product has.
    """
    m = columns.shape[-1]
    end = k + m
    # Block classical Gram-Schmidt, applied twice so the new columns are
    # orthogonal to Q to working precision; then factor the block itself.
    if k:
        basis = qt[..., :k, :]
        basis_t = basis.swapaxes(-1, -2)
        coupling = basis @ columns
        columns -= basis_t @ coupling
        correction = basis @ columns
        columns -= basis_t @ correction
        r[..., :k, k:end] = coupling + correction
    if m > 1:
        q, r[..., k:end, k:end] = np.linalg.qr(columns)
        q_t = q.swapaxes(-1, -2)
        qt[..., k:end, :] = q_t
        z[..., k:end] = (q_t @ x)[..., 0]
        return
    # One column's factor is its norm; np.linalg.qr would cost more in call
    # overhead than the rest of a small iteration.  A zero norm is left for
    # the refit's rank rule to report.  Outside [2**-500, 2**500] the
    # squares may have over- or underflowed (the caller ignores both), so
    # those lanes retake the norm on the column scaled exactly by a power of
    # two, keeping the recovery equivariant under Phi -> 2**k Phi; a norm
    # past the float range becomes inf for the refit's finite check.
    row = columns.swapaxes(-1, -2)
    norm = divisor = np.sqrt(row @ columns)
    norms = norm.ravel().tolist()  # cheaper than an array test on a few lanes
    if min(norms) < 2.0**-500 or max(norms) > 2.0**500:
        odd = (norm < 2.0**-500) | (norm > 2.0**500)
        shift = np.frexp(np.maximum.reduce(np.abs(row), axis=-1, keepdims=True))[1]
        scaled = np.ldexp(row, -shift)
        norm = np.where(odd, np.ldexp(np.sqrt(scaled @ scaled.swapaxes(-1, -2)), shift), norm)
        divisor = np.where(norm == 0.0, 1.0, norm)  # a zero column stays zero
    r[..., k, k : k + 1] = norm[..., 0]
    q = qt[..., k : k + 1, :]
    np.divide(row, divisor, out=q)
    np.matmul(q, x, out=z[..., None, k : k + 1])


def _pursue(algo, phi, measurements, sparsity, trace):
    """The greedy loop shared by ROMP and OMP, run in lockstep over a block.

    ``measurements`` holds one measurement vector per row, one trial each,
    and ``phi`` is an operator from :mod:`rompkit.ensembles`, of one matrix
    or a stack with one lane per row.  The loop touches Phi in three places
    only: the correlation, the column gather and the underflow test.
    Returns one entry per row, in order: that trial's RecoveryResult, or the
    RankDeficiencyError or ValueError that ended it, which leaves the other
    trials untouched.

    Each trial's selected columns are kept as ``Phi[:, order[:k]] = Q R``
    with ``Q`` orthonormal (stored as the rows of ``Q^T``) and ``R`` upper
    triangular, in selection order, plus ``z = Q^T x``.  The least-squares
    residual is then ``x - Q z`` and the coefficients solve the k x k
    triangular system ``R y = z``; this block QR is the only factorization a
    recovery makes.

    A trial's state sits in one lane of stacked arrays.  The active trials
    fill lanes ``[0, b)``: a finished trial's lane takes over the last active
    one, so stacked steps run on the leading ``b`` lanes.  Correlation and
    selection are stacked, and ``identify``'s picks are split by lane; ROMP
    then regularizes each lane's picks.  Selection only selects: it drops a
    batch that would take the support past N rows and decides no end.  Both
    algorithms then extend and take their residuals by one rule, a group of
    g lanes ``[lo, hi)`` at a time: each contiguous run of lanes that hold k
    columns and add m is one group, and a run that adds none (stopped lanes)
    is skipped.  OMP lanes all hold ``iterations`` columns and add one, so
    they form a single run; ROMP lanes whose supports and batches have equal
    sizes share one.  A stack's ``lane_state`` moves with the rest when a
    lane is refilled, so ``phi`` is the block's own.  Every stacked product
    is one BLAS call per lane with the shapes and strides a lone trial's
    product has, a stacked QR factors each lane as a lone call does, and a
    batched FFT transforms each row as it would alone, so a trial's result
    does not depend on the block it runs in.  ``regularize`` and the
    back-substitution ``least_squares`` (the LAPACK gufunc under numpy's
    ``solve``, called with a lane's 2-D R) run once per trial per iteration;
    the refit's checks run once per iteration over the stacked factors of
    all lanes (``refit_errors``), which are zero past each lane's columns.

    Every end is decided in one pass over the lanes, last to first.  A lane
    with an empty selection ends on the previous iteration's fit and count:
    ``support-budget`` if ``identify`` picked for it, else
    ``zero-observation`` or the underflow ``ValueError``.  Any other lane
    ends with the error its factor got from the refit's checks: the finite
    check's ``ValueError``, or a :class:`RankDeficiencyError` with the
    ``(N, k)`` shape and sorted support.  Otherwise it refits, traces, then
    ends with a ``ValueError`` if its trace overflows at the input scale, or
    at an end test: zero residual, 2n columns, n iterations.  A residual that
    vanishes with N columns held ends as ``support-budget``, not
    ``zero-residual``: N columns span R^N and fit any x.  An ended lane is
    refilled at once from lane b - 1, which the pass has handled.
    """
    rows, dim = phi.shape
    width = len(measurements)
    capacity = _capacity(algo, rows, sparsity)
    # Work on x scaled by a power of two so that max|x| lies in [1/2, 1):
    # norms and regularization energies cannot overflow at any finite input
    # scale, and the scaling is exact, so ordinary inputs give bit-identical
    # results.  frexp(0) has exponent 0, which leaves a zero x untouched.
    exponents = np.frexp(np.maximum.reduce(np.abs(measurements), axis=1, keepdims=True))[1]
    x = np.ldexp(measurements, -exponents)
    floor = RESIDUAL_TOL * np.sqrt(x[:, None, :] @ x[:, :, None])

    residual = x.copy()
    qt = np.empty((width, capacity, rows))
    r = np.zeros((width, capacity, capacity))
    z = np.zeros((width, capacity))
    order = np.empty((width, capacity), dtype=np.int64)
    coeffs = np.empty((width, capacity))
    taken = np.zeros((width, dim), dtype=bool)
    size = [0] * width
    trial = list(range(width))
    lane_state = (x, floor, exponents, residual, r, z, order, coeffs, taken, size, trial) + phi.lane_state
    states = [[] for _ in range(width)] if trace else None
    out = [None] * width
    # Lane numbers: bounds[:b] indexes the active lanes, and searching
    # bounds[:b + 1] in identify's row indices splits its picks by lane.
    bounds = np.arange(width + 1)
    omp = algo == "omp"
    b = width
    iterations = 0

    def embedded(lane):
        """The lane's coefficients in R^d, scaled back to the measurements (inf past the float range)."""
        k = size[lane]
        coefficients = np.zeros(dim)
        coefficients[order[lane, :k]] = coeffs[lane, :k]
        return np.ldexp(coefficients, exponents[lane, 0])

    while b:
        correlation = phi.correlate(residual[:b])
        # In exact arithmetic the correlation vanishes on the selected set;
        # zero it explicitly so roundoff dust can never be re-selected.  That
        # also keeps every selection disjoint from the support.
        correlation[taken[:b]] = 0.0
        found, picked = identify(correlation, 1 if omp else sparsity)
        edges = found.searchsorted(bounds[: b + 1]).tolist()
        selected = []
        for lane in range(b):
            chosen = picked[edges[lane] : edges[lane + 1]]
            if chosen.size and not omp:
                chosen = regularize(correlation[lane], chosen)
            # More columns than rows can never be refit: the batch is dropped.
            selected.append(chosen[:0] if size[lane] + chosen.size > rows else chosen)

        # Extension, residuals and the end pass ignore over- and underflow: a
        # one-column norm out of range is retaken scaled, and a Phi far below
        # the measurements' scale overflows the coefficients (in solve, or back
        # at the input scale, as a traced Phi^T r can), ending only that trial
        # with ValueError.  An overflowing correlation above still warns.
        with np.errstate(over="ignore", under="ignore"):
            # Contiguous runs of lanes that hold k columns and add m extend
            # together; a run that adds none is one of stopped lanes.
            lo = 0
            for hi in range(1, b + 1):
                if hi < b and size[hi] == size[lo] and len(selected[hi]) == len(selected[lo]):
                    continue
                k, m = size[lo], len(selected[lo])
                if m:
                    end = k + m
                    chosen = np.concatenate(selected[lo:hi]).reshape(hi - lo, m)
                    _extend(phi.columns(chosen, lo), qt[lo:hi], r[lo:hi], z[lo:hi], x[lo:hi, :, None], k)
                    order[lo:hi, k:end] = chosen
                    taken[bounds[lo:hi, None], chosen] = True
                    size[lo:hi] = [end] * (hi - lo)
                    np.subtract(x[lo:hi, None], z[lo:hi, None, :end] @ qt[lo:hi, :end], out=residual[lo:hi, None])
                lo = hi
            iterations += 1
            failed = refit_errors(r[:b], z[:b], order[:b], size[:b], rows)
            active = residual[:b]
            vanished = (np.sqrt(active[:, None, :] @ active[:, :, None]) <= floor[:b]).ravel().tolist()
            # Last lane first, so an ended lane is refilled from one already handled.
            for lane in range(b - 1, -1, -1):
                k = size[lane]
                stopped = not len(selected[lane])
                end = None
                if stopped:
                    # identify's picks were dropped at N rows, or it found none.  A nonzero residual
                    # whose correlation underflowed to zero is numerical, not x orthogonal to Phi.
                    end = SUPPORT_BUDGET if edges[lane] < edges[lane + 1] else ZERO_OBSERVATION
                    if end == ZERO_OBSERVATION and residual[lane].any() and phi.underflows(lane):
                        end = ValueError("correlation underflows to zero: matrix entries too small")
                else:
                    end = failed.get(lane)
                    if end is None:
                        coeffs[lane, :k] = least_squares(r[lane, :k, :k], z[lane, :k])
                if end is None and trace:
                    u, res = (np.ldexp(v[lane], exponents[lane, 0]) for v in (correlation, residual))
                    if np.isinf(u).any() or np.isinf(res).any():
                        end = ValueError(f"trace of iteration {iterations - 1} overflows at the input scale")
                    states[trial[lane]].append(
                        IterationState(
                            support=np.sort(order[lane, :k]),
                            candidates=picked[edges[lane] : edges[lane + 1]].copy(),
                            selected=selected[lane].copy(),
                            correlation=u,
                            residual=res,
                            coefficients=embedded(lane),
                        )
                    )
                if end is None:
                    if vanished[lane]:
                        # N columns span R^N, so their residual vanishes whatever x is: that is the
                        # N-row budget, not a recovery.
                        end = ZERO_RESIDUAL if k < rows else SUPPORT_BUDGET
                    elif k >= 2 * sparsity:
                        end = SUPPORT_BUDGET
                    elif iterations >= sparsity:
                        end = MAX_ITERATIONS
                    else:
                        continue
                if not isinstance(end, Exception):
                    estimate = embedded(lane)
                    if np.isfinite(estimate).all():
                        end = RecoveryResult(
                            estimate=estimate,
                            support=np.sort(order[lane, :k]),
                            # A trial stopped before its extension ends on the last iteration's fit.
                            iterations=iterations - stopped,
                            termination=end,
                            trace=states[trial[lane]] if trace else [],
                        )
                    else:
                        end = ValueError(
                            "least-squares coefficients overflow: matrix entries too small for the measurements"
                        )
                out[trial[lane]] = end
                b -= 1
                if lane != b:
                    for state in lane_state:
                        state[lane] = state[b]
                    qt[lane, : size[lane]] = qt[b, : size[lane]]
    return out


def recover_block(algo, matrix, measurements, sparsity, trace=False):
    """Recover every row of ``measurements`` through ``matrix``, in lockstep.

    ``algo`` is ``"romp"`` or ``"omp"``.  ``matrix`` is one Phi for every
    row, dense or a :class:`rompkit.ensembles.PartialFourier`, or a stack
    with one lane per row, row i measured through lane i: a stacked
    operator, or a list of per-row dense matrices or operators.  Returns
    one entry per row, in order: the row's RecoveryResult, or the
    RankDeficiencyError or ValueError its recovery raised (other rows are
    unaffected).  Each entry is bit-identical to what :func:`romp_recover`
    / :func:`omp_recover` returns or raises for that row alone, through its
    own Phi.  The ensembles entry makes Phi an operator, and each block of
    :func:`lockstep_width` rows is recovered through its ``lanes``.

    This is the one place recovery inputs are checked, once per call: an
    unknown ``algo``, a non-finite or misshapen Phi or block, a list of
    dense matrices of unequal shapes, a stack whose lane count is not the
    row count, a row length other than N, and a ``sparsity`` that is not an
    integer (as ``operator.index`` sees it), is below 1 or exceeds d / 3
    all raise ``ValueError`` before any trial runs.
    """
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algo!r}")
    x = as_matrix(measurements)
    phi = _as_operator(matrix)
    if phi.lane_state and len(phi.lane_state[0]) != len(x):
        raise ValueError(f"a stack of {len(phi.lane_state[0])} lanes for {len(x)} measurement vectors")
    rows, dim = phi.shape
    if x.shape[1] != rows:
        raise ValueError(f"dimension mismatch: matrix has {rows} rows, measurements have length {x.shape[1]}")
    sparsity = as_integer(sparsity, "sparsity", 1)
    if 3 * sparsity > dim:
        raise ValueError(f"sparsity {sparsity} too large: need 3*sparsity <= {dim} columns")
    width = lockstep_width(algo, rows, dim, sparsity)
    out = []
    for lo in range(0, len(x), width):
        out += _pursue(algo, phi.lanes(lo, lo + width), x[lo : lo + width], sparsity, trace)
    return out


def _recover(algo, matrix, measurements, sparsity, trace):
    (result,) = recover_block(algo, matrix, as_vector(measurements)[None], sparsity, trace)
    if isinstance(result, Exception):
        raise result
    return result


def romp_recover(matrix, measurements, sparsity, trace=False):
    """Regularized orthogonal matching pursuit.

    Parameters
    ----------
    matrix : (N, d) array or :class:`rompkit.ensembles.PartialFourier`
        Measurement matrix; needs d >= 3 * sparsity.  An operator must be
        one matrix, not a stack of several.
    measurements : (N,) array
        Observed vector ``Phi @ v + e``.
    sparsity : int
        Target sparsity level n; also the per-iteration candidate budget.
        Anything ``operator.index`` accepts; a float, even 3.0, is rejected.
    trace : bool, optional
        Record an :class:`IterationState` per iteration in ``result.trace``.
        A trace past the float range at the input scale raises ``ValueError``.

    The call checks that ``measurements`` is one vector and runs
    :func:`recover_block` on it as a block of one row, which checks the
    rest.

    Runs at most ``sparsity`` iterations, stopping early once the selected
    index set reaches ``2 * sparsity`` indices, the observation vector
    vanishes, or the residual norm drops below ``RESIDUAL_TOL * ||x||_2``.
    It also stops, with termination ``support-budget``, when the next
    selection would take the support past N, the number of rows: the result
    is then the previous iteration's fit.  A residual that vanishes once the
    support holds N columns ends as ``support-budget`` too, with that
    iteration's fit: N columns span R^N, so they fit any x, and
    ``zero-residual`` is kept for a fit from fewer columns than rows.
    Each iteration correlates the residual against all columns, keeps the
    largest ``sparsity`` nonzero coordinates, reduces them to the
    maximal-energy comparable subset, and refits least squares on everything
    selected so far.  The refit extends a QR factor of the selected columns
    by the new ones (block Gram-Schmidt with one reorthogonalization pass)
    instead of refactoring them all, then back-substitutes in ``R y = Q^T x``
    with :func:`rompkit.linalg.least_squares`.  The estimate is the final
    least-squares solution, zero-padded to R^d.

    Raises :class:`RankDeficiencyError` (with the offending index set
    attached) when the selected columns, never more than N of them, are
    numerically dependent (the ``RANK_CUTOFF_RATIO`` rule that the refit's
    checks apply to the diagonal of ``R``),
    which at sane sparsity levels signals a measurement matrix far from the
    isometry regime the algorithm expects.  Raises ``ValueError`` on
    non-finite or misshapen input or a non-integer ``sparsity``, and when a
    selected column's norm or a least-squares coefficient falls outside the
    float range.  Also raises ``ValueError`` when Phi lies below the normal
    float range and its correlation with a nonzero residual underflows to
    zero; with a normal-range Phi, a zero correlation ends the run with
    ``zero-observation``.
    """
    return _recover("romp", matrix, measurements, sparsity, trace)


def omp_recover(matrix, measurements, sparsity, trace=False):
    """Plain orthogonal matching pursuit baseline.

    Same contract as :func:`romp_recover` but each iteration selects exactly
    one coordinate, the largest correlation magnitude, for ``sparsity``
    iterations; the ``2 * sparsity`` support budget is never reached, and
    the N-row stop only when ``sparsity`` exceeds N.
    """
    return _recover("omp", matrix, measurements, sparsity, trace)


def energy_floor(sparsity):
    """Guaranteed ratio ||u|_selected|| / ||u|_candidates|| of regularization."""
    return 1.0 / (REGULARIZATION_ENERGY_FACTOR * math.sqrt(max(math.log(sparsity), 1.0)))


def verify_iteration_invariants(matrix, measurements, sparsity, result):
    """Check every per-iteration invariant on a traced recovery run.

    ``matrix`` is a dense Phi or one PartialFourier matrix, made an operator
    by the ensembles entry (a non-finite Phi raises ``ValueError``), whose
    ``correlate`` the orthogonality check uses.  Returns one human-readable
    string per broken rule and iteration (empty when clean): the iteration
    budget n, the support budget 3n, no estimate mass off the support, and
    per iteration a finite correlation, residual and coefficient vector, at
    most n candidates, a nonempty comparable selection inside them and
    disjoint from the previous support, holding ``energy_floor(n)`` of their
    correlation energy, a support that is exactly the previous one plus the
    selection, and a residual orthogonal to the support's columns.
    """
    phi = _as_operator(matrix)
    tolerance = ORTHOGONALITY_TOL * np.linalg.norm(np.asarray(measurements, dtype=np.float64))
    floor = energy_floor(sparsity)
    violations = []
    if result.iterations > sparsity:
        violations.append(f"iterations {result.iterations} exceed budget {sparsity}")
    if result.support.size > 3 * sparsity:
        violations.append(f"support size {result.support.size} exceeds 3n = {3 * sparsity}")
    nonzero = np.flatnonzero(result.estimate)
    if np.setdiff1d(nonzero, result.support).size:
        violations.append("estimate has mass outside the reported support")
    previous = np.empty(0, dtype=np.int64)
    for k, state in enumerate(result.trace):
        u = state.correlation
        if not (np.isfinite(u).all() and np.isfinite(state.residual).all() and np.isfinite(state.coefficients).all()):
            violations.append(f"iter {k}: non-finite trace entry")
        if state.candidates.size > sparsity:
            violations.append(f"iter {k}: candidate set larger than {sparsity}")
        if np.setdiff1d(state.selected, state.candidates).size:
            violations.append(f"iter {k}: selected set not contained in candidates")
        if np.intersect1d(state.selected, previous).size:
            violations.append(f"iter {k}: selected set intersects previous support")
        mags = np.abs(u[state.selected])
        if state.selected.size == 0:
            violations.append(f"iter {k}: empty selection")
        elif mags.max() > 2.0 * mags.min():
            violations.append(f"iter {k}: selected magnitudes not comparable")
        cand_norm = np.linalg.norm(u[state.candidates])
        sel_norm = np.linalg.norm(u[state.selected])
        if sel_norm < floor * cand_norm:
            violations.append(f"iter {k}: energy floor violated ({sel_norm:.3e} < {floor:.3e} * {cand_norm:.3e})")
        if not np.array_equal(state.support, np.union1d(previous, state.selected)):
            violations.append(f"iter {k}: support is not the previous support plus the selected set")
        # An empty support has no column to check (its empty selection is reported).
        worst = np.abs(phi.correlate(state.residual[None])[0])[state.support].max(initial=0.0)
        if worst > tolerance:
            violations.append(
                f"iter {k}: residual not orthogonal to selected columns ({worst:.3e} > {tolerance:.3e})"
            )
        previous = state.support
    return violations
