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
a back-substitution in the small triangular system ``R y = Q^T x``.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    RankDeficiencyError,
    as_matrix,
    as_vector,
    least_squares,
)

__all__ = [
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
    """
    if sparsity < 1:
        raise ValueError("sparsity must be at least 1")
    magnitudes = np.abs(np.asarray(observation, dtype=np.float64))
    if sparsity == 1:
        # argmax returns the first of equal maxima, the same tie-break.
        top = np.argmax(magnitudes)
        return np.flatnonzero(magnitudes[top : top + 1]) + top
    # cut is the sparsity-th largest magnitude: everything above it is in, and
    # the lowest-index ties at cut fill the remaining slots.  A zero cut means
    # fewer than ``sparsity`` nonzeros, all of which are in.
    cut = 0.0
    if sparsity < magnitudes.size:
        cut = np.partition(magnitudes, magnitudes.size - sparsity)[magnitudes.size - sparsity]
    keep = magnitudes > cut
    if cut > 0.0:
        ties = np.flatnonzero(magnitudes == cut)
        keep[ties[: sparsity - np.count_nonzero(keep)]] = True
    return np.flatnonzero(keep)


def regularize(observation, candidates):
    """Max-energy subset of ``candidates`` with pairwise comparable magnitudes.

    Comparable means every pair satisfies |u(i)| <= 2 |u(j)|.  Sorting the
    candidate magnitudes in decreasing order, any comparable subset sits
    inside a contiguous window whose first entry is at most twice its last,
    and widening such a window only adds energy, so scanning the maximal
    window at each start position finds the exact optimum.  Starts whose
    maximal windows share an end nest, so only the first of them is scored.
    """
    u = np.asarray(observation, dtype=np.float64)
    idx = np.asarray(candidates, dtype=np.int64)
    if idx.size == 0:
        raise ValueError("candidate set must be nonempty")
    magnitudes = np.abs(u[idx])
    keep = magnitudes > 0.0
    if not np.any(keep):
        raise ValueError("observation is zero on the candidate set")
    idx = idx[keep]
    magnitudes = magnitudes[keep]
    # descending magnitude, ties toward lower index
    order = np.argsort(-magnitudes, kind="stable")
    # Scale by a power of two so the largest magnitude lies in [1/2, 1):
    # window energies can then neither overflow nor all underflow to zero,
    # and the scaling is exact, so it never changes which window wins.
    sorted_mags = np.ldexp(magnitudes[order], -math.frexp(float(magnitudes[order[0]]))[1])
    # The window at start lo ends before the first entry j with
    # sorted_mags[lo] > 2 sorted_mags[j]; doubling and negating are exact, so
    # this bound compares the same values as the pairwise test.
    ends = np.searchsorted(-2.0 * sorted_mags, -sorted_mags, side="right")
    # Among equal energies the strict > keeps the earliest start.
    best_energy = -1.0
    best_window = (0, 0)
    previous_end = 0
    for lo, end in enumerate(ends.tolist()):
        if end == previous_end:
            continue
        previous_end = end
        window = sorted_mags[lo:end]
        energy = float(np.dot(window, window))
        if energy > best_energy:
            best_energy = energy
            best_window = (lo, end)
    chosen = order[best_window[0] : best_window[1]]
    return np.sort(idx[chosen]).astype(np.int64)


def _validated_inputs(matrix, measurements, sparsity):
    a = as_matrix(matrix)
    x = as_vector(measurements)
    if x.shape[0] != a.shape[0]:
        raise ValueError(
            f"dimension mismatch: matrix has {a.shape[0]} rows, measurements have length {x.shape[0]}"
        )
    if sparsity < 1:
        raise ValueError("sparsity must be at least 1")
    if 3 * sparsity > a.shape[1]:
        raise ValueError(
            f"sparsity {sparsity} too large: need 3*sparsity <= {a.shape[1]} columns"
        )
    return a, x


def _romp_rule(observation, sparsity):
    candidates = identify(observation, sparsity)
    if candidates.size == 0:
        return candidates, candidates
    return candidates, regularize(observation, candidates)


def _omp_rule(observation, sparsity):
    picked = identify(observation, 1)
    return picked, picked


def _pursue(select, matrix, measurements, sparsity, trace):
    """The greedy loop shared by ROMP and OMP; ``select`` is the selection rule.

    ``select(observation, sparsity)`` returns ``(candidates, selected)``, both
    empty exactly when the observation vanishes.

    The selected columns are kept as ``Phi[:, order[:k]] = Q R`` with ``Q``
    orthonormal (stored as the rows of ``Q^T``) and ``R`` upper triangular,
    in selection order, plus ``z = Q^T x``.  The least-squares residual is
    then ``x - Q z`` and the coefficients solve the k x k triangular system
    ``R y = z``; this block QR is the only factorization a recovery makes.
    """
    a, x = _validated_inputs(matrix, measurements, sparsity)
    rows, dim = a.shape
    # Work on x scaled by a power of two so that max|x| lies in [1/2, 1):
    # norms and regularization energies cannot overflow at any finite input
    # scale, and the scaling is exact, so ordinary inputs give bit-identical
    # results.  frexp(0) has exponent 0, which leaves a zero x untouched.
    exponent = math.frexp(float(np.max(np.abs(x))))[1]
    x = np.ldexp(x, -exponent)
    norm_x = np.linalg.norm(x)

    # The support stays below 2n before a selection of at most n, and never
    # exceeds the N rows, so min(N, 3n) columns always suffice.
    capacity = min(rows, 3 * sparsity)
    qt = np.empty((capacity, rows))
    r = np.zeros((capacity, capacity))
    z = np.empty(capacity)
    order = np.empty(capacity, dtype=np.int64)
    k = 0

    support = np.empty(0, dtype=np.int64)
    residual = x
    estimate = np.zeros(dim)
    states = []
    iterations = 0
    termination = None

    while iterations < sparsity and k < 2 * sparsity:
        correlation = a.T @ residual
        # In exact arithmetic the correlation vanishes on the selected set;
        # zero it explicitly so roundoff dust can never be re-selected.  That
        # also keeps every selection disjoint from the support.
        correlation[support] = 0.0
        candidates, selected = select(correlation, sparsity)
        if selected.size == 0:
            termination = ZERO_OBSERVATION
            break
        end = k + selected.size
        if end > rows:
            # More columns than rows can never be refit; stop on the last fit.
            termination = SUPPORT_BUDGET
            break
        # Block classical Gram-Schmidt, applied twice so the new columns are
        # orthogonal to Q to working precision; then factor the block itself.
        block = a[:, selected]
        if k:
            basis = qt[:k]
            coupling = basis @ block
            block -= basis.T @ coupling
            correction = basis @ block
            block -= basis.T @ correction
            r[:k, k:end] = coupling + correction
        if selected.size == 1:
            # One column's factor is its norm; np.linalg.qr would cost more in
            # call overhead than the rest of a small iteration.  A zero norm
            # is left for least_squares' rank rule to report.  Outside
            # [2**-500, 2**500] the squares may have over- or underflowed, so
            # the norm is retaken on the column scaled exactly by a power of
            # two, keeping the recovery equivariant under Phi -> 2**k Phi; a
            # norm past the float range becomes inf for least_squares to reject.
            with np.errstate(over="ignore", under="ignore"):
                norm = np.linalg.norm(block)
                if not 2.0**-500 <= norm <= 2.0**500:
                    shift = math.frexp(float(np.max(np.abs(block))))[1]
                    norm = np.ldexp(np.linalg.norm(np.ldexp(block, -shift)), shift)
            r[k, k] = norm
            q_new = block / norm if norm > 0.0 else block
        else:
            q_new, r[k:end, k:end] = np.linalg.qr(block)
        qt[k:end] = q_new.T
        z[k:end] = q_new.T @ x
        order[k:end] = selected
        k = end
        support = np.sort(order[:k])
        # least_squares rejects non-finite entries (a column whose norm
        # exceeds the float range), applies the rank rule to diag R and
        # back-substitutes.
        try:
            coeffs = least_squares(r[:k, :k], z[:k])
        except RankDeficiencyError as exc:
            raise RankDeficiencyError(exc.numerical_rank, (rows, k), support=support) from exc
        residual = x - z[:k] @ qt[:k]
        # The support only grows, so this overwrites every earlier coefficient.
        estimate[order[:k]] = coeffs
        iterations += 1
        if trace:
            states.append(
                IterationState(
                    support=support,
                    candidates=candidates,
                    selected=selected,
                    correlation=np.ldexp(correlation, exponent),
                    residual=np.ldexp(residual, exponent),
                    coefficients=np.ldexp(estimate, exponent),
                )
            )
        if np.linalg.norm(residual) <= RESIDUAL_TOL * norm_x:
            termination = ZERO_RESIDUAL
            break

    if termination is None:
        termination = SUPPORT_BUDGET if k >= 2 * sparsity else MAX_ITERATIONS
    # The coefficients are solved against the scaled x, so for a Phi with
    # entries below the normal range they overflow, and np.linalg.solve does
    # not warn.  The last fit set every coefficient, so one check covers all.
    estimate = np.ldexp(estimate, exponent)
    if not np.isfinite(estimate).all():
        raise ValueError("least-squares coefficients overflow: matrix entries too small for the measurements")

    return RecoveryResult(
        estimate=estimate,
        support=support,
        iterations=iterations,
        termination=termination,
        trace=states,
    )


def romp_recover(matrix, measurements, sparsity, trace=False):
    """Regularized orthogonal matching pursuit.

    Parameters
    ----------
    matrix : (N, d) array
        Measurement matrix; needs d >= 3 * sparsity.
    measurements : (N,) array
        Observed vector ``Phi @ v + e``.
    sparsity : int
        Target sparsity level n; also the per-iteration candidate budget.
    trace : bool, optional
        Record an :class:`IterationState` per iteration in ``result.trace``.

    Runs at most ``sparsity`` iterations, stopping early once the selected
    index set reaches ``2 * sparsity`` indices, the observation vector
    vanishes, or the residual norm drops below ``RESIDUAL_TOL * ||x||_2``.
    It also stops, with termination ``support-budget``, when the next
    selection would take the support past N, the number of rows: the result
    is then the previous iteration's fit.
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
    numerically dependent (the ``RANK_CUTOFF_RATIO`` rule that
    :func:`rompkit.linalg.least_squares` applies to the diagonal of ``R``),
    which at sane sparsity levels signals a measurement matrix far from the
    isometry regime the algorithm expects.  Raises ``ValueError`` on
    non-finite input, and when a selected column's norm or a least-squares
    coefficient falls outside the float range.
    """
    return _pursue(_romp_rule, matrix, measurements, sparsity, trace)


def omp_recover(matrix, measurements, sparsity, trace=False):
    """Plain orthogonal matching pursuit baseline.

    Same contract as :func:`romp_recover` but each iteration selects exactly
    one coordinate, the largest correlation magnitude, for ``sparsity``
    iterations; the ``2 * sparsity`` support budget is never reached, and
    the N-row stop only when ``sparsity`` exceeds N.
    """
    return _pursue(_omp_rule, matrix, measurements, sparsity, trace)


def energy_floor(sparsity):
    """Guaranteed ratio ||u|_selected|| / ||u|_candidates|| of regularization."""
    return 1.0 / (REGULARIZATION_ENERGY_FACTOR * math.sqrt(max(math.log(sparsity), 1.0)))


def verify_iteration_invariants(matrix, measurements, sparsity, result):
    """Check every per-iteration invariant on a traced recovery run.

    Returns a list of human-readable violation strings (empty when clean):
    candidate budget, comparability of the selected magnitudes, disjointness
    from the previously selected set, the regularization energy floor,
    residual orthogonality on the selected columns, monotone support growth,
    and the iteration / support budgets.
    """
    a = np.asarray(matrix, dtype=np.float64)
    x = np.asarray(measurements, dtype=np.float64)
    norm_x = np.linalg.norm(x)
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
            violations.append(
                f"iter {k}: energy floor violated ({sel_norm:.3e} < {floor:.3e} * {cand_norm:.3e})"
            )
        if np.setdiff1d(previous, state.support).size:
            violations.append(f"iter {k}: support not monotone")
        if np.setdiff1d(state.support, np.union1d(previous, state.selected)).size:
            violations.append(f"iter {k}: support grew by more than the selected set")
        back_correlation = np.abs(a.T @ state.residual)
        if back_correlation[state.support].max() > ORTHOGONALITY_TOL * norm_x:
            violations.append(
                f"iter {k}: residual not orthogonal to selected columns "
                f"({back_correlation[state.support].max():.3e} > {ORTHOGONALITY_TOL * norm_x:.3e})"
            )
        previous = state.support
    return violations
