"""Greedy sparse recovery: ROMP and an orthogonal-matching-pursuit baseline.

Both algorithms recover an approximately sparse vector from measurements
``x = Phi @ v + e`` with one loop: correlate the residual against all
columns, select new indices, and re-solve least squares on every column
selected so far.  Only the selection rule differs.  ROMP takes the ``n``
largest correlations and keeps a whole batch of comparable ones (the
regularization step); OMP picks one coordinate at a time.
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
    "TERMINATIONS",
    "RecoveryOptions",
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
TERMINATIONS = (MAX_ITERATIONS, SUPPORT_BUDGET, ZERO_OBSERVATION, ZERO_RESIDUAL)

# Guaranteed fraction of candidate energy retained by regularization; the
# log is clamped at 1 so the threshold stays finite at sparsity 1.
REGULARIZATION_ENERGY_FACTOR = 2.5
ORTHOGONALITY_TOL = 1e-8
# Relative stopping tolerance: iteration stops once the residual norm falls
# below ``RESIDUAL_TOL * ||x||_2`` (termination ``zero-residual``).
RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class RecoveryOptions:
    """Options shared by both recovery algorithms."""

    trace: bool = False


@dataclass
class IterationState:
    """Snapshot of one iteration, taken after the least-squares update.

    ``correlation`` is the observation vector Phi^T r from the start of the
    iteration (the one selection was based on); ``residual`` and
    ``coefficients`` reflect the state after the update.  ``coefficients`` is
    embedded in R^d.
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
    break toward lower indices.
    """
    if sparsity < 1:
        raise ValueError("sparsity must be at least 1")
    u = np.asarray(observation, dtype=np.float64)
    magnitudes = np.abs(u)
    order = np.argsort(-magnitudes, kind="stable")
    order = order[magnitudes[order] > 0.0]
    return np.sort(order[:sparsity]).astype(np.int64)


def regularize(observation, candidates):
    """Max-energy subset of ``candidates`` with pairwise comparable magnitudes.

    Comparable means every pair satisfies |u(i)| <= 2 |u(j)|.  Sorting the
    candidate magnitudes in decreasing order, any comparable subset sits
    inside a contiguous window whose first entry is at most twice its last,
    and widening such a window only adds energy, so scanning the maximal
    window at each start position finds the exact optimum.
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
    sorted_mags = magnitudes[order]
    best_energy = -1.0
    best_window = (0, 0)
    hi = 0
    for lo in range(sorted_mags.size):
        if hi < lo:
            hi = lo
        while hi + 1 < sorted_mags.size and sorted_mags[lo] <= 2.0 * sorted_mags[hi + 1]:
            hi += 1
        window = sorted_mags[lo : hi + 1]
        energy = float(np.dot(window, window))
        if energy > best_energy:
            best_energy = energy
            best_window = (lo, hi + 1)
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


def _pursue(select, matrix, measurements, sparsity, options):
    """The greedy loop shared by ROMP and OMP; ``select`` is the selection rule.

    ``select(observation, sparsity)`` returns ``(candidates, selected)``, both
    empty exactly when the observation vanishes.
    """
    opts = options or RecoveryOptions()
    a, x = _validated_inputs(matrix, measurements, sparsity)
    # Work on x scaled by a power of two so that max|x| lies in [1/2, 1):
    # norms and regularization energies cannot overflow at any finite input
    # scale, and the scaling is exact, so ordinary inputs give bit-identical
    # results.  frexp(0) has exponent 0, which leaves a zero x untouched.
    exponent = math.frexp(float(np.max(np.abs(x))))[1]
    x = np.ldexp(x, -exponent)
    norm_x = np.linalg.norm(x)

    support = np.empty(0, dtype=np.int64)
    residual = x
    estimate = np.zeros(a.shape[1])
    trace = []
    iterations = 0
    termination = None

    while iterations < sparsity and support.size < 2 * sparsity:
        correlation = a.T @ residual
        # In exact arithmetic the correlation vanishes on the selected set;
        # zero it explicitly so roundoff dust can never be re-selected.  That
        # also keeps every selection disjoint from the support.
        masked = correlation.copy()
        masked[support] = 0.0
        candidates, selected = select(masked, sparsity)
        if selected.size == 0:
            termination = ZERO_OBSERVATION
            break
        support = np.sort(np.concatenate((support, selected)))
        columns = a[:, support]
        try:
            coeffs = least_squares(columns, x)
        except RankDeficiencyError as exc:
            raise RankDeficiencyError(exc.numerical_rank, exc.shape, support=support.copy()) from exc
        residual = x - columns @ coeffs
        # The support only grows, so this overwrites every earlier coefficient.
        estimate[support] = coeffs
        iterations += 1
        if opts.trace:
            trace.append(
                IterationState(
                    support=support.copy(),
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
        termination = SUPPORT_BUDGET if support.size >= 2 * sparsity else MAX_ITERATIONS

    return RecoveryResult(
        estimate=np.ldexp(estimate, exponent),
        support=support,
        iterations=iterations,
        termination=termination,
        trace=trace,
    )


def romp_recover(matrix, measurements, sparsity, options=None):
    """Regularized orthogonal matching pursuit.

    Parameters
    ----------
    matrix : (N, d) array
        Measurement matrix; needs d >= 3 * sparsity.
    measurements : (N,) array
        Observed vector ``Phi @ v + e``.
    sparsity : int
        Target sparsity level n; also the per-iteration candidate budget.
    options : RecoveryOptions, optional

    Runs at most ``sparsity`` iterations, stopping early once the selected
    index set reaches ``2 * sparsity`` indices, the observation vector
    vanishes, or the residual norm drops below ``RESIDUAL_TOL * ||x||_2``.
    Each iteration correlates the residual against all columns, keeps the
    largest ``sparsity`` nonzero coordinates, reduces them to the
    maximal-energy comparable subset, and refits least squares on everything
    selected so far.  The estimate is the final least-squares solution,
    zero-padded to R^d.

    Raises :class:`RankDeficiencyError` (with the offending index set
    attached) when the selected columns become numerically dependent, which
    at sane sparsity levels signals a measurement matrix far from the
    isometry regime the algorithm expects.
    """
    return _pursue(_romp_rule, matrix, measurements, sparsity, options)


def omp_recover(matrix, measurements, sparsity, options=None):
    """Plain orthogonal matching pursuit baseline.

    Same contract as :func:`romp_recover` but each iteration selects exactly
    one coordinate, the largest correlation magnitude, for ``sparsity``
    iterations; the ``2 * sparsity`` support budget is never reached.
    """
    return _pursue(_omp_rule, matrix, measurements, sparsity, options)


def energy_floor(sparsity):
    """Guaranteed ratio ||u|_selected|| / ||u|_candidates|| of regularization."""
    return 1.0 / (REGULARIZATION_ENERGY_FACTOR * math.sqrt(max(math.log(sparsity), 1.0)))


def verify_iteration_invariants(matrix, measurements, sparsity, result, orth_tol=ORTHOGONALITY_TOL):
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
        if back_correlation[state.support].max() > orth_tol * norm_x:
            violations.append(
                f"iter {k}: residual not orthogonal to selected columns "
                f"({back_correlation[state.support].max():.3e} > {orth_tol * norm_x:.3e})"
            )
        previous = state.support
    return violations
