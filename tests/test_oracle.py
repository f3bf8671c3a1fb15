"""The whole recovery loop against ROMP and OMP written plainly.

``textbook`` is the algorithm of Needell & Vershynin (arXiv:0712.1360) with
none of the loop's machinery: a dense Phi, the correlation zeroed on the
support, the top n by (-|u|, index), the best comparable window found by
scanning every start, and an ``np.linalg.lstsq`` refit on Phi_I.  Its stops
come in the loop's order: an empty selection, a selection past N rows, the
rank rule, then a zero residual (``support-budget`` when the support holds
N columns), 2n columns and n iterations.  Problems are
Gaussian, Bernoulli and partial-Fourier (the loop gets the operator, the
textbook its ``dense()``) at four sizes N x d, n from 1 to 8, with noise on
one problem in three and a zero observation in one in a hundred.

Margin rule, fixed before any comparison was run: a decision whose two sides
lie within ``MARGIN`` (relative) of each other ends the comparison for that
run, since roundoff in either loop may take it either way.  The decisions
are the n-th against the (n+1)-th largest correlation, a window edge (one
magnitude against twice another), a selected against a left-out candidate
magnitude, the best window's energy against another window's, and the
residual norm against its floor.  The rank rule is undecided when
sigma_min / sigma_max of Phi_I lies within a factor ``RANK_MARGIN`` of the
cutoff.
"""

import numpy as np

from rompkit.ensembles import EnsembleSpec, build_matrix, partial_fourier
from rompkit.linalg import RankDeficiencyError
from rompkit.recovery import recover_block
from rompkit.rng import substream

# The documented rules, restated rather than imported so that a change to
# the loop's constants shows: a residual norm at most 1e-10 ||x|| is zero,
# and a support whose Phi_I has sigma_min / sigma_max below 1e-10 is rank
# deficient (the loop tests diag R, whose ratio bounds that one from above).
RESIDUAL_TOL = 1e-10
RANK_CUTOFF_RATIO = 1e-10
MARGIN = 1e-12
RANK_MARGIN = 1e3
SHAPES = [(16, 64), (32, 128), (48, 96), (24, 256)]
KINDS = ["gaussian", "bernoulli", "partial-fourier-real"]
PROBLEMS = 400


class Undecided(Exception):
    """A decision of the textbook loop fell within the margin."""


def near(a, b):
    return abs(a - b) <= MARGIN * max(abs(a), abs(b))


def top(u, count):
    """Up to ``count`` indices of nonzero ``u`` by (-|u|, index)."""
    ranked = sorted(np.flatnonzero(u).tolist(), key=lambda i: (-abs(u[i]), i))
    if len(ranked) > count and near(abs(u[ranked[count - 1]]), abs(u[ranked[count]])):
        raise Undecided
    return ranked[:count]


def best_window(u, candidates):
    """The comparable subset of ``candidates`` with the most energy.

    Comparable means |u(i)| <= 2 |u(j)| for every pair.  Every start in
    decreasing magnitude order is scanned; its window takes each candidate
    comparable to the start, and the earliest start wins a tie.
    """
    mags = {i: abs(u[i]) for i in candidates}
    for i in candidates:
        for j in candidates:
            if i != j and near(mags[i], 2.0 * mags[j]):
                raise Undecided
    windows = []
    for start in sorted(candidates, key=lambda i: (-mags[i], i)):
        window = [j for j in candidates if mags[j] <= mags[start] <= 2.0 * mags[j]]
        windows.append((sum(mags[j] ** 2 for j in window), window))
    energy, best = max(windows, key=lambda w: w[0])  # max keeps the first of equals
    if any(near(energy, e) and set(w) != set(best) for e, w in windows):
        raise Undecided
    if any(near(mags[i], mags[j]) for i in best for j in candidates if j not in best):
        raise Undecided
    return sorted(best)


def textbook(algo, a, x, n):
    """``(support, iterations, termination, estimate)``, or ``("rank", support)``."""
    rows, dim = a.shape
    support, y, r, iterations = [], np.zeros(0), x, 0
    floor = RESIDUAL_TOL * np.linalg.norm(x)
    while True:
        u = a.T @ r
        u[support] = 0.0
        candidates = top(u, 1 if algo == "omp" else n)
        if not candidates:
            end = "zero-observation"
            break
        chosen = candidates if algo == "omp" else best_window(u, candidates)
        if len(support) + len(chosen) > rows:
            end = "support-budget"
            break
        support = sorted(support + chosen)
        sigma = np.linalg.svd(a[:, support], compute_uv=False)
        ratio = sigma[-1] / sigma[0]
        if RANK_CUTOFF_RATIO / RANK_MARGIN < ratio < RANK_CUTOFF_RATIO * RANK_MARGIN:
            raise Undecided
        if ratio < RANK_CUTOFF_RATIO:
            return "rank", support
        y = np.linalg.lstsq(a[:, support], x, rcond=None)[0]
        r = x - a[:, support] @ y
        norm = np.linalg.norm(r)
        if near(norm, floor):
            raise Undecided
        iterations += 1
        if norm <= floor:
            # N columns span R^N: their residual vanishes whatever x is, so that is the N-row budget.
            end = "zero-residual" if len(support) < rows else "support-budget"
        elif len(support) >= 2 * n:
            end = "support-budget"
        elif iterations >= n:
            end = "max-iterations"
        else:
            continue
        break
    estimate = np.zeros(dim)
    estimate[support] = y
    return support, iterations, end, estimate


def problem(seed):
    """Phi (a dense array, or the partial-Fourier operator), its dense form, x and n."""
    rng = substream(seed)
    kind = KINDS[seed % len(KINDS)]
    rows, dim = SHAPES[rng.integers(len(SHAPES))]
    n = int(rng.integers(1, 9))
    spec = EnsembleSpec(kind, rows, dim, seed=seed)
    phi = partial_fourier(spec) if kind == "partial-fourier-real" else build_matrix(spec)
    a = phi.dense() if kind == "partial-fourier-real" else phi
    v = np.zeros(dim)
    v[rng.choice(dim, size=n, replace=False)] = rng.standard_normal(n)
    x = a @ v
    if seed % 3 == 0:
        x = x + 0.05 * rng.standard_normal(rows)
    if seed % 100 == 99:
        x = np.zeros(rows)
    return phi, a, x, n


def compare(algo, phi, a, x, n):
    """The run's termination, or "rank", once the loop matched the textbook; None when the margin ends it."""
    try:
        want = textbook(algo, a, x, n)
    except Undecided:
        return None
    (got,) = recover_block(algo, phi, x[None], n)
    if want[0] == "rank":
        assert isinstance(got, RankDeficiencyError), got
        assert got.support.tolist() == want[1]
        return "rank"
    assert not isinstance(got, Exception), got
    support, iterations, termination, estimate = want
    assert (got.support.tolist(), got.iterations, got.termination) == (support, iterations, termination)
    # The two refits agree to roundoff, amplified by the conditioning of Phi_I.
    cond = np.linalg.cond(a[:, support]) if support else 1.0
    assert np.linalg.norm(got.estimate - estimate) <= 1e-12 * cond**2 * (np.linalg.norm(estimate) + np.linalg.norm(x))
    return termination


def test_loop_matches_the_textbook_algorithm():
    ends = [compare(algo, *problem(seed)) for algo in ("romp", "omp") for seed in range(PROBLEMS)]
    # The margin cuts 5 of the 800 runs short, all ROMP runs at the n-th
    # against the (n+1)-th correlation (four Bernoulli, one partial-Fourier,
    # all 16 x 64).  A rule that cut many runs short would prove nothing.
    assert ends.count(None) <= len(ends) // 50
    assert set(ends) == {None, "rank", "zero-observation", "zero-residual", "support-budget", "max-iterations"}


def test_rank_rule_on_a_repeated_column():
    # Column 5 repeats column 2 and x lies mostly along it, so ROMP's first
    # selection holds both (equal correlations) and Phi_I has rank 2 of 3.
    a = build_matrix(EnsembleSpec("gaussian", 16, 64, seed=4))
    a[:, 5] = a[:, 2]
    x = a[:, 2] + 0.5 * a[:, 40]
    assert textbook("romp", a, x, 3) == ("rank", [2, 5, 9])
    assert compare("romp", a, a, x, 3) == "rank"
