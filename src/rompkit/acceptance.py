"""Acceptance gate: end-to-end checks of the recovery guarantees.

Each criterion is a standalone function returning a :class:`CriterionOutcome`;
``run_acceptance`` executes all of them in order and prints one pass/fail line
per criterion.  Also runnable as ``python -m rompkit.acceptance``.

All scenario parameters (dimensions, trial counts, noise scaling, ceilings,
tolerances) are pinned here; nothing is calibrated at run time.
"""

import math
import os
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from .bench import (
    SweepConfig,
    aggregates_path,
    run_cell,
    run_sweep,
    truncation_inequality_slack,
)
from .ensembles import probe_ric
from .recovery import regularize, verify_iteration_invariants
from .rng import substream
from .signals import best_m_term

__all__ = ["CriterionOutcome", "comparable_subset_oracle", "run_acceptance"]

# Master seeds, one per scenario, fixed for reproducibility.
SEED_NOISELESS = 101
SEED_MEASUREMENT_NOISE = 202
SEED_SIGNAL_TAIL = 303
SEED_REGULARIZE = 404
SEED_TAIL_BOUND = 505
SEED_FIGURE_SHAPE = 808
SEED_DETERMINISM = 909

MEASUREMENT_NOISE_CEILING = 104.0 * math.sqrt(math.log(4))   # n = 4 scenario
MEASUREMENT_NOISE_MEDIAN_TARGET = 5.0
SIGNAL_TAIL_CEILING = 159.0 * math.sqrt(math.log(16))        # 2n = 16 scenario


@dataclass
class CriterionOutcome:
    number: int
    name: str
    passed: bool
    detail: str

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return f"ACCEPTANCE {self.number} [{status}] {self.name}: {self.detail}"


def _traced_romp_cell(seed, sparsity, measurements, **options):
    """Outcomes of one traced 100-trial ROMP cell at d = 256, in trial order.

    ``options`` are further :class:`SweepConfig` fields (noise, signal kind).
    """
    config = SweepConfig(
        dim=256,
        sparsities=(sparsity,),
        measurement_counts=(measurements,),
        trials=100,
        seed=seed,
        trace=True,
        **options,
    )
    return list(run_cell(config, "romp", sparsity, measurements))


def criterion_noiseless_exact():
    """1: noiseless runs reconstruct exactly in at least 95 of 100 trials."""
    start = time.monotonic()
    outcomes = _traced_romp_cell(SEED_NOISELESS, 8, 128, sigma=0.0)
    rel_errors = [
        o.record.err2 / np.linalg.norm(o.signal) for o in outcomes
    ]
    exact = sum(1 for e in rel_errors if e <= 1e-6)
    elapsed = time.monotonic() - start
    passed = exact >= 95 and elapsed < 10.0
    detail = f"{exact}/100 trials with relative error <= 1e-6 ({elapsed:.1f} s)"
    if exact < 100:
        margin = probe_ric(outcomes[0].matrix, 4 * 8, 500, seed=SEED_NOISELESS)
        detail += f"; isometry probe at m=32: epsilon_hat={margin.epsilon_hat:.3f}"
    return CriterionOutcome(1, "noiseless exact recovery", passed, detail), outcomes


def criterion_measurement_noise():
    """2: error-to-noise ratio below the sqrt-log ceiling in every noisy trial."""
    # sigma=None: noise norm ~ 0.1 x clean measurement norm, per trial
    outcomes = _traced_romp_cell(SEED_MEASUREMENT_NOISE, 4, 160, sigma=None)
    ratios = [o.record.ratio_meas for o in outcomes]
    worst = max(ratios)
    median = float(np.median(ratios))
    passed = worst <= MEASUREMENT_NOISE_CEILING and median <= MEASUREMENT_NOISE_MEDIAN_TARGET
    detail = (
        f"max ratio {worst:.3f} <= {MEASUREMENT_NOISE_CEILING:.1f}, "
        f"median {median:.3f} <= {MEASUREMENT_NOISE_MEDIAN_TARGET}"
    )
    return CriterionOutcome(2, "measurement-noise stability", passed, detail), outcomes


def criterion_signal_tail():
    """3: compressible signals stay below the tail-ratio ceiling in every trial."""
    outcomes = _traced_romp_cell(
        SEED_SIGNAL_TAIL, 8, 160, signal_kind="power-law", power_exponent=2.0, power_scale=1.0, sigma=0.0
    )
    ratios = [o.record.ratio_sig for o in outcomes]
    worst = max(ratios)
    passed = worst <= SIGNAL_TAIL_CEILING
    detail = f"max tail ratio {worst:.3f} <= {SIGNAL_TAIL_CEILING:.1f} over 100 trials"
    return CriterionOutcome(3, "signal-perturbation stability", passed, detail), outcomes


def comparable_subset_oracle(values):
    """Exhaustive search for the max-energy subset with comparable magnitudes.

    Enumerates every nonempty subset of ``values`` (fine up to ~16 entries),
    keeps those whose largest magnitude is at most twice the smallest, and
    returns ``(max_energy, argmax_masks, energies)`` where masks are bitmasks
    over value positions.  Exposing ``energies`` lets a caller compare a
    candidate subset against the maximum bit-exactly within one frame.
    """
    mags = np.abs(np.asarray(values, dtype=np.float64))
    k = mags.size
    if k == 0 or k > 20:
        raise ValueError("oracle supports 1..20 values")
    masks = np.arange(1, 2**k, dtype=np.int64)
    member = ((masks[:, None] >> np.arange(k)) & 1).astype(bool)
    largest = np.where(member, mags, -np.inf).max(axis=1)
    smallest = np.where(member, mags, np.inf).min(axis=1)
    comparable = largest <= 2.0 * smallest
    energies = member @ (mags * mags)
    feasible = energies[comparable]
    max_energy = float(feasible.max())
    argmax = masks[comparable][feasible == max_energy]
    return max_energy, set(int(m) for m in argmax), energies


def criterion_regularize_oracle():
    """4: windowed regularization matches exhaustive search on 1000 profiles."""
    rng = substream(SEED_REGULARIZE)
    mismatches = 0
    for _ in range(1000):
        k = int(rng.integers(1, 13))
        dim = 40
        positions = np.sort(rng.choice(dim, size=k, replace=False))
        magnitudes = rng.uniform(0.1, 10.0, size=k)
        signs = rng.integers(0, 2, size=k) * 2 - 1
        u = np.zeros(dim)
        u[positions] = signs * magnitudes
        chosen = regularize(u, positions)
        local = np.searchsorted(positions, chosen)
        mask = int(np.sum(1 << local))
        max_energy, argmax_masks, energies = comparable_subset_oracle(u[positions])
        if mask not in argmax_masks or energies[mask - 1] != max_energy:
            mismatches += 1
    passed = mismatches == 0
    detail = f"{1000 - mismatches}/1000 profiles match the exhaustive optimum exactly"
    return CriterionOutcome(4, "regularization oracle equivalence", passed, detail)


def criterion_tail_bound():
    """5: two-norm of the tail bounded by the scaled one-norm, 1000 vectors."""
    rng = substream(SEED_TAIL_BOUND)
    violations = 0
    checks = 0
    for _ in range(1000):
        length = int(rng.integers(1, 401))
        style = int(rng.integers(0, 3))
        if style == 0:
            w = rng.standard_normal(length)
        elif style == 1:
            w = rng.uniform(-1.0, 1.0, size=length)
        else:
            w = np.ones(length) * rng.uniform(0.5, 2.0)  # flat: the tight case
        count = min(5, length)
        for m in rng.choice(np.arange(1, length + 1), size=count, replace=False):
            lhs = np.linalg.norm(w - best_m_term(w, int(m)))
            rhs = np.sum(np.abs(w)) / (2.0 * math.sqrt(m))
            checks += 1
            if lhs > rhs + 1e-12:
                violations += 1
    passed = violations == 0
    detail = f"{checks} tail comparisons, {violations} violations"
    return CriterionOutcome(5, "tail two-norm vs one-norm bound", passed, detail)


def criterion_iteration_invariants(outcomes):
    """6: zero per-iteration invariant violations across criteria 1-3 runs."""
    violations = []
    iterations = 0
    for o in outcomes:
        if o.result is None:
            violations.append("recovery raised instead of completing")
            continue
        iterations += len(o.result.trace)
        violations.extend(
            verify_iteration_invariants(o.matrix, o.measured, o.record.sparsity, o.result)
        )
    passed = not violations
    detail = f"{iterations} traced iterations across {len(outcomes)} runs, {len(violations)} violations"
    if violations:
        detail += f" (first: {violations[0]})"
    return CriterionOutcome(6, "per-iteration invariants", passed, detail)


def criterion_truncation_inequality(outcomes):
    """7: best-2n-term distance <= 3x the untruncated distance on every trial."""
    worst = -np.inf
    for o in outcomes:
        slack = truncation_inequality_slack(o.signal, o.estimate, o.record.sparsity)
        worst = max(worst, slack)
    passed = worst <= 1e-10
    detail = f"max slack {worst:.3e} <= 1e-10 over {len(outcomes)} trials"
    return CriterionOutcome(7, "truncation inequality", passed, detail)


def criterion_figure_shape():
    """8: error-to-noise curves fall with N and stack by sparsity level."""
    start = time.monotonic()
    grid = tuple(range(32, 257, 32))
    levels = (4, 8, 12)
    config = SweepConfig(
        dim=256,
        sparsities=levels,
        measurement_counts=grid,
        trials=100,
        sigma=None,
        seed=SEED_FIGURE_SHAPE,
    )
    report = run_sweep(config)
    mean = {
        (c.sparsity, c.measurements): c.ratio_meas_mean for c in report.cells
    }
    problems = []
    for n in levels:
        ceiling = 104.0 * math.sqrt(max(math.log(n), 1.0))
        succeeding = [m for m in grid if mean[(n, m)] is not None and mean[(n, m)] <= ceiling]
        if not succeeding:
            problems.append(f"n={n}: no measurement count reaches the guarantee ceiling")
            continue
        first = min(succeeding)
        if mean[(n, 256)] > mean[(n, first)]:
            problems.append(
                f"n={n}: mean ratio rises from N={first} ({mean[(n, first)]:.3f}) "
                f"to N=256 ({mean[(n, 256)]:.3f})"
            )
    for m in (32, 64, 96, 128):
        ordered = [mean[(n, m)] for n in levels]
        if any(a > b for a, b in zip(ordered, ordered[1:])):
            problems.append(f"N={m}: curves not ordered by sparsity {ordered}")
    elapsed = time.monotonic() - start
    passed = not problems and elapsed < 180.0
    detail = f"{len(report.records)} trials over {len(report.cells)} cells ({elapsed:.1f} s)"
    if problems:
        detail += "; " + "; ".join(problems)
    return CriterionOutcome(8, "figure-shape reproduction", passed, detail)


def criterion_determinism():
    """9: the same master seed reproduces sweep CSVs byte for byte."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, f"run{i}.csv") for i in (1, 2)]
        blobs = []
        for path in paths:
            config = SweepConfig(
                dim=64,
                sparsities=(2, 3),
                measurement_counts=(24, 32),
                trials=5,
                algorithms=("romp", "omp"),
                seed=SEED_DETERMINISM,
                csv_path=path,
            )
            run_sweep(config)
            with open(path, "rb") as fh:
                trial_bytes = fh.read()
            with open(aggregates_path(path), "rb") as fh:
                agg_bytes = fh.read()
            blobs.append((trial_bytes, agg_bytes))
    passed = blobs[0] == blobs[1]
    detail = (
        f"two runs, {len(blobs[0][0])} byte trial CSVs "
        + ("identical" if passed else "DIFFER")
    )
    return CriterionOutcome(9, "sweep determinism", passed, detail)


def run_acceptance(verbose=True):
    """Run all nine criteria; returns their outcomes in order."""
    results = []

    out1, traced1 = criterion_noiseless_exact()
    results.append(out1)
    out2, traced2 = criterion_measurement_noise()
    results.append(out2)
    out3, traced3 = criterion_signal_tail()
    results.append(out3)
    results.append(criterion_regularize_oracle())
    results.append(criterion_tail_bound())
    results.append(criterion_iteration_invariants(traced1 + traced2 + traced3))
    results.append(criterion_truncation_inequality(traced2 + traced3))
    results.append(criterion_figure_shape())
    results.append(criterion_determinism())

    if verbose:
        for outcome in results:
            print(outcome.line())
        failed = [o for o in results if not o.passed]
        print(f"{len(results) - len(failed)}/{len(results)} acceptance criteria passed")
    return results


if __name__ == "__main__":
    import sys

    outcomes = run_acceptance(verbose=True)
    sys.exit(0 if all(o.passed for o in outcomes) else 1)
