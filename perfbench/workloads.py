"""The benchmark's workloads: inputs from a seed, one timed pass, output checks.

Every workload runs single-process and closed-loop with one caller: the next
call starts when the previous one returns.  A *pass* is a fixed amount of
work (every sweep cell once, or every pooled problem once per algorithm), so
passes of one run do identical work and must produce identical outputs.
Package functions are looked up on their modules at call time, so the
tracer's rebinding reaches the calls made here too.
"""

import csv
import hashlib
import io
import math
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from rompkit import bench, ensembles, linalg, recovery, signals

ALGORITHMS = ("romp", "omp")
RANK_DEFICIENT = bench.RANK_DEFICIENT

# Relative error below which a recovery that found the whole true support
# counts as exact (noiseless inputs; roundoff is ~1e-14 at these sizes).
EXACT_TOL = 1e-6
# Aggregates recomputed from the CSV rows must match the package's to within
# summation-order roundoff.
AGG_RTOL = 1e-9


def child_seed(seed, *path):
    """A 32-bit seed for input ``path`` of the run seeded with ``seed``."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1, np.uint32)[0])


@dataclass
class PassResult:
    """Timings and raw outputs of one pass."""

    samples: dict  # algo -> latency per cell or problem, in seconds
    items: int  # recoveries attempted
    busy_s: float  # time inside the timed calls
    outputs: list


@dataclass
class Verdict:
    """Output check of one pass."""

    attempted: int = 0
    failed: int = 0
    rank_deficient: int = 0
    problems: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)
    fingerprint: str = ""


def unit_latencies(passes, trials_per_unit):
    """Latency samples from the unit times of each pass, one per trial.

    A unit is a sweep cell (time per trial) or a pooled problem (call time);
    ``passes`` holds one list of unit times per pass, units in a fixed order.
    Each unit's latency is its median over the passes, counted once for every
    trial the unit runs.  Single timings pick up the host's second-scale
    speed swings; medians over passes spread across the run keep the
    percentiles about the work.  Because cells differ in cost, p50 and p90
    then fall on stable per-cell medians rather than on the noisy edge of
    one cell's spread.
    """
    medians = [statistics.median(times) for times in zip(*passes)]
    return [m for m in medians for _ in range(trials_per_unit)]


def _finite(value):
    return isinstance(value, float) and math.isfinite(value)


# ---------------------------------------------------------------------------
# Sweeps


FLOAT_FIELDS = ("sigma", "norm_e", "err2", "err2_2n", "tail1", "support_hit")


def check_record(rec, algo, sparsity, measurements, trial):
    """Problems with one TrialRecord (empty when it is sound)."""
    problems = []
    if (rec.algo, rec.sparsity, rec.measurements, rec.trial) != (algo, sparsity, measurements, trial):
        problems.append(
            f"record for ({rec.algo}, n={rec.sparsity}, N={rec.measurements}, trial {rec.trial}) "
            f"where ({algo}, n={sparsity}, N={measurements}, trial {trial}) was due"
        )
    for name in FLOAT_FIELDS:
        if not _finite(getattr(rec, name)):
            problems.append(f"{name}={getattr(rec, name)!r} is not a finite float")
    if (rec.ratio_meas is None) != (rec.norm_e == 0.0):
        problems.append("ratio_meas is empty exactly when there is no measurement noise")
    if (rec.ratio_sig is None) != (rec.tail1 == 0.0):
        problems.append("ratio_sig is empty exactly when the tail is zero")
    for name in ("ratio_meas", "ratio_sig"):
        value = getattr(rec, name)
        if value is not None and not _finite(value):
            problems.append(f"{name}={value!r} is not a finite float")
    if not 0.0 <= rec.support_hit <= 1.0:
        problems.append(f"support_hit {rec.support_hit} outside [0, 1]")
    if not 0 <= rec.iterations <= sparsity:
        problems.append(f"{rec.iterations} iterations exceed the budget {sparsity}")
    if rec.termination == RANK_DEFICIENT and rec.iterations != 0:
        problems.append("rank-deficient trial reports iterations")
    if not rec.termination:
        problems.append("empty termination")
    return [f"trial {trial}: {p}" for p in problems]


def _linear_quantile(ordered, q):
    """Quantile with linear interpolation between order statistics."""
    h = (len(ordered) - 1) * q
    lo = math.floor(h)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (h - lo) * (ordered[hi] - ordered[lo])


def _summary(values):
    if not values:
        return [None, None, None]
    ordered = sorted(values)
    return [math.fsum(ordered) / len(ordered), statistics.median(ordered), _linear_quantile(ordered, 0.9)]


def recompute_aggregate(rows):
    """The aggregate-CSV fields of one cell, computed from its trial-CSV rows.

    Written independently of ``rompkit.bench.aggregate_records``; ratio
    statistics use only the rows where the ratio is defined.
    """
    err2 = sorted(float(r["err2"]) for r in rows)
    ratio_meas = [float(r["ratio_meas"]) for r in rows if r["ratio_meas"]]
    ratio_sig = [float(r["ratio_sig"]) for r in rows if r["ratio_sig"]]
    rm_mean, rm_median, rm_q90 = _summary(ratio_meas)
    rs_mean, rs_median, rs_q90 = _summary(ratio_sig)
    return {
        "trials": len(rows),
        "err2_mean": math.fsum(err2) / len(err2),
        "err2_median": statistics.median(err2),
        "ratio_meas_mean": rm_mean,
        "ratio_meas_median": rm_median,
        "ratio_meas_q90": rm_q90,
        "ratio_sig_mean": rs_mean,
        "ratio_sig_median": rs_median,
        "ratio_sig_q90": rs_q90,
        "support_hit_mean": math.fsum(float(r["support_hit"]) for r in rows) / len(rows),
        "iterations_mean": math.fsum(int(r["iterations"]) for r in rows) / len(rows),
        "failures": sum(1 for r in rows if r["termination"] == RANK_DEFICIENT),
    }


def _close(expected, actual):
    if expected is None or actual is None:
        return expected is None and actual is None
    return math.isclose(expected, actual, rel_tol=AGG_RTOL, abs_tol=1e-300)


def _agg_value(text):
    return float(text) if text else None


def check_sweep_cell(report, trials_text, agg_text, algo, sparsity, measurements, trials):
    """Check one single-cell sweep against its expected shape and its CSVs.

    Returns ``(bad_trials, problems)``: the trial indices whose own record is
    unsound, and every problem found.  A problem outside the records (row
    count, CSV contents, aggregates) leaves ``bad_trials`` empty; the caller
    then counts the whole cell as failed.
    """
    problems = []
    bad = set()
    records = report.records
    if len(records) != trials:
        problems.append(f"{len(records)} records for {trials} trials")
    for i, rec in enumerate(records):
        found = check_record(rec, algo, sparsity, measurements, i)
        if found:
            bad.add(i)
            problems.extend(found)

    rows = list(csv.DictReader(io.StringIO(trials_text)))
    if len(rows) != len(records):
        problems.append(f"trial CSV has {len(rows)} rows for {len(records)} records")
    for i, (row, rec) in enumerate(zip(rows, records)):
        written = (float(row["err2"]), float(row["support_hit"]), int(row["iterations"]), row["termination"])
        if written != (rec.err2, rec.support_hit, rec.iterations, rec.termination):
            problems.append(f"trial {i}: CSV row differs from its record")

    agg_rows = list(csv.DictReader(io.StringIO(agg_text)))
    cells = report.cells
    if len(agg_rows) != 1 or len(cells) != 1:
        problems.append(f"{len(agg_rows)} aggregate rows and {len(cells)} cells for one cell")
    elif rows:
        expected = recompute_aggregate(rows)
        for name, value in expected.items():
            if not _close(value, _agg_value(agg_rows[0][name])):
                problems.append(f"aggregate {name}: CSV has {agg_rows[0][name]!r}, rows give {value!r}")
            if not _close(value, getattr(cells[0], name)):
                problems.append(f"aggregate {name}: aggregate_records gives {getattr(cells[0], name)!r}, rows give {value!r}")
    return bad, problems


@dataclass(frozen=True)
class SweepWorkload:
    """``run_sweep`` over a grid, one call per (algorithm, n, N) cell.

    Calling ``run_sweep`` once per cell yields the same records as one call
    over the whole grid (trial seeds depend on the cell, not on the call) and
    gives each cell's time per trial.
    """

    name: str
    dim: int
    sparsities: tuple
    measurement_counts: tuple
    trials: int
    warmup_trials: int
    ensemble: str
    signal_kind: str
    noise_target: str
    fresh_matrix_per_trial: bool

    def cells(self):
        return [(a, n, m) for a in ALGORITHMS for n in self.sparsities for m in self.measurement_counts]

    def _config(self, state, algo, sparsity, measurements, trials):
        return bench.SweepConfig(
            dim=self.dim,
            sparsities=(sparsity,),
            measurement_counts=(measurements,),
            trials=trials,
            ensemble=self.ensemble,
            signal_kind=self.signal_kind,
            noise_target=self.noise_target,
            algorithms=(algo,),
            seed=state["seed"],
            csv_path=os.path.join(state["workdir"], f"{algo}-{sparsity}-{measurements}.csv"),
            fresh_matrix_per_trial=self.fresh_matrix_per_trial,
        )

    def setup(self, seed, workdir):
        """Warm up on every cell with a few trials; sweeps build their own inputs."""
        state = {"seed": seed, "workdir": workdir}
        for algo, n, m in self.cells():
            bench.run_sweep(self._config(state, algo, n, m, self.warmup_trials))
        return state

    def latency_samples(self, passes):
        return unit_latencies(passes, self.trials)

    def run_pass(self, state):
        samples = {a: [] for a in ALGORITHMS}
        outputs = []
        busy = 0.0
        clock = time.perf_counter
        for algo, n, m in self.cells():
            config = self._config(state, algo, n, m, self.trials)
            start = clock()
            try:
                report = bench.run_sweep(config)
            except Exception as exc:  # scored by check(), never fatal to the run
                report = exc
            elapsed = clock() - start
            busy += elapsed
            samples[algo].append(elapsed / self.trials)
            outputs.append((algo, n, m, config.csv_path, report))
        return PassResult(samples=samples, items=len(outputs) * self.trials, busy_s=busy, outputs=outputs)

    def check(self, state, result):
        verdict = Verdict()
        digest = hashlib.sha256()
        ratio_meas, ratio_sig, hits = [], [], []
        for algo, n, m, path, report in result.outputs:
            verdict.attempted += self.trials
            if isinstance(report, Exception):
                verdict.failed += self.trials
                verdict.problems.append(f"{algo} n={n} N={m}: run_sweep raised {report!r}")
                continue
            with open(path, encoding="utf-8") as fh:
                trials_text = fh.read()
            with open(bench.aggregates_path(path), encoding="utf-8") as fh:
                agg_text = fh.read()
            digest.update(trials_text.encode())
            digest.update(agg_text.encode())
            bad, problems = check_sweep_cell(report, trials_text, agg_text, algo, n, m, self.trials)
            if problems:
                verdict.failed += len(bad) if bad else self.trials
                verdict.problems.extend(f"{algo} n={n} N={m}: {p}" for p in problems)
            for i, rec in enumerate(report.records):
                if i in bad:
                    continue
                verdict.rank_deficient += rec.termination == RANK_DEFICIENT
                hits.append(rec.support_hit)
                if rec.ratio_meas is not None:
                    ratio_meas.append(rec.ratio_meas)
                if rec.ratio_sig is not None:
                    ratio_sig.append(rec.ratio_sig)
        verdict.fingerprint = digest.hexdigest()
        verdict.quality = {
            "support_hit_mean": math.fsum(hits) / len(hits) if hits else 0.0,
            "ratio_meas_median": statistics.median(ratio_meas) if ratio_meas else None,
            "ratio_sig_median": statistics.median(ratio_sig) if ratio_sig else None,
        }
        return verdict


# ---------------------------------------------------------------------------
# Single large recoveries


def check_recovery(result, signal, support, sparsity):
    """``(problems, exact)`` for one recovery of a noiseless sparse signal.

    A recovery is exact when its support contains the true support; the
    least-squares estimate must then match the signal to ``EXACT_TOL``.
    """
    problems = []
    estimate = np.asarray(result.estimate)
    found = np.asarray(result.support)
    if estimate.shape != signal.shape or not np.all(np.isfinite(estimate)):
        return ["estimate is not a finite vector of the signal's length"], False
    if found.size and (np.any(np.diff(found) <= 0) or found[0] < 0 or found[-1] >= signal.size):
        problems.append("support is not a strictly increasing in-range index set")
    outside = np.ones(signal.size, dtype=bool)
    outside[found[(found >= 0) & (found < signal.size)]] = False
    if np.any(estimate[outside] != 0.0):
        problems.append("estimate has mass outside the reported support")
    if not 0 <= result.iterations <= sparsity:
        problems.append(f"{result.iterations} iterations exceed the budget {sparsity}")
    exact = bool(np.isin(support, found).all())
    if exact:
        rel = float(np.linalg.norm(estimate - signal) / np.linalg.norm(signal))
        if not rel <= EXACT_TOL:
            problems.append(f"support found but relative error {rel:.3e} > {EXACT_TOL:g}")
    return problems, exact


@dataclass(frozen=True)
class RecoverWorkload:
    """``romp_recover`` and ``omp_recover`` on one large matrix.

    Set-up builds one gaussian matrix and a pool of noiseless gaussian-sparse
    signals; a pass recovers every pooled problem with each algorithm, so
    only the recovery calls are timed.
    """

    name: str
    rows: int
    dim: int
    sparsity: int
    pool: int
    warmup: int

    def setup(self, seed, workdir):
        matrix = ensembles.build_matrix(
            ensembles.EnsembleSpec(kind="gaussian", rows=self.rows, cols=self.dim, seed=child_seed(seed, 0))
        )
        problems = []
        for i in range(self.pool):
            spec = signals.SignalSpec(kind="gaussian-sparse", dim=self.dim, sparsity=self.sparsity, seed=child_seed(seed, 1, i))
            signal, support = signals.generate_signal(spec)
            problems.append((signal, support, matrix @ signal))
        state = {"matrix": matrix, "problems": problems}
        for _, _, measured in problems[: self.warmup]:
            recovery.romp_recover(matrix, measured, self.sparsity)
            recovery.omp_recover(matrix, measured, self.sparsity)
        return state

    def latency_samples(self, passes):
        return unit_latencies(passes, 1)

    def run_pass(self, state):
        matrix = state["matrix"]
        samples = {a: [] for a in ALGORITHMS}
        outputs = []
        clock = time.perf_counter
        for index, (_, _, measured) in enumerate(state["problems"]):
            for algo in ALGORITHMS:
                recover = recovery.romp_recover if algo == "romp" else recovery.omp_recover
                start = clock()
                try:
                    output = recover(matrix, measured, self.sparsity)
                except Exception as exc:  # scored by check(), never fatal to the run
                    output = exc
                samples[algo].append(clock() - start)
                outputs.append((algo, index, output))
        busy = math.fsum(math.fsum(s) for s in samples.values())
        return PassResult(samples=samples, items=len(outputs), busy_s=busy, outputs=outputs)

    def check(self, state, result):
        verdict = Verdict()
        digest = hashlib.sha256()
        exact = {a: 0 for a in ALGORITHMS}
        calls = {a: 0 for a in ALGORITHMS}
        hits = []
        rank_error = linalg.RankDeficiencyError
        for algo, index, output in result.outputs:
            signal, support, _ = state["problems"][index]
            verdict.attempted += 1
            calls[algo] += 1
            if isinstance(output, rank_error):
                verdict.rank_deficient += 1
                digest.update(f"{algo}:{index}:{RANK_DEFICIENT}".encode())
                continue
            if isinstance(output, Exception):
                verdict.failed += 1
                verdict.problems.append(f"{algo} problem {index}: raised {output!r}")
                continue
            problems, is_exact = check_recovery(output, signal, support, self.sparsity)
            if problems:
                verdict.failed += 1
                verdict.problems.extend(f"{algo} problem {index}: {p}" for p in problems)
                continue
            exact[algo] += is_exact
            hits.append(np.isin(support, output.support).mean())
            digest.update(f"{algo}:{index}:{output.iterations}:{output.termination}".encode())
            digest.update(np.ascontiguousarray(output.support).tobytes())
            digest.update(np.ascontiguousarray(output.estimate).tobytes())
        verdict.fingerprint = digest.hexdigest()
        verdict.quality = {
            "support_hit_mean": float(np.mean(hits)) if hits else 0.0,
            **{f"{a}_exact_ratio": exact[a] / calls[a] for a in ALGORITHMS if calls[a]},
        }
        return verdict


WORKLOADS = {
    w.name: w
    for w in (
        SweepWorkload(
            name="sweep-shared",
            dim=256,
            sparsities=(4, 8, 12),
            measurement_counts=tuple(range(32, 257, 32)),
            trials=20,
            warmup_trials=4,
            ensemble="gaussian",
            signal_kind="flat-sparse",
            noise_target="measurement",
            fresh_matrix_per_trial=False,
        ),
        SweepWorkload(
            name="sweep-fresh",
            dim=512,
            sparsities=(8, 16),
            measurement_counts=(128, 256),
            trials=32,
            warmup_trials=4,
            ensemble="partial-fourier-real",
            signal_kind="power-law",
            noise_target="signal",
            fresh_matrix_per_trial=True,
        ),
        RecoverWorkload(
            name="recover-large",
            rows=512,
            dim=2048,
            sparsity=40,
            pool=160,
            warmup=2,
        ),
    )
}
