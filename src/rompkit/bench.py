"""Monte-Carlo benchmark harness for the recovery algorithms.

A sweep covers a grid of (algorithm, sparsity, measurement count) cells at a
fixed ambient dimension.  Within a cell one measurement matrix is shared by
all trials (the default; ``fresh_matrix_per_trial`` flips this) while signal
and noise come from per-trial streams.  A row's recorded seed fixes its
signal and noise; its matrix comes from the master seed and the cell (and
the trial, with fresh matrices), so replaying one trial takes the sweep's
config plus the row's cell and trial index.  Rows are emitted in
deterministic (cell, trial) order and floats are serialized with shortest
round-trip formatting, making the CSV byte-stable under a fixed master seed.
"""

import csv
import math
from dataclasses import dataclass, fields

import numpy as np

from .ensembles import EnsembleSpec, build_matrix
from .linalg import RankDeficiencyError
from .recovery import omp_recover, romp_recover, verify_iteration_invariants
from .rng import derive_seed
from .signals import (
    POWER_LAW,
    NoiseSpec,
    SignalSpec,
    add_noise,
    best_m_term,
    generate_signal,
)
from . import svgplot

__all__ = [
    "ALGORITHMS",
    "TRIAL_CSV_HEADER",
    "AGGREGATE_CSV_HEADER",
    "TrialRecord",
    "TrialOutcome",
    "CellAggregate",
    "SweepConfig",
    "SweepReport",
    "run_trial",
    "run_cell",
    "run_sweep",
    "aggregate_records",
    "write_trials_csv",
    "write_aggregates_csv",
    "aggregates_path",
    "sweep_svg",
    "truncated_error",
    "truncation_inequality_slack",
]

ALGORITHMS = ("romp", "omp")

# Stream tags under the master seed; see rompkit.rng for the derivation rule.
_STREAM_MATRIX = 0
_STREAM_TRIAL = 1
_STREAM_SIGNAL = 2
_STREAM_NOISE = 3

RANK_DEFICIENT = "rank-deficient"

TRIAL_CSV_HEADER = (
    "algo,N,d,n,trial,seed,sigma,noise_target,norm_e,err2,err2_2n,tail1,"
    "ratio_meas,ratio_sig,iterations,support_hit,termination"
)
AGGREGATE_CSV_HEADER = (
    "algo,N,d,n,trials,err2_mean,err2_median,ratio_meas_mean,ratio_meas_median,"
    "ratio_meas_q90,ratio_sig_mean,ratio_sig_median,ratio_sig_q90,"
    "support_hit_mean,iterations_mean,failures"
)


@dataclass(frozen=True)
class TrialRecord:
    """One Monte-Carlo trial; maps 1:1 onto a CSV row.

    ``ratio_meas`` is the recovery error over the measurement-noise norm and
    is None when there is no measurement noise; ``ratio_sig`` is the error to
    the best 2n-term approximation over the scaled 1-norm tail and is None
    when the signal is exactly n-sparse.  None serializes as an empty field.
    """

    algo: str
    measurements: int
    dim: int
    sparsity: int
    trial: int
    seed: int
    sigma: float
    noise_target: str
    norm_e: float
    err2: float
    err2_2n: float
    tail1: float
    ratio_meas: float | None
    ratio_sig: float | None
    iterations: int
    support_hit: float
    termination: str


@dataclass
class TrialOutcome:
    """A TrialRecord plus the vectors behind it, for invariant checks."""

    record: TrialRecord
    matrix: np.ndarray
    signal: np.ndarray
    measured: np.ndarray
    estimate: np.ndarray
    result: object  # RecoveryResult, or None when recovery raised


@dataclass(frozen=True)
class CellAggregate:
    algo: str
    measurements: int
    dim: int
    sparsity: int
    trials: int
    err2_mean: float
    err2_median: float
    ratio_meas_mean: float | None
    ratio_meas_median: float | None
    ratio_meas_q90: float | None
    ratio_sig_mean: float | None
    ratio_sig_median: float | None
    ratio_sig_q90: float | None
    support_hit_mean: float
    iterations_mean: float
    failures: int


@dataclass(frozen=True)
class SweepConfig:
    """Grid description for one Monte-Carlo sweep.

    ``sigma=None`` picks the noise scale automatically per trial:
    sigma = 0.1 * ||Phi v||_2 / sqrt(k) with k the noise dimension (N for
    measurement noise, d for signal noise), so the realized noise norm is
    about a tenth of the clean measurement norm.

    Construction checks the whole grid: it rejects a repeated sparsity,
    measurement count or algorithm and builds the noise spec, one ensemble
    spec per N and one signal spec per n, so an invalid cell raises
    ``ValueError`` here, before a sweep opens any output file.
    """

    dim: int
    sparsities: tuple
    measurement_counts: tuple
    trials: int
    ensemble: str = "gaussian"
    signal_kind: str = "flat-sparse"
    noise_target: str = "measurement"
    sigma: float | None = None
    power_exponent: float = 2.0
    power_scale: float = 1.0
    algorithms: tuple = ("romp",)
    seed: int = 0
    csv_path: str | None = None
    svg_path: str | None = None
    trace: bool = False
    fresh_matrix_per_trial: bool = False

    def __post_init__(self):
        object.__setattr__(self, "sparsities", tuple(int(n) for n in self.sparsities))
        object.__setattr__(self, "measurement_counts", tuple(int(m) for m in self.measurement_counts))
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not self.sparsities or not self.measurement_counts:
            raise ValueError("sparsities and measurement_counts must be nonempty")
        for name in ("sparsities", "measurement_counts", "algorithms"):
            values = getattr(self, name)
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise ValueError(f"{name} repeats {value!r}; each grid value runs once")
        for algo in self.algorithms:
            if algo not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {algo!r}")
        for n in self.sparsities:
            if n < 1:
                raise ValueError("sparsity levels must be positive")
            if 3 * n > self.dim:
                raise ValueError(f"sparsity {n} too large: need 3*n <= dim = {self.dim}")
            _signal_spec(self, n, self.seed)
        for m in self.measurement_counts:
            EnsembleSpec(kind=self.ensemble, rows=m, cols=self.dim, seed=self.seed)
        NoiseSpec(self.noise_target, self.sigma or 0.0, self.seed)


@dataclass
class SweepReport:
    config: SweepConfig
    records: list
    cells: list  # CellAggregate, in emission order


def _matrix_seed(config, sparsity, measurements, trial):
    path = [_STREAM_MATRIX, measurements, sparsity]
    if config.fresh_matrix_per_trial:
        path.append(trial)
    return derive_seed(config.seed, *path)


def _signal_spec(config, sparsity, seed):
    if config.signal_kind == POWER_LAW:
        return SignalSpec(
            kind=POWER_LAW,
            dim=config.dim,
            exponent=config.power_exponent,
            scale=config.power_scale,
            seed=seed,
        )
    return SignalSpec(kind=config.signal_kind, dim=config.dim, sparsity=sparsity, seed=seed)


def build_cell_matrix(config, sparsity, measurements, trial=0):
    """Measurement matrix for one sweep cell (trial-dependent only when fresh)."""
    spec = EnsembleSpec(
        kind=config.ensemble,
        rows=measurements,
        cols=config.dim,
        seed=_matrix_seed(config, sparsity, measurements, trial),
    )
    return build_matrix(spec)


def run_trial(config, algo, sparsity, measurements, trial, matrix=None):
    """Run one trial; the TrialOutcome keeps the vectors behind its record.

    The trial is fully determined by (config.seed, cell, trial): the signal
    and noise streams are derived from the recorded per-trial seed.  A
    recovery run that dies in the least-squares step (numerically dependent
    columns, i.e. far outside the isometry regime) is scored as a total miss:
    zero estimate, termination ``rank-deficient``.  ``algo`` must be one of
    ``ALGORITHMS`` exactly; any other name raises ``ValueError``.
    """
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algo!r}")
    if matrix is None:
        matrix = build_cell_matrix(config, sparsity, measurements, trial)
    trial_seed = derive_seed(config.seed, _STREAM_TRIAL, measurements, sparsity, trial)
    signal_seed = derive_seed(trial_seed, _STREAM_SIGNAL)
    noise_seed = derive_seed(trial_seed, _STREAM_NOISE)

    base, base_support = generate_signal(_signal_spec(config, sparsity, signal_seed))
    clean = matrix @ base

    if config.noise_target == "signal":
        sigma = config.sigma
        if sigma is None:
            sigma = 0.1 * np.linalg.norm(clean) / math.sqrt(config.dim)
        signal, _ = add_noise(base, NoiseSpec("signal", sigma, noise_seed))
        measured = matrix @ signal
        norm_e = 0.0
    else:
        sigma = config.sigma
        if sigma is None:
            sigma = 0.1 * np.linalg.norm(clean) / math.sqrt(measurements)
        signal = base
        measured, noise = add_noise(clean, NoiseSpec("measurement", sigma, noise_seed))
        norm_e = float(np.linalg.norm(noise))

    recover = romp_recover if algo == "romp" else omp_recover
    result = None
    try:
        result = recover(matrix, measured, sparsity, trace=config.trace)
        estimate = result.estimate
        iterations = result.iterations
        termination = result.termination
        found = result.support
    except RankDeficiencyError:
        estimate = np.zeros(config.dim)
        iterations = 0
        termination = RANK_DEFICIENT
        found = np.empty(0, dtype=np.int64)

    err2 = float(np.linalg.norm(estimate - signal))
    top_2n = best_m_term(signal, 2 * sparsity)
    err2_2n = float(np.linalg.norm(estimate - top_2n))
    tail1 = float(np.sum(np.abs(signal - best_m_term(signal, sparsity))))
    ratio_meas = err2 / norm_e if norm_e > 0.0 else None
    ratio_sig = err2_2n / (tail1 / math.sqrt(sparsity)) if tail1 > 0.0 else None
    hit = np.intersect1d(base_support, found).size / base_support.size

    record = TrialRecord(
        algo=algo,
        measurements=measurements,
        dim=config.dim,
        sparsity=sparsity,
        trial=trial,
        seed=trial_seed,
        sigma=float(sigma),
        noise_target=config.noise_target,
        norm_e=norm_e,
        err2=err2,
        err2_2n=err2_2n,
        tail1=tail1,
        ratio_meas=ratio_meas,
        ratio_sig=ratio_sig,
        iterations=iterations,
        support_hit=float(hit),
        termination=termination,
    )
    return TrialOutcome(
        record=record,
        matrix=matrix,
        signal=signal,
        measured=measured,
        estimate=estimate,
        result=result,
    )


def run_cell(config, algo, sparsity, measurements):
    """Yield the TrialOutcome of each trial of one cell, in trial order."""
    matrix = None
    if not config.fresh_matrix_per_trial:
        matrix = build_cell_matrix(config, sparsity, measurements)
    for trial in range(config.trials):
        yield run_trial(config, algo, sparsity, measurements, trial, matrix=matrix)


def _quantiles(values):
    if not values:
        return None, None, None
    arr = np.asarray(values)
    return (
        float(np.mean(arr)),
        float(np.median(arr)),
        float(np.quantile(arr, 0.9)),
    )


def aggregate_records(records):
    """Per-cell aggregates, grouped by (algo, n, N) in first-seen order.

    Means/medians/quantiles of the ratio columns are taken over the trials
    where the ratio is defined; a cell with no defined ratios gets None.
    These are exact functions of the trial rows, so an independent reader of
    the trial CSV can recompute them.
    """
    order = []
    groups = {}
    for rec in records:
        key = (rec.algo, rec.sparsity, rec.measurements)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(rec)
    cells = []
    for key in order:
        group = groups[key]
        err2 = np.asarray([r.err2 for r in group])
        rm_mean, rm_median, rm_q90 = _quantiles([r.ratio_meas for r in group if r.ratio_meas is not None])
        rs_mean, rs_median, rs_q90 = _quantiles([r.ratio_sig for r in group if r.ratio_sig is not None])
        cells.append(
            CellAggregate(
                algo=key[0],
                measurements=key[2],
                dim=group[0].dim,
                sparsity=key[1],
                trials=len(group),
                err2_mean=float(np.mean(err2)),
                err2_median=float(np.median(err2)),
                ratio_meas_mean=rm_mean,
                ratio_meas_median=rm_median,
                ratio_meas_q90=rm_q90,
                ratio_sig_mean=rs_mean,
                ratio_sig_median=rs_median,
                ratio_sig_q90=rs_q90,
                support_hit_mean=float(np.mean([r.support_hit for r in group])),
                iterations_mean=float(np.mean([r.iterations for r in group])),
                failures=sum(1 for r in group if r.termination == RANK_DEFICIENT),
            )
        )
    return cells


def _csv_value(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path, header, rows):
    """One CSV line per dataclass in ``rows``, its fields in declaration order."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header.split(","))
        for row in rows:
            writer.writerow(_csv_value(getattr(row, f.name)) for f in fields(row))


def write_trials_csv(path, records):
    _write_csv(path, TRIAL_CSV_HEADER, records)


def write_aggregates_csv(path, cells):
    _write_csv(path, AGGREGATE_CSV_HEADER, cells)


def aggregates_path(csv_path):
    """Sibling path for the aggregate table (`out.csv` -> `out.agg.csv`)."""
    if csv_path.endswith(".csv"):
        return csv_path[: -len(".csv")] + ".agg.csv"
    return csv_path + ".agg.csv"


def _plot_metric(config):
    if config.noise_target == "signal" or config.signal_kind == POWER_LAW:
        return "ratio_sig_mean", "mean error / scaled 1-norm tail"
    if config.sigma is None or config.sigma > 0:
        return "ratio_meas_mean", "mean error-to-noise ratio"
    return "err2_mean", "mean recovery error"


def sweep_svg(config, cells):
    """Figure-style plot: metric vs measurement count, one polyline per n."""
    metric, metric_label = _plot_metric(config)
    series = []
    for algo in config.algorithms:
        for n in config.sparsities:
            pts = [
                (c.measurements, getattr(c, metric))
                for c in cells
                if c.algo == algo and c.sparsity == n
            ]
            label = f"{algo} n={n}" if len(config.algorithms) > 1 else f"n={n}"
            series.append((label, pts))
    title = f"{metric_label} (d={config.dim}, {config.signal_kind}, {config.trials} trials)"
    return svgplot.line_plot(
        series,
        title=title,
        x_label="measurements N",
        y_label=metric_label,
    )


def run_sweep(config):
    """Run the whole grid and emit CSV / SVG artifacts.

    Output rows appear in deterministic (algorithm, sparsity, measurement
    count, trial) order.  The trial CSV follows ``TRIAL_CSV_HEADER``; the
    aggregate table goes to a sibling ``.agg.csv`` file.  Output paths are
    opened for appending before any computation, so an unwritable
    destination fails fast, while existing files keep their contents until
    the sweep has finished and overwrites them.
    With ``config.trace`` every completed recovery must pass
    :func:`verify_iteration_invariants` and the truncation inequality, or
    the sweep raises ``RuntimeError`` naming the cell.
    """
    paths = []
    if config.csv_path:
        paths += [config.csv_path, aggregates_path(config.csv_path)]
    if config.svg_path:
        paths.append(config.svg_path)
    for path in paths:
        with open(path, "a", encoding="utf-8"):
            pass

    records = []
    for algo in config.algorithms:
        for n in config.sparsities:
            for measurements in config.measurement_counts:
                for outcome in run_cell(config, algo, n, measurements):
                    if config.trace and outcome.result is not None:
                        problems = verify_iteration_invariants(
                            outcome.matrix, outcome.measured, n, outcome.result
                        )
                        if truncation_inequality_slack(outcome.signal, outcome.estimate, n) > 1e-10:
                            problems.append("truncation inequality violated")
                        if problems:
                            raise RuntimeError(
                                f"iteration invariants violated in cell (algo={algo}, n={n}, "
                                f"N={measurements}, trial={outcome.record.trial}): "
                                + "; ".join(problems)
                            )
                    records.append(outcome.record)
                    # Drop the outcome (and a fresh matrix with it) before the
                    # next trial builds its own, so two never coexist.
                    del outcome
    cells = aggregate_records(records)
    if config.csv_path:
        write_trials_csv(config.csv_path, records)
        write_aggregates_csv(aggregates_path(config.csv_path), cells)
    if config.svg_path:
        with open(config.svg_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(sweep_svg(config, cells))
    return SweepReport(config=config, records=records, cells=cells)


def truncated_error(signal, estimate, sparsity):
    """Distance between the best 2n-term approximations of signal and estimate.

    Geometry guarantees this never exceeds three times the distance from the
    signal's best 2n-term approximation to the full estimate; sweeps in trace
    mode assert that inequality on every trial.
    """
    v = np.asarray(signal, dtype=np.float64)
    v_hat = np.asarray(estimate, dtype=np.float64)
    m = 2 * int(sparsity)
    return float(np.linalg.norm(best_m_term(v, m) - best_m_term(v_hat, m)))


def truncation_inequality_slack(signal, estimate, sparsity):
    """lhs - 3*rhs for the truncation inequality; non-positive (mod roundoff)."""
    v = np.asarray(signal, dtype=np.float64)
    v_hat = np.asarray(estimate, dtype=np.float64)
    m = 2 * int(sparsity)
    lhs = truncated_error(v, v_hat, sparsity)
    rhs = float(np.linalg.norm(best_m_term(v, m) - v_hat))
    return lhs - 3.0 * rhs
