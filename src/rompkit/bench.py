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
A cell derives its trials' seeds and stream keys, and a fresh cell its
matrices' keys, in batched passes before its first block.  It recovers its
trials in lockstep blocks of :func:`rompkit.recovery.lockstep_width`
trials, through one matrix or, in a fresh cell, a stack with one lane per
trial, each drawn from its trial's key; a fresh Gaussian or Bernoulli block
holds at most ``LOCKSTEP_BYTES`` of drawn matrices, or one matrix when a
single one is larger.  A partial-Fourier matrix is a
:class:`rompkit.ensembles.PartialFourier` operator, never built, not even
to check a traced trial.  :func:`run_trial` is :func:`run_cell`'s
one-trial case, so each row equals what it computes for that trial alone.
"""

import csv
import itertools
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .ensembles import PARTIAL_FOURIER_REAL, EnsembleSpec, _as_operator, _draw_matrix, build_matrix, partial_fourier
from .linalg import RankDeficiencyError, as_integer
from .recovery import ALGORITHMS, lockstep_width, recover_block, verify_iteration_invariants
from .rng import _rekey, derive_seed, generate_states
from .signals import POWER_LAW, NoiseSpec, SignalSpec, _draw_signal, best_m_term
from . import recovery, svgplot

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
    matrix: object  # np.ndarray, or a PartialFourier of one matrix
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

    Construction checks the whole grid: it rejects a ``dim``, ``trials``,
    ``seed`` or grid value that is not an integer (floats are never
    truncated) or is below its bound, a grid axis that is a scalar or a
    string instead of a sequence, a repeated sparsity, measurement
    count or algorithm, and builds the noise spec, one ensemble spec per N
    and one signal spec per n, so an invalid cell raises ``ValueError``
    here, before a sweep opens any output file.
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
        for name, minimum in (("dim", 1), ("trials", 1), ("seed", 0)):
            object.__setattr__(self, name, as_integer(getattr(self, name), name, minimum))
        for name in ("sparsities", "measurement_counts", "algorithms"):
            values = getattr(self, name)
            if isinstance(values, (str, bytes)) or not np.iterable(values):
                raise ValueError(f"{name} must be a sequence of grid values, got {values!r}")
            values = [v if name == "algorithms" else as_integer(v, f"each of {name}", 1) for v in values]
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise ValueError(f"{name} repeats {value!r}; each grid value runs once")
            object.__setattr__(self, name, tuple(values))
        if not self.sparsities or not self.measurement_counts:
            raise ValueError("sparsities and measurement_counts must be nonempty")
        for algo in self.algorithms:
            if algo not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {algo!r}")
        for n in self.sparsities:
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
    """Measurement matrix for one sweep cell (trial-dependent only when fresh).

    A partial-Fourier cell gets its :class:`PartialFourier` operator, and
    no matrix is built.
    """
    path = [_STREAM_MATRIX, measurements, sparsity]
    if config.fresh_matrix_per_trial:
        path.append(trial)
    spec = EnsembleSpec(
        kind=config.ensemble,
        rows=measurements,
        cols=config.dim,
        seed=derive_seed(config.seed, *path),
    )
    return partial_fourier(spec) if spec.kind == PARTIAL_FOURIER_REAL else build_matrix(spec)


def _streams(config, sparsity, measurements, trials):
    """``(trial, seed, signal key, noise key)`` of each trial, in three batched passes: the
    seeds ``derive_seed(config.seed, _STREAM_TRIAL, N, n, t)``, their ``derive_seed(seed,
    _STREAM_SIGNAL)`` and ``(seed, _STREAM_NOISE)``, and the Philox keys ``substream`` gives those."""
    seeds = generate_states([[config.seed, _STREAM_TRIAL, measurements, sparsity, t] for t in trials], 1)[:, 0].tolist()
    children = generate_states([[seed, tag] for seed in seeds for tag in (_STREAM_SIGNAL, _STREAM_NOISE)], 1)
    keys = generate_states(children.tolist(), 2).reshape(len(seeds), 2, 2)
    return list(zip(trials, seeds, keys[:, 0], keys[:, 1]))


def _matrix_streams(config, sparsity, measurements, trials):
    """The Philox key of each fresh trial's matrix, in two batched passes: the seeds
    ``derive_seed(config.seed, _STREAM_MATRIX, N, n, t)`` and the keys ``substream`` gives them."""
    seeds = generate_states([[config.seed, _STREAM_MATRIX, measurements, sparsity, t] for t in trials], 1)
    return generate_states(seeds.tolist(), 2)


def _norms(rows):
    """Each row's 2-norm, one dot product per row as ``np.linalg.norm`` takes it."""
    return np.sqrt(rows[:, None, :] @ rows[:, :, None]).ravel()


def _draw(config, sparsity, measurements, streams, phi, generator):
    """A block's sigmas, noise norms, base supports (a bool mask), signals and measurements: each trial's
    drawn from its own streams through ``generator``, restarted at their keys, then measured in one ``phi.apply``."""
    spec = _signal_spec(config, sparsity, config.seed)  # its seed is unused: the keys name the streams
    noise_dim = config.dim if config.noise_target == "signal" else measurements
    signals = np.empty((len(streams), config.dim))
    noise = np.empty((len(streams), noise_dim))
    support = np.zeros((len(streams), config.dim), dtype=bool)
    for i, (_, _, signal_key, noise_key) in enumerate(streams):
        signals[i], base_support = _draw_signal(spec, _rekey(generator, signal_key))
        support[i, base_support] = True
        # add_noise's draw, from the trial's noise stream.
        noise[i] = _rekey(generator, noise_key).standard_normal(noise_dim)
    clean = phi.apply(signals)
    if config.sigma is None:
        sigmas = 0.1 * _norms(clean) / math.sqrt(noise_dim)
    else:
        sigmas = np.full(len(streams), float(config.sigma))
    noise *= sigmas[:, None]
    if config.noise_target == "signal":
        signals += noise
        return sigmas.tolist(), [0.0] * len(streams), support, signals, phi.apply(signals)
    return sigmas.tolist(), _norms(noise).tolist(), support, signals, clean + noise


def _score(config, algo, sparsity, measurements, streams, matrices, draws, results):
    """The TrialOutcomes of a drawn block, given what each recovery returned or raised.

    A RankDeficiencyError is scored as a total miss; any other exception is
    raised.  Scores are stacked over the block, bit-equal to ``best_m_term``,
    ``np.linalg.norm`` and ``np.intersect1d`` on each trial.
    """
    sigmas, norms, support, signal, measured = draws
    estimates = np.zeros_like(signal)
    found = np.zeros_like(support)
    for i, result in enumerate(results):
        if isinstance(result, RankDeficiencyError):
            results[i] = None
        elif isinstance(result, Exception):
            raise result
        else:
            estimates[i] = result.estimate
            found[i, result.support] = True

    lanes = np.arange(len(results))[:, None]
    # Ties toward lower indices, as best_m_term breaks them.
    ranked = (-np.abs(signal)).argsort(axis=1, kind="stable")
    top = ranked[:, : 2 * sparsity]
    top_2n = np.zeros_like(signal)
    top_2n[lanes, top] = signal[lanes, top]
    tail = np.abs(signal)
    tail[lanes, ranked[:, :sparsity]] = 0.0
    hits = (found & support).sum(axis=1) / support.sum(axis=1)
    scores = [_norms(estimates - signal), _norms(estimates - top_2n)]
    scores += [tail.sum(axis=1), hits]

    outcomes = []
    for i, ((trial, seed, _, _), result) in enumerate(zip(streams, results)):
        err2, err2_2n, tail1, hit = (score[i].item() for score in scores)
        record = TrialRecord(
            algo=algo, measurements=measurements, dim=config.dim, sparsity=sparsity, trial=trial, seed=seed,
            sigma=sigmas[i], noise_target=config.noise_target, norm_e=norms[i],
            err2=err2, err2_2n=err2_2n, tail1=tail1,
            ratio_meas=err2 / norms[i] if norms[i] > 0.0 else None,
            ratio_sig=err2_2n / (tail1 / math.sqrt(sparsity)) if tail1 > 0.0 else None,
            iterations=result.iterations if result else 0,
            support_hit=hit,
            termination=result.termination if result else RANK_DEFICIENT,
        )
        outcomes.append(TrialOutcome(record, matrices[i], signal[i], measured[i], estimates[i], result))
    return outcomes


def _run_block(config, algo, sparsity, measurements, streams, matrices, generator):
    """TrialOutcomes of the trials in ``streams``, recovered in one lockstep block.

    ``matrices`` holds each trial's matrix or, in a fresh cell, its key from
    :func:`_matrix_streams`; the matrix is then drawn here from ``generator``
    restarted at the key, equal to :func:`build_cell_matrix`'s, and held only
    by the returned outcomes.  The ensembles entry makes the block's matrices
    one operator, checked once, which measures the block and is recovered
    through.  Signal and noise come from ``generator``, re-keyed per stream.
    """
    if config.fresh_matrix_per_trial:
        spec = EnsembleSpec(config.ensemble, measurements, config.dim)  # its seed is unused: each key names a matrix
        matrices = [_draw_matrix(spec, _rekey(generator, key)) for key in matrices]
    phi = _as_operator(matrices)
    draws = _draw(config, sparsity, measurements, streams, phi, generator)
    results = recover_block(algo, phi, draws[-1], sparsity, trace=config.trace)
    return _score(config, algo, sparsity, measurements, streams, matrices, draws, results)


def _outcomes(config, algo, sparsity, measurements, trials):
    """An iterator over the TrialOutcomes of ``trials`` of one cell, checked and set up at the call.

    Each block runs as the iterator reaches it, so a fresh cell draws a
    block's matrices only once the previous block's are held by nothing but
    their outcomes.
    """
    sparsity = as_integer(sparsity, "sparsity", 1)
    measurements = as_integer(measurements, "measurements", 1)
    # SweepConfig's own checks, run on this one cell; the copy is not kept.
    replace(config, algorithms=(algo,), sparsities=(sparsity,), measurement_counts=(measurements,))
    width = lockstep_width(algo, measurements, config.dim, sparsity)
    if config.fresh_matrix_per_trial:
        matrices = _matrix_streams(config, sparsity, measurements, trials)
        if config.ensemble != PARTIAL_FOURIER_REAL:
            width = min(width, max(1, recovery.LOCKSTEP_BYTES // (8 * measurements * config.dim)))
    else:
        matrices = [build_cell_matrix(config, sparsity, measurements)] * len(trials)
    streams = _streams(config, sparsity, measurements, trials)
    # One Philox for the cell, restarted at each stream's key.
    generator = np.random.Generator(np.random.Philox(0))
    return itertools.chain.from_iterable(
        _run_block(config, algo, sparsity, measurements, streams[lo : lo + width], matrices[lo : lo + width], generator)
        for lo in range(0, len(streams), width)
    )


def run_trial(config, algo, sparsity, measurements, trial):
    """Run one trial as :func:`run_cell` does; its TrialOutcome keeps the vectors behind the record.

    The record equals that trial's row of any sweep.  A recovery run that
    dies in the least-squares step (numerically dependent columns, i.e. far
    outside the isometry regime) is scored as a total miss: zero estimate,
    termination ``rank-deficient``.  The cell is checked as
    :func:`run_cell` checks it, and a float or negative ``trial`` raises
    ``ValueError`` naming it.
    """
    (outcome,) = _outcomes(config, algo, sparsity, measurements, [as_integer(trial, "trial", 0)])
    return outcome


def run_cell(config, algo, sparsity, measurements):
    """An iterator over the TrialOutcome of each trial of one cell, in trial order.

    The cell is checked at the call: a ``sparsity`` or ``measurements`` that
    is a float or below 1 raises ``ValueError`` naming it, as do an unknown
    ``algo``, 3n > d and an N the ensemble rejects, by :class:`SweepConfig`'s
    rule, fresh cells included.  Blocks run as the module docstring
    describes, and each row equals :func:`run_trial`'s.
    """
    return _outcomes(config, algo, sparsity, measurements, range(config.trials))


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
    groups = {}
    for rec in records:
        groups.setdefault((rec.algo, rec.sparsity, rec.measurements), []).append(rec)
    cells = []
    for key, group in groups.items():
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
                    # Drop the outcome (and a fresh matrix with it) before the next block
                    # draws its own, so a fresh cell holds one block of matrices at a time.
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
    mode assert that inequality on every trial.  ``sparsity`` must be an
    integer of at least 1; a float, even 2.0, raises ``ValueError``.
    """
    v = np.asarray(signal, dtype=np.float64)
    v_hat = np.asarray(estimate, dtype=np.float64)
    m = 2 * as_integer(sparsity, "sparsity", 1)
    return float(np.linalg.norm(best_m_term(v, m) - best_m_term(v_hat, m)))


def truncation_inequality_slack(signal, estimate, sparsity):
    """lhs - 3*rhs for the truncation inequality; non-positive (mod roundoff)."""
    v = np.asarray(signal, dtype=np.float64)
    v_hat = np.asarray(estimate, dtype=np.float64)
    m = 2 * as_integer(sparsity, "sparsity", 1)
    rhs = float(np.linalg.norm(best_m_term(v, m) - v_hat))
    return truncated_error(v, v_hat, sparsity) - 3.0 * rhs
