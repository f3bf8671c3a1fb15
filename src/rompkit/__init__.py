"""Sparse signal recovery from incomplete, noisy linear measurements.

Regularized orthogonal matching pursuit (ROMP) with an OMP baseline,
random measurement-matrix ensembles with an empirical isometry probe,
test-signal generators, and a reproducible Monte-Carlo benchmark harness.
"""

from .bench import (
    SweepConfig,
    SweepReport,
    TrialRecord,
    aggregate_records,
    run_sweep,
    run_trial,
    run_trial_detailed,
    truncated_error,
)
from .ensembles import EnsembleSpec, RicEstimate, build_matrix, probe_ric
from .linalg import RankDeficiencyError, least_squares
from .recovery import (
    RecoveryResult,
    identify,
    omp_recover,
    regularize,
    romp_recover,
    verify_iteration_invariants,
)
from .rng import derive_seed, substream
from .signals import NoiseSpec, SignalSpec, add_noise, best_m_term, generate_signal

__version__ = "0.1.0"

__all__ = [
    "EnsembleSpec",
    "NoiseSpec",
    "RankDeficiencyError",
    "RecoveryResult",
    "RicEstimate",
    "SignalSpec",
    "SweepConfig",
    "SweepReport",
    "TrialRecord",
    "add_noise",
    "aggregate_records",
    "best_m_term",
    "build_matrix",
    "derive_seed",
    "generate_signal",
    "identify",
    "least_squares",
    "omp_recover",
    "probe_ric",
    "regularize",
    "romp_recover",
    "run_sweep",
    "run_trial",
    "run_trial_detailed",
    "substream",
    "truncated_error",
    "verify_iteration_invariants",
]
