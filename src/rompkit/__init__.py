"""Sparse signal recovery from incomplete, noisy linear measurements.

Regularized orthogonal matching pursuit (ROMP) with an OMP baseline,
random measurement-matrix ensembles with an empirical isometry probe,
test-signal generators, and a reproducible Monte-Carlo benchmark harness.
"""

from .bench import SweepConfig, run_sweep
from .ensembles import EnsembleSpec, build_matrix, probe_ric
from .linalg import RankDeficiencyError
from .recovery import RecoveryResult, omp_recover, romp_recover
from .signals import SignalSpec, generate_signal

__version__ = "0.1.0"

__all__ = [
    "EnsembleSpec",
    "RankDeficiencyError",
    "RecoveryResult",
    "SignalSpec",
    "SweepConfig",
    "build_matrix",
    "generate_signal",
    "omp_recover",
    "probe_ric",
    "romp_recover",
    "run_sweep",
]
