"""Per-layer tracing from outside the package.

The package is not instrumented.  Instead :class:`Tracer` rebinds, for the
duration of a ``with tracer.installed(rompkit):`` block, every module
attribute of the package that refers to one of the ``TRACED`` functions, so
``rompkit.recovery.least_squares`` and ``rompkit.linalg.least_squares`` both
reach the same timing wrapper.  A function the package no longer has is
skipped and reports zero calls.

Each wrapper records a call count and self time: its own duration minus the
time covered by traced calls made inside it.  Untraced helpers count towards
the self time of the traced function that called them.  The correlation
``Phi.T @ r`` and the support bookkeeping are inline in the recovery loops, so
they show up as the self time of ``romp_recover``/``omp_recover``.  Spans are
aggregated as they close rather than stored, so a long traced run costs no
memory.

A few functions also get a hook that reads counts from their arguments and
results (iterations, termination reasons, regularization yield, refit column
counts, and flops/bytes computed from array shapes).  Hook time is excluded
from every self time and falls into the unattributed remainder.
"""

import contextlib
import functools
import sys
import time

TRACED = (
    "recovery.romp_recover",
    "recovery.omp_recover",
    "recovery.identify",
    "recovery.regularize",
    "linalg.least_squares",
    "linalg.embed_coefficients",
    "linalg.index_set",
    "linalg.as_matrix",
    "linalg.as_vector",
    "ensembles.build_matrix",
    "signals.generate_signal",
    "signals.add_noise",
    "signals.best_m_term",
    "rng.derive_seed",
    "rng.substream",
    "bench.run_sweep",
    "bench.run_trial",
    "bench.aggregate_records",
    "bench.write_trials_csv",
    "bench.write_aggregates_csv",
)

RANK_DEFICIENT = "rank-deficient"
OTHER = "other"
TERMINATIONS = ("max-iterations", "support-budget", "zero-observation", "zero-residual", RANK_DEFICIENT, OTHER)

COUNTERS = (
    "recovery.iterations",
    "correlation.flops",
    "correlation.bytes",
    "regularize.candidates",
    "regularize.kept",
    "least_squares.cols",
    "least_squares.flops",
    "least_squares.bytes",
) + tuple(f"termination.{t}" for t in TERMINATIONS)


def _first_arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _recover_hook(tracer, args, kwargs, result, exc):
    c = tracer.counts
    if exc is not None:
        if isinstance(exc, tracer.rank_error):
            c["termination.rank-deficient"] += 1
        return
    c["recovery.iterations"] += result.iterations
    reason = result.termination if result.termination in TERMINATIONS else OTHER
    c[f"termination.{reason}"] += 1
    # One correlation Phi^T r per completed iteration, plus the one that found
    # a zero observation and ended the loop: 2Nd flops over 8Nd bytes each.
    correlations = result.iterations + (reason == "zero-observation")
    rows, cols = _first_arg(args, kwargs, 0, "matrix").shape
    c["correlation.flops"] += 2 * rows * cols * correlations
    c["correlation.bytes"] += 8 * rows * cols * correlations


def _regularize_hook(tracer, args, kwargs, result, exc):
    if exc is None:
        tracer.counts["regularize.candidates"] += len(_first_arg(args, kwargs, 1, "candidates"))
        tracer.counts["regularize.kept"] += len(result)


def _least_squares_hook(tracer, args, kwargs, result, exc):
    rows, cols = _first_arg(args, kwargs, 0, "a").shape
    c = tracer.counts
    c["least_squares.cols"] += cols
    # Householder QR (2Nk^2 - 2k^3/3), Q^T x (2Nk), back-substitution (k^2),
    # and the caller's residual x - A y (2Nk); bytes: one pass over A.
    c["least_squares.flops"] += 2 * rows * cols * cols - (2 * cols**3) / 3 + 4 * rows * cols + cols * cols
    c["least_squares.bytes"] += 8 * rows * cols


HOOKS = {
    "recovery.romp_recover": _recover_hook,
    "recovery.omp_recover": _recover_hook,
    "recovery.regularize": _regularize_hook,
    "linalg.least_squares": _least_squares_hook,
}


class Tracer:
    """Call counts, self times and argument-derived counts for ``TRACED``."""

    def __init__(self):
        self.calls = dict.fromkeys(TRACED, 0)
        self.self_s = dict.fromkeys(TRACED, 0.0)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.rank_error = ()
        self._stack = []

    def _wrap(self, name, fn):
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        hook = HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                end = clock()
                child = stack.pop()
                calls[name] += 1
                self_s[name] += end - start - child
                if hook is not None:
                    hook(self, args, kwargs, result, exc)
                if stack:
                    stack[-1] += clock() - start

        return traced

    @contextlib.contextmanager
    def installed(self, package):
        """Rebind the traced functions throughout ``package`` while the block runs."""
        prefix = package.__name__
        modules = [m for n, m in list(sys.modules.items()) if n == prefix or n.startswith(prefix + ".")]
        linalg = sys.modules.get(prefix + ".linalg")
        self.rank_error = getattr(linalg, "RankDeficiencyError", ())
        restore = []
        try:
            for name in TRACED:
                module_name, attr = name.split(".")
                original = getattr(sys.modules.get(f"{prefix}.{module_name}"), attr, None)
                if original is None:
                    continue
                wrapper = self._wrap(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            restore.append((module, key, value))
                            setattr(module, key, wrapper)
            yield self
        finally:
            for module, key, value in reversed(restore):
                setattr(module, key, value)

    def layer_metrics(self, passes, wall_s):
        """Per-pass figures for the per-layer section of the result line.

        ``wall_s`` is the total traced wall time over ``passes`` passes; the
        self times plus ``trace.unattributed_s`` add up to its per-pass share.
        """
        out = {}
        for name in TRACED:
            out[f"{name}.calls"] = self.calls[name] / passes
            out[f"{name}.self_s"] = self.self_s[name] / passes
        c = self.counts
        out["recovery.iterations"] = c["recovery.iterations"] / passes
        for reason in TERMINATIONS:
            out[f"recovery.termination.{reason}"] = c[f"termination.{reason}"] / passes
        out["recovery.regularize.kept_ratio"] = (
            c["regularize.kept"] / c["regularize.candidates"] if c["regularize.candidates"] else 0.0
        )
        ls_calls = self.calls["linalg.least_squares"]
        out["linalg.least_squares.cols_mean"] = c["least_squares.cols"] / ls_calls if ls_calls else 0.0
        out["linalg.least_squares.flops_computed"] = c["least_squares.flops"] / passes
        out["linalg.least_squares.bytes_computed"] = c["least_squares.bytes"] / passes
        out["recovery.correlation.flops_computed"] = c["correlation.flops"] / passes
        out["recovery.correlation.bytes_computed"] = c["correlation.bytes"] / passes
        out["trace.wall_s"] = wall_s / passes
        out["trace.unattributed_s"] = (wall_s - sum(self.self_s.values())) / passes
        return out
