"""rompkit benchmark: sweep throughput and recovery latency, end to end or per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sweep-shared --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of that checkout; without it the run
exits with status 2 and prints no result.  Workloads, metrics and units are
declared in ``BENCHMARK.json``; every result line is validated against it.

``--trace 0`` measures the end-to-end metrics with nothing instrumented.
``--trace 1`` alternates untraced and traced passes (each kind gets half of
``--seconds``) and reports the per-layer metrics of the traced passes, plus
``trace_overhead.<metric>``, the traced-minus-untraced change in every
end-to-end metric.

Output: one JSON line with the environment, sample counts, output-check
problems and quality figures, then the result line
``{"correct", "attempted", "failed", "metrics"}``.  The exit status is 1 when
any output check failed.
"""

import os

# Single-threaded BLAS, fixed before numpy loads: the host has two shared
# cores and BLAS threads made large-recovery latency both slower and noisier.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import contextlib
import hashlib
import itertools
import json
import platform
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import metrics
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
# No pass starts after this much measuring, so that even a program several
# times slower than today ends within three minutes.
MAX_MEASURE_S = 120.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def git_commit(root):
    """Commit of a git checkout at ``root``, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(package_dir):
    digest = hashlib.sha256()
    for path in sorted(package_dir.rglob("*.py")):
        digest.update(path.relative_to(package_dir).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(args, package_dir):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": git_commit(ROOT),
        "source_sha256": source_digest(package_dir),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Phase:
    """Accumulated passes of one kind (untraced or traced)."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.passes = 0
        self.wall_s = 0.0
        self.rates = []
        self.pass_samples = {}  # algo -> one list of latencies per pass
        self.attempted = self.failed = self.rank_deficient = 0
        self.quality = {}

    def samples(self):
        return {algo: self.workload.latency_samples(p) for algo, p in self.pass_samples.items()}

    def enough(self, budget_s):
        need = metrics.min_samples(0.9)
        return self.wall_s >= budget_s and all(len(s) >= need for s in self.samples().values())

    def add(self, result, verdict, wall_s):
        self.passes += 1
        self.wall_s += wall_s
        self.rates.append(result.items / result.busy_s)
        for algo, values in result.samples.items():
            self.pass_samples.setdefault(algo, []).append(values)
        self.attempted += verdict.attempted
        self.failed += verdict.failed
        self.rank_deficient += verdict.rank_deficient
        self.quality = verdict.quality

    def end_to_end(self):
        out = {"trials_per_s": metrics.median(self.rates)}
        for algo, values in self.samples().items():
            out.update(metrics.latency_summary(values, algo))
        out["ok_ratio"] = (self.attempted - self.failed - self.rank_deficient) / self.attempted
        out["support_hit_mean"] = self.quality["support_hit_mean"]
        return out


def run(args, workload, workdir, rompkit, import_s, env):
    start = time.perf_counter()
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = workload.setup(args.seed, workdir)
        setups.append(time.perf_counter() - t0)
    setup_s = metrics.median(setups)

    phases = [Phase(workload)]
    traced_setup_s = None
    if args.trace:
        with Tracer().installed(rompkit):
            t0 = time.perf_counter()
            state = workload.setup(args.seed, workdir)
            traced_setup_s = time.perf_counter() - t0
        phases.append(Phase(workload, Tracer()))
    rss_before_trace = peak_rss_mb()

    budget = args.seconds / len(phases)
    problems = []
    fingerprint = None
    measure_start = time.perf_counter()
    for i in itertools.count():
        if all(p.enough(budget) for p in phases) or time.perf_counter() - measure_start > MAX_MEASURE_S:
            break
        phase = phases[i % len(phases)]
        with phase.tracer.installed(rompkit) if phase.tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            result = workload.run_pass(state)
            wall = time.perf_counter() - t0
        verdict = workload.check(state, result)
        if fingerprint is None:
            fingerprint = verdict.fingerprint
        elif verdict.fingerprint != fingerprint:
            verdict.failed = verdict.attempted
            verdict.problems.append("pass output differs from the first pass of this run")
        problems.extend(verdict.problems)
        phase.add(result, verdict, wall)

    untraced = phases[0]
    end_to_end = untraced.end_to_end()
    end_to_end["setup_s"] = import_s + setup_s
    end_to_end["peak_rss_mb"] = peak_rss_mb()
    per_layer = {}
    if args.trace:
        traced = phases[1]
        traced_e2e = traced.end_to_end()
        traced_e2e["setup_s"] = import_s + traced_setup_s
        # Upper bound: the untraced passes interleaved with the traced ones
        # can raise the peak too.
        traced_e2e["peak_rss_mb"] = end_to_end["peak_rss_mb"] + (peak_rss_mb() - rss_before_trace)
        per_layer = traced.tracer.layer_metrics(traced.passes, traced.wall_s)
        for name, value in end_to_end.items():
            per_layer[f"trace_overhead.{name}"] = traced_e2e[name] - value

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    details = {
        "environment": env,
        "import_s": import_s,
        "setup_repeats_s": setups,
        "measure_s": time.perf_counter() - measure_start,
        "total_s": time.perf_counter() - start + import_s,
        "passes": [p.passes for p in phases],
        "pass_rates": [p.rates for p in phases],
        "samples": [{algo: len(v) for algo, v in p.samples().items()} for p in phases],
        "rank_deficient": untraced.rank_deficient,
        "failed_ratio": (untraced.failed + untraced.rank_deficient) / untraced.attempted,
        "quality": untraced.quality,
        "problems": problems[:20],
        "problem_count": len(problems),
    }
    correct = failed == 0 and not problems
    return end_to_end, per_layer, attempted, failed, correct, details


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    package_dir = src / "rompkit"
    if not (package_dir / "__init__.py").is_file():
        print(f"rompkit sources not found under {src}; run from a source checkout", file=sys.stderr)
        return 2
    spec = metrics.load_spec(ROOT / "BENCHMARK.json")
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import rompkit
    import workloads

    import_s = time.perf_counter() - t0
    if Path(rompkit.__file__).resolve().parent != package_dir.resolve():
        print(f"imported rompkit from {rompkit.__file__}, not from {package_dir}", file=sys.stderr)
        return 2
    env = environment(args, package_dir)

    scratch_root = ROOT / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch_root)
    try:
        end_to_end, per_layer, attempted, failed, correct, details = run(
            args, workloads.WORKLOADS[args.workload], workdir, rompkit, import_s, env
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass

    values = per_layer if args.trace else end_to_end
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics.result_metrics(values, declared),
    }
    print(json.dumps(details))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
