"""Command-line interface: single recoveries, Monte-Carlo sweeps, RIC probes."""

import argparse
import sys

import numpy as np

from . import textio
from .bench import ALGORITHMS, SweepConfig, aggregates_path, run_sweep
from .ensembles import ENSEMBLE_KINDS, EnsembleSpec, build_matrix, probe_ric
from .recovery import omp_recover, romp_recover
from .signals import NOISE_TARGETS, SIGNAL_KINDS

__all__ = ["main"]


def _int_list(text):
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated integer list, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rompkit",
        description="Sparse recovery from incomplete noisy measurements (ROMP / OMP).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rec = sub.add_parser("recover", help="recover a sparse vector from matrix/observation files")
    rec.add_argument("--matrix", required=True, help="matrix file: 'rows cols' header, row-major entries")
    rec.add_argument("--observation", required=True, help="vector file: 'len' header, entries")
    rec.add_argument("--sparsity", type=int, required=True, help="target sparsity level")
    rec.add_argument("--algo", choices=ALGORITHMS, default="romp")
    rec.add_argument("--output", help="write the reconstruction to this vector file")
    rec.add_argument("--trace", action="store_true", help="print per-iteration progress")

    swp = sub.add_parser("sweep", help="Monte-Carlo sweep over (sparsity, measurements) cells")
    swp.add_argument("--dim", type=int, default=256, help="ambient dimension d (default 256)")
    # Each flag's dest is the SweepConfig field it sets, and its metavar keeps the help text.
    swp.add_argument("--measurements", dest="measurement_counts", metavar="MEASUREMENTS", type=_int_list,
                     default=[32 * k for k in range(1, 9)],
                     help="comma list of measurement counts N (default 32,64,...,256)")
    swp.add_argument("--sparsity", dest="sparsities", metavar="SPARSITY", type=_int_list, default=[4, 8, 12, 16, 20],
                     help="comma list of sparsity levels n (default 4,8,12,16,20)")
    swp.add_argument("--trials", type=int, default=100, help="trials per cell (default 100)")
    swp.add_argument("--ensemble", choices=ENSEMBLE_KINDS, default="gaussian")
    swp.add_argument("--signal", dest="signal_kind", choices=SIGNAL_KINDS, default="flat-sparse")
    swp.add_argument("--noise", dest="noise_target", choices=NOISE_TARGETS, default="measurement",
                     help="perturb the measurements or the signal itself")
    swp.add_argument("--sigma", type=float, default=None,
                     help="noise standard deviation per entry; default scales per trial so "
                          "the noise norm is ~0.1 of the clean measurement norm")
    swp.add_argument("--exponent", dest="power_exponent", metavar="EXPONENT", type=float, default=2.0,
                     help="power-law decay exponent (power-law signals)")
    swp.add_argument("--scale", dest="power_scale", metavar="SCALE", type=float, default=1.0,
                     help="power-law magnitude scale")
    swp.add_argument("--algo", choices=ALGORITHMS + ("both",), default="romp")
    swp.add_argument("--seed", type=int, default=0, help="master seed; fixes the whole sweep")
    swp.add_argument("--csv", dest="csv_path", metavar="CSV",
                     help="write one row per trial here (aggregates go to *.agg.csv)")
    swp.add_argument("--svg", dest="svg_path", metavar="SVG", help="write a line plot (metric vs N, one polyline per n)")
    swp.add_argument("--trace", action="store_true",
                     help="assert per-iteration algorithm invariants on every trial (slower)")
    swp.add_argument("--fresh-matrix-per-trial", action="store_true",
                     help="draw a new measurement matrix for every trial instead of one per cell")

    ric = sub.add_parser("ric-probe", help="Monte-Carlo probe of restricted isometry constants")
    ric.add_argument("--matrix", help="probe a matrix file instead of building an ensemble")
    ric.add_argument("--dim", type=int, default=256)
    ric.add_argument("--measurements", type=int, default=128)
    ric.add_argument("--ensemble", choices=ENSEMBLE_KINDS, default="gaussian")
    ric.add_argument("--sparsity", type=_int_list, default=[4], help="comma list of sparsity levels m")
    ric.add_argument("--samples", type=int, default=1000)
    ric.add_argument("--seed", type=int, default=0)
    return parser


def cmd_recover(args):
    matrix = textio.read_matrix(args.matrix)
    observation = textio.read_vector(args.observation)
    recover = romp_recover if args.algo == "romp" else omp_recover
    result = recover(matrix, observation, args.sparsity, trace=args.trace)
    if args.trace:
        for k, state in enumerate(result.trace):
            print(
                f"iter {k + 1}: selected {state.selected.tolist()} "
                f"|support|={state.support.size} "
                f"residual={np.linalg.norm(state.residual):.6e}"
            )
    residual = observation - matrix @ result.estimate
    print(f"algorithm:   {args.algo}")
    print(f"termination: {result.termination} after {result.iterations} iteration(s)")
    print(f"support:     {result.support.tolist()}")
    print(f"residual:    {np.linalg.norm(residual):.6e}")
    if args.output:
        textio.write_vector(args.output, result.estimate)
        print(f"wrote {args.output}")
    return 0


def cmd_sweep(args):
    fields = {name: value for name, value in vars(args).items() if name not in ("command", "algo")}
    config = SweepConfig(**fields, algorithms=ALGORITHMS if args.algo == "both" else (args.algo,))
    report = run_sweep(config)
    print(f"ran {len(report.records)} trials over {len(report.cells)} cells")
    for cell in report.cells:
        parts = [
            f"{cell.algo} n={cell.sparsity} N={cell.measurements}:",
            f"err2_mean={cell.err2_mean:.4g}",
        ]
        if cell.ratio_meas_mean is not None:
            parts.append(f"ratio_meas_mean={cell.ratio_meas_mean:.4g}")
        if cell.ratio_sig_mean is not None:
            parts.append(f"ratio_sig_mean={cell.ratio_sig_mean:.4g}")
        parts.append(f"support_hit={cell.support_hit_mean:.3f}")
        if cell.failures:
            parts.append(f"failures={cell.failures}")
        print(" ".join(parts))
    if config.csv_path:
        print(f"wrote {config.csv_path} and {aggregates_path(config.csv_path)}")
    if config.svg_path:
        print(f"wrote {config.svg_path}")
    return 0


def cmd_ric_probe(args):
    if args.matrix:
        matrix = textio.read_matrix(args.matrix)
        label = args.matrix
    else:
        spec = EnsembleSpec(kind=args.ensemble, rows=args.measurements, cols=args.dim, seed=args.seed)
        matrix = build_matrix(spec)
        label = f"{args.ensemble} {args.measurements}x{args.dim} (seed {args.seed})"
    print(f"probing {label} with {args.samples} samples per sparsity level")
    for m in args.sparsity:
        est = probe_ric(matrix, m, args.samples, seed=args.seed)
        print(
            f"m={est.sparsity}: lower={est.lower:.6f} upper={est.upper:.6f} "
            f"epsilon_hat={est.epsilon_hat:.6f} (lower bound, {est.samples} samples)"
        )
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"recover": cmd_recover, "sweep": cmd_sweep, "ric-probe": cmd_ric_probe}
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
