"""Command-line surface over the library.

Exit codes: 0 success, 1 domain or format errors, 2 numerical failure.
All error messages go to standard error.
"""

import argparse
import sys

from .errors import DomainError, FormatError, NumericalError
from .experiment import (
    STREAM_DATASET,
    STREAM_GROUND_TRUTH,
    compare_hypotheses,
    derive_cell_seed,
    run_missing_rate_sweep,
    run_snr_sweep,
)
from .fileio import (
    MatrixFile,
    read_experiment_config,
    read_masked_csv,
    write_curve_csv,
    write_ground_truth_csv,
    write_masked_csv,
    write_model_csv,
)
from .masked import MaskedMatrix, apply_mcar_mask
from .metrics import covariance_eigenvalues, estimate_snr
from .ppca import FitOptions, fit_ppca
from .synthetic import make_ground_truth, sample_dataset
from .theory import (
    critical_alpha,
    critical_missing_rate,
    theory_r2_effective_sample,
    theory_r2_missing,
)

_FMT = ".6g"


def _print_kv(key, value):
    if isinstance(value, float):
        value = format(value, _FMT)
    print(f"{key} = {value}")


def _cmd_theory(args):
    if args.effective_sample:
        r2 = theory_r2_effective_sample(args.alpha, args.snr, args.missing)
    else:
        r2 = theory_r2_missing(args.alpha, args.snr, args.missing)
    _print_kv("predicted_r2", r2)
    _print_kv("m_crit", critical_missing_rate(args.alpha, args.snr))
    if args.missing < 1.0:
        _print_kv("alpha_crit", critical_alpha(args.snr, args.missing))
    else:
        _print_kv("alpha_crit", "inf")
    return 0


def _cmd_generate(args):
    norms = [float(v) for v in args.norms.split(",")]
    # separate derived seeds so the latent draws do not replay the stream
    # that produced the directions
    gt = make_ground_truth(
        args.d,
        norms,
        args.noise_var,
        derive_cell_seed(args.seed, 0, 0, STREAM_GROUND_TRUTH),
    )
    data = sample_dataset(
        gt, args.n, derive_cell_seed(args.seed, 0, 0, STREAM_DATASET)
    )
    write_masked_csv(MaskedMatrix.complete(data), args.out)
    truth_path = args.out + ".truth.csv"
    write_ground_truth_csv(gt, truth_path, args.seed)
    print(f"wrote {args.n}x{args.d} matrix to {args.out}")
    print(f"wrote ground truth to {truth_path}")
    return 0


def _cmd_mask(args):
    x = read_masked_csv(args.infile)
    if not x.mask.all():
        raise DomainError(f"{args.infile}: input already has missing entries")
    masked = apply_mcar_mask(x.values, args.rate, args.seed)
    write_masked_csv(masked, args.out)
    print(f"wrote masked matrix to {args.out}")
    return 0


def _cmd_fit(args):
    x = read_masked_csv(args.infile)
    opts = FitOptions(
        k=args.k,
        max_iterations=args.max_iter,
        rel_tolerance=args.tol,
        seed=args.seed,
    )
    model = fit_ppca(x, opts)
    write_model_csv(model, args.out)
    _print_kv("sigma2", model.noise_variance)
    _print_kv("log_likelihood", model.log_likelihood)
    _print_kv("n_iterations", model.n_iterations)
    _print_kv("converged", int(model.converged))
    print(f"wrote model to {args.out}")
    return 0


def _cmd_snr(args):
    x = read_masked_csv(args.infile)
    if not x.mask.all():
        raise DomainError(
            f"{args.infile}: signal-to-noise estimation needs complete data"
        )
    estimate = estimate_snr(covariance_eigenvalues(x.values), args.k)
    _print_kv("noise_variance_hat", estimate.noise_variance_hat)
    for i, s in enumerate(estimate.snr_per_component, start=1):
        _print_kv(f"S_{i}", float(s))
    return 0


def _cmd_experiment(args):
    cfg = read_experiment_config(args.config)
    if cfg.sweep_kind == "missing_rate":
        result = run_missing_rate_sweep(cfg)
    else:
        result = run_snr_sweep(cfg)
    summary = None
    if args.compare_hypotheses:
        rmse_snr, rmse_sample = compare_hypotheses(result, args.min_m)
        summary = (
            f"rmse_snr_hypothesis={format(rmse_snr, _FMT)} "
            f"rmse_sample_hypothesis={format(rmse_sample, _FMT)}"
        )
    write_curve_csv(result, args.out, summary=summary)
    print(f"wrote {len(result)} records to {args.out}")
    cap = f"stopped at max_iterations ({cfg.fit.max_iterations})"
    for cell in result.cells:
        if cell.error or not cell.converged:
            print(
                f"{'failed' if cell.error else 'unconverged'} cell: "
                f"repetition {cell.repetition}, "
                f"sweep value {cell.sweep_value}: {cell.error or cap}",
                file=sys.stderr,
            )
    if summary:
        print(summary)
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="spiked-pca",
        description="Learning curves and EM experiments for PCA with missing data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("theory", help="evaluate the predicted learning curve")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--snr", type=float, required=True)
    p.add_argument("--missing", type=float, default=0.0)
    p.add_argument(
        "--effective-sample",
        action="store_true",
        help="predict with the effective-sample-size hypothesis instead",
    )
    p.set_defaults(func=_cmd_theory)

    p = sub.add_parser("generate", help="sample a synthetic spiked dataset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--norms", required=True, help="comma-separated direction norms")
    p.add_argument("--noise-var", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("mask", help="hide entries completely at random")
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_mask)

    p = sub.add_parser("fit", help="fit probabilistic PCA on a masked CSV")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--max-iter", type=int, default=FitOptions.max_iterations)
    p.add_argument("--tol", type=float, default=FitOptions.rel_tolerance)
    p.add_argument("--seed", type=int, default=FitOptions.seed)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("snr", help="estimate signal-to-noise from the spectrum")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_snr)

    p = sub.add_parser("experiment", help="run a sweep from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--compare-hypotheses", action="store_true")
    p.add_argument("--min-m", type=float, default=0.0)
    p.set_defaults(func=_cmd_experiment)

    return parser


def cli_main(argv=None):
    """Run one CLI invocation and return its exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if (exc.code or 0) == 0 else 1
    try:
        return args.func(args)
    except (DomainError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(cli_main())


if __name__ == "__main__":
    entry()
