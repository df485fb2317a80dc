"""Command-line surface over the library.

Exit codes: 0 success, 2 numerical failure, 1 any other library or OS error.
All error messages go to standard error.
"""

import argparse
import errno
import os
import sys

from .errors import DomainError, NumericalError, SpikedPcaError, check_integer, check_rate
from .experiment import compare_hypotheses, draw_dataset, run_sweep
from .fileio import (
    REAL_FORMAT,
    read_experiment_config,
    read_masked_csv,
    real_list,
    write_curve_csv,
    write_ground_truth_csv,
    write_masked_csv,
    write_model_csv,
)
from .masked import apply_mcar_mask
from .metrics import covariance_eigenvalues, estimate_snr
from .ppca import FitOptions, fit_ppca
from .theory import (
    critical_alpha,
    critical_missing_rate,
    theory_r2_effective_sample,
    theory_r2_missing,
)


def _print_kv(key, value):
    if isinstance(value, float):
        value = format(value, REAL_FORMAT)
    print(f"{key} = {value}")


def _check_out_path(path):
    """Raise, before the work, what ``open(path, "w")`` would raise after it."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    parent = (os.path.dirname(path) or os.curdir) if path else path  # "" names no file
    if not os.path.isdir(parent):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), parent)


def _cmd_theory(args):
    # the first call checks all three arguments, so a rejected one prints nothing
    alpha, snr, m = args.alpha, args.snr, args.missing
    _print_kv("predicted_r2", theory_r2_missing(alpha, snr, m))
    _print_kv("predicted_alt_r2", theory_r2_effective_sample(alpha, snr, m))
    _print_kv("m_crit", critical_missing_rate(alpha, snr))
    _print_kv("alpha_crit", critical_alpha(snr, m))
    return 0


def _cmd_generate(args):
    truth_path = args.out + ".truth.csv"
    _check_out_path(truth_path)
    check_integer("seed", args.seed, 0)
    # what repetition 0 of a sweep with base_seed = --seed fits
    gt, data = draw_dataset(args.n, args.d, args.norms, args.noise_var, args.seed, 0)
    write_masked_csv(data, args.out)
    write_ground_truth_csv(gt, truth_path, args.seed)
    print(f"wrote {args.n}x{args.d} matrix to {args.out}")
    print(f"wrote ground truth to {truth_path}")
    return 0


def _cmd_mask(args):
    x = read_masked_csv(args.infile)
    write_masked_csv(apply_mcar_mask(x, args.rate, args.seed), args.out)
    print(f"wrote masked matrix to {args.out}")
    return 0


def _cmd_fit(args):
    opts = FitOptions(k=args.k, seed=args.seed)  # a bad option costs no read
    model = fit_ppca(read_masked_csv(args.infile), opts)
    write_model_csv(model, args.out)
    _print_kv("sigma2", model.noise_variance)
    _print_kv("log_likelihood", model.loglik_history[-1])
    _print_kv("n_iterations", model.n_iterations)
    _print_kv("converged", int(model.converged))
    print(f"wrote model to {args.out}")
    return 0


def _cmd_snr(args):
    estimate = estimate_snr(covariance_eigenvalues(read_masked_csv(args.infile)), args.k)
    _print_kv("noise_variance_hat", estimate.noise_variance_hat)
    for i, s in enumerate(estimate.snr_per_component, start=1):
        _print_kv(f"S_{i}", float(s))
    return 0


def _cmd_experiment(args):
    cfg = read_experiment_config(args.config)
    min_m = args.compare_hypotheses  # None without the flag
    # MIN_M is checked before the sweep, so a bad one costs no fit
    if min_m is not None:
        check_rate("min_m", min_m, closed=False)
        if min_m and cfg.sweep_kind != "missing_rate":
            raise DomainError("min_m is only for the missing_rate sweep")
        if min_m > cfg.grid[-1]:  # the grid is strictly ascending
            top = format(cfg.grid[-1], REAL_FORMAT)
            raise DomainError(f"min_m must not exceed the largest grid value {top}, got {min_m}")
    result = run_sweep(cfg)
    for cell in result.failures:
        value = format(cfg.grid[cell.cell_index], REAL_FORMAT)
        print(f"failed cell: repetition {cell.repetition}, grid value {value}: {cell.error}",
              file=sys.stderr)
    summary = None
    try:
        if min_m is not None:
            rmse_snr, rmse_sample = compare_hypotheses(result, min_m)
            summary = (f"rmse_snr_hypothesis={format(rmse_snr, REAL_FORMAT)} "
                       f"rmse_sample_hypothesis={format(rmse_sample, REAL_FORMAT)}")
    finally:  # a score that fails still writes the curve, without its summary
        write_curve_csv(result, args.out, summary=summary)
        print(f"wrote {len(result)} records to {args.out}")
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
    p.set_defaults(func=_cmd_theory)

    p = sub.add_parser("generate", help="sample a synthetic spiked dataset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument(
        "--norms", type=real_list, required=True, help="comma-separated direction norms"
    )
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
    p.add_argument("--compare-hypotheses", type=float, nargs="?", const=0.0, metavar="MIN_M",
                   help="score both laws on the records at sweep values >= MIN_M (default 0)")
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
        if "out" in args:  # every command that writes checks its --out first
            _check_out_path(args.out)
        return args.func(args)
    except (SpikedPcaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, NumericalError) else 1


def entry():
    sys.exit(cli_main())


if __name__ == "__main__":
    entry()
