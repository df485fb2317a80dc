"""Sweep protocols: run many masked fits over a grid and aggregate.

Two protocols are provided. The missing-rate sweep draws a fresh dataset
per repetition and re-masks it for every grid value. The
signal-to-noise sweep draws a low-noise dataset per repetition, fixes one
mask, and then adds increasing isotropic noise to the clean masked data.
Every cell of the (grid x repetition) lattice gets its own seed derived
from the base seed, so results are reproducible and independent of
execution order.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, SpikedPcaError
from .masked import apply_mcar_mask
from .metrics import add_isotropic_noise, component_r2
from .ppca import FitOptions, extract_directions, fit_ppca
from .synthetic import make_ground_truth, sample_dataset
from .theory import theory_r2_effective_sample, theory_r2_missing

# seed streams, one per independent random purpose
STREAM_GROUND_TRUTH = 0
STREAM_DATASET = 1
STREAM_MASK = 2
STREAM_FIT = 3
STREAM_NOISE = 4

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def derive_cell_seed(base_seed, repetition, cell_index, stream):
    """Mix four integers into one 64-bit seed.

    Chains the splitmix64 finalizer over the parts, absorbing one per
    step. Equal inputs give equal outputs; distinct inputs collide only
    with birthday probability in a 64-bit space.
    """
    h = int(base_seed) & _MASK64
    for part in (int(repetition), int(cell_index), int(stream)):
        h = (h + _GOLDEN + (part & _MASK64)) & _MASK64
        h ^= h >> 30
        h = (h * 0xBF58476D1CE4E5B9) & _MASK64
        h ^= h >> 27
        h = (h * 0x94D049BB133111EB) & _MASK64
        h ^= h >> 31
    return h


SWEEP_KINDS = ("missing_rate", "snr_via_added_noise")


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep definition: grid, model dimensions and fit settings."""

    sweep_kind: str
    grid: tuple
    n: int
    d: int
    norms: tuple
    noise_variance: float
    repetitions: int
    base_seed: int
    fit: FitOptions
    fixed_missing_rate: float = 0.0

    def __post_init__(self):
        if self.sweep_kind not in SWEEP_KINDS:
            raise DomainError(f"unknown sweep kind {self.sweep_kind!r}")
        grid = tuple(float(g) for g in self.grid)
        if not grid:
            raise DomainError("grid must be nonempty")
        if any(b < a for a, b in zip(grid, grid[1:])):
            raise DomainError("grid must be sorted ascending")
        object.__setattr__(self, "grid", grid)
        norms = tuple(float(v) for v in self.norms)
        object.__setattr__(self, "norms", norms)
        if self.repetitions < 1:
            raise DomainError(f"repetitions must be >= 1, got {self.repetitions}")
        if self.n < 2 or self.d < 2:
            raise DomainError(f"need n, d >= 2, got n={self.n}, d={self.d}")
        if not 0.0 <= self.fixed_missing_rate <= 1.0:
            raise DomainError(
                f"fixed_missing_rate must lie in [0, 1], got {self.fixed_missing_rate}"
            )
        if self.fit.k != len(norms):
            raise DomainError(
                f"fit.k ({self.fit.k}) must match the number of components ({len(norms)})"
            )


@dataclass(frozen=True)
class CurveRecord:
    """One aggregated output row of a sweep."""

    sweep_value: float
    component: int  # 1-based
    r2_mean: float
    r2_std: float
    n_reps: int
    theory_r2: float
    theory_alt_r2: float


@dataclass(frozen=True)
class CellResult:
    """One (repetition, grid cell) fit: its per-component R^2 or its error.

    ``r2`` is empty and ``error`` nonempty exactly when the fit raised. A
    fit with ``converged`` False stopped at ``max_iterations``; its R^2
    still enters the cell's aggregate.
    """

    repetition: int
    cell_index: int
    sweep_value: float
    r2: tuple
    converged: bool
    error: str


@dataclass(frozen=True)
class SweepResult:
    """CurveRecords (what iteration and ``len`` see) plus one CellResult per
    fit in lattice order, of which ``failures`` and ``unconverged`` are views."""

    records: tuple
    cells: tuple

    def __iter__(self):
        return iter(self.records)

    def __len__(self):
        return len(self.records)

    @property
    def failures(self):
        return tuple(c for c in self.cells if c.error)

    @property
    def unconverged(self):
        return tuple(c for c in self.cells if not (c.error or c.converged))


def _run_lattice(cfg, prepare, perturb, cell_point):
    """Fit every (repetition, grid cell) and fold the alignments into records.

    ``prepare(data, rep)`` turns a repetition's sampled dataset into the
    base every cell of that repetition starts from, ``perturb(base, rep,
    ci, value)`` gives the matrix fitted at grid cell ``ci`` and
    ``cell_point(gt, value)`` returns the cell's recorded sweep values, its
    per-component signal-to-noise vector S and its missing rate m, from
    which both theory columns follow. Every fit becomes one CellResult; a
    fit that raises keeps its message and no R^2. Each grid cell with at
    least one surviving fit is summarized by the sample mean and, for two
    or more surviving repetitions, the sample standard deviation.
    """
    alpha = cfg.n / cfg.d
    gt = make_ground_truth(
        cfg.d,
        cfg.norms,
        cfg.noise_variance,
        seed=derive_cell_seed(cfg.base_seed, 0, 0, STREAM_GROUND_TRUTH),
    )
    cells = []
    for rep in range(cfg.repetitions):
        data = sample_dataset(
            gt, cfg.n, derive_cell_seed(cfg.base_seed, rep, 0, STREAM_DATASET)
        )
        base = prepare(data, rep)
        for ci, value in enumerate(cfg.grid):
            x = perturb(base, rep, ci, value)
            opts = replace(
                cfg.fit, seed=derive_cell_seed(cfg.base_seed, rep, ci, STREAM_FIT)
            )
            try:
                model = fit_ppca(x, opts)
                r2 = tuple(component_r2(extract_directions(model), gt).tolist())
                cell = CellResult(rep, ci, value, r2, model.converged, "")
            except SpikedPcaError as exc:
                cell = CellResult(rep, ci, value, (), False, str(exc))
            cells.append(cell)

    records = []
    for ci, value in enumerate(cfg.grid):
        got = [c.r2 for c in cells if c.cell_index == ci and not c.error]
        if not got:
            continue
        sweep_values, snrs, m = cell_point(gt, value)
        for comp, vals in enumerate(np.array(got).T):
            std = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
            records.append(
                CurveRecord(
                    sweep_value=sweep_values[comp],
                    component=comp + 1,
                    r2_mean=float(vals.mean()),
                    r2_std=std,
                    n_reps=int(vals.size),
                    theory_r2=theory_r2_missing(alpha, snrs[comp], m),
                    theory_alt_r2=theory_r2_effective_sample(alpha, snrs[comp], m),
                )
            )
    return SweepResult(tuple(records), tuple(cells))


def run_missing_rate_sweep(cfg):
    """Measure alignment against the missing rate.

    One ground truth is drawn for the whole sweep; each repetition gets a
    fresh dataset and each (repetition, rate) cell its own mask and fit
    seed. Failed fits are recorded on the result, not retried, so the
    aggregates stay unbiased.
    """
    if cfg.sweep_kind != "missing_rate":
        raise DomainError(f"config is for sweep kind {cfg.sweep_kind!r}")
    if any(not 0.0 <= m <= 1.0 for m in cfg.grid):
        raise DomainError("missing-rate grid must lie inside [0, 1]")

    def remask(data, rep, ci, m):
        return apply_mcar_mask(
            data, m, derive_cell_seed(cfg.base_seed, rep, ci, STREAM_MASK)
        )

    def cell_point(gt, m):
        return [m] * len(cfg.norms), gt.snr_per_component, m

    return _run_lattice(cfg, lambda data, rep: data, remask, cell_point)


def run_snr_sweep(cfg):
    """Measure alignment against the signal-to-noise ratio.

    Per repetition a low-noise dataset is drawn and a single mask at
    ``cfg.fixed_missing_rate`` is fixed; each grid value then adds fresh
    isotropic noise of that variance to the clean masked data before
    fitting. The recorded sweep value is the resulting ratio
    S_i = ||a_i||^2 / (sigma2 + sigma2_added).
    """
    if cfg.sweep_kind != "snr_via_added_noise":
        raise DomainError(f"config is for sweep kind {cfg.sweep_kind!r}")
    if any(not 0.0 <= g < math.inf for g in cfg.grid):
        raise DomainError("added-noise grid must be finite and nonnegative")
    m = cfg.fixed_missing_rate

    def mask_once(data, rep):
        return apply_mcar_mask(
            data, m, derive_cell_seed(cfg.base_seed, rep, 0, STREAM_MASK)
        )

    def add_noise(masked, rep, ci, sigma2_added):
        return add_isotropic_noise(
            masked, sigma2_added, derive_cell_seed(cfg.base_seed, rep, ci, STREAM_NOISE)
        )

    def cell_point(gt, sigma2_added):
        # squared column norms in component order (descending), however
        # cfg.norms was given
        norms2 = (gt.directions ** 2).sum(axis=0)
        snrs = norms2 / (cfg.noise_variance + sigma2_added)
        return snrs, snrs, m

    return _run_lattice(cfg, mask_once, add_noise, cell_point)


def compare_hypotheses(records, min_m):
    """Root-mean-square error of both theories on first-component records.

    Restricted to records with sweep value >= ``min_m`` from a
    missing-rate sweep. Returns (rmse against the reduced-SNR curve,
    rmse against the effective-sample-size curve).
    """
    if not 0.0 <= min_m < 1.0:
        raise DomainError(f"min_m must lie in [0, 1), got {min_m}")
    chosen = [r for r in records if r.component == 1 and r.sweep_value >= min_m]
    if not chosen:
        raise DomainError("no first-component records at or above min_m")
    err_snr = [r.r2_mean - r.theory_r2 for r in chosen]
    err_sample = [r.r2_mean - r.theory_alt_r2 for r in chosen]
    rmse_snr = math.sqrt(sum(e * e for e in err_snr) / len(chosen))
    rmse_sample = math.sqrt(sum(e * e for e in err_sample) / len(chosen))
    return rmse_snr, rmse_sample
