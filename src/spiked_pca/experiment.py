"""Sweep protocols: run many masked fits over a grid and aggregate.

Two protocols are provided, and :func:`run_sweep` runs the one a config
names. The missing-rate sweep draws a fresh dataset per repetition and
re-masks it for every grid value. The signal-to-noise sweep draws a
low-noise dataset per repetition, fixes one mask, and then adds
increasing isotropic noise to the clean masked data.
Every cell of the (grid x repetition) lattice gets its own seed derived
from the base seed, so results are reproducible and independent of
execution order.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, SpikedPcaError, check_integer, check_nonnegative, check_rate
from .masked import apply_mcar_mask
from .metrics import add_isotropic_noise, component_r2
from .ppca import FitOptions, extract_directions, fit_ppca
from .synthetic import _check_spikes, make_ground_truth, sample_dataset
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


def draw_dataset(n, d, norms, noise_variance, base_seed, repetition):
    """The ground truth of a sweep with ``base_seed`` and the ``n`` samples
    of its repetition ``repetition``, as ``(gt, data)``.

    Every repetition shares the ground truth. It and the samples come from
    separate derived seeds, so the samples do not replay the draws of the
    directions.
    """
    seed = derive_cell_seed(base_seed, 0, 0, STREAM_GROUND_TRUTH)
    gt = make_ground_truth(d, norms, noise_variance, seed)
    seed = derive_cell_seed(base_seed, repetition, 0, STREAM_DATASET)
    return gt, sample_dataset(gt, n, seed)


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep definition: grid, model dimensions and fit settings.

    Valid once built: the grid is strictly ascending and each value obeys
    its sweep kind's rule (a rate, or a finite nonnegative added variance),
    the norms and noise variance obey :func:`make_ground_truth`'s, ``d``
    exceeds the number of norms, ``fixed_missing_rate`` is nonzero
    only on the snr_via_added_noise sweep, and ``fit.seed`` is 0.
    """

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
        check, _ = SWEEP_KINDS[self.sweep_kind]
        grid = tuple(check(f"{self.sweep_kind} grid value", g) for g in self.grid)
        if not grid:
            raise DomainError("grid must be nonempty")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise DomainError("grid must be strictly ascending")
        object.__setattr__(self, "grid", grid)
        norms, noise_variance = _check_spikes(self.norms, self.noise_variance)
        object.__setattr__(self, "norms", tuple(norms))
        object.__setattr__(self, "noise_variance", noise_variance)
        for name, low in (("n", 2), ("d", len(norms) + 1), ("repetitions", 1), ("base_seed", 0)):
            check_integer(name, getattr(self, name), low)
        m = check_rate("fixed_missing_rate", self.fixed_missing_rate)
        if m and self.sweep_kind == "missing_rate":
            raise DomainError("fixed_missing_rate is only for the snr_via_added_noise sweep")
        if self.fit.seed:
            raise DomainError("fit.seed must be 0: each cell's fit seed comes from base_seed")
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


def _missing_rate_cells(cfg, gt, data, rep):
    """Measure alignment against the missing rate: re-mask the
    repetition's dataset at every rate of the grid, each cell with its
    own mask seed."""
    for ci, m in enumerate(cfg.grid):
        seed = derive_cell_seed(cfg.base_seed, rep, ci, STREAM_MASK)
        yield apply_mcar_mask(data, m, seed), [m] * len(cfg.norms), gt.snr_per_component, m


def _added_noise_cells(cfg, gt, data, rep):
    """Measure alignment against the signal-to-noise ratio: mask the
    repetition's dataset once at ``cfg.fixed_missing_rate``, then add
    fresh isotropic noise of each grid variance to the clean masked data.
    The recorded sweep value is S_i = ||a_i||^2 / (sigma2 + sigma2_added)."""
    m = cfg.fixed_missing_rate
    masked = apply_mcar_mask(data, m, derive_cell_seed(cfg.base_seed, rep, 0, STREAM_MASK))
    for ci, sigma2_added in enumerate(cfg.grid):
        seed = derive_cell_seed(cfg.base_seed, rep, ci, STREAM_NOISE)
        snrs = gt.snr_per_component * gt.noise_variance / (gt.noise_variance + sigma2_added)
        yield add_isotropic_noise(masked, sigma2_added, seed), snrs, snrs, m


# each sweep kind: the rule its grid values obey, and its cell generator
SWEEP_KINDS = {
    "missing_rate": (check_rate, _missing_rate_cells),
    "snr_via_added_noise": (check_nonnegative, _added_noise_cells),
}


def run_sweep(cfg):
    """Fit every (repetition, grid cell) of the sweep kind ``cfg.sweep_kind``
    names and fold the alignments into records.

    All repetitions share one ground truth; each repetition draws a fresh
    dataset, which the kind's cell generator turns, per grid cell in
    order, into the matrix to fit, the recorded sweep values, the
    per-component signal-to-noise vector S and the missing rate m, from
    which both theory columns follow. Every cell gets its own fit seed.
    Every fit becomes one CellResult; a fit that raises keeps its message
    and no R^2, and is not retried, so the aggregates stay unbiased. Each
    grid cell with at least one surviving fit is summarized by the sample
    mean and, for two or more surviving repetitions, the sample standard
    deviation.
    """
    _, cells = SWEEP_KINDS[cfg.sweep_kind]
    alpha = cfg.n / cfg.d
    results = []
    points = {}  # grid cell -> (sweep values, S, m), the same in every repetition
    for rep in range(cfg.repetitions):
        gt, data = draw_dataset(cfg.n, cfg.d, cfg.norms, cfg.noise_variance, cfg.base_seed, rep)
        for ci, (x, *point) in enumerate(cells(cfg, gt, data, rep)):
            value = cfg.grid[ci]
            points[ci] = point
            seed = derive_cell_seed(cfg.base_seed, rep, ci, STREAM_FIT)
            try:
                model = fit_ppca(x, replace(cfg.fit, seed=seed))
                r2 = tuple(component_r2(extract_directions(model), gt).tolist())
                cell = CellResult(rep, ci, value, r2, model.converged, "")
            except SpikedPcaError as exc:
                cell = CellResult(rep, ci, value, (), False, str(exc))
            results.append(cell)

    records = []
    for ci, value in enumerate(cfg.grid):
        got = [c.r2 for c in results if c.cell_index == ci and not c.error]
        if not got:
            continue
        sweep_values, snrs, m = points[ci]
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
    return SweepResult(tuple(records), tuple(results))


# perfbench's entry points, until the next benchmark change calls run_sweep (ROADMAP item 7)
run_missing_rate_sweep = run_snr_sweep = run_sweep


def compare_hypotheses(records, min_m):
    """Root-mean-square error of both theories on first-component records.

    Restricted to records with sweep value >= ``min_m`` from a
    missing-rate sweep. Returns (rmse against the reduced-SNR curve,
    rmse against the effective-sample-size curve).
    """
    check_rate("min_m", min_m, closed=False)
    chosen = [r for r in records if r.component == 1 and r.sweep_value >= min_m]
    if not chosen:
        raise DomainError("no first-component records at or above min_m")
    err_snr = [r.r2_mean - r.theory_r2 for r in chosen]
    err_sample = [r.r2_mean - r.theory_alt_r2 for r in chosen]
    rmse_snr = math.sqrt(sum(e * e for e in err_snr) / len(chosen))
    rmse_sample = math.sqrt(sum(e * e for e in err_sample) / len(chosen))
    return rmse_snr, rmse_sample
