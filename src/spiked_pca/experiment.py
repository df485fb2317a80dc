"""Sweep protocols: run many masked fits over a grid and aggregate.

:func:`run_sweep` runs the sweep kind a config names. A kind is a cell
rule that turns a grid value into a missing rate m, an added noise
variance or none, and the per-component signal-to-noise ratio S: the
missing-rate sweep masks at the grid's rate and adds no noise, the
signal-to-noise sweep masks at one fixed rate and adds noise of the
grid's variance. Each repetition draws a fresh dataset; a cell keeps the
previous cell's mask where its rate is the same, else draws a new one.
Every cell of the (grid x repetition) lattice derives its own seeds from
the base seed, so results are reproducible and independent of order.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, SpikedPcaError, check_integer, check_nonnegative, check_rate
from .masked import MaskedMatrix, apply_mcar_mask
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
    of its repetition ``repetition``, as ``(gt, data)``, ``data`` fully observed.

    Every repetition shares the ground truth. It and the samples come from
    separate derived seeds, so the samples do not replay the draws of the
    directions.
    """
    seed = derive_cell_seed(base_seed, 0, 0, STREAM_GROUND_TRUTH)
    gt = make_ground_truth(d, norms, noise_variance, seed)
    seed = derive_cell_seed(base_seed, repetition, 0, STREAM_DATASET)
    data = sample_dataset(gt, n, seed)
    data.flags.writeable = False  # fresh, so MaskedMatrix need not copy it
    return gt, MaskedMatrix.complete(data)


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep definition: grid, model dimensions and fit settings.

    Valid once built: the grid is strictly ascending and each value obeys
    its sweep kind's rule (a rate, or a finite nonnegative added variance),
    the norms and noise variance obey :func:`make_ground_truth`'s, ``n``
    and ``d`` exceed the number of norms (centered data of ``n`` rows have
    rank at most ``n - 1``), ``fixed_missing_rate`` is nonzero
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
        k = len(norms)
        for name, low in (("n", k + 1), ("d", k + 1), ("repetitions", 1), ("base_seed", 0)):
            check_integer(name, getattr(self, name), low)
        m = check_rate("fixed_missing_rate", self.fixed_missing_rate)
        if m and self.sweep_kind == "missing_rate":
            raise DomainError("fixed_missing_rate is only for the snr_via_added_noise sweep")
        if self.fit.seed:
            raise DomainError("fit.seed must be 0: each cell's fit seed comes from base_seed")
        if self.fit.k != k:
            raise DomainError(f"fit.k ({self.fit.k}) must match the number of components ({k})")


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

    The cell's grid value is ``cfg.grid[cell_index]``. ``r2`` is empty and
    ``error`` nonempty exactly when the fit failed: it raised, or it
    stopped at ``max_iterations``. A failed fit does not enter the cell's
    aggregate.
    """

    repetition: int
    cell_index: int
    r2: tuple
    error: str


@dataclass(frozen=True)
class SweepResult:
    """CurveRecords (what iteration and ``len`` see) plus one CellResult per
    fit in lattice order, of which ``failures`` is a view. A cell carries
    its grid index, not a sweep value: on an SNR sweep a record's sweep
    value is the resulting S, not the grid's added variance."""

    records: tuple
    cells: tuple

    def __iter__(self):
        return iter(self.records)

    def __len__(self):
        return len(self.records)

    @property
    def failures(self):
        return tuple(c for c in self.cells if c.error)


def _missing_rate_cell(cfg, gt, m):
    """Mask at the grid's rate and keep the dataset's own noise."""
    return m, None, gt.snr_per_component, [m] * len(cfg.norms)


def _added_noise_cell(cfg, gt, sigma2_added):
    """Mask at ``cfg.fixed_missing_rate`` and add noise of the grid's variance;
    the recorded sweep value is S_i = ||a_i||^2 / (sigma2 + sigma2_added)."""
    snrs = gt.snr_per_component * gt.noise_variance / (gt.noise_variance + sigma2_added)
    return cfg.fixed_missing_rate, sigma2_added, snrs, snrs


# each sweep kind: the rule its grid values obey, and its cell rule: (cfg, gt,
# grid value) -> (m, added noise variance or None, S, recorded sweep values)
SWEEP_KINDS = {
    "missing_rate": (check_rate, _missing_rate_cell),
    "snr_via_added_noise": (check_nonnegative, _added_noise_cell),
}


def run_sweep(cfg):
    """Fit every (repetition, grid cell) of the sweep kind ``cfg.sweep_kind``
    names and fold the alignments into records.

    Every repetition shares the ground truth, and so the points the kind's
    cell rule gives; a repetition's masks share its one read-only sample. In
    grid order, a cell keeps the previous cell's mask where its rate m is the
    same, else draws one seeded (repetition, cell, STREAM_MASK), so one mask
    is live at a time; it adds noise seeded (repetition, cell, STREAM_NOISE)
    only where its rule gives a variance. Every fit becomes one CellResult; a
    fit that raises or stops at ``max_iterations`` keeps a message and no
    R^2, and is not retried, so the aggregates stay unbiased. Each grid cell
    with a surviving fit is summarized by the sample mean and, for two or
    more, the sample standard deviation; both theory columns follow from its
    m and S.
    """
    _, rule = SWEEP_KINDS[cfg.sweep_kind]
    alpha = cfg.n / cfg.d
    results = []
    for rep in range(cfg.repetitions):
        gt, data = draw_dataset(cfg.n, cfg.d, cfg.norms, cfg.noise_variance, cfg.base_seed, rep)
        points = [rule(cfg, gt, g) for g in cfg.grid]
        rate = None
        for ci, (m, sigma2_added, _, _) in enumerate(points):
            if m != rate:
                seed = derive_cell_seed(cfg.base_seed, rep, ci, STREAM_MASK)
                masked, rate = apply_mcar_mask(data, m, seed), m
            x = masked
            if sigma2_added is not None:
                seed = derive_cell_seed(cfg.base_seed, rep, ci, STREAM_NOISE)
                x = add_isotropic_noise(masked, sigma2_added, seed)
            seed = derive_cell_seed(cfg.base_seed, rep, ci, STREAM_FIT)
            try:
                model = fit_ppca(x, replace(cfg.fit, seed=seed))
                if not model.converged:
                    raise SpikedPcaError(f"stopped at max_iterations ({cfg.fit.max_iterations})")
                r2 = tuple(component_r2(extract_directions(model), gt).tolist())
                results.append(CellResult(rep, ci, r2, ""))
            except SpikedPcaError as exc:
                results.append(CellResult(rep, ci, (), str(exc)))

    records = []
    for ci, (m, _, snrs, sweep_values) in enumerate(points):
        # a cell's fits, every len(grid)-th; none surviving folds to no records
        got = [c.r2 for c in results[ci :: len(cfg.grid)] if not c.error]
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
