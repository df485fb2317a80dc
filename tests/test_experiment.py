from dataclasses import replace

import numpy as np
import pytest

from spiked_pca import (
    CellResult,
    CurveRecord,
    DomainError,
    ExperimentConfig,
    FitOptions,
    apply_mcar_mask,
    compare_hypotheses,
    run_sweep,
    theory_r2_missing,
)
from spiked_pca import experiment
from spiked_pca.experiment import derive_cell_seed
from spiked_pca.metrics import add_isotropic_noise


def small_config(**overrides):
    base = dict(
        sweep_kind="missing_rate",
        grid=(0.0, 0.2, 0.4, 0.6, 0.8),
        n=60,
        d=40,
        norms=(1.0, 0.5),
        noise_variance=0.05,
        repetitions=3,
        base_seed=99,
        fit=FitOptions(k=2, max_iterations=300),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def check_cells(result, cfg):
    """``cells`` holds one CellResult per fit in lattice order, ``failures``
    filters it, and every record is the exact fold of its cells."""
    assert all(isinstance(c, CellResult) for c in result.cells)
    assert [(c.repetition, c.cell_index) for c in result.cells] == [
        (rep, ci) for rep in range(cfg.repetitions) for ci in range(len(cfg.grid))
    ]
    assert all((c.r2 == ()) == (c.error != "") for c in result.cells)
    assert all(len(c.r2) == cfg.fit.k for c in result.cells if not c.error)
    assert result.failures == tuple(c for c in result.cells if c.error)
    fitted = [
        ci for ci in range(len(cfg.grid))
        if any(c.cell_index == ci and not c.error for c in result.cells)
    ]
    assert len(result) == cfg.fit.k * len(fitted)
    for i, r in enumerate(result):
        ci = fitted[i // cfg.fit.k]
        vals = np.array(
            [c.r2[r.component - 1] for c in result.cells if c.cell_index == ci and not c.error]
        )
        assert r.n_reps == vals.size
        assert r.r2_mean == float(vals.mean())
        assert r.r2_std == (float(vals.std(ddof=1)) if vals.size > 1 else 0.0)


def test_derive_cell_seed_deterministic():
    assert derive_cell_seed(1, 2, 3, 4) == derive_cell_seed(1, 2, 3, 4)
    assert derive_cell_seed(0, 0, 0, 0) != derive_cell_seed(0, 0, 0, 1)
    assert derive_cell_seed(0, 0, 0, 0) != derive_cell_seed(0, 0, 1, 0)
    assert derive_cell_seed(0, 0, 0, 0) != derive_cell_seed(0, 1, 0, 0)
    assert derive_cell_seed(0, 0, 0, 0) != derive_cell_seed(1, 0, 0, 0)


def test_derive_cell_seed_collision_scan():
    seen = set()
    for rep in range(100):
        for cell in range(100):
            for stream in range(100):
                seen.add(derive_cell_seed(424242, rep, cell, stream))
    assert len(seen) == 1_000_000


def test_config_validation():
    with pytest.raises(DomainError):
        small_config(grid=())
    with pytest.raises(DomainError):
        small_config(grid=(0.4, 0.2))
    with pytest.raises(DomainError):
        small_config(repetitions=0)
    with pytest.raises(DomainError):
        small_config(sweep_kind="nonsense")
    with pytest.raises(DomainError):
        small_config(fit=FitOptions(k=3))
    with pytest.raises(DomainError):
        small_config(fixed_missing_rate=1.5)
    with pytest.raises(DomainError, match="fixed_missing_rate"):
        small_config(sweep_kind="snr_via_added_noise", fixed_missing_rate="a")
    with pytest.raises(DomainError, match="grid value"):
        small_config(grid=("abc",))
    for bad in (dict(n=1), dict(d=1), dict(n=40.5), dict(d=True), dict(repetitions=1.5)):
        with pytest.raises(DomainError):
            small_config(**bad)
    # norms and noise variance obey make_ground_truth's rule when the config is built
    for bad in (
        dict(norms=("a", 0.5)),
        dict(norms=(10**400, 0.5)),
        dict(noise_variance=0.0),
        dict(noise_variance="a"),
        dict(norms=(1e200, 0.5), noise_variance=1e-200),
    ):
        with pytest.raises(DomainError, match="positive and finite"):
            small_config(**bad)
    # every cell's fit seed is derived from base_seed, so a config's own would be ignored
    with pytest.raises(DomainError, match="fit.seed"):
        small_config(fit=FitOptions(k=2, seed=12345))


def test_config_rejects_d_that_cannot_hold_its_components():
    # two components need D > 2, which the sweep would only find at its first draw
    with pytest.raises(DomainError, match="d must be >= 3, got 2"):
        small_config(d=2)
    assert small_config(d=3).d == 3
    # centered data of n rows have rank at most n - 1, so two components
    # need n > 2; otherwise every fit would run EM and then fail
    with pytest.raises(DomainError, match="n must be >= 3, got 2"):
        small_config(n=2)
    assert small_config(n=3).n == 3
    one = dict(norms=(1.0,), fit=FitOptions(k=1, max_iterations=300))
    with pytest.raises(DomainError, match="n must be >= 2, got 1"):
        small_config(n=1, **one)
    assert small_config(n=2, **one).n == 2


def test_config_rejects_repeated_grid_value():
    # a repeated value would give two curve rows for one (sweep value, component)
    with pytest.raises(DomainError, match="grid must be strictly ascending"):
        small_config(grid=(0.1, 0.1))


@pytest.mark.parametrize("seed", [1.5, -1, True], ids=["float", "negative", "bool"])
def test_config_rejects_invalid_base_seed(seed):
    # the cell seeds are derived from an integer, so a float would run as
    # another seed than the one the config reports
    with pytest.raises(DomainError, match="base_seed"):
        small_config(base_seed=seed)


def test_config_rejects_fixed_missing_rate_on_missing_rate_sweep():
    # the missing-rate sweep masks at its grid values, so a fixed rate
    # would be silently ignored
    with pytest.raises(DomainError, match="only for the snr_via_added_noise sweep"):
        small_config(fixed_missing_rate=0.9)
    assert small_config(fixed_missing_rate=0.0).fixed_missing_rate == 0.0


def test_missing_sweep_rejects_rates_outside_unit_interval():
    for grid in [(-0.1, 0.5), (0.5, 1.5)]:
        with pytest.raises(DomainError, match=r"grid value must lie in \[0, 1\]"):
            small_config(grid=grid)


def test_missing_sweep_record_counts():
    cfg = small_config()
    result = run_sweep(cfg)
    check_cells(result, cfg)
    assert len(result) == 10  # 5 rates x 2 components
    assert all(r.n_reps == 3 for r in result)
    assert all(0.0 <= r.r2_mean <= 1.0 and r.r2_std >= 0.0 for r in result)
    assert not result.failures


def test_missing_sweep_flags_unconverged_cells():
    cfg = small_config(fit=FitOptions(k=2, max_iterations=2))
    result = run_sweep(cfg)
    check_cells(result, cfg)
    # every fit hits the cap; each is a failed cell and none is averaged in
    failed = [(f.repetition, f.cell_index, cfg.grid[f.cell_index], f.error)
              for f in result.failures]
    assert failed == [
        (rep, ci, value, "stopped at max_iterations (2)")
        for rep in range(3) for ci, value in enumerate(cfg.grid)
    ]
    assert len(result) == 0


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        dict(sweep_kind="snr_via_added_noise", grid=(0.0, 0.05, 0.2),
             fixed_missing_rate=0.3),
    ],
    ids=["missing_rate", "snr_via_added_noise"],
)
def test_sweep_reproducible(overrides):
    cfg = small_config(**overrides)
    a = run_sweep(cfg)
    b = run_sweep(cfg)
    check_cells(a, cfg)
    assert list(a) == list(b)
    assert a.cells == b.cells


def test_missing_sweep_theory_attached():
    cfg = small_config()
    result = run_sweep(cfg)
    alpha = cfg.n / cfg.d
    snrs = {1: 1.0**2 / 0.05, 2: 0.5**2 / 0.05}
    for r in result:
        assert r.theory_r2 == theory_r2_missing(alpha, snrs[r.component], r.sweep_value)


def test_missing_sweep_m0_cell_matches_theory():
    cfg = ExperimentConfig(
        sweep_kind="missing_rate",
        grid=(0.0,),
        n=200,
        d=300,
        norms=(1.0,),
        noise_variance=0.05,
        repetitions=3,
        base_seed=7,
        fit=FitOptions(k=1),
    )
    (record,) = run_sweep(cfg)
    assert abs(record.r2_mean - record.theory_r2) <= 0.08


def test_missing_sweep_null_cell_below_threshold():
    # alpha S(m)^2 = (2/3) * (0.05 * 20)^2 = 2/3 at m = 0.95
    cfg = ExperimentConfig(
        sweep_kind="missing_rate",
        grid=(0.97,),
        n=200,
        d=300,
        norms=(1.0,),
        noise_variance=0.05,
        repetitions=3,
        base_seed=8,
        fit=FitOptions(k=1),
    )
    (record,) = run_sweep(cfg)
    assert record.r2_mean <= 0.05


def test_missing_sweep_records_failed_cells():
    cfg = small_config(grid=(0.0, 0.5, 1.0))
    result = run_sweep(cfg)
    check_cells(result, cfg)
    # the all-missing cell fails every repetition and is reported
    assert len(result.failures) == 3
    assert all(cfg.grid[f.cell_index] == 1.0 for f in result.failures)
    values = {r.sweep_value for r in result}
    assert values == {0.0, 0.5}


def test_sweep_records_rank_deficient_fits_as_failed(monkeypatch):
    # a fit whose loadings lose rank fails its cell with a message naming
    # the rank; nothing warns, so the sweep survives filterwarnings = error
    real_fit = experiment.fit_ppca

    def rank_one_fit(x, opts):
        model = real_fit(x, opts)
        a = model.loadings.copy()
        a[:, 1] = a[:, 0]
        return replace(model, loadings=a)

    monkeypatch.setattr(experiment, "fit_ppca", rank_one_fit)
    cfg = small_config(grid=(0.0, 0.4), repetitions=2)
    result = run_sweep(cfg)
    check_cells(result, cfg)
    assert len(result) == 0
    assert len(result.failures) == len(result.cells) == 4
    assert all(f.error == "loadings are rank deficient (rank 1 < k=2)" for f in result.failures)


def test_sweep_leaves_a_capped_fit_out_of_the_mean(monkeypatch):
    # repetition 1 of grid cell 2 stops at the cap; the other two fits of
    # that cell alone make its records
    cfg = small_config()
    reference = run_sweep(cfg)
    real_fit = experiment.fit_ppca
    calls = []

    def capped_once(x, opts):
        model = real_fit(x, opts)
        # the fits run in lattice order: repetition by repetition, each in grid order
        if divmod(len(calls), len(cfg.grid)) == (1, 2):
            model = replace(model, converged=False)
        calls.append(opts.seed)
        return model

    monkeypatch.setattr(experiment, "fit_ppca", capped_once)
    result = run_sweep(cfg)
    check_cells(result, cfg)
    (failed,) = result.failures
    assert (failed.repetition, failed.cell_index) == (1, 2)
    assert failed.error == "stopped at max_iterations (300)"
    kept = [c.r2 for c in reference.cells if c.cell_index == 2 and c.repetition != 1]
    records = [r for r in result if r.sweep_value == cfg.grid[2]]
    assert [r.n_reps for r in records] == [2, 2]
    assert [r.r2_mean for r in records] == np.mean(kept, axis=0).tolist()
    assert all(r.n_reps == 3 for r in result if r.sweep_value != cfg.grid[2])


@pytest.mark.parametrize(
    "overrides, mask_calls, noise_calls",
    [
        ({}, 3 * 5, 0),
        (dict(sweep_kind="snr_via_added_noise", grid=(0.0, 0.05, 0.2),
              fixed_missing_rate=0.3), 3, 3 * 3),
    ],
    ids=["missing_rate", "snr_via_added_noise"],
)
def test_sweep_cell_seeds(monkeypatch, overrides, mask_calls, noise_calls):
    # the seed contract: a missing-rate cell fits the repetition's dataset
    # masked with seed (rep, ci, STREAM_MASK) and no noise; an SNR cell fits
    # the repetition's one mask, seeded (rep, 0, STREAM_MASK), plus noise
    # seeded (rep, ci, STREAM_NOISE)
    cfg = small_config(**overrides)
    fitted, calls = [], {"mask": 0, "noise": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    def capturing_fit(x, opts):
        fitted.append(x)
        return real_fit(x, opts)

    real_fit = experiment.fit_ppca
    monkeypatch.setattr(experiment, "fit_ppca", capturing_fit)
    monkeypatch.setattr(experiment, "apply_mcar_mask", counted("mask", apply_mcar_mask))
    monkeypatch.setattr(experiment, "add_isotropic_noise", counted("noise", add_isotropic_noise))
    check_cells(run_sweep(cfg), cfg)
    assert calls == {"mask": mask_calls, "noise": noise_calls}

    expected = []
    for rep in range(cfg.repetitions):
        _, data = experiment.draw_dataset(
            cfg.n, cfg.d, cfg.norms, cfg.noise_variance, cfg.base_seed, rep)
        for ci, g in enumerate(cfg.grid):
            if cfg.sweep_kind == "missing_rate":
                seed = derive_cell_seed(cfg.base_seed, rep, ci, experiment.STREAM_MASK)
                expected.append(apply_mcar_mask(data, g, seed))
            else:
                seed = derive_cell_seed(cfg.base_seed, rep, 0, experiment.STREAM_MASK)
                masked = apply_mcar_mask(data, cfg.fixed_missing_rate, seed)
                seed = derive_cell_seed(cfg.base_seed, rep, ci, experiment.STREAM_NOISE)
                expected.append(add_isotropic_noise(masked, g, seed))
    assert len(fitted) == len(expected)
    for got, want in zip(fitted, expected):
        assert np.array_equal(got.mask, want.mask)
        assert np.array_equal(got.values, want.values)
    if cfg.sweep_kind == "missing_rate":
        # every mask of a repetition wraps its one sample, uncopied
        for rep in range(cfg.repetitions):
            first, *rest = fitted[rep * len(cfg.grid) : (rep + 1) * len(cfg.grid)]
            assert all(np.shares_memory(x.values, first.values) for x in rest)


def test_snr_sweep_values_and_consistency():
    sigma2 = 0.05
    cfg = ExperimentConfig(
        sweep_kind="snr_via_added_noise",
        grid=(0.0, 0.15, 0.45),
        n=200,
        d=100,
        norms=(1.0,),
        noise_variance=sigma2,
        repetitions=3,
        base_seed=17,
        fit=FitOptions(k=1),
        fixed_missing_rate=0.25,
    )
    result = run_sweep(cfg)
    assert len(result) == 3
    got = sorted(r.sweep_value for r in result)
    expected = sorted(1.0 / (sigma2 + s2a) for s2a in cfg.grid)
    assert got == pytest.approx(expected, rel=1e-12)

    # the zero-added-noise cell reproduces a missing-rate sweep point
    mr = ExperimentConfig(
        sweep_kind="missing_rate",
        grid=(0.25,),
        n=200,
        d=100,
        norms=(1.0,),
        noise_variance=sigma2,
        repetitions=3,
        base_seed=17,
        fit=FitOptions(k=1),
    )
    (mr_record,) = run_sweep(mr)
    clean = max(result, key=lambda r: r.sweep_value)
    assert abs(clean.r2_mean - mr_record.r2_mean) <= 0.08


def test_snr_sweep_pairs_components_with_sorted_norms():
    # component 1 must carry the larger ratio even when norms come unsorted
    cfg = ExperimentConfig(
        sweep_kind="snr_via_added_noise",
        grid=(0.0, 0.2),
        n=120,
        d=60,
        norms=(0.5, 1.0),
        noise_variance=0.05,
        repetitions=2,
        base_seed=5,
        fit=FitOptions(k=2),
        fixed_missing_rate=0.1,
    )
    assert cfg.norms == (0.5, 1.0)  # kept as given; the ground truth sorts them
    result = run_sweep(cfg)
    comp1 = sorted(r.sweep_value for r in result if r.component == 1)
    comp2 = sorted(r.sweep_value for r in result if r.component == 2)
    assert comp1 == pytest.approx([4.0, 20.0], rel=1e-12)
    assert comp2 == pytest.approx([1.0, 5.0], rel=1e-12)


def test_snr_sweep_rejects_negative_grid():
    for grid in [(-0.1, 0.0), (0.0, float("nan")), (0.0, float("inf"))]:
        with pytest.raises(DomainError, match="grid value must be finite and nonnegative"):
            ExperimentConfig(
                sweep_kind="snr_via_added_noise",
                grid=grid,
                n=50,
                d=30,
                norms=(1.0,),
                noise_variance=0.05,
                repetitions=1,
                base_seed=0,
                fit=FitOptions(k=1),
            )


def make_record(m, component, r2_mean, theory, alt):
    return CurveRecord(
        sweep_value=m,
        component=component,
        r2_mean=r2_mean,
        r2_std=0.0,
        n_reps=5,
        theory_r2=theory,
        theory_alt_r2=alt,
    )


def test_compare_hypotheses_exact_records():
    records = [
        make_record(0.2, 1, 0.8, 0.8, 0.9),
        make_record(0.4, 1, 0.6, 0.6, 0.8),
        make_record(0.4, 2, 0.1, 0.3, 0.4),  # other components ignored
    ]
    rmse_snr, rmse_sample = compare_hypotheses(records, 0.0)
    assert rmse_snr == 0.0
    assert rmse_sample > 0.0


def test_compare_hypotheses_equal_at_m0():
    records = [make_record(0.0, 1, 0.85, 0.9, 0.9)]
    rmse_snr, rmse_sample = compare_hypotheses(records, 0.0)
    assert rmse_snr == rmse_sample


def test_compare_hypotheses_restriction():
    records = [make_record(0.2, 1, 0.8, 0.8, 0.9)]
    with pytest.raises(DomainError):
        compare_hypotheses(records, 0.5)
    with pytest.raises(DomainError):
        compare_hypotheses(records, 1.0)


def test_single_repetition_has_zero_std():
    cfg = small_config(repetitions=1, grid=(0.0,))
    result = run_sweep(cfg)
    assert all(r.r2_std == 0.0 and r.n_reps == 1 for r in result)
