import numpy as np
import pytest

from spiked_pca import (
    DegenerateColumnError,
    DomainError,
    FitOptions,
    MaskedMatrix,
    NumericalError,
    apply_mcar_mask,
    covariance_eigenvalues,
    extract_directions,
    fit_ppca,
    make_ground_truth,
    r_squared,
    sample_dataset,
    top_eigvec_complete,
)
from spiked_pca.masked import center_observed
from spiked_pca.ppca import _extrapolate, _ObservedEm


def spiked(d, n, snr, sigma2=0.1, k=1, seed=0):
    norms = np.sqrt(sigma2 * snr * np.linspace(1.0, 0.4, k))
    gt = make_ground_truth(d, norms, sigma2, seed=seed)
    return gt, sample_dataset(gt, n, seed=seed + 1)


def subspace_r2(u, v):
    # squared cosine of the worst principal angle between equal-rank subspaces
    return float(np.linalg.svd(u.T @ v, compute_uv=False).min() ** 2)


def test_complete_data_matches_top_eigenvector():
    gt, data = spiked(d=80, n=240, snr=15.0, seed=10)
    model = fit_ppca(MaskedMatrix.complete(data), FitOptions(k=1, seed=3))
    u = extract_directions(model)
    v = top_eigvec_complete(data, 1)
    assert r_squared(u[:, 0], v[:, 0]) >= 0.999


def test_complete_data_sigma2_matches_trailing_eigenvalue_mean():
    gt, data = spiked(d=60, n=300, snr=12.0, seed=20)
    opts = FitOptions(k=1, seed=3, rel_tolerance=1e-10, max_iterations=10_000)
    model = fit_ppca(MaskedMatrix.complete(data), opts)
    trailing = covariance_eigenvalues(data)[1:].mean()
    assert abs(model.noise_variance - trailing) / trailing <= 1e-6


def test_rejects_fully_missing_column():
    values = np.random.default_rng(0).normal(size=(20, 5))
    mask = np.ones((20, 5), dtype=bool)
    mask[:, 3] = False
    with pytest.raises(DegenerateColumnError) as err:
        fit_ppca(MaskedMatrix(values, mask), FitOptions(k=1))
    assert err.value.column == 3


def test_rejects_k_not_below_d():
    data = np.random.default_rng(0).normal(size=(20, 4))
    with pytest.raises(DomainError):
        fit_ppca(MaskedMatrix.complete(data), FitOptions(k=4))


def test_fit_options_validation():
    for bad in (
        dict(k=0),
        dict(k=1, max_iterations=0),
        dict(k=1, rel_tolerance=0.0),
        dict(k=1, tolerance_streak=0),
    ):
        with pytest.raises(DomainError):
            FitOptions(**bad)


@pytest.mark.parametrize(
    "bad",
    [
        pytest.param(dict(k=1, rel_tolerance=float("inf")), id="rel_tolerance-inf"),
        pytest.param(dict(k=1, rel_tolerance=float("nan")), id="rel_tolerance-nan"),
        pytest.param(dict(k=1, rel_tolerance="1e-7"), id="rel_tolerance-str"),
        pytest.param(dict(k=1.5), id="k-float"),
        pytest.param(dict(k=True), id="k-bool"),
        pytest.param(dict(k=1, max_iterations=10.0), id="max_iterations-float"),
        pytest.param(dict(k=1, tolerance_streak="3"), id="tolerance_streak-str"),
        pytest.param(dict(k=1, seed=-3), id="seed-negative"),
        pytest.param(dict(k=1, seed=1.5), id="seed-float"),
    ],
)
def test_fit_options_rejects_nonfinite_tolerance_and_noninteger_counts(bad):
    with pytest.raises(DomainError):
        FitOptions(**bad)


def test_fit_options_accept_numpy_integers():
    opts = FitOptions(
        k=np.int64(2), max_iterations=np.int32(5), tolerance_streak=np.int64(1),
        seed=np.uint64(7),
    )
    assert (opts.k, opts.max_iterations, opts.tolerance_streak, opts.seed) == (2, 5, 1, 7)


def test_fit_deterministic():
    gt, data = spiked(d=40, n=100, snr=10.0, seed=30)
    x = apply_mcar_mask(data, 0.3, seed=5)
    a = fit_ppca(x, FitOptions(k=1, seed=7))
    b = fit_ppca(x, FitOptions(k=1, seed=7))
    assert np.array_equal(a.loadings, b.loadings)
    assert a.noise_variance == b.noise_variance
    assert a.log_likelihood == b.log_likelihood
    assert a.n_iterations == b.n_iterations


def test_loglik_nondecreasing_on_masked_data():
    gt, data = spiked(d=50, n=150, snr=10.0, k=2, seed=40)
    x = apply_mcar_mask(data, 0.4, seed=6)
    model = fit_ppca(x, FitOptions(k=2, seed=8))
    h = model.loglik_history
    drops = np.diff(h) / np.abs(h[:-1])
    assert drops.min() >= -1e-8


def test_masked_fit_recovers_direction_above_threshold():
    gt, data = spiked(d=150, n=300, snr=20.0, sigma2=0.05, seed=50)
    x = apply_mcar_mask(data, 0.3, seed=9)
    model = fit_ppca(x, FitOptions(k=1, seed=2))
    u = extract_directions(model)
    assert r_squared(u[:, 0], gt.directions[:, 0]) >= 0.8


def test_sigma2_floor_respected():
    gt = make_ground_truth(10, [1.0], 1e-30, seed=60)
    data = sample_dataset(gt, 50, seed=61)
    model = fit_ppca(MaskedMatrix.complete(data), FitOptions(k=1, seed=1))
    assert model.noise_variance >= 1e-12


def test_fully_missing_rows_are_skipped_and_counted():
    gt, data = spiked(d=30, n=80, snr=10.0, seed=70)
    mask = np.ones((80, 30), dtype=bool)
    mask[[4, 17]] = False
    x = MaskedMatrix(data, mask)
    model = fit_ppca(x, FitOptions(k=1, seed=4))
    assert model.n_skipped_rows == 2
    # dropping those rows outright gives the same fit
    kept = np.ones(80, dtype=bool)
    kept[[4, 17]] = False
    model_dropped = fit_ppca(MaskedMatrix(data[kept], mask[kept]), FitOptions(k=1, seed=4))
    assert model.noise_variance == pytest.approx(model_dropped.noise_variance, rel=1e-9)
    assert r_squared(
        extract_directions(model)[:, 0], extract_directions(model_dropped)[:, 0]
    ) >= 1.0 - 1e-9


def reference_em(x, k, seed, iterations):
    """Observed-entry PPCA EM written one sample and one feature at a time.

    Starts from the start documented in fit_ppca and returns the loadings,
    the noise variance and the log-likelihood before every iteration and
    after the last one, each computed from the |O| x |O| covariance of a
    sample's observed entries.
    """
    n, d = x.values.shape
    mask = x.mask
    mean = np.array([x.values[mask[:, j], j].mean() for j in range(d)])
    Y = np.where(mask, x.values - mean, 0.0)
    obs = [np.flatnonzero(mask[i]) for i in range(n)]
    total_obs = mask.sum()
    vbar = np.mean([(Y[:, j] ** 2).sum() / mask[:, j].sum() for j in range(d)])
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((d, k)) * np.sqrt(max(vbar, 1e-12) / np.sqrt(k * d))
    sigma2 = max(vbar / 2.0, 1e-12)

    def loglik(A, sigma2):
        ll = 0.0
        for i, o in enumerate(obs):
            if o.size:
                C = A[o] @ A[o].T + sigma2 * np.eye(o.size)
                y = Y[i, o]
                ll -= 0.5 * (o.size * np.log(2 * np.pi) + np.linalg.slogdet(C)[1]
                             + y @ np.linalg.solve(C, y))
        return ll

    history = []
    for _ in range(iterations):
        history.append(loglik(A, sigma2))
        z = np.zeros((n, k))
        zz = np.zeros((n, k, k))
        for i, o in enumerate(obs):
            if o.size:
                M = A[o].T @ A[o] + sigma2 * np.eye(k)
                z[i] = np.linalg.solve(M, A[o].T @ Y[i, o])
                zz[i] = sigma2 * np.linalg.solve(M, np.eye(k)) + np.outer(z[i], z[i])
        A_new = np.zeros((d, k))
        for j in range(d):
            rows = mask[:, j]
            A_new[j] = np.linalg.solve(zz[rows].sum(axis=0), Y[rows, j] @ z[rows])
        resid = 0.0
        for i, o in enumerate(obs):
            for j in o:
                a = A_new[j]
                resid += Y[i, j] ** 2 - 2.0 * Y[i, j] * (a @ z[i]) + a @ zz[i] @ a
        A, sigma2 = A_new, max(resid / total_obs, 1e-12)
    history.append(loglik(A, sigma2))
    return A, sigma2, np.array(history)


def reference_data(k):
    # 30 x 8 at m = 0.3 with one fully missing row
    gt, data = spiked(d=8, n=30, snr=6.0, k=k, seed=90)
    mask = apply_mcar_mask(data, 0.3, seed=91).mask.copy()
    mask[5] = False
    return MaskedMatrix(data, mask)


def em_path(x, k, seed, steps):
    """fit_ppca's random start followed by ``steps`` plain EM steps."""
    em = _ObservedEm(center_observed(x)[0])
    path = [em.start(k, seed)]
    for it in range(steps):
        path.append(em.step(path[-1], it))
    return em, path


@pytest.mark.parametrize("k", [1, 2])
def test_fit_matches_per_row_reference_em(k):
    x = reference_data(k)
    em, path = em_path(x, k, seed=92, steps=4)
    A, sigma2, history = reference_em(x, k, seed=92, iterations=4)
    assert em.n_skipped == 1
    np.testing.assert_allclose(path[-1].A, A, rtol=1e-10)
    assert path[-1].sigma2 == pytest.approx(sigma2, rel=1e-10)
    np.testing.assert_allclose([p.ll for p in path], history, rtol=1e-10)


@pytest.mark.parametrize("k", [1, 2])
def test_fit_reaches_reference_em_fixed_point(k):
    # the plain reference EM settles to machine precision within ~60 steps
    x = reference_data(k)
    A, sigma2, history = reference_em(x, k, seed=92, iterations=100)
    opts = FitOptions(k=k, seed=92, rel_tolerance=1e-12, max_iterations=10_000)
    model = fit_ppca(x, opts)
    assert model.converged and model.n_skipped_rows == 1
    assert model.noise_variance == pytest.approx(sigma2, rel=1e-6)
    assert subspace_r2(extract_directions(model), extract_directions(A)) >= 1.0 - 1e-8
    # not below the reference, up to rounding of the log-likelihood sum
    assert model.log_likelihood >= history[-1] - 1e-12 * abs(history[-1])


def test_rejected_extrapolation_keeps_plain_em_point():
    # at this start the first extrapolated point has a lower log-likelihood
    # than the second EM step, so the first cycle must keep that EM step
    x = reference_data(2)
    em, (p0, p1, p2) = em_path(x, 2, seed=99, steps=2)
    A, sigma2 = _extrapolate(p0, p1, p2)
    assert sigma2 > 1e-12 and em.estep(A, sigma2, 2).ll < p2.ll
    capped = fit_ppca(x, FitOptions(k=2, seed=99, max_iterations=2))
    assert np.array_equal(capped.loadings, p2.A)
    assert capped.noise_variance == p2.sigma2
    assert capped.loglik_history.tolist() == [p0.ll, p2.ll]
    h = fit_ppca(x, FitOptions(k=2, seed=99)).loglik_history
    assert (np.diff(h) / np.abs(h[:-1])).min() >= -1e-12


def test_failed_extrapolation_estep_keeps_plain_em_point(monkeypatch):
    # E-steps of one cycle: the start, two EM steps, then the extrapolated point
    x = reference_data(2)
    _, (p0, _, p2) = em_path(x, 2, seed=92, steps=2)
    opts = FitOptions(k=2, seed=92, max_iterations=2)
    assert not np.array_equal(fit_ppca(x, opts).loadings, p2.A)  # accepted unless forced
    cholesky = np.linalg.cholesky
    calls = []

    def fail_fourth(m):
        calls.append(m)
        if len(calls) == 4:
            raise np.linalg.LinAlgError("injected")
        return cholesky(m)

    monkeypatch.setattr(np.linalg, "cholesky", fail_fourth)
    model = fit_ppca(x, opts)
    assert len(calls) == 4
    assert np.array_equal(model.loadings, p2.A)
    assert model.loglik_history.tolist() == [p0.ll, p2.ll]


@pytest.mark.parametrize("max_iterations", [1, 2, 5])
def test_capped_fit_reports_unconverged(max_iterations):
    gt, data = spiked(d=40, n=100, snr=10.0, seed=30)
    x = apply_mcar_mask(data, 0.5, seed=5)
    model = fit_ppca(x, FitOptions(k=1, seed=7, max_iterations=max_iterations))
    assert model.n_iterations <= max_iterations
    assert not model.converged
    # one history entry for the start and one per cycle of at most two steps
    assert model.loglik_history.size == 1 + (max_iterations + 1) // 2
    assert model.log_likelihood == model.loglik_history[-1]


@pytest.mark.parametrize("step, routine", [("E-step", "cholesky"), ("M-step", "solve")])
def test_factorization_failure_raises_numerical_error(monkeypatch, step, routine):
    gt, data = spiked(d=10, n=40, snr=10.0, seed=95)

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("injected")

    monkeypatch.setattr(np.linalg, routine, fail)
    with pytest.raises(NumericalError, match=f"{step} factorization failed at iteration 0"):
        fit_ppca(MaskedMatrix.complete(data), FitOptions(k=1))


def test_extract_directions_diagonal_case():
    a = np.zeros((5, 2))
    a[0, 0] = 2.0
    a[1, 1] = 1.0
    u = extract_directions(a)
    assert abs(u[0, 0]) == pytest.approx(1.0, abs=1e-12)
    assert abs(u[1, 1]) == pytest.approx(1.0, abs=1e-12)


def test_extract_directions_rotation_invariant():
    rng = np.random.default_rng(80)
    a = rng.normal(size=(30, 2)) @ np.diag([3.0, 1.0])
    theta = 0.7
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    u1 = extract_directions(a)
    u2 = extract_directions(a @ rot)
    for i in range(2):
        assert r_squared(u1[:, i], u2[:, i]) >= 1.0 - 1e-10


def test_extract_directions_k1_normalizes():
    a = np.array([[3.0], [4.0]])
    u = extract_directions(a)
    assert np.allclose(np.abs(u[:, 0]), [0.6, 0.8])


def test_extract_directions_rank_deficient_warns():
    a = np.zeros((6, 2))
    a[:, 0] = np.arange(6.0)
    with pytest.warns(RuntimeWarning):
        u = extract_directions(a)
    assert u.shape == (6, 1)


def test_top_eigvec_rank_one_rows():
    a = np.array([1.0, 2.0, 2.0])
    signs = np.array([1, -1, 1, -1, 1.0])
    data = np.outer(signs, a)
    v = top_eigvec_complete(data, 1)
    assert r_squared(v[:, 0], a) >= 1.0 - 1e-12


def test_top_eigvec_pure_noise_is_unaligned():
    # expected alignment with any fixed direction is 1/D = 0.005
    rng = np.random.default_rng(90)
    fixed = np.zeros(200)
    fixed[0] = 1.0
    vals = []
    for trial in range(20):
        data = rng.normal(size=(100, 200))
        v = top_eigvec_complete(data, 1)
        vals.append(r_squared(v[:, 0], fixed))
    assert np.mean(vals) <= 0.05


def test_top_eigvec_agrees_with_em_on_spiked_data():
    gt, data = spiked(d=100, n=400, snr=12.0, k=2, seed=100)
    model = fit_ppca(MaskedMatrix.complete(data), FitOptions(k=2, seed=5))
    u = extract_directions(model)
    v = top_eigvec_complete(data, 2)
    assert subspace_r2(u, v) >= 0.999


def test_top_eigvec_rejects_masked_input():
    data = np.random.default_rng(1).normal(size=(10, 4))
    x = apply_mcar_mask(data, 0.5, seed=2)
    with pytest.raises(DomainError):
        top_eigvec_complete(x, 1)
    # a fully observed MaskedMatrix is fine
    v = top_eigvec_complete(MaskedMatrix.complete(data), 1)
    assert v.shape == (4, 1)
