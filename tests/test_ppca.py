import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import spiked_pca.ppca
from spiked_pca import (
    DomainError,
    FitOptions,
    MaskedMatrix,
    NumericalError,
    SpikedPcaError,
    apply_mcar_mask,
    component_r2,
    covariance_eigenvalues,
    extract_directions,
    fit_ppca,
    make_ground_truth,
    sample_dataset,
    top_eigvec_complete,
)
from spiked_pca.ppca import SIGMA2_FLOOR, _extrapolate, _ObservedEm, _spd_inverse


def spiked(d, n, snr, sigma2=0.1, k=1, seed=0):
    norms = np.sqrt(sigma2 * snr * np.linspace(1.0, 0.4, k))
    gt = make_ground_truth(d, norms, sigma2, seed=seed)
    return gt, sample_dataset(gt, n, seed=seed + 1)


def cos2(a, b):
    return float(a @ b) ** 2 / float((a @ a) * (b @ b))


def subspace_r2(u, v):
    # squared cosine of the worst principal angle between equal-rank subspaces
    return float(np.linalg.svd(u.T @ v, compute_uv=False).min() ** 2)


def test_complete_data_matches_top_eigenvector():
    gt, data = spiked(d=80, n=240, snr=15.0, seed=10)
    model = fit_ppca(MaskedMatrix.complete(data), FitOptions(k=1, seed=3))
    u = extract_directions(model)
    v = top_eigvec_complete(data, 1)
    assert cos2(u[:, 0], v[:, 0]) >= 0.999


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
    with pytest.raises(DomainError, match="^column 4: cannot compute an observed mean$"):
        fit_ppca(MaskedMatrix(values, mask), FitOptions(k=1))


def test_rejects_k_not_below_d():
    data = np.random.default_rng(0).normal(size=(20, 4))
    with pytest.raises(DomainError, match="^need k < D, got k=4, D=4$"):
        fit_ppca(MaskedMatrix.complete(data), FitOptions(k=4))
    # nor below the rows that observe anything: two rows, centered, span
    # one dimension, and a fully missing third row adds none
    rows = np.array([[1.0, 2, 3, 4, 5], [2, 4, 6, 8, 11], [0, 0, 0, 0, 0]])
    observed = np.array([[True] * 5, [True] * 5, [False] * 5])
    for x in (MaskedMatrix.complete(rows[:2]), MaskedMatrix(rows, observed)):
        with pytest.raises(DomainError, match="^need k < the rows observing any entry, "
                                              "got k=2, rows=2$"):
            fit_ppca(x, FitOptions(k=2))
        assert fit_ppca(x, FitOptions(k=1)).loadings.shape == (5, 1)


def test_fit_options_validation():
    for bad in (
        dict(k=0),
        dict(k=1, max_iterations=0),
        dict(k=1, rel_tolerance=0.0),
    ):
        with pytest.raises(DomainError):
            FitOptions(**bad)


@pytest.mark.parametrize(
    "bad",
    [
        pytest.param(dict(k=1, rel_tolerance=float("inf")), id="rel_tolerance-inf"),
        pytest.param(dict(k=1, rel_tolerance=float("nan")), id="rel_tolerance-nan"),
        pytest.param(dict(k=1, rel_tolerance="1e-7"), id="rel_tolerance-str"),
        pytest.param(dict(k=1, rel_tolerance=10**400), id="rel_tolerance-huge-int"),
        pytest.param(dict(k=1.5), id="k-float"),
        pytest.param(dict(k=True), id="k-bool"),
        pytest.param(dict(k=1, max_iterations=10.0), id="max_iterations-float"),
        pytest.param(dict(k=1, seed=-3), id="seed-negative"),
        pytest.param(dict(k=1, seed=1.5), id="seed-float"),
    ],
)
def test_fit_options_rejects_nonfinite_tolerance_and_noninteger_counts(bad):
    with pytest.raises(DomainError):
        FitOptions(**bad)


def test_fit_options_accept_numpy_integers():
    opts = FitOptions(k=np.int64(2), max_iterations=np.int32(5), seed=np.uint64(7))
    assert (opts.k, opts.max_iterations, opts.seed) == (2, 5, 7)


def test_fit_deterministic():
    gt, data = spiked(d=40, n=100, snr=10.0, seed=30)
    x = apply_mcar_mask(data, 0.3, seed=5)
    a = fit_ppca(x, FitOptions(k=1, seed=7))
    b = fit_ppca(x, FitOptions(k=1, seed=7))
    assert np.array_equal(a.loadings, b.loadings)
    assert a.noise_variance == b.noise_variance
    assert a.loglik_history[-1] == b.loglik_history[-1]
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
    assert cos2(u[:, 0], gt.directions[:, 0]) >= 0.8


def test_sigma2_floor_respected():
    # the floor is relative to the mean observed square of the centered data
    gt = make_ground_truth(10, [1.0], 1e-30, seed=60)
    data = sample_dataset(gt, 50, seed=61)
    model = fit_ppca(MaskedMatrix.complete(data), FitOptions(k=1, seed=1))
    floor = SIGMA2_FLOOR * ((data - data.mean(axis=0)) ** 2).mean()
    assert model.noise_variance == pytest.approx(floor, rel=1e-9, abs=0.0)


def probe_fit(c):
    """The fit of a masked spiked matrix whose entries are scaled by c."""
    gt = make_ground_truth(60, [1.0, 0.5], 0.05, seed=1)
    x = apply_mcar_mask(sample_dataset(gt, 400, seed=2), 0.4, seed=3)
    model = fit_ppca(MaskedMatrix(c * x.values, x.mask), FitOptions(k=2))
    return gt, model


@pytest.mark.parametrize("c", [1e-153, 1e-8, 1.0314, 10.0, 1e100, 1e150, 1e153])
def test_fit_does_not_depend_on_units(c):
    # EM runs on the data divided by their scale, so every c takes the same
    # steps: at 1e-153 44% of the observed squares are subnormal while sigma2,
    # ~5e-308, is still a normal double; at 1.0314 the log-likelihood crosses
    # 0, at 1e100 sigma2 is ~5e198, whose square overflows, and at 1e153 so
    # does the sum of the entries' squares
    gt, model = probe_fit(1.0)
    _, scaled = probe_fit(c)
    assert scaled.n_iterations == model.n_iterations
    r2 = component_r2(extract_directions(model), gt)
    np.testing.assert_allclose(component_r2(extract_directions(scaled), gt), r2, rtol=0, atol=1e-9)
    assert scaled.noise_variance / (c * c) == pytest.approx(model.noise_variance, rel=1e-3)


@pytest.mark.parametrize("c, m, k", [(1e58, 0.0, 1), (1e-154, 0.4, 1)],
                         ids=["estep-overflow", "pivot-overflow"])
def test_fit_never_warns_whatever_the_units(c, m, k):
    # at 1e58 the E-step's outer products overflow if a SQUAREM step takes
    # the loadings past 1e154, and at 1e-154 a sweep pivot's reciprocal
    # overflows; neither may surface as a numpy warning, which this suite's
    # filter turns into an error
    gt = make_ground_truth(60, (1.0, 0.5), 0.05, 1)
    x = apply_mcar_mask(sample_dataset(gt, 400, 2) * c, m, 3)
    try:
        model = fit_ppca(x, FitOptions(k=k))
    except SpikedPcaError:
        return
    assert np.isfinite(model.loadings).all()


@pytest.mark.parametrize("c", [1e-170, 1e-154, 1e160])
def test_fit_out_of_range_in_the_data_units_raises(c):
    # the fit itself runs in unit-RMS units; at 1e-170 sigma2 underflows to
    # 0 when scaled back, at 1e-154 to a subnormal ~5e-310, and at 1e160 it
    # overflows
    with pytest.raises(NumericalError, match="^the fit is out of range in the data's units$"):
        probe_fit(c)


@pytest.mark.parametrize("data", [np.tile([1.0, 2.0, 3.0, 4.0], (6, 1))], ids=["constant"])
def test_rejects_data_without_variance(data):
    # the data have no scale to divide by
    with pytest.raises(DomainError, match="^the observed entries do not vary about their "
                                          "column means$"):
        fit_ppca(MaskedMatrix.complete(data), FitOptions(k=1))


def test_fit_memory_peak_stays_near_two_data_arrays():
    # a fit holds two n x d float arrays, the scaled data and the mask as
    # floats (2.64 x the data here); one that also kept the centered data
    # alive would peak near 3.6 x
    gt = make_ground_truth(50, (1.0, 0.5), 0.05, seed=1)
    x = apply_mcar_mask(sample_dataset(gt, 25_000, seed=2), 0.3, seed=3)
    tracemalloc.start()
    try:
        fit_ppca(x, FitOptions(k=2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.8 * x.values.nbytes


def test_fully_missing_rows_are_skipped_and_counted():
    gt, data = spiked(d=30, n=80, snr=10.0, seed=70)
    mask = np.ones((80, 30), dtype=bool)
    mask[[4, 17]] = False
    x = MaskedMatrix(data, mask)
    model = fit_ppca(x, FitOptions(k=1, seed=4))
    # dropping those rows outright gives the same fit, step for step
    kept = np.ones(80, dtype=bool)
    kept[[4, 17]] = False
    model_dropped = fit_ppca(MaskedMatrix(data[kept], mask[kept]), FitOptions(k=1, seed=4))
    assert model.n_iterations == model_dropped.n_iterations
    np.testing.assert_allclose(model.loglik_history, model_dropped.loglik_history,
                               rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(model.loadings, model_dropped.loadings, rtol=1e-12, atol=0.0)
    assert model.noise_variance == pytest.approx(model_dropped.noise_variance, rel=1e-9)
    assert cos2(
        extract_directions(model)[:, 0], extract_directions(model_dropped)[:, 0]
    ) >= 1.0 - 1e-9


def reference_em(x, start, iterations):
    """Observed-entry PPCA EM written one sample and one feature at a time.

    Runs plain EM from ``start`` = (A0, sigma2_0) and returns the loadings,
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
    A, sigma2 = start
    k = A.shape[1]

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


def random_start(em, k, seed):
    """A scale-aware random start, the baseline for the spectral start.

    Loading entries are i.i.d. normal with variance vbar / sqrt(k*D) and
    the noise starts at half the average observed column variance vbar.
    """
    vbar = float(((em.Y ** 2).sum(axis=0) / em.W.sum(axis=0)).mean())
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((em.d, k)) * np.sqrt(max(vbar, 1e-12) / np.sqrt(k * em.d))
    return em.estep(A, max(vbar / 2.0, 1e-12), 0)


def em_path(x, k, seed, steps, start=_ObservedEm.start):
    """fit_ppca's start followed by ``steps`` plain EM steps, in the fit's units."""
    em = _ObservedEm(x)
    path = [start(em, k, seed)]
    for it in range(steps):
        path.append(em.estep(*em.mstep(path[-1], it), it + 1))
    return em, path


@pytest.mark.parametrize("k", [1, 2, 3])
def test_fit_matches_per_row_reference_em(k):
    # in the fit's units: the data divided by the scale of their centered entries
    x = reference_data(k)
    em, path = em_path(x, k, seed=92, steps=4)
    unit = MaskedMatrix(x.values / em.scale, x.mask)
    A, sigma2, history = reference_em(unit, path[0][:2], iterations=4)
    assert em.rows == em.n - 1  # the fully missing row is not counted
    np.testing.assert_allclose(path[-1].A, A, rtol=1e-10)
    assert path[-1].sigma2 == pytest.approx(sigma2, rel=1e-10)
    np.testing.assert_allclose([p.ll for p in path], history, rtol=1e-10)


@pytest.mark.parametrize("k", [1, 2])
def test_fit_reaches_reference_em_fixed_point(k):
    # the plain reference EM settles to machine precision within ~60 steps
    # the reference runs in the data's units, from the start scaled back
    x = reference_data(k)
    em, (p0,) = em_path(x, k, seed=92, steps=0)
    s = em.scale
    A, sigma2, history = reference_em(x, (p0.A * s, p0.sigma2 * s * s), iterations=100)
    opts = FitOptions(k=k, seed=92, rel_tolerance=1e-12, max_iterations=10_000)
    model = fit_ppca(x, opts)
    assert model.converged
    assert model.noise_variance == pytest.approx(sigma2, rel=1e-6)
    oracle = np.linalg.svd(A, full_matrices=False)[0]
    assert subspace_r2(extract_directions(model), oracle) >= 1.0 - 1e-8
    # not below the reference, up to rounding of the log-likelihood sum
    assert model.loglik_history[-1] >= history[-1] - 1e-12 * abs(history[-1])


def test_rejected_extrapolation_keeps_plain_em_point(monkeypatch):
    # from this random start the first extrapolated point has a lower
    # log-likelihood than the first EM step, so the first cycle must keep
    # the second EM step
    monkeypatch.setattr(_ObservedEm, "start", random_start)
    x = reference_data(2)
    em, (p0, p1, p2) = em_path(x, 2, seed=12, steps=2, start=random_start)
    A, sigma2 = _extrapolate(p0[:2], p1[:2], p2[:2])
    assert sigma2 > SIGMA2_FLOOR and em.estep(A, sigma2, 2).ll < p1.ll
    capped = fit_ppca(x, FitOptions(k=2, seed=12, max_iterations=2))
    s, shift = em.scale, em.total_obs * np.log(em.scale)  # the fit's units to the data's
    assert np.array_equal(capped.loadings, p2.A * s)
    assert capped.noise_variance == p2.sigma2 * s * s
    assert capped.loglik_history.tolist() == [p0.ll - shift, p2.ll - shift]
    h = fit_ppca(x, FitOptions(k=2, seed=12)).loglik_history
    assert (np.diff(h) / np.abs(h[:-1])).min() >= -1e-12


@pytest.mark.parametrize(
    "steps, sigma2s",
    [((0.0, 0.0, 0.0), (1.0, 0.4, 0.1)), ((0.0, 2.0, 5.0), (1.0, 0.4, 0.1)),
     ((0.0, 1e200, 3e200), (1.0, 0.5, 0.25))],
    ids=["v_vanishes", "sigma2_below_floor", "square_overflows"],
)
def test_extrapolate_returns_theta2_where_the_step_is_undefined(steps, sigma2s):
    # the loadings are A + s B for s in steps. Loadings that do not move
    # leave v_A = 0 whatever sigma2 does; s = 0, 2, 5 gives r_A = 2 B,
    # v_A = B and alpha = -2, and sigma2 falling 1.0 -> 0.4 -> 0.1 gives
    # r = -0.6, v = 0.3: the step lands at 1.0 - 2.4 + 1.2 = -0.2; the
    # squares of r_A and v_A of 1e200 B overflow to inf, and alpha to nan
    A, B = np.arange(6.0).reshape(3, 2), np.ones((3, 2))
    theta0, theta1, theta2 = ((A + t * B, s) for t, s in zip(steps, sigma2s))
    with np.errstate(over="ignore", invalid="ignore"):  # as inside fit_ppca
        assert _extrapolate(theta0, theta1, theta2) is theta2


@pytest.mark.parametrize("c", [1e-4, 1e8])
def test_extrapolate_is_unit_equivariant(c):
    # loadings scaled by c and sigma2 by c^2 (kept above the floor); the step
    # length is a ratio of loading norms, so the point scales the same way
    x = reference_data(2)
    _, path = em_path(x, 2, seed=92, steps=2)
    thetas = [p[:2] for p in path]
    A, sigma2 = _extrapolate(*thetas)
    assert A is not thetas[2][0]  # a true extrapolation, not the plain EM point
    Ac, sigma2c = _extrapolate(*((a * c, s * c * c) for a, s in thetas))
    np.testing.assert_allclose(Ac, A * c, rtol=1e-12, atol=0.0)
    assert sigma2c == pytest.approx(sigma2 * c * c, rel=1e-12)


def test_failed_extrapolation_estep_keeps_plain_em_point(monkeypatch):
    # E-steps of one cycle: the start, the first EM step, then the
    # extrapolated point; the second EM step gets one only as a fallback
    x = reference_data(2)
    em, (p0, _, p2) = em_path(x, 2, seed=92, steps=2)
    s, shift = em.scale, em.total_obs * np.log(em.scale)  # the fit's units to the data's
    opts = FitOptions(k=2, seed=92, max_iterations=2)
    assert not np.array_equal(fit_ppca(x, opts).loadings, p2.A * s)  # accepted unless forced
    calls = []

    def fail_third_estep(G, step, iteration):
        if step == "E-step":
            calls.append(iteration)
            if len(calls) == 3:
                G = -G  # negative definite: the first pivot fails
        return _spd_inverse(G, step, iteration)

    monkeypatch.setattr(spiked_pca.ppca, "_spd_inverse", fail_third_estep)
    model = fit_ppca(x, opts)
    assert len(calls) == 4
    assert np.array_equal(model.loadings, p2.A * s)
    assert model.loglik_history.tolist() == [p0.ll - shift, p2.ll - shift]


def test_accepted_cycle_runs_two_esteps(monkeypatch):
    x = reference_data(2)
    em, (_, p1, p2) = em_path(x, 2, seed=92, steps=2)
    s, shift = em.scale, em.total_obs * np.log(em.scale)  # the fit's units to the data's
    estep = _ObservedEm.estep
    calls = []

    def counting_estep(self, A, sigma2, iteration):
        calls.append(iteration)
        return estep(self, A, sigma2, iteration)

    monkeypatch.setattr(_ObservedEm, "estep", counting_estep)
    model = fit_ppca(x, FitOptions(k=2, seed=92, max_iterations=2))
    assert calls == [0, 1, 2]  # the start, the first EM step, the extrapolated point
    assert model.n_iterations == 2
    assert model.loglik_history[-1] >= p1.ll - shift
    assert not np.array_equal(model.loadings, p2.A * s)


def test_spectral_start_matches_top_eigvec_complete():
    gt, data = spiked(d=100, n=400, snr=12.0, k=2, seed=100)
    em, (p0,) = em_path(MaskedMatrix.complete(data), 2, seed=5, steps=0)
    start = np.linalg.svd(p0.A, full_matrices=False)[0]
    assert subspace_r2(start, top_eigvec_complete(data, 2)) >= 1.0 - 1e-10
    # on complete data the start is the PPCA maximum-likelihood point
    trailing = covariance_eigenvalues(data)[2:].mean()
    assert p0.sigma2 * em.scale * em.scale == pytest.approx(trailing, rel=1e-10)


@pytest.mark.parametrize("c", [0.1, 10.0])
def test_spectral_start_is_scale_equivariant(c):
    gt, data = spiked(d=60, n=150, snr=8.0, k=2, seed=110)
    x = apply_mcar_mask(data, 0.5, seed=111)
    # in the data's units: each start scaled back by its own fit's scale
    em, (p0,) = em_path(x, 2, seed=112, steps=0)
    emc, (pc,) = em_path(MaskedMatrix(c * x.values, x.mask), 2, seed=112, steps=0)
    s, sc = em.scale, emc.scale
    np.testing.assert_allclose(pc.A * sc, c * p0.A * s, rtol=1e-9, atol=1e-12 * c)
    assert pc.sigma2 * sc * sc == pytest.approx(c * c * p0.sigma2 * s * s, rel=1e-12)


def test_spectral_start_not_below_random_start_on_low_snr_line(monkeypatch):
    # (1 - m) S = 2 at m = 0.95, alpha = 2/3: above the transition, where
    # EM has local optima. Over 120 probe repetitions the random start
    # ended up to 91 nats lower, the spectral start at most 6.4 nats
    # lower (in 25 of them), so neither start dominates every draw
    opts = FitOptions(k=1, seed=120)
    gains = []
    for rep in range(6):
        gt, data = spiked(d=600, n=400, snr=40.0, seed=130 + 2 * rep)
        x = apply_mcar_mask(data, 0.95, seed=121 + rep)
        with monkeypatch.context() as patch:
            patch.setattr(_ObservedEm, "start", random_start)
            baseline = fit_ppca(x, opts).loglik_history[-1]
        gains.append(fit_ppca(x, opts).loglik_history[-1] - baseline)
    assert min(gains) >= -10.0
    assert sum(gains) > 0.0


@pytest.mark.parametrize("max_iterations", [1, 2, 5])
def test_capped_fit_reports_unconverged(max_iterations):
    gt, data = spiked(d=40, n=100, snr=10.0, seed=30)
    x = apply_mcar_mask(data, 0.5, seed=5)
    model = fit_ppca(x, FitOptions(k=1, seed=7, max_iterations=max_iterations))
    # only whole cycles of two steps run, so a cap of 1 keeps the start
    assert model.n_iterations == max_iterations - max_iterations % 2
    assert not model.converged
    # one history entry for the start and one per cycle
    assert model.loglik_history.size == 1 + model.n_iterations // 2


# the start's E-step makes the first inversion, the first M-step the second
@pytest.mark.parametrize("step, call", [("E-step", 1), ("M-step", 2)], ids=["E-step", "M-step"])
def test_factorization_failure_raises_numerical_error(monkeypatch, step, call):
    gt, data = spiked(d=10, n=40, snr=10.0, seed=95)
    calls = []

    def fail_nth(G, step, iteration):
        calls.append(step)
        return _spd_inverse(-G if len(calls) == call else G, step, iteration)

    monkeypatch.setattr(spiked_pca.ppca, "_spd_inverse", fail_nth)
    with pytest.raises(NumericalError, match=f"{step} factorization failed at iteration 0"):
        fit_ppca(MaskedMatrix.complete(data), FitOptions(k=1))
    assert calls[-1] == step


EIGH = np.linalg.eigh


def eigh_raises(a):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def eigh_nan(a):
    lam, U = EIGH(a)
    return lam * np.nan, U


def logdet_inf(G, step, iteration):
    G, logdet = _spd_inverse(G, step, iteration)
    return G, logdet + np.inf


@pytest.mark.parametrize(
    "owner, name, fake, message",
    [(np.linalg, "eigh", eigh_raises, "spectral start failed: Eigenvalues did not converge"),
     # a non-finite start fails the E-step's first pivot
     (np.linalg, "eigh", eigh_nan, "E-step factorization failed at iteration 0"),
     (spiked_pca.ppca, "_spd_inverse", logdet_inf, "log-likelihood non-finite at iteration 0")],
    ids=["start_eigh_raises", "start_eigh_nan", "loglik_nonfinite"],
)
def test_injected_failure_raises_numerical_error(monkeypatch, owner, name, fake, message):
    gt, data = spiked(d=10, n=40, snr=10.0, seed=95)
    monkeypatch.setattr(owner, name, fake)
    with pytest.raises(NumericalError, match=f"^{message}$"):
        fit_ppca(MaskedMatrix.complete(data), FitOptions(k=1))


def spd_stack(k, n, seed):
    """n random well-conditioned SPD k x k matrices, stack index first."""
    X = np.random.default_rng(seed).standard_normal((n, k, k + 3))
    return X @ X.transpose(0, 2, 1) + 0.1 * np.eye(k)


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_spd_inverse_matches_inv_and_slogdet(k):
    M = spd_stack(k, 50, seed=140 + k)
    inv, logdet = _spd_inverse(M.transpose(1, 2, 0).copy(), "E-step", 0)
    np.testing.assert_allclose(inv.transpose(2, 0, 1), np.linalg.inv(M), rtol=1e-12)
    sign, expected = np.linalg.slogdet(M)
    assert (sign == 1.0).all()
    np.testing.assert_allclose(logdet, expected, rtol=1e-12)


@pytest.mark.parametrize(
    "bad",
    [[[1.0, 2.0], [2.0, 1.0]], [[1.0, np.nan], [np.nan, 1.0]], [[np.nan, 0.0], [0.0, 1.0]]],
    ids=["indefinite", "nan_off_diagonal", "nan_pivot"],
)
def test_spd_inverse_rejects_non_spd_matrix(bad):
    # one bad matrix among SPD ones fails the whole stack
    M = spd_stack(2, 5, seed=150)
    M[3] = bad
    G = M.transpose(1, 2, 0).copy()
    with pytest.raises(NumericalError, match="^M-step factorization failed at iteration 7$"):
        _spd_inverse(G, "M-step", 7)


@pytest.fixture(scope="module")
def with_loadings():
    """A fitted model with its loadings swapped for a given matrix."""
    _, data = spiked(d=6, n=20, snr=10.0, seed=81)
    model = fit_ppca(MaskedMatrix.complete(data), FitOptions(k=1))
    return lambda a: replace(model, loadings=a)


def test_extract_directions_diagonal_case(with_loadings):
    a = np.zeros((5, 2))
    a[0, 0] = 2.0
    a[1, 1] = 1.0
    u = extract_directions(with_loadings(a))
    assert abs(u[0, 0]) == pytest.approx(1.0, abs=1e-12)
    assert abs(u[1, 1]) == pytest.approx(1.0, abs=1e-12)


def test_extract_directions_rotation_invariant(with_loadings):
    rng = np.random.default_rng(80)
    a = rng.normal(size=(30, 2)) @ np.diag([3.0, 1.0])
    theta = 0.7
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    u1 = extract_directions(with_loadings(a))
    u2 = extract_directions(with_loadings(a @ rot))
    for i in range(2):
        assert cos2(u1[:, i], u2[:, i]) >= 1.0 - 1e-10


def test_extract_directions_k1_normalizes(with_loadings):
    a = np.array([[3.0], [4.0]])
    u = extract_directions(with_loadings(a))
    assert np.allclose(np.abs(u[:, 0]), [0.6, 0.8])


def test_extract_directions_rank_deficient_raises(with_loadings):
    # k columns or none: fewer would pair wrongly with the k true directions
    a = np.zeros((6, 2))
    a[:, 0] = np.arange(6.0)
    with pytest.raises(DomainError, match=r"^loadings are rank deficient \(rank 1 < k=2\)$"):
        extract_directions(with_loadings(a))
    with pytest.raises(DomainError, match=r"rank 0 < k=2"):
        extract_directions(with_loadings(np.zeros((6, 2))))


def test_top_eigvec_rank_one_rows():
    a = np.array([1.0, 2.0, 2.0])
    signs = np.array([1, -1, 1, -1, 1.0])
    data = np.outer(signs, a)
    v = top_eigvec_complete(data, 1)
    assert cos2(v[:, 0], a) >= 1.0 - 1e-12


def test_top_eigvec_pure_noise_is_unaligned():
    # expected alignment with any fixed direction is 1/D = 0.005
    rng = np.random.default_rng(90)
    fixed = np.zeros(200)
    fixed[0] = 1.0
    vals = []
    for trial in range(20):
        data = rng.normal(size=(100, 200))
        v = top_eigvec_complete(data, 1)
        vals.append(cos2(v[:, 0], fixed))
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
