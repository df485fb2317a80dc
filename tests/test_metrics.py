from dataclasses import replace

import numpy as np
import pytest

from spiked_pca import (
    DomainError,
    MaskedMatrix,
    NumericalError,
    apply_mcar_mask,
    component_r2,
    covariance_eigenvalues,
    estimate_snr,
    make_ground_truth,
    sample_dataset,
    top_eigvec_complete,
)
from spiked_pca.metrics import SnrEstimate, add_isotropic_noise


def cos2(a, b):
    return float(a @ b) ** 2 / float((a @ a) * (b @ b))


def line(v):
    """A one-component ground truth whose true direction is the vector v."""
    v = np.asarray(v, dtype=float).reshape(-1, 1)
    return replace(make_ground_truth(len(v), [1.0], 1.0, seed=0), directions=v)


def column(v):
    return np.asarray(v, dtype=float).reshape(-1, 1)


def test_r_squared_geometry():
    assert component_r2(column([1.0, 0.0]), line([0.0, 1.0])).tolist() == [0.0]
    assert component_r2(column([2.0, 0.0]), line([-1.0, 0.0])).tolist() == [1.0]
    assert component_r2(column([1.0, 1.0]), line([1.0, 0.0])) == pytest.approx([0.5], abs=1e-12)


def test_r_squared_rejects_zero_vectors():
    with pytest.raises(DomainError, match="zero vector"):
        component_r2(column([0.0, 0.0]), line([1.0, 0.0]))
    with pytest.raises(DomainError, match="zero vector"):
        component_r2(column([1.0, 0.0]), line([0.0, 0.0]))
    with pytest.raises(DomainError, match="shape mismatch"):
        component_r2(column([1.0, 0.0]), line([1.0, 0.0, 0.0]))


def test_r_squared_scale_sign_and_symmetry():
    rng = np.random.default_rng(0)
    for _ in range(200):
        u = rng.normal(size=8)
        v = rng.normal(size=8)
        c = rng.uniform(0.1, 10.0) * rng.choice([-1.0, 1.0])
        base = component_r2(column(u), line(v))
        assert base == pytest.approx([cos2(u, v)], rel=1e-12)
        assert component_r2(column(v), line(u)) == pytest.approx(base, rel=1e-12)
        assert component_r2(column(c * u), line(v)) == pytest.approx(base, rel=1e-12)
        assert 0.0 <= base[0] <= 1.0


def test_estimate_snr_exact_spiked_spectrum():
    est = estimate_snr([3.0, 1.0, 1.0, 1.0, 1.0], 1)
    assert isinstance(est, SnrEstimate)
    assert est.noise_variance_hat == 1.0
    assert est.snr_per_component[0] == 2.0


def test_estimate_snr_inverts_construction():
    rng = np.random.default_rng(1)
    for _ in range(20):
        sigma2 = rng.uniform(0.01, 5.0)
        s = np.sort(rng.uniform(0.5, 30.0, size=2))[::-1]
        lam = np.concatenate([sigma2 * (s + 1.0), np.full(8, sigma2)])
        est = estimate_snr(lam, 2)
        assert est.noise_variance_hat == pytest.approx(sigma2, rel=1e-12)
        assert est.snr_per_component == pytest.approx(s, rel=1e-12)


def test_estimate_snr_monte_carlo():
    gt = make_ground_truth(50, [1.0], 0.25, seed=2)
    data = sample_dataset(gt, 50_000, seed=3)
    est = estimate_snr(covariance_eigenvalues(data), 1)
    assert abs(est.snr_per_component[0] - 4.0) / 4.0 <= 0.10


def test_estimate_snr_never_negative():
    # sorted spectra keep lambda_k at or above the trailing mean, so the
    # estimates stay nonnegative even on pure-noise spectra
    rng = np.random.default_rng(21)
    for _ in range(50):
        lam = np.sort(rng.uniform(0.0, 3.0, size=12))[::-1]
        est = estimate_snr(lam, int(rng.integers(1, 4)))
        assert np.all(est.snr_per_component >= 0.0)
    # a flat spectrum's trailing mean rounds above lambda_1; the clamp is silent
    assert estimate_snr([0.1] * 4, 1).snr_per_component[0] == 0.0


def test_estimate_snr_validation():
    with pytest.raises(DomainError):
        estimate_snr([3.0, 1.0], 2)
    with pytest.raises(DomainError):
        estimate_snr([1.0, 2.0, 1.0], 1)
    with pytest.raises(DomainError):
        estimate_snr([3.0, -1.0, 1.0], 1)
    with pytest.raises(DomainError, match="trailing eigenvalues are all zero"):
        estimate_snr([3.0, 0.0, 0.0], 1)
    # rank one after centering: the trailing eigenvalue is rounding, about 6e-34
    with pytest.raises(DomainError, match="trailing eigenvalues are all zero"):
        estimate_snr(covariance_eigenvalues(np.array([[1.0, 2.0], [3.0, 4.0]])), 1)
    for k in (1.5, True):
        with pytest.raises(DomainError, match="k must be an integer"):
            estimate_snr([5.0, 2.0, 1.0, 1.0, 1.0], k)
    with pytest.raises(DomainError, match="1-d vector"):
        estimate_snr([[3.0, 1.0], [1.0, 1.0]], 1)
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError, match="finite"):
            estimate_snr([bad, 2.0, 1.0], 1)


def test_add_zero_noise_is_identity():
    x = apply_mcar_mask(np.random.default_rng(4).normal(size=(20, 10)), 0.3, seed=5)
    y = add_isotropic_noise(x, 0.0, seed=6)
    assert np.array_equal(y.values, x.values)
    assert np.array_equal(y.mask, x.mask)


def test_add_noise_preserves_mask_and_missing_entries():
    x = apply_mcar_mask(np.random.default_rng(7).normal(size=(30, 15)), 0.4, seed=8)
    y = add_isotropic_noise(x, 0.5, seed=9)
    assert np.array_equal(y.mask, x.mask)
    assert np.array_equal(y.values[~x.mask], x.values[~x.mask])
    assert not np.array_equal(y.values[x.mask], x.values[x.mask])
    again = add_isotropic_noise(x, 0.5, seed=9)
    assert np.array_equal(again.values, y.values)


def test_add_noise_matches_masked_sum():
    # the noise draw is scaled by the standard deviation and added to the
    # observed entries only, bit for bit
    x = apply_mcar_mask(np.random.default_rng(14).normal(size=(30, 15)), 0.4, seed=15)
    y = add_isotropic_noise(x, 0.3, seed=16)
    noise = np.sqrt(0.3) * np.random.default_rng(16).standard_normal(x.values.shape)
    assert np.array_equal(y.values, np.where(x.mask, x.values + noise, x.values))


def test_add_noise_rejects_negative_variance():
    x = apply_mcar_mask(np.zeros((2, 2)), 0.0, seed=0)
    for bad in (-0.1, float("nan"), float("inf"), 10**400, "a"):
        with pytest.raises(DomainError):
            add_isotropic_noise(x, bad, seed=0)


@pytest.mark.parametrize("seed", [-1, 1.5, True], ids=["negative", "float", "bool"])
def test_add_noise_rejects_invalid_seed(seed):
    x = apply_mcar_mask(np.zeros((2, 2)), 0.0, seed=0)
    with pytest.raises(DomainError, match="seed"):
        add_isotropic_noise(x, 0.1, seed=seed)


def test_added_noise_yields_expected_snr():
    # base sigma2 0.05 plus 0.15 added gives S = 1 / 0.2 = 5
    gt = make_ground_truth(50, [1.0], 0.05, seed=10)
    data = sample_dataset(gt, 50_000, seed=11)
    noisy = add_isotropic_noise(
        apply_mcar_mask(data, 0.0, seed=0), 0.15, seed=12
    )
    est = estimate_snr(covariance_eigenvalues(noisy.values), 1)
    assert abs(est.snr_per_component[0] - 5.0) / 5.0 <= 0.10


def test_component_r2_pairing():
    gt = make_ground_truth(30, [2.0, 1.0], 0.1, seed=13)
    perfect = gt.directions / np.linalg.norm(gt.directions, axis=0)
    assert component_r2(perfect, gt) == pytest.approx([1.0, 1.0], abs=1e-12)
    # rescaling or flipping a fitted column leaves its alignment unchanged
    assert component_r2(perfect * [-3.0, 0.25], gt) == pytest.approx([1.0, 1.0], abs=1e-12)
    swapped = perfect[:, ::-1]
    assert component_r2(swapped, gt) == pytest.approx([0.0, 0.0], abs=1e-10)
    # each fitted column halfway between the two true lines
    assert component_r2(perfect + swapped, gt) == pytest.approx([0.5, 0.5], abs=1e-12)
    with pytest.raises(DomainError, match="shape mismatch"):
        component_r2(perfect[:, :1], gt)
    with pytest.raises(DomainError, match="shape mismatch"):
        component_r2(perfect[:, 0], gt)
    for zero in (perfect * [1.0, 0.0], np.zeros_like(perfect)):
        with pytest.raises(DomainError, match="zero vector"):
            component_r2(zero, gt)


def test_component_r2_orthogonal_complement_is_zero():
    gt = make_ground_truth(10, [1.0, 0.5], 0.1, seed=14)
    # two directions orthogonal to both signal columns
    basis = np.linalg.svd(gt.directions, full_matrices=True)[0][:, 2:4]
    assert component_r2(basis, gt) == pytest.approx([0.0, 0.0], abs=1e-12)
    # truth on the coordinate axes: exactly 0 off them, exactly 1 on them
    # whatever the scale and sign
    axes = replace(gt, directions=np.eye(10)[:, :2])
    assert component_r2(np.eye(10)[:, 2:4], axes).tolist() == [0.0, 0.0]
    assert component_r2(np.eye(10)[:, :2] * [2.0, -1.0], axes).tolist() == [1.0, 1.0]


def test_covariance_eigenvalues_pads_when_short():
    data = np.random.default_rng(16).normal(size=(3, 6))
    lam = covariance_eigenvalues(data)
    assert lam.shape == (6,)
    assert np.all(lam[3:] == 0.0)
    assert np.all(np.diff(lam) <= 1e-12)


def test_covariance_eigenvalues_match_direct_computation():
    data = np.random.default_rng(17).normal(size=(40, 8))
    centered = data - data.mean(axis=0)
    direct = np.linalg.eigvalsh(centered.T @ centered / 40)[::-1]
    assert covariance_eigenvalues(data) == pytest.approx(direct, abs=1e-10)


def test_complete_data_spectrum_validation():
    data = np.random.default_rng(18).normal(size=(6, 4))
    incomplete = apply_mcar_mask(data, 0.5, seed=2)
    nonfinite = data.copy()
    nonfinite[1, 2] = np.inf
    spectra = (covariance_eigenvalues, lambda x: top_eigvec_complete(x, 1))
    # every caller of complete_matrix rejects what it rejects
    for func in (*spectra, lambda x: apply_mcar_mask(x, 0.5, seed=3)):
        with pytest.raises(DomainError, match="missing entries"):
            func(incomplete)
        with pytest.raises(DomainError, match="finite"):
            func(nonfinite)
        with pytest.raises(DomainError, match="2-d"):
            func(data[0])
    for func in spectra:
        # finite entries whose centering overflows
        with pytest.raises(NumericalError, match="overflow"):
            func(np.array([[1e308, 0.0], [1e308, 1.0], [-1e308, 2.0]]))
    complete = MaskedMatrix.complete(data)
    assert np.array_equal(covariance_eigenvalues(complete), covariance_eigenvalues(data))
    assert np.array_equal(top_eigvec_complete(complete, 2), top_eigvec_complete(data, 2))


def test_top_eigvec_complete_rejects_bad_sizes():
    data = np.random.default_rng(19).normal(size=(6, 4))
    with pytest.raises(DomainError, match=r"min\(N - 1, D\), got k=1, N=1"):
        top_eigvec_complete(data[:1], 1)
    # centered data of N rows have rank at most N - 1: at k = N the last
    # column would be an arbitrary eigenvector of a zero eigenvalue
    wide = np.random.default_rng(20).normal(size=(3, 5))
    with pytest.raises(DomainError, match=r"got k=3, N=3, D=5"):
        top_eigvec_complete(wide, 3)
    assert top_eigvec_complete(wide, 2).shape == (5, 2)
    for k in (0, 5):
        with pytest.raises(DomainError, match="k="):
            top_eigvec_complete(data, k)
    for k in (1.5, True):
        with pytest.raises(DomainError, match="k must be an integer"):
            top_eigvec_complete(data, k)
