import numpy as np
import pytest

from spiked_pca import (
    DegenerateSpectrumError,
    DomainError,
    add_isotropic_noise,
    apply_mcar_mask,
    component_r2,
    covariance_eigenvalues,
    estimate_snr,
    make_ground_truth,
    r_squared,
    sample_dataset,
)


def test_r_squared_geometry():
    assert r_squared([1.0, 0.0], [0.0, 1.0]) == 0.0
    assert r_squared([2.0, 0.0], [-1.0, 0.0]) == 1.0
    assert r_squared([1.0, 1.0], [1.0, 0.0]) == pytest.approx(0.5, abs=1e-12)


def test_r_squared_rejects_zero_vectors():
    with pytest.raises(DomainError):
        r_squared([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(DomainError):
        r_squared([1.0, 0.0], [0.0, 0.0])
    with pytest.raises(DomainError):
        r_squared([1.0, 0.0], [1.0, 0.0, 0.0])


def test_r_squared_scale_sign_and_symmetry():
    rng = np.random.default_rng(0)
    for _ in range(200):
        u = rng.normal(size=8)
        v = rng.normal(size=8)
        c = rng.uniform(0.1, 10.0) * rng.choice([-1.0, 1.0])
        base = r_squared(u, v)
        assert r_squared(v, u) == pytest.approx(base, rel=1e-12)
        assert r_squared(c * u, v) == pytest.approx(base, rel=1e-12)
        assert 0.0 <= base <= 1.0


def test_estimate_snr_exact_spiked_spectrum():
    est = estimate_snr([3.0, 1.0, 1.0, 1.0, 1.0], 1)
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


def test_estimate_snr_validation():
    with pytest.raises(DomainError):
        estimate_snr([3.0, 1.0], 2)
    with pytest.raises(DomainError):
        estimate_snr([1.0, 2.0, 1.0], 1)
    with pytest.raises(DomainError):
        estimate_snr([3.0, -1.0, 1.0], 1)
    with pytest.raises(DegenerateSpectrumError):
        estimate_snr([3.0, 0.0, 0.0], 1)


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


def test_add_noise_rejects_negative_variance():
    x = apply_mcar_mask(np.zeros((2, 2)), 0.0, seed=0)
    for bad in (-0.1, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            add_isotropic_noise(x, bad, seed=0)


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
    swapped = perfect[:, ::-1]
    assert component_r2(swapped, gt) == pytest.approx([0.0, 0.0], abs=1e-10)
    with pytest.raises(DomainError):
        component_r2(perfect[:, :1], gt)


def test_component_r2_orthogonal_complement_is_zero():
    gt = make_ground_truth(10, [1.0, 0.5], 0.1, seed=14)
    # two directions orthogonal to both signal columns
    basis = np.linalg.svd(gt.directions, full_matrices=True)[0][:, 2:4]
    assert component_r2(basis, gt) == pytest.approx([0.0, 0.0], abs=1e-12)


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
