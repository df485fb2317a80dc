import numpy as np
import pytest

from spiked_pca import (
    DomainError,
    covariance_eigenvalues,
    make_ground_truth,
    sample_dataset,
)
from spiked_pca.synthetic import GroundTruth


def cos2(a, b):
    return float(a @ b) ** 2 / float((a @ a) * (b @ b))


def test_requested_snrs_from_norms_and_noise():
    gt = make_ground_truth(3000, [1.0, 0.5], 0.05, seed=1)
    assert gt.snr_per_component == pytest.approx([20.0, 5.0], rel=1e-12)
    assert np.linalg.norm(gt.directions[:, 0]) == pytest.approx(1.0, rel=1e-12)
    assert np.linalg.norm(gt.directions[:, 1]) == pytest.approx(0.5, rel=1e-12)


def test_unit_snr():
    gt = make_ground_truth(10, [1.0], 1.0, seed=2)
    assert gt.snr_per_component == pytest.approx([1.0], rel=1e-12)


def test_orthogonal_columns():
    gt = make_ground_truth(200, [2.0, 1.0, 0.5], 0.1, seed=3)
    a = gt.directions
    for i in range(3):
        for j in range(i + 1, 3):
            bound = 1e-10 * np.linalg.norm(a[:, i]) * np.linalg.norm(a[:, j])
            assert abs(a[:, i] @ a[:, j]) <= bound


def test_norms_sorted_descending():
    gt = make_ground_truth(50, [0.5, 2.0, 1.0], 0.1, seed=4)
    norms = np.linalg.norm(gt.directions, axis=0)
    assert norms == pytest.approx([2.0, 1.0, 0.5], rel=1e-12)


def test_rejects_bad_dimensions():
    with pytest.raises(DomainError):
        make_ground_truth(2, [1.0, 0.5], 0.1, seed=0)
    with pytest.raises(DomainError):
        make_ground_truth(10, [], 0.1, seed=0)
    with pytest.raises(DomainError):
        make_ground_truth(10, [1.0, -0.5], 0.1, seed=0)
    with pytest.raises(DomainError):
        make_ground_truth(10, [1.0], 0.0, seed=0)


@pytest.mark.parametrize(
    "norms, noise_variance",
    [([np.inf], 0.1), ([1.0, -np.inf], 0.1), ([np.nan], 0.1), ([1.0, np.nan], 0.1),
     ([1.0], np.inf), ([1.0], np.nan),
     pytest.param([1.0], 10**400, id="noise-huge-int"),
     pytest.param([10**400], 0.1, id="norm-huge-int"),
     pytest.param(["a"], 0.1, id="norm-str"),
     pytest.param([1.0], "a", id="noise-str"),
     pytest.param([1e200], 1e-200, id="snr-overflows")],  # norm**2 / noise variance
)
def test_rejects_nonfinite_norms_and_noise(norms, noise_variance):
    with pytest.raises(DomainError, match="positive and finite"):
        make_ground_truth(10, norms, noise_variance, seed=0)


def test_ground_truth_record_is_read_only():
    gt = make_ground_truth(10, [0.5, 2.0], 0.1, seed=0)
    assert isinstance(gt, GroundTruth)
    assert np.array_equal(gt.snr_per_component, np.array([2.0, 0.5]) ** 2 / 0.1)
    for array in (gt.directions, gt.snr_per_component):
        with pytest.raises(ValueError):
            array[0] = 0.0


@pytest.mark.parametrize("d", [10.7, 10.0, True], ids=["fraction", "float", "bool"])
def test_rejects_non_integer_dimension(d):
    with pytest.raises(DomainError, match="d must be an integer"):
        make_ground_truth(d, [1.0], 0.1, seed=0)


def test_noiseless_rows_lie_on_the_signal_line():
    gt = make_ground_truth(30, [1.0], 1e-30, seed=5)
    data = sample_dataset(gt, 50, seed=6)
    for row in data:
        if np.linalg.norm(row) > 0:
            assert cos2(row, gt.directions[:, 0]) >= 1.0 - 1e-12


def test_top_eigenvalue_matches_population_covariance():
    # population covariance sigma2 I + a a^T has top eigenvalue sigma2 (S+1) = 1.5
    gt = make_ground_truth(20, [1.0], 0.5, seed=7)
    data = sample_dataset(gt, 200_000, seed=8)
    top = covariance_eigenvalues(data)[0]
    assert abs(top - 1.5) / 1.5 <= 0.02


def test_sampling_deterministic_in_seed():
    gt = make_ground_truth(40, [1.0, 0.5], 0.2, seed=9)
    a = sample_dataset(gt, 100, seed=10)
    b = sample_dataset(gt, 100, seed=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, sample_dataset(gt, 100, seed=11))


def test_column_means_near_zero():
    gt = make_ground_truth(20, [1.0], 0.3, seed=12)
    n = 100_000
    data = sample_dataset(gt, n, seed=13)
    col_var = gt.directions[:, 0] ** 2 + gt.noise_variance
    assert np.all(np.abs(data.mean(axis=0)) <= 4 * np.sqrt(col_var / n))


def test_variance_along_signal_and_orthogonal_directions():
    gt = make_ground_truth(20, [1.0], 0.3, seed=14)
    n = 100_000
    data = sample_dataset(gt, n, seed=15)
    a = gt.directions[:, 0]
    # any fixed direction orthogonal to the signal
    b = np.zeros(20)
    b[np.argmin(np.abs(a))] = 1.0
    b -= (b @ a) * a
    b /= np.linalg.norm(b)
    se = np.sqrt(2.0 / (n - 1))
    var_a = np.var(data @ a, ddof=1)
    var_b = np.var(data @ b, ddof=1)
    assert abs(var_a - 1.3) <= 4 * se * 1.3
    assert abs(var_b - 0.3) <= 4 * se * 0.3


def test_rejects_nonpositive_sample_count():
    gt = make_ground_truth(10, [1.0], 0.1, seed=16)
    with pytest.raises(DomainError):
        sample_dataset(gt, 0, seed=17)
    with pytest.raises(DomainError, match="integer"):
        sample_dataset(gt, 40.5, seed=17)


@pytest.mark.parametrize("seed", [-1, 1.5, True], ids=["negative", "float", "bool"])
def test_rejects_invalid_seed(seed):
    with pytest.raises(DomainError, match="seed"):
        make_ground_truth(10, [1.0], 0.1, seed=seed)
    gt = make_ground_truth(10, [1.0], 0.1, seed=16)
    with pytest.raises(DomainError, match="seed"):
        sample_dataset(gt, 5, seed=seed)
