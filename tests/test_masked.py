import numpy as np
import pytest

from spiked_pca import (
    DegenerateColumnError,
    DomainError,
    MaskedMatrix,
    apply_mcar_mask,
    center_observed,
    observed_fraction,
)


def test_mask_rate_zero_observes_everything():
    x = apply_mcar_mask(np.arange(12.0).reshape(3, 4), 0.0, seed=7)
    assert x.mask.all()
    assert np.array_equal(x.values, np.arange(12.0).reshape(3, 4))


def test_mask_rate_one_hides_everything():
    x = apply_mcar_mask(np.arange(12.0).reshape(3, 4), 1.0, seed=7)
    assert not x.mask.any()


@pytest.mark.parametrize("m", [-0.1, 1.0001, 2.0])
def test_mask_rejects_rates_outside_unit_interval(m):
    with pytest.raises(DomainError):
        apply_mcar_mask(np.zeros((2, 2)), m, seed=0)


@pytest.mark.parametrize("seed", [-1, 1.5, True], ids=["negative", "float", "bool"])
def test_mask_rejects_invalid_seed(seed):
    with pytest.raises(DomainError, match="seed"):
        apply_mcar_mask(np.zeros((2, 2)), 0.5, seed=seed)


def test_mask_rejects_nonfinite_data():
    data = np.zeros((2, 2))
    data[0, 0] = np.inf
    with pytest.raises(DomainError):
        apply_mcar_mask(data, 0.5, seed=0)


def test_observed_fraction_within_binomial_interval():
    # 4 standard errors around 0.7: sqrt(0.3 * 0.7 / 1e5) ~= 0.00145
    x = apply_mcar_mask(np.zeros((1000, 100)), 0.3, seed=1)
    assert 0.7 - 0.0058 <= observed_fraction(x) <= 0.7 + 0.0058


@pytest.mark.parametrize("m", [0.1, 0.5, 0.9])
def test_missing_fraction_tracks_rate(m):
    x = apply_mcar_mask(np.zeros((500, 200)), m, seed=11)
    se = np.sqrt(m * (1 - m) / (500 * 200))
    assert abs((1.0 - observed_fraction(x)) - m) <= 4 * se


def test_mask_deterministic_in_seed():
    data = np.random.default_rng(0).normal(size=(50, 40))
    a = apply_mcar_mask(data, 0.3, seed=123)
    b = apply_mcar_mask(data, 0.3, seed=123)
    assert np.array_equal(a.mask, b.mask)
    assert np.array_equal(a.values, b.values)
    c = apply_mcar_mask(data, 0.3, seed=124)
    assert not np.array_equal(a.mask, c.mask)


def test_values_preserved_at_observed_entries():
    data = np.random.default_rng(5).normal(size=(30, 20))
    x = apply_mcar_mask(data, 0.4, seed=2)
    assert np.array_equal(x.values[x.mask], data[x.mask])


def test_center_fully_observed_column():
    x = MaskedMatrix.complete(np.array([[1.0], [2.0], [3.0]]))
    centered, mean = center_observed(x)
    assert np.array_equal(centered.values[:, 0], [-1.0, 0.0, 1.0])
    assert mean[0] == 2.0


def test_center_column_with_missing_entry():
    values = np.array([[1.0], [99.0], [3.0]])
    mask = np.array([[True], [False], [True]])
    centered, mean = center_observed(MaskedMatrix(values, mask))
    assert mean[0] == 2.0
    assert centered.values[0, 0] == -1.0
    assert centered.values[2, 0] == 1.0
    assert not centered.mask[1, 0]


def test_center_already_centered_is_identity():
    x = MaskedMatrix.complete(np.array([[1.0, -2.0], [-1.0, 2.0]]))
    centered, mean = center_observed(x)
    assert np.array_equal(mean, [0.0, 0.0])
    assert np.array_equal(centered.values, x.values)


def test_center_rejects_fully_missing_column():
    values = np.zeros((3, 3))
    mask = np.ones((3, 3), dtype=bool)
    mask[:, 1] = False
    with pytest.raises(DegenerateColumnError) as err:
        center_observed(MaskedMatrix(values, mask))
    assert err.value.column == 1
    assert "column 1" in str(err.value)


def test_center_rejects_nonfinite_observed_values():
    values = np.array([[1.0, np.inf], [2.0, 3.0], [np.nan, 4.0]])
    mask = np.ones((3, 2), dtype=bool)
    with pytest.raises(DomainError):
        center_observed(MaskedMatrix(values, mask))
    # values at unobserved positions are never read
    mask[0, 1] = mask[2, 0] = False
    _, mean = center_observed(MaskedMatrix(values, mask))
    assert np.array_equal(mean, [1.5, 3.5])


def test_center_roundtrip_restores_observed_values():
    # integer-valued data with integer column means round-trips bit-exactly
    data = np.array([[1.0, 6.0], [3.0, 99.0], [5.0, 4.0], [7.0, 2.0]])
    x = MaskedMatrix(data, np.array([[1, 1], [1, 0], [1, 1], [1, 1]], dtype=bool))
    centered, mean = center_observed(x)
    assert np.array_equal(mean, [4.0, 4.0])
    restored = centered.values + mean
    assert np.array_equal(restored[x.mask], x.values[x.mask])

    # general data round-trips to floating point accuracy
    rng = np.random.default_rng(3)
    y = apply_mcar_mask(rng.normal(size=(40, 25)) * 3 + 1, 0.35, seed=8)
    centered, mean = center_observed(y)
    restored = centered.values + mean
    assert np.allclose(restored[y.mask], y.values[y.mask], rtol=1e-12, atol=1e-12)


def test_observed_fraction_counts():
    assert observed_fraction(MaskedMatrix.complete(np.zeros((4, 4)))) == 1.0
    all_missing = MaskedMatrix(np.zeros((4, 4)), np.zeros((4, 4), dtype=bool))
    assert observed_fraction(all_missing) == 0.0
    mask = np.array([[True, True], [True, False]])
    assert observed_fraction(MaskedMatrix(np.zeros((2, 2)), mask)) == 0.75


def test_masked_matrix_rejects_shape_mismatch():
    with pytest.raises(DomainError):
        MaskedMatrix(np.zeros((2, 3)), np.ones((3, 2), dtype=bool))
    with pytest.raises(DomainError):
        MaskedMatrix(np.zeros((0, 3)), np.ones((0, 3), dtype=bool))
    with pytest.raises(DomainError):
        MaskedMatrix(np.zeros(3), np.ones(3, dtype=bool))


def test_masked_matrix_is_read_only():
    x = MaskedMatrix.complete(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        x.values[0, 0] = 1.0
    with pytest.raises(ValueError):
        x.mask[0, 0] = False
