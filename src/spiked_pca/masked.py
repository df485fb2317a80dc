"""Partially observed matrices: explicit-mask data model and MCAR masking.

Missingness is always carried by a boolean mask, never by sentinel values
inside the value array; external formats that use sentinels (empty CSV
cells, NaN tokens) are converted at the I/O boundary.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateColumnError, DomainError


@dataclass(frozen=True)
class MaskedMatrix:
    """An N x D real matrix together with a boolean observation mask.

    ``mask[n, d]`` is True where the entry is observed. Entries of
    ``values`` at unobserved positions are undefined and are never read
    by any operation in this package. Both arrays are frozen read-only,
    so instances are safe to share across threads.
    """

    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        mask = np.array(self.mask, dtype=bool)
        if values.ndim != 2:
            raise DomainError(f"expected a 2-d value array, got ndim={values.ndim}")
        if mask.shape != values.shape:
            raise DomainError(
                f"mask shape {mask.shape} does not match values shape {values.shape}"
            )
        if values.shape[0] < 1 or values.shape[1] < 1:
            raise DomainError("matrix must have at least one row and one column")
        values.flags.writeable = False
        mask.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mask", mask)

    @property
    def n_rows(self):
        return self.values.shape[0]

    @property
    def n_cols(self):
        return self.values.shape[1]

    @classmethod
    def complete(cls, data):
        """Wrap a fully observed matrix."""
        data = np.asarray(data, dtype=float)
        return cls(data, np.ones(data.shape, dtype=bool))


def apply_mcar_mask(data, m, seed):
    """Hide each entry independently with probability ``m``.

    The mask is a pure function of (data shape, m, seed): the same inputs
    always produce a bit-identical mask. Observed entries keep their
    original values.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise DomainError(f"expected a 2-d matrix, got ndim={data.ndim}")
    if not 0.0 <= m <= 1.0:
        raise DomainError(f"missing rate must lie in [0, 1], got {m}")
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise DomainError(f"seed must be a nonnegative integer, got {seed!r}")
    if not np.all(np.isfinite(data)):
        raise DomainError("input matrix must be finite")
    rng = np.random.default_rng(seed)
    # uniforms are in [0, 1), so m = 0 observes everything and m = 1 nothing
    observed = rng.random(data.shape) >= m
    return MaskedMatrix(data, observed)


def center_observed(x):
    """Subtract per-column observed means from the observed entries.

    Returns the centered matrix (missing entries untouched) and the mean
    vector needed to invert the transform. A column with no observed
    entries has no mean and raises :class:`DegenerateColumnError`; a
    non-finite observed value raises :class:`DomainError`.
    """
    counts = x.mask.sum(axis=0)
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        raise DegenerateColumnError(empty[0], "cannot compute an observed mean")
    observed = np.where(x.mask, x.values, 0.0)
    if not np.isfinite(observed).all():
        raise DomainError("observed entries must be finite")
    mean = observed.sum(axis=0) / counts
    centered = np.where(x.mask, x.values - mean, x.values)
    return MaskedMatrix(centered, x.mask), mean


def observed_fraction(x):
    """Fraction of entries that are observed, in [0, 1]."""
    return float(x.mask.mean())
