"""Partially observed matrices: explicit-mask data model and MCAR masking.

Missingness is always carried by a boolean mask, never by sentinel values
inside the value array; external formats that use sentinels (empty CSV
cells, NaN tokens) are converted at the I/O boundary.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, check_integer, check_rate


def _read_only(a, dtype):
    """``a`` itself if it is a read-only ``dtype`` array, else a read-only copy."""
    if type(a) is np.ndarray and a.dtype == dtype and not a.flags.writeable:
        return a
    a = np.array(a, dtype=dtype)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class MaskedMatrix:
    """An N x D real matrix together with a boolean observation mask.

    ``values.shape`` is the matrix's shape (N, D), and ``mask`` has the
    same. ``mask[n, d]`` is True where the entry is observed. Entries of
    ``values`` at unobserved positions are undefined, and no operation in
    this package reads them from its input. Both arrays are read-only. A
    writeable array is copied; one already read-only is kept without a
    copy, as the caller's promise not to change it.
    """

    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        values = _read_only(self.values, float)
        mask = _read_only(self.mask, bool)
        if values.ndim != 2:
            raise DomainError(f"expected a 2-d value array, got ndim={values.ndim}")
        if mask.shape != values.shape:
            raise DomainError(
                f"mask shape {mask.shape} does not match values shape {values.shape}"
            )
        if values.shape[0] < 1 or values.shape[1] < 1:
            raise DomainError("matrix must have at least one row and one column")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def complete(cls, data):
        """Wrap a fully observed matrix; its mask is a read-only broadcast of one True."""
        return cls(np.asarray(data, dtype=float), np.broadcast_to(True, np.shape(data)))


def complete_matrix(x):
    """``x``, an array or a MaskedMatrix, as a fully observed MaskedMatrix.

    An array is wrapped by :meth:`MaskedMatrix.complete`; a MaskedMatrix is
    returned as it is. A missing or non-finite entry raises DomainError.
    """
    x = x if isinstance(x, MaskedMatrix) else MaskedMatrix.complete(x)
    if not x.mask.all():
        raise DomainError("input has missing entries; complete data is required")
    if not np.isfinite(x.values).all():
        raise DomainError("input matrix must be finite")
    return x


def apply_mcar_mask(data, m, seed):
    """Hide each entry independently with probability ``m``.

    The mask is a pure function of (data shape, m, seed): the same inputs
    always produce a bit-identical mask. ``data`` is anything
    :func:`complete_matrix` accepts, whose read-only values the result shares.
    """
    data = complete_matrix(data).values
    m = check_rate("missing rate", m)
    check_integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    # uniforms are in [0, 1), so m = 0 observes everything and m = 1 nothing
    observed = rng.random(data.shape) >= m
    observed.flags.writeable = False
    return MaskedMatrix(data, observed)


def center_observed(x):
    """Subtract per-column observed means from the observed entries.

    Returns the centered values, a fresh writeable array whose unobserved
    entries are 0 of either sign, and the mean vector needed to invert the
    transform. A column with no observed entries has no mean and raises
    :class:`DomainError` that numbers it from 1, as the CSV reader does,
    and so does a non-finite observed value; finite values whose
    centering overflows raise :class:`NumericalError`.
    """
    counts = x.mask.sum(axis=0)
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        raise DomainError(f"column {empty[0] + 1}: cannot compute an observed mean")
    centered = np.where(x.mask, x.values, 0.0)
    if not np.isfinite(centered).all():
        raise DomainError("observed entries must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = centered.sum(axis=0) / counts
        centered -= mean
        centered *= x.mask  # unobserved entries back to (signed) zero
        # the sum is non-finite if a mean or a centered entry is; the fit
        # divides by the largest entry before it squares any
        if not math.isfinite(centered.sum()):
            raise NumericalError("centered data not finite: the data overflow")
    return centered, mean
