"""Alignment and signal-to-noise measurement.

Alignment between directions is the squared cosine similarity R^2, which
ignores scale and sign. Signal-to-noise ratios are read off covariance
eigenvalues: with isotropic noise the trailing eigenvalues estimate the
noise floor and each leading eigenvalue carries signal variance on top
of it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, check_integer, check_nonnegative
from .masked import MaskedMatrix, center_observed, complete_matrix
from .ppca import SIGMA2_FLOOR


@dataclass(frozen=True)
class SnrEstimate:
    """Noise floor and per-component signal-to-noise ratios."""

    noise_variance_hat: float
    snr_per_component: np.ndarray


def component_r2(fitted, truth):
    """Per-component alignment: the squared cosine between each fitted
    column and the true column of the same index.

    Both sides are ordered by magnitude (singular value and norm), which
    mirrors how per-component curves are read off. Each value ignores the
    scale and sign of either column; 1 means the same line, 0 orthogonal.
    Shapes must agree, and a zero column raises DomainError.
    """
    U = np.asarray(fitted, dtype=float)
    A = truth.directions
    if U.shape != A.shape:
        raise DomainError(f"shape mismatch: fitted {U.shape} vs truth {A.shape}")
    norms = np.linalg.norm(U, axis=0) * np.linalg.norm(A, axis=0)
    if not norms.all():
        raise DomainError("alignment with a zero vector is undefined")
    c = (U * A).sum(axis=0) / norms
    return np.minimum(c * c, 1.0)


def covariance_eigenvalues(x):
    """All D eigenvalues, descending, of the empirical covariance.

    ``x`` is anything :func:`complete_matrix` accepts. The covariance is
    (1/N) X_c^T X_c with X_c the column-centered data; when N < D the
    spectrum is padded with exact zeros.
    """
    centered, _ = center_observed(complete_matrix(x))
    lam = np.zeros(centered.shape[1])
    s = np.linalg.svd(centered, compute_uv=False)
    with np.errstate(over="ignore"):
        lam[: s.size] = s ** 2 / len(centered)
    if not np.isfinite(lam).all():
        raise NumericalError("covariance eigenvalues not finite: the data overflow")
    return lam


def top_eigvec_complete(x, k):
    """Top-k eigenvectors of the empirical covariance of ``x``, anything
    :func:`complete_matrix` accepts.

    Columns are eigenvectors of (1/N) sum_n x_n x_n^T after centering,
    in descending eigenvalue order. This is the spectral reference the
    EM fit must agree with when nothing is missing. Centered data of N
    rows have rank at most N - 1, so k must lie in [1, min(N - 1, D)].
    """
    x = complete_matrix(x)
    n, d = x.values.shape
    check_integer("k", k, -math.inf)  # type only: the range check below names the bounds
    if not 1 <= k <= min(n - 1, d):
        raise DomainError(f"need 1 <= k <= min(N - 1, D), got k={k}, N={n}, D={d}")
    centered, _ = center_observed(x)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    return vt[:k].T


def estimate_snr(eigenvalues, k):
    """Estimate the noise floor and leading signal-to-noise ratios.

    sigma2_hat is the mean of the trailing D - k eigenvalues and
    S_i = (lambda_i - sigma2_hat) / sigma2_hat for i <= k. A sigma2_hat
    not above SIGMA2_FLOOR times the mean eigenvalue, the fitter's floor
    relative to the mean square, counts as zero and raises DomainError.
    Sorted input keeps every S_i at or above 0 up to rounding; estimates
    are floored at 0, since a negative ratio has no meaning downstream.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.ndim != 1:
        raise DomainError("eigenvalues must be a 1-d vector")
    d = lam.size
    check_integer("k", k, -math.inf)  # type only: the range check below names the bounds
    if not 1 <= k < d:
        raise DomainError(f"need 1 <= k < D, got k={k}, D={d}")
    if not np.isfinite(lam).all():
        raise DomainError("eigenvalues must be finite")
    if np.any(lam < 0):
        raise DomainError("eigenvalues must be nonnegative")
    if np.any(np.diff(lam) > 0):
        raise DomainError("eigenvalues must be sorted in descending order")
    sigma2_hat = float(lam[k:].mean())
    if sigma2_hat <= SIGMA2_FLOOR * lam.mean():
        raise DomainError("trailing eigenvalues are all zero relative to the mean eigenvalue")
    snr = np.maximum((lam[:k] - sigma2_hat) / sigma2_hat, 0.0)
    return SnrEstimate(sigma2_hat, snr)


def add_isotropic_noise(x, sigma2_added, seed):
    """Add independent N(0, sigma2_added) noise to every observed entry.

    The mask is unchanged and unobserved entries are not touched. With a
    base noise floor sigma2 the resulting ratios become
    S_i = ||a_i||^2 / (sigma2 + sigma2_added), which is how a dataset's
    signal-to-noise ratio is swept downward.
    """
    sigma2_added = check_nonnegative("added variance", sigma2_added)
    check_integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    # built in place, one n x d array: zero noise where unobserved
    noisy = rng.standard_normal(x.values.shape)
    noisy *= math.sqrt(sigma2_added)
    noisy *= x.mask
    noisy += x.values
    noisy.flags.writeable = False  # fresh, so MaskedMatrix need not copy it
    return MaskedMatrix(noisy, x.mask)
