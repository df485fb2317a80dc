"""Alignment and signal-to-noise measurement.

Alignment between directions is the squared cosine similarity R^2, which
ignores scale and sign. Signal-to-noise ratios are read off covariance
eigenvalues: with isotropic noise the trailing eigenvalues estimate the
noise floor and each leading eigenvalue carries signal variance on top
of it.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError, DomainError, NumericalError
from .masked import MaskedMatrix


@dataclass(frozen=True)
class SnrEstimate:
    """Noise floor and per-component signal-to-noise ratios."""

    noise_variance_hat: float
    snr_per_component: np.ndarray
    k: int


def r_squared(a_hat, a_true):
    """Squared cosine similarity between two nonzero vectors.

    Invariant to rescaling or flipping either argument; 1 means the same
    line, 0 means orthogonal.
    """
    a = np.asarray(a_hat, dtype=float).ravel()
    b = np.asarray(a_true, dtype=float).ravel()
    if a.shape != b.shape:
        raise DomainError(f"vectors differ in length: {a.size} vs {b.size}")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise DomainError("alignment with a zero vector is undefined")
    c = float(a @ b) / (na * nb)
    return min(c * c, 1.0)


def component_r2(fitted, truth):
    """Per-component alignment, pairing fitted and true columns by index.

    Both sides are ordered by magnitude (singular value and norm), which
    mirrors how per-component curves are read off. Shapes must agree.
    """
    U = np.asarray(fitted, dtype=float)
    A = truth.directions
    if U.shape != A.shape:
        raise DomainError(f"shape mismatch: fitted {U.shape} vs truth {A.shape}")
    return np.array([r_squared(U[:, i], A[:, i]) for i in range(U.shape[1])])


def covariance_eigenvalues(x):
    """All D eigenvalues, descending, of the empirical covariance.

    The covariance is (1/N) X_c^T X_c with X_c the column-centered data;
    when N < D the spectrum is padded with exact zeros.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise DomainError("expected a 2-d matrix")
    if not np.isfinite(x).all():
        raise DomainError("input matrix must be finite")
    n, d = x.shape
    lam = np.zeros(d)
    with np.errstate(over="ignore", invalid="ignore"):
        centered = x - x.mean(axis=0)
        # the sum is non-finite if an entry is, and overflows only where
        # the squared singular values would too; it needs no N x D mask
        if not math.isfinite(centered.sum()):
            raise NumericalError("centered data not finite: the data overflow")
        s = np.linalg.svd(centered, compute_uv=False)
        lam[: s.size] = s ** 2 / n
    if not np.isfinite(lam).all():
        raise NumericalError("covariance eigenvalues not finite: the data overflow")
    return lam


def estimate_snr(eigenvalues, k):
    """Estimate the noise floor and leading signal-to-noise ratios.

    sigma2_hat is the mean of the trailing D - k eigenvalues and
    S_i = (lambda_i - sigma2_hat) / sigma2_hat for i <= k. Sampling noise
    can push an estimate below zero; such values are floored at 0 with a
    warning since a negative ratio has no meaning downstream.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.ndim != 1:
        raise DomainError("eigenvalues must be a 1-d vector")
    d = lam.size
    if not 1 <= k < d:
        raise DomainError(f"need 1 <= k < D, got k={k}, D={d}")
    if np.any(lam < 0):
        raise DomainError("eigenvalues must be nonnegative")
    if np.any(np.diff(lam) > 0):
        raise DomainError("eigenvalues must be sorted in descending order")
    sigma2_hat = float(lam[k:].mean())
    if sigma2_hat == 0.0:
        raise DegenerateSpectrumError("trailing eigenvalues are all zero")
    snr = (lam[:k] - sigma2_hat) / sigma2_hat
    if np.any(snr < 0):
        warnings.warn("negative signal-to-noise estimate floored at 0", RuntimeWarning)
        snr = np.maximum(snr, 0.0)
    return SnrEstimate(sigma2_hat, snr, int(k))


def add_isotropic_noise(x, sigma2_added, seed):
    """Add independent N(0, sigma2_added) noise to every observed entry.

    The mask is unchanged and unobserved entries are not touched. With a
    base noise floor sigma2 the resulting ratios become
    S_i = ||a_i||^2 / (sigma2 + sigma2_added), which is how a dataset's
    signal-to-noise ratio is swept downward.
    """
    if not 0 <= sigma2_added < math.inf:
        raise DomainError(f"added variance must be finite and nonnegative, got {sigma2_added}")
    if sigma2_added == 0:
        return MaskedMatrix(x.values, x.mask)
    rng = np.random.default_rng(seed)
    noise = math.sqrt(sigma2_added) * rng.standard_normal(x.values.shape)
    return MaskedMatrix(np.where(x.mask, x.values + noise, x.values), x.mask)
