"""Probabilistic PCA fitted by EM on the observed entries only.

The model is x = mu + A z + eps with isotropic noise. Fitting never
imputes values into the data array: the E-step works per sample on its
observed feature set and the M-step re-estimates each loading row from
the samples that observed that feature. The mean is fixed up front to the
per-column observed means.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .masked import center_observed

SIGMA2_FLOOR = 1e-12


@dataclass(frozen=True)
class FitOptions:
    """Settings for one EM fit. ``seed`` only affects the random start."""

    k: int
    max_iterations: int = 1000
    rel_tolerance: float = 1e-7
    tolerance_streak: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise DomainError(f"k must be >= 1, got {self.k}")
        if self.max_iterations < 1:
            raise DomainError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not self.rel_tolerance > 0:
            raise DomainError(f"rel_tolerance must be positive, got {self.rel_tolerance}")
        if self.tolerance_streak < 1:
            raise DomainError(f"tolerance_streak must be >= 1, got {self.tolerance_streak}")


@dataclass(frozen=True)
class PpcaModel:
    """A fitted model: mean, loadings, noise variance and fit diagnostics.

    ``loglik_history`` holds the observed-data log-likelihood at the start
    of every iteration plus, when the iteration cap was hit, one final
    evaluation; ``log_likelihood`` always belongs to the returned
    parameters. ``n_skipped_rows`` counts samples with no observed
    entries, which carry no information and are ignored by the updates.
    """

    mean: np.ndarray
    loadings: np.ndarray
    noise_variance: float
    log_likelihood: float
    n_iterations: int
    converged: bool
    loglik_history: np.ndarray
    n_skipped_rows: int


def fit_ppca(x, opts):
    """Fit probabilistic PCA to a masked matrix by EM.

    Parameters
    ----------
    x : MaskedMatrix
        Data with an explicit observation mask. Every column needs at
        least one observed entry; fully missing rows are allowed and
        skipped.
    opts : FitOptions
        Number of components, stopping rule and initialization seed.

    Returns
    -------
    PpcaModel
        The fit is deterministic in (x, opts). The log-likelihood
        sequence is nondecreasing up to numerical slack; iteration stops
        once the relative increase stays below ``opts.rel_tolerance``
        for ``opts.tolerance_streak`` consecutive iterations, or at
        ``opts.max_iterations``.
    """
    n, d = x.n_rows, x.n_cols
    k = opts.k
    if k >= d:
        raise DomainError(f"need k < D, got k={k}, D={d}")

    centered, mean = center_observed(x)  # rejects fully missing columns
    mask = centered.mask
    W = mask.astype(float)
    Y = np.where(mask, centered.values, 0.0)

    obs_per_row = mask.sum(axis=1)
    n_skipped = int(np.count_nonzero(obs_per_row == 0))
    total_obs = float(obs_per_row.sum())
    yy_row = (Y ** 2).sum(axis=1)
    sum_yy = float(yy_row.sum())

    # scale-aware random start: loading entries i.i.d. normal with variance
    # vbar / sqrt(k*D), noise at half the average observed column variance
    col_var = (Y ** 2).sum(axis=0) / mask.sum(axis=0)
    vbar = float(col_var.mean())
    rng = np.random.default_rng(opts.seed)
    A = rng.standard_normal((d, k)) * math.sqrt(max(vbar, SIGMA2_FLOOR) / math.sqrt(k * d))
    sigma2 = max(vbar / 2.0, SIGMA2_FLOOR)

    eye = np.eye(k)
    log2pi = math.log(2.0 * math.pi)

    def estep(A, sigma2, iteration):
        # per-sample posterior precision M_n = A_n^T A_n + sigma2 I, built
        # from the mask-weighted sum of per-feature outer products
        T = (A[:, :, None] * A[:, None, :]).reshape(d, k * k)
        M = (W @ T).reshape(n, k, k) + sigma2 * eye
        try:
            L = np.linalg.cholesky(M)  # also the positive-definiteness check
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"E-step factorization failed at iteration {iteration}"
            ) from exc
        Minv = np.linalg.inv(M)
        B = Y @ A  # rows are A_n^T y_n (the mask is already folded into Y)
        Z = (Minv @ B[:, :, None])[:, :, 0]
        logdet_m = 2.0 * np.log(np.diagonal(L, axis1=1, axis2=2)).sum(axis=1)
        quad = yy_row - (B * Z).sum(axis=1)  # y^T y - b^T M^{-1} b
        ll = -0.5 * (
            total_obs * log2pi
            + (total_obs - n * k) * math.log(sigma2)
            + logdet_m.sum()
            + quad.sum() / sigma2
        )
        if not math.isfinite(ll):
            raise NumericalError(f"log-likelihood non-finite at iteration {iteration}")
        return Minv, Z, float(ll)

    history = []
    converged = False
    n_iter = 0
    ll = ll_prev = None
    streak = 0
    for it in range(opts.max_iterations):
        Minv, Z, ll = estep(A, sigma2, it)
        history.append(ll)
        if ll_prev is not None:
            rel = (ll - ll_prev) / abs(ll_prev)
            streak = streak + 1 if abs(rel) < opts.rel_tolerance else 0
            if streak >= opts.tolerance_streak:
                # parameters unchanged since the last M-step, ll is exact
                converged = True
                break
        ll_prev = ll

        Ezz = sigma2 * Minv + Z[:, :, None] * Z[:, None, :]

        # M-step: each loading row solves sum_n w (z z^T) a_d = sum_n w y z
        S1 = Y.T @ Z
        S2 = (W.T @ Ezz.reshape(n, k * k)).reshape(d, k, k)
        try:
            A = np.linalg.solve(S2, S1[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"M-step factorization failed at iteration {it}"
            ) from exc

        # pooled noise variance over all observed entries, floored;
        # sum(A * S1) equals sum_n z_n^T A^T y_n
        cross = float((A * S1).sum())
        tr = float((S2 * (A[:, :, None] * A[:, None, :])).sum())
        sigma2 = max((sum_yy - 2.0 * cross + tr) / total_obs, SIGMA2_FLOOR)
        n_iter = it + 1

    if not converged:
        _, _, ll = estep(A, sigma2, n_iter)
        history.append(ll)

    return PpcaModel(
        mean=mean,
        loadings=A,
        noise_variance=float(sigma2),
        log_likelihood=float(ll),
        n_iterations=n_iter,
        converged=converged,
        loglik_history=np.asarray(history),
        n_skipped_rows=n_skipped,
    )


def extract_directions(model):
    """Orthonormal direction estimates from a fitted model.

    The loadings are only identified up to a k x k rotation, so the
    returned columns are the left singular vectors of A ordered by
    descending singular value. Accepts a PpcaModel or a bare loading
    matrix. Rank-deficient loadings yield fewer columns and a warning.
    """
    A = np.asarray(getattr(model, "loadings", model), dtype=float)
    if A.ndim != 2:
        raise DomainError("loadings must be a D x k matrix")
    if not np.all(np.isfinite(A)):
        raise DomainError("loadings must be finite")
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    tol = s[0] * max(A.shape) * np.finfo(float).eps if s.size else 0.0
    rank = int(np.count_nonzero(s > tol))
    if rank < A.shape[1]:
        warnings.warn(
            f"loadings are rank deficient (rank {rank} < k={A.shape[1]}); "
            f"returning {rank} direction(s)",
            RuntimeWarning,
        )
        return U[:, :rank]
    return U


def top_eigvec_complete(x, k):
    """Top-k eigenvectors of the empirical covariance of complete data.

    Columns are eigenvectors of (1/N) sum_n x_n x_n^T after centering,
    in descending eigenvalue order. This is the spectral reference the
    EM fit must agree with when nothing is missing.
    """
    values = x
    if hasattr(x, "mask"):
        if not x.mask.all():
            raise DomainError("input must be fully observed")
        values = x.values
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise DomainError("expected a 2-d matrix")
    n, d = values.shape
    if n < 2:
        raise DomainError(f"need at least two samples, got {n}")
    if not 1 <= k <= min(n, d):
        raise DomainError(f"need 1 <= k <= min(N, D), got k={k}")
    centered = values - values.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    return vt[:k].T
