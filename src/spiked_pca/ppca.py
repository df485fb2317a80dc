"""Probabilistic PCA fitted by EM on the observed entries only.

The model is x = mu + A z + eps with isotropic noise. Fitting never
imputes values into the data array: the E-step works per sample on its
observed feature set and the M-step re-estimates each loading row from
the samples that observed that feature. The mean is fixed up front to the
per-column observed means.
"""

import math
import numbers
import warnings
from dataclasses import dataclass
from typing import NamedTuple

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
        lows = (("k", 1), ("max_iterations", 1), ("tolerance_streak", 1), ("seed", 0))
        for name, low in lows:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise DomainError(f"{name} must be an integer, got {value!r}")
            if value < low:
                raise DomainError(f"{name} must be >= {low}, got {value}")
        if not (
            isinstance(self.rel_tolerance, numbers.Real)
            and 0 < self.rel_tolerance < math.inf
        ):
            raise DomainError(
                f"rel_tolerance must be positive and finite, got {self.rel_tolerance!r}"
            )


@dataclass(frozen=True)
class PpcaModel:
    """A fitted model: mean, loadings, noise variance and fit diagnostics.

    ``loglik_history`` holds the observed-data log-likelihood of the
    random start and of the point each accelerated cycle accepted, so it
    is nondecreasing; ``log_likelihood`` is its last entry and belongs to
    the returned parameters. ``n_iterations`` counts applications of the
    EM map (M-steps), two per cycle, so it never exceeds
    ``max_iterations``. ``n_skipped_rows`` counts samples with no observed
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


class _Point(NamedTuple):
    """Parameters (A, sigma2) with their E-step: log-likelihood and posterior."""

    A: np.ndarray
    sigma2: float
    ll: float
    Minv: np.ndarray  # per-sample inverse posterior precision, n x k x k
    Z: np.ndarray  # posterior means, n x k


class _ObservedEm:
    """The EM map of observed-entry PPCA on one centered masked matrix."""

    def __init__(self, centered):
        mask = centered.mask
        self.n, self.d = mask.shape
        self.W = mask.astype(float)
        self.Y = np.where(mask, centered.values, 0.0)
        obs_per_row = mask.sum(axis=1)
        self.n_skipped = int(np.count_nonzero(obs_per_row == 0))
        self.total_obs = float(obs_per_row.sum())
        self.yy_row = (self.Y ** 2).sum(axis=1)
        self.sum_yy = float(self.yy_row.sum())

    def start(self, k, seed):
        """The scale-aware random start and its E-step.

        Loading entries are i.i.d. normal with variance vbar / sqrt(k*D)
        and the noise starts at half the average observed column
        variance vbar.
        """
        col_var = (self.Y ** 2).sum(axis=0) / self.W.sum(axis=0)
        vbar = float(col_var.mean())
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((self.d, k)) * math.sqrt(
            max(vbar, SIGMA2_FLOOR) / math.sqrt(k * self.d)
        )
        return self.estep(A, max(vbar / 2.0, SIGMA2_FLOOR), 0)

    def estep(self, A, sigma2, iteration):
        """The point (A, sigma2) with its log-likelihood and posterior."""
        n, k = self.n, A.shape[1]
        # per-sample posterior precision M_n = A_n^T A_n + sigma2 I, built
        # from the mask-weighted sum of per-feature outer products
        T = (A[:, :, None] * A[:, None, :]).reshape(self.d, k * k)
        M = (self.W @ T).reshape(n, k, k) + sigma2 * np.eye(k)
        try:
            L = np.linalg.cholesky(M)  # also the positive-definiteness check
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"E-step factorization failed at iteration {iteration}"
            ) from exc
        Minv = np.linalg.inv(M)
        B = self.Y @ A  # rows are A_n^T y_n (the mask is already folded into Y)
        Z = (Minv @ B[:, :, None])[:, :, 0]
        logdet_m = 2.0 * np.log(np.diagonal(L, axis1=1, axis2=2)).sum(axis=1)
        quad = self.yy_row - (B * Z).sum(axis=1)  # y^T y - b^T M^{-1} b
        ll = -0.5 * (
            self.total_obs * math.log(2.0 * math.pi)
            + (self.total_obs - n * k) * math.log(sigma2)
            + logdet_m.sum()
            + quad.sum() / sigma2
        )
        if not math.isfinite(ll):
            raise NumericalError(f"log-likelihood non-finite at iteration {iteration}")
        return _Point(A, sigma2, float(ll), Minv, Z)

    def step(self, p, iteration):
        """One EM map application: the M-step from p's posterior, then the
        E-step at the new parameters."""
        n, k = self.n, p.A.shape[1]
        Ezz = p.sigma2 * p.Minv + p.Z[:, :, None] * p.Z[:, None, :]
        # each loading row solves sum_n w (z z^T) a_d = sum_n w y z
        S1 = self.Y.T @ p.Z
        S2 = (self.W.T @ Ezz.reshape(n, k * k)).reshape(self.d, k, k)
        try:
            A = np.linalg.solve(S2, S1[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"M-step factorization failed at iteration {iteration}"
            ) from exc
        # pooled noise variance over all observed entries, floored;
        # sum(A * S1) equals sum_n z_n^T A^T y_n
        cross = float((A * S1).sum())
        tr = float((S2 * (A[:, :, None] * A[:, None, :])).sum())
        sigma2 = max((self.sum_yy - 2.0 * cross + tr) / self.total_obs, SIGMA2_FLOOR)
        return self.estep(A, sigma2, iteration + 1)


def _extrapolate(p0, p1, p2):
    """The SQUAREM point theta0 - 2 alpha r + alpha^2 v over (A, sigma2).

    r = theta1 - theta0 and v = theta2 - 2 theta1 + theta0 for two EM steps
    theta0 -> theta1 -> theta2; alpha = min(-|r| / |v|, -1), and alpha = -1
    gives theta2 itself. Returns None when v vanishes or the extrapolated
    noise variance is not above the floor.
    """
    r_a, v_a = p1.A - p0.A, p2.A - 2.0 * p1.A + p0.A
    r_s, v_s = p1.sigma2 - p0.sigma2, p2.sigma2 - 2.0 * p1.sigma2 + p0.sigma2
    norm_v = math.sqrt(float((v_a ** 2).sum()) + v_s ** 2)
    if norm_v == 0.0:
        return None
    norm_r = math.sqrt(float((r_a ** 2).sum()) + r_s ** 2)
    alpha = min(-norm_r / norm_v, -1.0)
    sigma2 = p0.sigma2 - 2.0 * alpha * r_s + alpha ** 2 * v_s
    if not sigma2 > SIGMA2_FLOOR:
        return None
    return p0.A - 2.0 * alpha * r_a + alpha ** 2 * v_a, sigma2


def fit_ppca(x, opts):
    """Fit probabilistic PCA to a masked matrix by SQUAREM-accelerated EM.

    Each cycle takes two EM steps theta0 -> theta1 -> theta2 over (A,
    sigma2) and extrapolates along them (Varadhan & Roland 2008). The
    extrapolated point is kept only if its noise variance is above the
    floor, its E-step succeeds and its log-likelihood is at least that of
    theta2; otherwise the cycle keeps theta2, the plain EM point.

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
        The fit is deterministic in (x, opts). The log-likelihoods of the
        accepted points are nondecreasing up to numerical slack; the fit
        stops once their relative increase stays below
        ``opts.rel_tolerance`` for ``opts.tolerance_streak`` consecutive
        cycles, or when ``opts.max_iterations`` EM steps are spent (a
        cycle with one step left takes the plain step).
    """
    k = opts.k
    if k >= x.n_cols:
        raise DomainError(f"need k < D, got k={k}, D={x.n_cols}")

    centered, mean = center_observed(x)  # rejects fully missing columns
    em = _ObservedEm(centered)
    p = em.start(k, opts.seed)
    history = [p.ll]
    converged = False
    n_iter = 0
    streak = 0
    while n_iter < opts.max_iterations:
        p0 = p
        p = p1 = em.step(p0, n_iter)
        n_iter += 1
        if n_iter < opts.max_iterations:
            p = p2 = em.step(p1, n_iter)
            n_iter += 1
            theta = _extrapolate(p0, p1, p2)
            if theta is not None:
                try:
                    q = em.estep(*theta, n_iter)
                    if q.ll >= p2.ll:
                        p = q
                except NumericalError:
                    pass  # keep the plain EM point
        history.append(p.ll)
        rel = (p.ll - p0.ll) / abs(p0.ll)
        streak = streak + 1 if abs(rel) < opts.rel_tolerance else 0
        if streak >= opts.tolerance_streak:
            converged = True
            break

    return PpcaModel(
        mean=mean,
        loadings=p.A,
        noise_variance=float(p.sigma2),
        log_likelihood=p.ll,
        n_iterations=n_iter,
        converged=converged,
        loglik_history=np.asarray(history),
        n_skipped_rows=em.n_skipped,
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
