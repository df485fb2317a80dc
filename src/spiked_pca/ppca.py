"""Probabilistic PCA fitted by EM on the observed entries only.

The model is x = mu + A z + eps with isotropic noise. Fitting never
imputes values into the data array: the E-step works per sample on its
observed feature set and the M-step re-estimates each loading row from
the samples that observed that feature. The mean is fixed up front to the
per-column observed means.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NumericalError, check_integer, check_positive
from .masked import center_observed

SIGMA2_FLOOR = 1e-12  # the floor of sigma2, as a fraction of the mean observed square
TOLERANCE_STREAK = 3  # consecutive cycles below rel_tolerance that stop a fit
# the spectral start: block width k + SPECTRAL_OVERSAMPLE, SPECTRAL_ITERATIONS
# subspace iterations, and start loading variances floored at
# SPECTRAL_FLOOR * sigma2
SPECTRAL_OVERSAMPLE = 2
SPECTRAL_ITERATIONS = 16
SPECTRAL_FLOOR = 0.1


@dataclass(frozen=True)
class FitOptions:
    """Settings for one EM fit.

    ``seed`` only draws the Gaussian test block of the spectral start.
    """

    k: int
    max_iterations: int = 1000
    rel_tolerance: float = 1e-7
    seed: int = 0

    def __post_init__(self):
        for name, low in (("k", 1), ("max_iterations", 1), ("seed", 0)):
            check_integer(name, getattr(self, name), low)
        check_positive("rel_tolerance", self.rel_tolerance)


@dataclass(frozen=True)
class PpcaModel:
    """A fitted model: mean, loadings, noise variance and fit diagnostics.

    ``loglik_history`` holds the observed-data log-likelihood of the
    spectral start and of the point each accelerated cycle accepted, so it
    is nondecreasing; ``log_likelihood`` is its last entry and belongs to
    the returned parameters. ``n_iterations`` counts applications of the
    EM map (M-steps), two per cycle, so it is even and never exceeds
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
    """Parameters (A, sigma2) with their E-step: log-likelihood and posterior.

    The first two fields are the parameters, so ``p[:2]`` is ``(A, sigma2)``.
    """

    A: np.ndarray
    sigma2: float
    ll: float
    Minv: np.ndarray  # per-sample inverse posterior precisions, k x k x n
    Z: np.ndarray  # posterior means, one column per sample, k x n


def _spd_inverse(G, step, iteration):
    """Invert a stack of SPD matrices in place by the sweep operator.

    G is k x k x n with the stack index last. Sweeping the k pivots in turn
    (Goodnight 1979) leaves every matrix's inverse in G; each pivot is a
    Schur complement, so their logs sum to the log-determinant. Returns
    (G, logdet). A pivot that is not positive, NaN included, raises
    NumericalError naming ``step`` and ``iteration``.
    """
    logdet = 0.0
    for p in range(G.shape[0]):
        pivot = G[p, p].copy()
        if not (pivot > 0.0).all():
            raise NumericalError(f"{step} factorization failed at iteration {iteration}")
        logdet += np.log(pivot)
        row = G[p] / pivot
        col = G[:, p].copy()
        G -= col[:, None] * row
        G[p] = row
        G[:, p] = col / -pivot
        G[p, p] = 1.0 / pivot
    return G, logdet


class _ObservedEm:
    """The EM map of observed-entry PPCA on one centered masked matrix."""

    def __init__(self, centered):
        mask = centered.mask
        self.n, self.d = mask.shape
        self.W = mask.astype(float)
        self.Y = centered.values  # zero at unobserved entries
        obs_per_row = mask.sum(axis=1)
        self.n_skipped = int(np.count_nonzero(obs_per_row == 0))
        self.total_obs = float(obs_per_row.sum())
        with np.errstate(over="ignore"):
            self.yy_col = np.einsum("nd,nd->d", self.Y, self.Y)
            self.sum_yy = float(self.yy_col.sum())
        if not math.isfinite(self.sum_yy):
            raise NumericalError("sum of squares not finite: the data overflow")
        # relative, so that a fit does not depend on the data's units
        self.sigma2_floor = SIGMA2_FLOOR * self.sum_yy / self.total_obs
        if self.sigma2_floor == 0.0:  # also where the product underflows
            raise DomainError("the observed entries vary too little about their column means")

    def start(self, k, seed):
        """The spectral start and its E-step.

        The start is the PPCA maximum-likelihood point of the debiased
        zero-filled covariance C (Lounici 2014): the off-diagonals of
        Y^T Y / n_eff divided by p^2 and its diagonal by p, where n_eff
        counts the rows that observe anything and p is their observed
        fraction. Block subspace iteration (Halko, Martinsson & Tropp
        2011) from a Gaussian block drawn with ``seed`` finds C's top-k
        eigenpairs (V, lambda) without forming C. The noise starts at the
        mean of the trailing eigenvalues, sigma2 = (tr C - sum lambda) /
        (D - k), and the loadings at V sqrt(lambda - sigma2), floored at
        SPECTRAL_FLOOR * sigma2 so that a component below the threshold
        does not start at A = 0, a fixed point of EM.
        """
        n_eff = self.n - self.n_skipped
        p = self.total_obs / (n_eff * self.d)
        scale = 1.0 / (n_eff * p * p)
        Q = np.random.default_rng(seed).standard_normal((self.d, k + SPECTRAL_OVERSAMPLE))
        with np.errstate(over="ignore", invalid="ignore"):
            shrink = ((1.0 - p) * self.yy_col)[:, None]

            def cov_times(Q):
                return (self.Y.T @ (self.Y @ Q) - shrink * Q) * scale

            try:
                for _ in range(SPECTRAL_ITERATIONS):
                    Q = np.linalg.qr(cov_times(Q))[0]
                lam, U = np.linalg.eigh(Q.T @ cov_times(Q))  # Rayleigh-Ritz
            except np.linalg.LinAlgError as exc:
                raise NumericalError(f"spectral start failed: {exc}") from exc
            if not (np.isfinite(lam).all() and np.isfinite(U).all()):
                raise NumericalError("spectral start not finite: the data overflow")
        lam, V = lam[::-1][:k], Q @ U[:, ::-1][:, :k]
        trace = self.sum_yy / (n_eff * p)
        sigma2 = max((trace - float(lam.sum())) / (self.d - k), self.sigma2_floor)
        A = V * np.sqrt(np.maximum(lam - sigma2, SPECTRAL_FLOOR * sigma2))
        return self.estep(A, sigma2, 0)

    def estep(self, A, sigma2, iteration):
        """The point (A, sigma2) with its log-likelihood and posterior."""
        n, k = self.n, A.shape[1]
        # per-sample posterior precision M_n = A_n^T A_n + sigma2 I, built
        # from the mask-weighted sum of per-feature outer products
        T = (A[:, :, None] * A[:, None, :]).reshape(self.d, k * k)
        M = np.ascontiguousarray((self.W @ T).T)  # k*k x n
        M[:: k + 1] += sigma2  # rows 0, k + 1, ... hold the diagonal
        Minv, logdet_m = _spd_inverse(M.reshape(k, k, n), "E-step", iteration)
        B = (self.Y @ A).T  # columns are A_n^T y_n (the mask is already folded into Y)
        Z = (Minv * B).sum(axis=1)
        quad = self.sum_yy - (B * Z).sum()  # sum over n of y^T y - b^T M^{-1} b
        ll = -0.5 * (
            self.total_obs * math.log(2.0 * math.pi)
            + (self.total_obs - n * k) * math.log(sigma2)
            + logdet_m.sum()
            + quad / sigma2
        )
        if not math.isfinite(ll):
            raise NumericalError(f"log-likelihood non-finite at iteration {iteration}")
        return _Point(A, sigma2, float(ll), Minv, Z)

    def mstep(self, p, iteration):
        """The M-step from p's posterior: the next parameters (A, sigma2)."""
        n, k = self.n, p.A.shape[1]
        Ezz = p.sigma2 * p.Minv + p.Z[:, None] * p.Z
        # each loading row solves sum_n w (z z^T) a_d = sum_n w y z
        S1 = p.Z @ self.Y
        S2 = (Ezz.reshape(k * k, n) @ self.W).reshape(k, k, self.d)
        S2inv, _ = _spd_inverse(S2, "M-step", iteration)
        At = (S2inv * S1).sum(axis=1)  # the loadings, k x d
        # pooled noise variance over all observed entries, floored; by the
        # normal equations the expected residual is sum y^2 - sum_d a_d^T S1_d
        sigma2 = max((self.sum_yy - float((At * S1).sum())) / self.total_obs, self.sigma2_floor)
        return np.ascontiguousarray(At.T), sigma2


def _extrapolate(theta0, theta1, theta2, floor):
    """The SQUAREM point theta0 - 2 alpha r + alpha^2 v over (A, sigma2).

    Each theta is a pair (A, sigma2). r = theta1 - theta0 and
    v = theta2 - 2 theta1 + theta0 for two EM steps theta0 -> theta1 ->
    theta2; alpha = min(-|r| / |v|, -1), and alpha = -1 gives theta2
    itself. Where the step is undefined (v vanishes, a square overflows,
    or the extrapolated noise variance is not above ``floor``) it returns
    theta2 itself, the plain EM point; it never returns None.
    """
    (a0, s0), (a1, s1), (a2, s2) = theta0, theta1, theta2
    r_a, v_a = a1 - a0, a2 - 2.0 * a1 + a0
    r_s, v_s = s1 - s0, s2 - 2.0 * s1 + s0
    # products, not **: a float's ** raises OverflowError where x * x is inf
    norm_v = math.sqrt(float((v_a * v_a).sum()) + v_s * v_s)
    if norm_v == 0.0:
        return theta2
    norm_r = math.sqrt(float((r_a * r_a).sum()) + r_s * r_s)
    alpha = min(-norm_r / norm_v, -1.0)
    sigma2 = s0 - 2.0 * alpha * r_s + alpha * alpha * v_s
    if not sigma2 > floor:  # also where an overflow made it nan
        return theta2
    return a0 - 2.0 * alpha * r_a + alpha * alpha * v_a, sigma2


def fit_ppca(x, opts):
    """Fit probabilistic PCA to a masked matrix by SQUAREM-accelerated EM.

    EM starts from the spectral start (``_ObservedEm.start``). Each cycle
    takes two EM steps theta0 -> theta1 -> theta2 over (A, sigma2) and
    extrapolates along them (Varadhan & Roland 2008). theta2 gets no
    E-step of its own unless it is kept: the extrapolated point, theta2
    itself where the step is undefined, is kept if its E-step succeeds
    and its log-likelihood is at least that of theta1; otherwise the
    cycle keeps theta2, the plain EM point. A cycle thus costs two
    M-steps and two E-steps, three after a rejection.

    Parameters
    ----------
    x : MaskedMatrix
        Data with an explicit observation mask. Every column needs at
        least one observed entry; fully missing rows are allowed and
        skipped.
    opts : FitOptions
        Number of components, stopping rule and the start's seed.

    Returns
    -------
    PpcaModel
        The fit is deterministic in (x, opts). The log-likelihoods of the
        accepted points are nondecreasing up to numerical slack; the fit
        stops once their relative increase stays below
        ``opts.rel_tolerance`` for ``TOLERANCE_STREAK`` (three) consecutive
        cycles, or when a whole cycle no longer fits in
        ``opts.max_iterations`` EM steps (a cap of 1 returns the start).
    """
    k = opts.k
    if k >= x.n_cols:
        raise DomainError(f"need k < D, got k={k}, D={x.n_cols}")

    centered, mean = center_observed(x)  # rejects fully missing columns
    em = _ObservedEm(centered)
    p = em.start(k, opts.seed)
    history = [p.ll]
    n_iter = 0
    streak = 0
    while n_iter + 2 <= opts.max_iterations and streak < TOLERANCE_STREAK:
        p0 = p
        p1 = em.estep(*em.mstep(p0, n_iter), n_iter + 1)
        theta2 = em.mstep(p1, n_iter + 1)
        n_iter += 2
        try:
            q = em.estep(*_extrapolate(p0[:2], p1[:2], theta2, em.sigma2_floor), n_iter)
        except NumericalError:
            q = None  # fall back to the plain EM point
        p = q if q is not None and q.ll >= p1.ll else em.estep(*theta2, n_iter)
        history.append(p.ll)
        rel = (p.ll - p0.ll) / abs(p0.ll)
        streak = streak + 1 if abs(rel) < opts.rel_tolerance else 0

    return PpcaModel(
        mean=mean,
        loadings=p.A,
        noise_variance=float(p.sigma2),
        log_likelihood=p.ll,
        n_iterations=n_iter,
        converged=streak >= TOLERANCE_STREAK,
        loglik_history=np.asarray(history),
        n_skipped_rows=em.n_skipped,
    )


def extract_directions(model):
    """Orthonormal direction estimates from a fitted model.

    The loadings are only identified up to a k x k rotation, so the
    returned columns are the left singular vectors of A ordered by
    descending singular value. Accepts a PpcaModel or a bare loading
    matrix, and returns all k columns or raises DomainError where the
    loadings are rank deficient.
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
        raise DomainError(f"loadings are rank deficient (rank {rank} < k={A.shape[1]})")
    return U
