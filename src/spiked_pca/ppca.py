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

SIGMA2_FLOOR = 1e-12  # sigma2's floor in the fit's units: a fraction of the mean square
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
    is nondecreasing; its last entry belongs to the returned parameters.
    ``n_iterations`` counts applications of the EM map (M-steps), two per
    cycle, so it is even and never exceeds ``max_iterations``.
    """

    mean: np.ndarray
    loadings: np.ndarray
    noise_variance: float
    n_iterations: int
    converged: bool
    loglik_history: np.ndarray


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
    """The EM map of observed-entry PPCA on one masked matrix, centered and scaled to unit RMS.

    ``rows`` counts the samples that observe any entry; the others carry
    no information and add nothing to the updates.
    """

    def __init__(self, x):
        self.Y, self.mean = center_observed(x)  # rejects fully missing columns
        self.n, self.d = x.mask.shape
        top = max(float(self.Y.max()), -float(self.Y.min()))  # so no square overflows
        if top == 0.0:
            raise DomainError("the observed entries do not vary about their column means")
        self.Y /= top
        obs_per_row = x.mask.sum(axis=1)
        self.rows = int(np.count_nonzero(obs_per_row))
        self.total_obs = float(obs_per_row.sum())
        self.yy_col = np.einsum("nd,nd->d", self.Y, self.Y)
        mean_square = float(self.yy_col.sum()) / self.total_obs
        self.Y /= math.sqrt(mean_square)
        self.yy_col /= mean_square
        self.sum_yy = float(self.yy_col.sum())
        self.scale = top * math.sqrt(mean_square)
        self.W = x.mask.astype(float)

    def start(self, k, seed):
        """The spectral start and its E-step.

        The start is the PPCA maximum-likelihood point of the debiased
        zero-filled covariance C (Lounici 2014): the off-diagonals of
        Y^T Y / rows divided by p^2 and its diagonal by p, where p is the
        observed fraction of those rows. Block subspace iteration (Halko,
        Martinsson & Tropp 2011) from a Gaussian block drawn with ``seed``
        finds C's top-k eigenpairs (V, lambda) without forming C. The noise
        starts at the mean of the trailing eigenvalues, sigma2 = (tr C -
        sum lambda) / (D - k), and the loadings at V sqrt(lambda - sigma2),
        floored at SPECTRAL_FLOOR * sigma2 so that a component below the
        threshold does not start at A = 0, a fixed point of EM.
        """
        p = self.total_obs / (self.rows * self.d)
        scale = 1.0 / (self.rows * p * p)
        Q = np.random.default_rng(seed).standard_normal((self.d, k + SPECTRAL_OVERSAMPLE))
        shrink = ((1.0 - p) * self.yy_col)[:, None]

        def cov_times(Q):
            return (self.Y.T @ (self.Y @ Q) - shrink * Q) * scale

        try:
            for _ in range(SPECTRAL_ITERATIONS):
                Q = np.linalg.qr(cov_times(Q))[0]
            lam, U = np.linalg.eigh(Q.T @ cov_times(Q))  # Rayleigh-Ritz
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"spectral start failed: {exc}") from exc
        lam, V = lam[::-1][:k], Q @ U[:, ::-1][:, :k]
        trace = self.sum_yy / (self.rows * p)
        sigma2 = max((trace - float(lam.sum())) / (self.d - k), SIGMA2_FLOOR)
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
        sigma2 = max((self.sum_yy - float((At * S1).sum())) / self.total_obs, SIGMA2_FLOOR)
        return np.ascontiguousarray(At.T), sigma2


def _extrapolate(theta0, theta1, theta2):
    """The SQUAREM point theta0 - 2 alpha r + alpha^2 v over (A, sigma2).

    Each theta is a pair (A, sigma2). r = theta1 - theta0 and
    v = theta2 - 2 theta1 + theta0 for two EM steps theta0 -> theta1 ->
    theta2; alpha = min(-|r_A| / |v_A|, -1), with norms over the loadings
    alone so that it does not move with the data's units, and alpha = -1
    gives theta2 itself. Where the step is undefined (v_A vanishes, a
    square overflows, or the extrapolated noise variance is not above
    SIGMA2_FLOOR) it returns theta2, the plain EM point, never None.
    """
    (a0, s0), (a1, s1), (a2, s2) = theta0, theta1, theta2
    r_a, v_a = a1 - a0, a2 - 2.0 * a1 + a0
    norm_v = math.sqrt(float((v_a * v_a).sum()))
    if norm_v == 0.0:
        return theta2
    alpha = min(-math.sqrt(float((r_a * r_a).sum())) / norm_v, -1.0)
    r_s, v_s = s1 - s0, s2 - 2.0 * s1 + s0
    sigma2 = s0 - 2.0 * alpha * r_s + alpha * alpha * v_s
    if not sigma2 > SIGMA2_FLOOR:  # also where an overflow made it nan
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
        Number of components, stopping rule and the start's seed. ``k``
        must be below D and below the number of rows that observe any
        entry.

    Returns
    -------
    PpcaModel
        The fit is deterministic in (x, opts). The log-likelihoods of the
        accepted points are nondecreasing up to numerical slack; the fit
        stops once their relative increase stays below
        ``opts.rel_tolerance`` for ``TOLERANCE_STREAK`` (three) consecutive
        cycles, or when a whole cycle no longer fits in
        ``opts.max_iterations`` EM steps (a limit of 1 returns the start).
        EM runs at unit RMS; where, in the data's units, sigma2 is not a
        normal double or a loading is not finite, it raises NumericalError.
    """
    k = opts.k
    if k >= x.mask.shape[1]:
        raise DomainError(f"need k < D, got k={k}, D={x.mask.shape[1]}")

    # the one numerical boundary: overflow and NaN surface only as values the checks reject
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        em = _ObservedEm(x)
        if k >= em.rows:  # centered, they span at most rows - 1 dimensions
            raise DomainError(f"need k < the rows observing any entry, got k={k}, rows={em.rows}")
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
                q = em.estep(*_extrapolate(p0[:2], p1[:2], theta2), n_iter)
            except NumericalError:
                q = None  # fall back to the plain EM point
            p = q if q is not None and q.ll >= p1.ll else em.estep(*theta2, n_iter)
            history.append(p.ll)
            rel = (p.ll - p0.ll) / abs(p0.ll)
            streak = streak + 1 if abs(rel) < opts.rel_tolerance else 0

        s = em.scale  # back to the data's units; s * s, since s ** 2 raises on overflow
        loadings, sigma2 = p.A * s, p.sigma2 * s * s
        if not (np.finfo(float).tiny <= sigma2 < math.inf and np.isfinite(loadings).all()):
            raise NumericalError("the fit is out of range in the data's units")
    shift = em.total_obs * math.log(s)
    return PpcaModel(
        mean=em.mean,
        loadings=loadings,
        noise_variance=sigma2,
        n_iterations=n_iter,
        converged=streak >= TOLERANCE_STREAK,
        loglik_history=np.asarray(history) - shift,
    )


def extract_directions(model):
    """Orthonormal direction estimates from a fitted PpcaModel.

    The loadings are only identified up to a k x k rotation, so the
    returned columns are the left singular vectors of A ordered by
    descending singular value. Returns all k columns, or raises
    DomainError where the loadings are rank deficient.
    """
    A = model.loadings
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    rank = int(np.count_nonzero(s > s[0] * max(A.shape) * np.finfo(float).eps))
    if rank < A.shape[1]:
        raise DomainError(f"loadings are rank deficient (rank {rank} < k={A.shape[1]})")
    return U
