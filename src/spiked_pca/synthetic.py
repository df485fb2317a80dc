"""Synthetic spiked-model datasets with known ground-truth directions.

Rows are drawn as x = A z + eps with z standard normal in k dimensions and
eps isotropic Gaussian noise, so the population covariance is
sigma^2 I + sum_i a_i a_i^T. The per-component signal-to-noise ratio is
S_i = ||a_i||^2 / sigma^2.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_integer


@dataclass(frozen=True)
class GroundTruth:
    """True signal directions (columns of ``directions``, descending norm),
    noise variance and the implied per-component signal-to-noise ratios."""

    directions: np.ndarray
    noise_variance: float
    snr_per_component: np.ndarray

    def __post_init__(self):
        directions = np.array(self.directions, dtype=float)
        snr = np.array(self.snr_per_component, dtype=float)
        if directions.ndim != 2:
            raise DomainError("directions must be a D x k matrix")
        d, k = directions.shape
        if not 1 <= k < d:
            raise DomainError(f"need 1 <= k < D, got k={k}, D={d}")
        if not self.noise_variance > 0:
            raise DomainError(f"noise variance must be positive, got {self.noise_variance}")
        norms2 = (directions ** 2).sum(axis=0)
        if np.any(np.diff(norms2) > 0):
            raise DomainError("direction columns must be ordered by descending norm")
        if not np.allclose(snr, norms2 / self.noise_variance, rtol=1e-12, atol=0.0):
            raise DomainError("snr_per_component inconsistent with column norms")
        directions.flags.writeable = False
        snr.flags.writeable = False
        object.__setattr__(self, "directions", directions)
        object.__setattr__(self, "snr_per_component", snr)

    @property
    def n_features(self):
        return self.directions.shape[0]

    @property
    def n_components(self):
        return self.directions.shape[1]


def make_ground_truth(d, norms, noise_variance, seed):
    """Draw random signal directions with the requested norms.

    Directions are isotropically distributed: standard-normal vectors,
    orthonormalized before rescaling, which keeps the per-component
    curves well defined. Norms are sorted descending.
    """
    check_integer("d", d, 1)
    norms = np.asarray(norms, dtype=float)
    if norms.ndim != 1 or norms.size < 1:
        raise DomainError("norms must be a nonempty 1-d sequence")
    norms = np.sort(norms)[::-1]
    k = norms.size
    if np.any(norms <= 0):
        raise DomainError("norms must be strictly positive")
    if not d > k:
        raise DomainError(f"need D > k, got D={d}, k={k}")
    if not noise_variance > 0:
        raise DomainError(f"noise variance must be positive, got {noise_variance}")
    check_integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((d, k))
    q, _ = np.linalg.qr(raw)
    directions = q * norms
    snr = norms ** 2 / noise_variance
    return GroundTruth(directions, float(noise_variance), snr)


def sample_dataset(gt, n, seed):
    """Sample ``n`` rows x = A z + eps from the generative model.

    Latents are drawn first, noise second, so the output is a pure
    function of (gt, n, seed).
    """
    check_integer("n", n, 1)
    check_integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, gt.n_components))
    eps = rng.standard_normal((n, gt.n_features))
    return z @ gt.directions.T + math.sqrt(gt.noise_variance) * eps
