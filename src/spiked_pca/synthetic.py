"""Synthetic spiked-model datasets with known ground-truth directions.

Rows are drawn as x = A z + eps with z standard normal in k dimensions and
eps isotropic Gaussian noise, so the population covariance is
sigma^2 I + sum_i a_i a_i^T. The per-component signal-to-noise ratio is
S_i = ||a_i||^2 / sigma^2.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_integer, check_positive


@dataclass(frozen=True)
class GroundTruth:
    """True signal directions (columns of ``directions``, descending norm),
    noise variance and the implied per-component signal-to-noise ratios.

    Built and validated only by :func:`make_ground_truth`.
    """

    directions: np.ndarray
    noise_variance: float
    snr_per_component: np.ndarray


def _check_spikes(norms, noise_variance):
    """The norms (a list, in order) and noise variance as floats; DomainError
    unless each, and each norm**2 / noise variance, is positive and finite."""
    if np.ndim(norms) != 1 or len(norms) < 1:
        raise DomainError("norms must be a nonempty 1-d sequence")
    norms = [check_positive("norms", v) for v in norms]
    noise_variance = check_positive("noise variance", noise_variance)
    with np.errstate(over="ignore"):
        snr = np.array(norms) ** 2 / noise_variance
    for s in snr:  # a ratio can overflow, or underflow to zero
        check_positive("norms**2 / noise variance", s)
    return norms, noise_variance


def make_ground_truth(d, norms, noise_variance, seed):
    """Draw random signal directions with the requested norms.

    Directions are isotropically distributed: standard-normal vectors,
    orthonormalized before rescaling, which keeps the per-component
    curves well defined. Norms are sorted descending.
    """
    check_integer("d", d, 1)
    norms, noise_variance = _check_spikes(norms, noise_variance)
    norms = np.sort(norms)[::-1]
    k = norms.size
    if not d > k:
        raise DomainError(f"need D > k, got D={d}, k={k}")
    snr = norms ** 2 / noise_variance
    check_integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((d, k))
    q, _ = np.linalg.qr(raw)
    directions = q * norms
    directions.flags.writeable = snr.flags.writeable = False
    return GroundTruth(directions, noise_variance, snr)


def sample_dataset(gt, n, seed):
    """Sample ``n`` rows x = A z + eps from the generative model.

    Latents are drawn first, noise second, so the output is a pure
    function of (gt, n, seed).
    """
    check_integer("n", n, 1)
    check_integer("seed", seed, 0)
    d, k = gt.directions.shape
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, k))
    eps = rng.standard_normal((n, d))
    return z @ gt.directions.T + math.sqrt(gt.noise_variance) * eps
