"""Closed-form learning curves for PCA on spiked-covariance data.

All formulas describe the expected squared cosine alignment R^2 between an
estimated principal direction and the true signal direction, in the
proportional limit N, D -> infinity at fixed sample ratio alpha = N/D and
signal-to-noise ratio S. The complete-data law is

    R^2(alpha, S) = 0                                if alpha * S^2 < 1
                  = (alpha*S^2 - 1) / (S + alpha*S^2) otherwise,

a sharp transition at alpha * S^2 = 1. Missing-completely-at-random data
at rate m enters only through the effective signal-to-noise ratio
S(m) = (1 - m) * S; the competing "effective sample size" hypothesis
(alpha -> (1 - m) * alpha instead) is provided for model comparison.
"""

import math

from .errors import DomainError


def _positive(name, value):
    value = float(value)
    if not value > 0:
        raise DomainError(f"{name} must be positive, got {value}")
    return value


def _rate(name, value):
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise DomainError(f"{name} must lie in [0, 1], got {value}")
    return value


def _r2(alpha, snr):
    x = alpha * snr * snr
    # at m = 1 an infinite alpha or snr meets a zero factor and x is nan
    if not x >= 1.0:
        return 0.0
    return (x - 1.0) / (snr + x)


def theory_r2_complete(alpha, snr):
    """Expected alignment R^2 for fully observed data.

    Zero below the transition alpha * snr^2 = 1, continuous at it.
    """
    return _r2(_positive("alpha", alpha), _positive("snr", snr))


def theory_r2_missing(alpha, snr, m):
    """Expected alignment R^2 with entries missing at random at rate ``m``.

    Identical to ``theory_r2_complete(alpha, (1 - m) * snr)``; at m = 1
    nothing is observed and the alignment is zero.
    """
    m = _rate("m", m)
    return _r2(_positive("alpha", alpha), (1.0 - m) * _positive("snr", snr))


def theory_r2_effective_sample(alpha, snr, m):
    """Alignment predicted by the effective-sample-size hypothesis.

    Evaluates the complete-data curve with alpha replaced by
    (1 - m) * alpha, i.e. treats missingness as shrinking the sample
    count rather than the signal-to-noise ratio. Used only to compare
    the two hypotheses against simulation.
    """
    m = _rate("m", m)
    return _r2((1.0 - m) * _positive("alpha", alpha), _positive("snr", snr))


def critical_missing_rate(alpha, snr):
    """Missing rate above which the predicted alignment is zero.

    Solves alpha * ((1 - m) * snr)^2 = 1 for m and clamps into [0, 1];
    the clamp covers parameter regions where learning is impossible at
    any missing rate.
    """
    alpha = _positive("alpha", alpha)
    snr = _positive("snr", snr)
    m_crit = 1.0 - 1.0 / (snr * math.sqrt(alpha))
    return min(max(m_crit, 0.0), 1.0)


def critical_alpha(snr, m):
    """Sample ratio below which the predicted alignment is zero.

    Returns 1 / ((1 - m) * snr)^2. No finite sample ratio suffices at
    m = 1, which is rejected.
    """
    snr = _positive("snr", snr)
    m = float(m)
    if not 0.0 <= m < 1.0:
        raise DomainError(f"m must lie in [0, 1), got {m}")
    return 1.0 / ((1.0 - m) * snr) ** 2


def asymptotic_r2(alpha, snr):
    """Large-sample expansion 1 - (S + 1) / (S^2 * alpha).

    Valid only above the transition; an approximation that becomes exact
    as alpha grows.
    """
    alpha = _positive("alpha", alpha)
    snr = _positive("snr", snr)
    if alpha * snr * snr <= 1.0:
        raise DomainError(
            f"expansion requires alpha * snr^2 > 1, got {alpha * snr * snr}"
        )
    return 1.0 - (snr + 1.0) / (snr * snr) / alpha
