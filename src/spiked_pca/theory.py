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

from .errors import check_positive, check_rate


def _r2(alpha, snr):
    x = alpha * snr * snr
    if x < 1.0:
        return 0.0
    if math.isinf(snr + x):
        # the same ratio divided through by x, whose terms stay finite
        return (1.0 - 1.0 / x) / (1.0 + 1.0 / (alpha * snr))
    return (x - 1.0) / (snr + x)


def theory_r2_complete(alpha, snr):
    """Expected alignment R^2 for fully observed data.

    Zero below the transition alpha * snr^2 = 1, continuous at it.
    """
    return _r2(check_positive("alpha", alpha), check_positive("snr", snr))


def theory_r2_missing(alpha, snr, m):
    """Expected alignment R^2 with entries missing at random at rate ``m``.

    Identical to ``theory_r2_complete(alpha, (1 - m) * snr)``; at m = 1
    nothing is observed and the alignment is zero.
    """
    m = check_rate("m", m)
    return _r2(check_positive("alpha", alpha), (1.0 - m) * check_positive("snr", snr))


def theory_r2_effective_sample(alpha, snr, m):
    """Alignment predicted by the effective-sample-size hypothesis.

    Evaluates the complete-data curve with alpha replaced by
    (1 - m) * alpha, i.e. treats missingness as shrinking the sample
    count rather than the signal-to-noise ratio. Used only to compare
    the two hypotheses against simulation.
    """
    m = check_rate("m", m)
    return _r2((1.0 - m) * check_positive("alpha", alpha), check_positive("snr", snr))


def critical_missing_rate(alpha, snr):
    """Missing rate above which the predicted alignment is zero.

    Solves alpha * ((1 - m) * snr)^2 = 1 for m and clamps into [0, 1];
    the clamp covers parameter regions where learning is impossible at
    any missing rate.
    """
    alpha = check_positive("alpha", alpha)
    snr = check_positive("snr", snr)
    root = snr * math.sqrt(alpha)
    if root <= 1.0:  # also where the product underflows to zero
        return 0.0
    return 1.0 - 1.0 / root


def critical_alpha(snr, m):
    """Sample ratio below which the predicted alignment is zero.

    Returns 1 / ((1 - m) * snr)^2, which is 0 where the square overflows
    and inf where it underflows or m = 1, where no finite sample ratio
    suffices.
    """
    snr = check_positive("snr", snr)
    m = check_rate("m", m)
    try:
        return 1.0 / ((1.0 - m) * snr) ** 2
    except OverflowError:
        return 0.0
    except ZeroDivisionError:
        return math.inf

