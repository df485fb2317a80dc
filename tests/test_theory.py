import math

import numpy as np
import pytest

from spiked_pca import (
    DomainError,
    critical_alpha,
    critical_missing_rate,
    theory_r2_complete,
    theory_r2_effective_sample,
    theory_r2_missing,
)

ALPHAS = np.linspace(0.05, 3.0, 20)
SNRS = np.linspace(0.2, 25.0, 20)
RATES = np.linspace(0.0, 0.95, 20)


def test_complete_threshold_boundary_is_zero():
    assert theory_r2_complete(1.0, 1.0) == 0.0


def test_complete_hand_values():
    # exact fractions: (2-1)/(1+2) = 1/3 and (800/3 - 1)/(20 + 800/3) = 797/860
    assert theory_r2_complete(2.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert theory_r2_complete(2.0 / 3.0, 20.0) == pytest.approx(0.9267441860465117, abs=1e-12)


def test_missing_hand_values():
    assert theory_r2_missing(2.0 / 3.0, 20.0, 0.0) == theory_r2_complete(2.0 / 3.0, 20.0)
    # 197/230 with the effective ratio 10
    assert theory_r2_missing(2.0 / 3.0, 20.0, 0.5) == pytest.approx(0.8565217391304348, abs=1e-12)
    assert theory_r2_missing(2.0 / 3.0, 20.0, 1.0) == 0.0


def test_effective_sample_hand_values():
    assert theory_r2_effective_sample(2.0 / 3.0, 20.0, 0.0) == theory_r2_complete(2.0 / 3.0, 20.0)
    # 397/460 with the sample ratio shrunk to 1/3
    assert theory_r2_effective_sample(2.0 / 3.0, 20.0, 0.5) == pytest.approx(
        0.8630434782608696, abs=1e-12
    )
    assert theory_r2_effective_sample(2.0 / 3.0, 20.0, 1.0) == 0.0


def test_critical_missing_rate_values():
    # 1 - 1/(20 * sqrt(2/3))
    assert critical_missing_rate(2.0 / 3.0, 20.0) == pytest.approx(0.938763, abs=1e-6)
    assert critical_missing_rate(1.0, 1.0) == 0.0
    # learning impossible at any rate, clamped to zero
    assert critical_missing_rate(0.01, 1.0) == 0.0


def test_critical_alpha_values():
    assert critical_alpha(1.0, 0.0) == 1.0
    assert critical_alpha(5.0, 0.5) == pytest.approx(0.16, abs=1e-12)
    assert critical_alpha(20.0, 0.0) == pytest.approx(0.0025, abs=1e-15)
    # nothing is observed at m = 1, so no finite sample ratio suffices
    assert critical_alpha(5.0, 1.0) == math.inf


def test_missing_identity_exact_on_grid():
    for alpha in ALPHAS:
        for snr in SNRS:
            for m in RATES:
                assert theory_r2_missing(alpha, snr, m) == theory_r2_complete(
                    alpha, (1.0 - m) * snr
                )


def test_monotonicity_on_grid():
    for snr in SNRS:
        for m in RATES:
            vals = [theory_r2_missing(a, snr, m) for a in ALPHAS]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    for alpha in ALPHAS:
        for m in RATES:
            vals = [theory_r2_missing(alpha, s, m) for s in SNRS]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    for alpha in ALPHAS:
        for snr in SNRS:
            vals = [theory_r2_missing(alpha, snr, m) for m in RATES]
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_continuity_at_threshold():
    for snr, m in [(3.0, 0.2), (20.0, 0.5), (1.5, 0.0)]:
        se = (1.0 - m) * snr
        for eps in (-1e-9, 1e-9):
            alpha = (1.0 + eps) / se**2
            assert theory_r2_missing(alpha, snr, m) < 1e-6


def test_output_range_on_grid():
    for alpha in ALPHAS:
        for snr in SNRS:
            for m in RATES:
                v = theory_r2_missing(alpha, snr, m)
                assert 0.0 <= v < 1.0


def test_effective_sample_hypothesis_is_more_optimistic():
    for alpha in ALPHAS:
        for snr in SNRS:
            for m in np.linspace(0.05, 0.9, 10):
                # restrict to points above both hypotheses' thresholds
                if alpha * ((1 - m) * snr) ** 2 > 1 and (1 - m) * alpha * snr**2 > 1:
                    assert theory_r2_effective_sample(
                        alpha, snr, m
                    ) >= theory_r2_missing(alpha, snr, m) - 1e-12


def test_theory_point_invariants():
    for alpha in (0.1, 2.0 / 3.0, 5.0):
        for snr in (0.5, 5.0, 20.0):
            for m in (0.0, 0.5, 0.9):
                r2 = theory_r2_missing(alpha, snr, m)
                assert 0.0 <= r2 < 1.0
                assert (r2 == 0.0) == (alpha * ((1.0 - m) * snr) ** 2 <= 1.0)


@pytest.mark.parametrize(
    "func,args",
    [
        (theory_r2_complete, (0.0, 1.0)),
        (theory_r2_complete, (1.0, 0.0)),
        (theory_r2_complete, (-1.0, 2.0)),
        (theory_r2_missing, (1.0, 1.0, -0.1)),
        (theory_r2_missing, (1.0, 1.0, 1.5)),
        (theory_r2_effective_sample, (1.0, 1.0, 2.0)),
        (critical_missing_rate, (0.0, 1.0)),
        (critical_alpha, (0.0, 0.5)),
        (theory_r2_complete, (float("inf"), 1.0)),
        (theory_r2_missing, (1.0, float("inf"), 0.5)),
        (critical_alpha, (float("inf"), 0.5)),
        (theory_r2_complete, (10**400, 1.0)),
        (theory_r2_complete, (1.0, -(10**400))),
        (theory_r2_missing, (1.0, 1.0, 10**400)),
        (critical_missing_rate, (10**400, 1.0)),
        (critical_alpha, (1.0, 10**400)),
        (critical_alpha, (1.0, 1.5)),
        (theory_r2_complete, ("2", 1.0)),
        (theory_r2_missing, (1.0, None, 0.5)),
        (critical_alpha, (1.0, True)),
    ],
)
def test_domain_errors(func, args):
    with pytest.raises(DomainError):
        func(*args)
