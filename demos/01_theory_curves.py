"""Walk the closed-form learning curves and their phase transition.

The expected alignment R^2 between the estimated and the true leading
direction depends on the sample ratio alpha = N/D, the signal-to-noise
ratio S, and the missing rate m only through the effective ratio
S(m) = (1 - m) S. Below alpha * S(m)^2 = 1 nothing is learned at all.
"""

import numpy as np

from spiked_pca import (
    critical_alpha,
    critical_missing_rate,
    theory_r2_complete,
    theory_r2_missing,
)

alpha = 2 / 3
snr = 20.0

print(f"alpha = {alpha:.4f}, S = {snr}")
print(f"complete-data prediction:   R^2 = {theory_r2_complete(alpha, snr):.5f}")
print(f"critical missing rate:      m_crit = {critical_missing_rate(alpha, snr):.5f}")
print(f"critical sample ratio:      alpha_crit = {critical_alpha(snr, 0.0):.5f}")
print()

print("missing rate sweep (note the collapse near m_crit):")
print(f"{'m':>6} {'S(m)':>8} {'R^2':>8}")
for m in np.linspace(0.0, 1.0, 11):
    print(f"{m:6.2f} {(1 - m) * snr:8.2f} {theory_r2_missing(alpha, snr, m):8.5f}")
print()

print("the transition is continuous: R^2 just above threshold stays tiny")
for eps in (1e-3, 1e-6, 1e-9):
    a = (1 + eps) / snr**2
    print(f"  alpha * S^2 = 1 + {eps:g}  ->  R^2 = {theory_r2_complete(a, snr):.3e}")
print()

print("per-component curves for S = [20, 5] (each component has its own cliff):")
print(f"{'m':>6} {'R^2 comp 1':>11} {'R^2 comp 2':>11}")
for m in np.linspace(0.0, 0.95, 11):
    r1 = theory_r2_missing(alpha, 20.0, m)
    r2 = theory_r2_missing(alpha, 5.0, m)
    print(f"{m:6.2f} {r1:11.5f} {r2:11.5f}")
