"""Reproduce the missing-rate learning curves at desk scale.

Runs the full protocol: one ground truth, a fresh dataset per
repetition, a fresh mask per (repetition, rate) cell, EM fits, and
per-component alignment aggregated over repetitions. The output table
puts the Monte Carlo means next to the two competing predictions. Takes
about a second.
"""

import numpy as np

from spiked_pca import ExperimentConfig, FitOptions, run_sweep, write_curve_csv

cfg = ExperimentConfig(
    sweep_kind="missing_rate",
    grid=tuple(np.linspace(0.0, 0.95, 14)),
    n=300,
    d=450,
    norms=(1.0, 0.5),
    noise_variance=0.05,
    repetitions=3,
    base_seed=11,
    fit=FitOptions(k=2),
)

result = run_sweep(cfg)
print(f"{len(result)} records, {len(result.failures)} failed cells")
print(f"{'m':>6} {'comp':>4} {'measured':>9} {'+-std':>7} {'reduced-SNR':>12} {'reduced-N':>10}")
for r in result:
    print(f"{r.sweep_value:6.2f} {r.component:4d} {r.r2_mean:9.4f} {r.r2_std:7.4f} "
          f"{r.theory_r2:12.4f} {r.theory_alt_r2:10.4f}")

write_curve_csv(result, "missing_rate_curve.csv")
print("\nwrote missing_rate_curve.csv (plot-ready, sorted by rate and component)")
print("watch component 2 shut off near m ~ 0.75 and component 1 near m ~ 0.94,")
print("exactly where alpha * ((1-m) S_i)^2 crosses 1.")
