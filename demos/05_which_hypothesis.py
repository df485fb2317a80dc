"""Does missing data shrink the sample size or the signal-to-noise ratio?

Two candidate corrections to the complete-data learning curve:

  reduced sample size:     alpha -> (1 - m) alpha
  reduced signal-to-noise: S     -> (1 - m) S

Both agree at m = 0 and both predict a shutoff, but they disagree
sharply at high missing rates. This demo runs a missing-rate sweep and
scores both against the measured curve; the reduced-SNR form wins by a
wide margin. Takes under a second.
"""

import numpy as np

from spiked_pca import (
    ExperimentConfig,
    FitOptions,
    compare_hypotheses,
    run_sweep,
)

cfg = ExperimentConfig(
    sweep_kind="missing_rate",
    grid=tuple(np.linspace(0.3, 0.95, 12)),
    n=300,
    d=450,
    norms=(1.0,),
    noise_variance=0.05,
    repetitions=3,
    base_seed=33,
    fit=FitOptions(k=1),
)

result = run_sweep(cfg)
print(f"{'m':>6} {'measured':>9} {'reduced-SNR':>12} {'reduced-N':>10}")
for r in result:
    print(f"{r.sweep_value:6.3f} {r.r2_mean:9.4f} {r.theory_r2:12.4f} {r.theory_alt_r2:10.4f}")

rmse_snr, rmse_sample = compare_hypotheses(result, min_m=0.3)
print()
print(f"rmse against reduced-SNR curve:    {rmse_snr:.4f}")
print(f"rmse against reduced-sample curve: {rmse_sample:.4f}")
print()
print("the reduced-sample curve keeps promising learning at high m where the")
print("measurements (and the reduced-SNR curve) have already collapsed to zero.")
