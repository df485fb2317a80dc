"""Sweep the signal-to-noise ratio at fixed missing rates.

Per repetition one low-noise dataset is drawn and one mask is fixed;
each grid step then adds isotropic noise of growing variance before
fitting, which walks the resulting ratio S = ||a||^2 / (sigma^2 +
sigma^2_added) downward. Higher missing rates need a better ratio
before learning starts: the onset moves right. Takes about two seconds.
"""

import math

from spiked_pca import ExperimentConfig, FitOptions, run_sweep

d, n = 300, 600
alpha = n / d
sigma2 = 0.05
s_targets = [0.4 * 1.2**k for k in range(14)] + [10.0, 20.0]
grid = tuple(sorted(max(1.0 / s - sigma2, 0.0) for s in s_targets))

for m in (0.0, 0.25, 0.5):
    cfg = ExperimentConfig(
        sweep_kind="snr_via_added_noise",
        grid=grid,
        n=n,
        d=d,
        norms=(1.0,),
        noise_variance=sigma2,
        repetitions=3,
        base_seed=21,
        fit=FitOptions(k=1),
        fixed_missing_rate=m,
    )
    result = run_sweep(cfg)
    records = sorted(result, key=lambda r: r.sweep_value)
    onset = next((r.sweep_value for r in records if r.r2_mean > 0.1), float("inf"))
    predicted = 1.0 / ((1.0 - m) * math.sqrt(alpha))
    print(f"m = {m:4.2f}: learning starts near S = {onset:6.3f} "
          f"(threshold says {predicted:.3f})")
    for r in records:
        bar = "#" * int(40 * r.r2_mean)
        print(f"    S = {r.sweep_value:7.3f}  R^2 = {r.r2_mean:6.4f} {bar}")
    print()
