"""Run the same pipeline on CSV files, as you would with your own data.

Everything the library does is also reachable through files: write a
matrix, mask it, read it back, fit, and inspect. Missing entries are
empty cells (or NaN) on disk and an explicit boolean mask in memory.
The spiked-pca command line wraps these same calls.
"""

import numpy as np

from spiked_pca import (
    FitOptions,
    MaskedMatrix,
    apply_mcar_mask,
    covariance_eigenvalues,
    estimate_snr,
    extract_directions,
    fit_ppca,
    make_ground_truth,
    read_masked_csv,
    sample_dataset,
    write_masked_csv,
    write_model_csv,
)

gt = make_ground_truth(40, norms=[1.0], noise_variance=0.25, seed=5)
data = sample_dataset(gt, 400, seed=6)

write_masked_csv(MaskedMatrix.complete(data), "demo_complete.csv")
print("wrote demo_complete.csv")

est = estimate_snr(covariance_eigenvalues(data), k=1)
print(f"estimated S on the complete data: {est.snr_per_component[0]:.2f} "
      f"(truth: {gt.snr_per_component[0]:.2f})")

masked = apply_mcar_mask(data, m=0.35, seed=7)
write_masked_csv(masked, "demo_masked.csv")
print("wrote demo_masked.csv (missing entries are empty cells)")

back = read_masked_csv("demo_masked.csv")
print(f"read back: {back.values.shape[0]} x {back.values.shape[1]}, "
      f"{(~back.mask).sum()} missing entries, masks match = "
      f"{np.array_equal(back.mask, masked.mask)}")

model = fit_ppca(back, FitOptions(k=1, seed=8))
write_model_csv(model, "demo_model.csv")
direction = extract_directions(model)[:, 0]
cos2 = float((direction @ gt.directions[:, 0]) ** 2 / (gt.directions[:, 0] @ gt.directions[:, 0]))
print(f"fitted from the round-tripped file: sigma^2 = {model.noise_variance:.4f}, "
      f"alignment with truth = {cos2:.4f}")
print("wrote demo_model.csv (mean and loading columns, metadata in the header line)")

print()
print("the equivalent shell session:")
print("  spiked-pca generate --n 400 --d 40 --norms 1.0 --noise-var 0.25 --seed 5 --out demo_complete.csv")
print("  spiked-pca snr --in demo_complete.csv --k 1")
print("  spiked-pca mask --rate 0.35 --seed 7 --in demo_complete.csv --out demo_masked.csv")
print("  spiked-pca fit --k 1 --in demo_masked.csv --out demo_model.csv")
