"""Fit probabilistic PCA on incompletely observed data, step by step.

Generates a spiked dataset with known directions, hides 40% of the
entries completely at random, fits by EM on the observed entries only,
and checks the recovered directions against the truth and against the
complete-data eigenvector oracle.
"""

import numpy as np

from spiked_pca import (
    FitOptions,
    MaskedMatrix,
    apply_mcar_mask,
    component_r2,
    covariance_eigenvalues,
    estimate_snr,
    extract_directions,
    fit_ppca,
    make_ground_truth,
    sample_dataset,
    top_eigvec_complete,
)

d, n = 300, 500
norms, sigma2 = np.array([1.0, 0.5]), 0.05
gt = make_ground_truth(d, norms, sigma2, seed=1)
print(f"ground truth: D={d}, k=2, sigma^2={sigma2}, S = {np.round(norms**2 / sigma2, 2)}")

data = sample_dataset(gt, n, seed=2)
est = estimate_snr(covariance_eigenvalues(data), k=2)
print(f"spectrum estimate on the complete sample: sigma^2 ~ {est.noise_variance_hat:.4f}, "
      f"S ~ {np.round(est.snr_per_component, 2)}")
print()

masked = apply_mcar_mask(data, m=0.4, seed=3)
print(f"masked at m=0.4: observed fraction = {masked.mask.mean():.4f}")

model = fit_ppca(masked, FitOptions(k=2, seed=4))
print(f"EM finished after {model.n_iterations} EM steps "
      f"(converged={model.converged}), sigma^2 hat = {model.noise_variance:.4f}")

directions = extract_directions(model)
r2 = component_r2(directions, gt)
print(f"alignment with the true directions: {np.round(r2, 4)}")
print()

# sanity: with nothing missing the EM subspace matches plain PCA
complete_model = fit_ppca(MaskedMatrix.complete(data), FitOptions(k=2, seed=4))
u = extract_directions(complete_model)
v = top_eigvec_complete(data, 2)
overlap = np.linalg.svd(u.T @ v, compute_uv=False) ** 2
print(f"complete-data check, EM vs eigenvectors, squared overlaps: {np.round(overlap, 6)}")

# the monotone log-likelihood trail of the accepted points is kept on the model
h = model.loglik_history
print(f"log-likelihood climbed from {h[0]:.1f} to {h[-1]:.1f} "
      f"({len(h)} accepted points, min step {np.diff(h).min():.2e})")
