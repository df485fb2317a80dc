"""Learning-curve theory and EM experiments for PCA with missing data.

The package covers the full desk-scale pipeline: generate spiked-model
data with known directions, hide entries completely at random, fit
probabilistic PCA by EM on the observed entries, measure the alignment
with the true directions, and compare the measured curves against the
closed-form predictions.
"""

from .errors import (
    DegenerateColumnError,
    DegenerateSpectrumError,
    DomainError,
    FormatError,
    NumericalError,
    SpikedPcaError,
)
from .experiment import (
    CellResult,
    CurveRecord,
    ExperimentConfig,
    SweepResult,
    compare_hypotheses,
    derive_cell_seed,
    run_missing_rate_sweep,
    run_snr_sweep,
)
from .fileio import (
    MatrixFile,
    read_curve_csv,
    read_experiment_config,
    read_masked_csv,
    write_curve_csv,
    write_ground_truth_csv,
    write_masked_csv,
    write_model_csv,
)
from .masked import MaskedMatrix, apply_mcar_mask, center_observed, observed_fraction
from .metrics import (
    SnrEstimate,
    add_isotropic_noise,
    component_r2,
    covariance_eigenvalues,
    estimate_snr,
    r_squared,
)
from .ppca import (
    FitOptions,
    PpcaModel,
    extract_directions,
    fit_ppca,
    top_eigvec_complete,
)
from .synthetic import GroundTruth, make_ground_truth, sample_dataset
from .theory import (
    asymptotic_r2,
    critical_alpha,
    critical_missing_rate,
    theory_r2_complete,
    theory_r2_effective_sample,
    theory_r2_missing,
)

__version__ = "0.1.0"

__all__ = [
    "CellResult",
    "CurveRecord",
    "DegenerateColumnError",
    "DegenerateSpectrumError",
    "DomainError",
    "ExperimentConfig",
    "FitOptions",
    "FormatError",
    "GroundTruth",
    "MaskedMatrix",
    "MatrixFile",
    "NumericalError",
    "PpcaModel",
    "SnrEstimate",
    "SpikedPcaError",
    "SweepResult",
    "add_isotropic_noise",
    "apply_mcar_mask",
    "asymptotic_r2",
    "center_observed",
    "compare_hypotheses",
    "component_r2",
    "covariance_eigenvalues",
    "critical_alpha",
    "critical_missing_rate",
    "derive_cell_seed",
    "estimate_snr",
    "extract_directions",
    "fit_ppca",
    "make_ground_truth",
    "observed_fraction",
    "r_squared",
    "read_curve_csv",
    "read_experiment_config",
    "read_masked_csv",
    "run_missing_rate_sweep",
    "run_snr_sweep",
    "sample_dataset",
    "theory_r2_complete",
    "theory_r2_effective_sample",
    "theory_r2_missing",
    "top_eigvec_complete",
    "write_curve_csv",
    "write_ground_truth_csv",
    "write_masked_csv",
    "write_model_csv",
]
