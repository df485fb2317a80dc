"""Learning-curve theory and EM experiments for PCA with missing data.

The package covers the full desk-scale pipeline: generate spiked-model
data with known directions, hide entries completely at random, fit
probabilistic PCA by EM on the observed entries, measure the alignment
with the true directions, and compare the measured curves against the
closed-form predictions.
"""

from .errors import (
    DomainError,
    FormatError,
    NumericalError,
    SpikedPcaError,
)
from .experiment import (
    CellResult,
    CurveRecord,
    ExperimentConfig,
    compare_hypotheses,
    run_missing_rate_sweep,
    run_snr_sweep,
    run_sweep,
)
from .fileio import (
    read_experiment_config,
    read_masked_csv,
    write_curve_csv,
    write_ground_truth_csv,
    write_masked_csv,
    write_model_csv,
)
from .masked import MaskedMatrix, apply_mcar_mask
from .metrics import (
    component_r2,
    covariance_eigenvalues,
    estimate_snr,
    top_eigvec_complete,
)
from .ppca import FitOptions, extract_directions, fit_ppca
from .synthetic import make_ground_truth, sample_dataset
from .theory import (
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
    "DomainError",
    "ExperimentConfig",
    "FitOptions",
    "FormatError",
    "MaskedMatrix",
    "NumericalError",
    "SpikedPcaError",
    "apply_mcar_mask",
    "compare_hypotheses",
    "component_r2",
    "covariance_eigenvalues",
    "critical_alpha",
    "critical_missing_rate",
    "estimate_snr",
    "extract_directions",
    "fit_ppca",
    "make_ground_truth",
    "read_experiment_config",
    "read_masked_csv",
    "run_sweep",
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
