"""Displaced elliptical-elliptical quantum vortex states in phase space.

Coupled squeezed-displaced modes carrying an m-fold elliptical vortex:
wavefunction and intensity, the closed-form 4D Wigner function and its six
2D reductions, scaled interference terms, and an independent numerical
Wigner-transform oracle that validates the closed forms.
"""

from .coupling import (DcdcParams, InfeasibleRatioError, ModeCoupler, bs_coupler,
                       coupler_to_ellipticity, dcdc_coupler, dcdc_time_for_ratio)
from .gridio import AxisSpec, Field2D, GridSpec, read_csv, sample_field, write_csv, write_pgm
from .oracle import OracleConvergenceError, QuadratureSpec, oracle_marginal_xy, oracle_norm, oracle_wigner
from .special import alp_coeffs, alp_eval, gamma_half_integer
from .state import DeevParams, VortexDecomposition, circular_decomposition, intensity_field, psi
from .verify import (CalibrationResult, DiscrepancyReport, Verdict, calibrate_constant_detailed,
                     run_verify, write_report)
from .wigner import (ScaledCoords, SlicePlane, candidate_constant, scaled_coords, sit,
                     sit_field, standard_constant, wigner4d, wigner4d_candidate, wigner_slice)

__version__ = "0.1.0"

__all__ = [
    "ModeCoupler", "DcdcParams", "InfeasibleRatioError", "bs_coupler", "dcdc_coupler",
    "coupler_to_ellipticity", "dcdc_time_for_ratio",
    "alp_eval", "alp_coeffs", "gamma_half_integer",
    "DeevParams", "VortexDecomposition", "psi", "intensity_field", "circular_decomposition",
    "ScaledCoords", "SlicePlane", "scaled_coords", "standard_constant", "candidate_constant",
    "wigner4d", "wigner4d_candidate", "wigner_slice", "sit", "sit_field",
    "QuadratureSpec", "OracleConvergenceError", "CalibrationResult",
    "oracle_wigner", "oracle_marginal_xy", "oracle_norm", "calibrate_constant_detailed",
    "AxisSpec", "GridSpec", "Field2D", "Verdict", "DiscrepancyReport",
    "sample_field", "write_csv", "read_csv", "write_pgm", "write_report",
    "run_verify",
    "__version__",
]
