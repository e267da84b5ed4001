"""Displaced elliptical-elliptical quantum vortex states in phase space.

Coupled squeezed-displaced modes carrying an m-fold elliptical vortex:
wavefunction and intensity, the closed-form 4D Wigner function and its six
2D reductions, scaled interference terms, and an independent numerical
Wigner-transform oracle that validates the closed forms.

Public names resolve on first use (PEP 562): ``import deev`` loads no numpy,
and ``from deev import X`` imports only X's module. The names the library and
the CLI share are written once, here: the slice planes, the closed forms and
the SIT forms. ``_EXPORTS`` is the only module -> names table: each library
module's ``__all__`` is its row.
"""

from importlib import import_module

__version__ = "0.1.0"

# the six 2D reductions by their grids' axis labels; the other two variables pin to the center
PLANES = {"xy": ("x", "y"), "pxpy": ("px", "py"), "xpx": ("x", "px"),
          "ypy": ("y", "py"), "xpy": ("x", "py"), "ypx": ("y", "px")}
# the closed forms of the 4D Wigner function, the validated one first (``wigner.CLOSED_FORMS``)
FORMS = ("standard", "candidate")
SIT_FORMS = ("sum", "difference")

# module -> the public names it provides, each module's ``__all__``
_EXPORTS = {
    "coupling": ("ModeCoupler", "DcdcParams", "bs_coupler", "dcdc_coupler", "coupler_to_ellipticity",
                 "dcdc_time_for_ratio"),
    "state": ("DeevParams", "psi", "intensity_field"),
    "wigner": ("ClosedForm", "CLOSED_FORMS", "standard_constant", "candidate_constant", "wigner4d",
               "wigner4d_candidate", "wigner_slice", "canonical_slice_grid", "sit_field",
               "count_strict_minima", "alp_eval"),
    "oracle": ("OracleConvergenceError", "oracle_wigner", "oracle_marginal_xy", "oracle_norm"),
    "gridio": ("AxisSpec", "GridSpec", "Field2D", "sample_field", "write_csv", "write_pgm"),
    "verify": ("SuiteResult", "VerifyOutcome", "CalibrationResult", "Verdict", "DiscrepancyReport",
               "run_verify", "adjudicate", "calibrate_constant_detailed", "write_report"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "PLANES", "FORMS", "SIT_FORMS", "__version__"]


def __getattr__(name):
    if name not in _MODULE_OF:
        # also how ``from deev import gridio`` finds that it must import a submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
