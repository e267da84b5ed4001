"""End-to-end verification suites backing the ``verify`` command.

Five suites run against a parameter set: normalization of |psi|^2,
momentum marginals, oracle adjudication of both closed forms, symmetry
(width-swap transpose and displacement covariance), and the minima-count
claim for the mixed-plane slices. Each suite reports one line; the
adjudications additionally produce discrepancy report files.

The minima-count suite records an expected failure mode: the claim of m
strict minima in the x-px plane holds for the striped candidate form but
not for the validated form, whose mixed-plane slices are rings in scaled
coordinates (their discrete minima are grid artifacts along the ring).
Both counts are reported; the suite verdict follows the validated form.
"""

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .gridio import AxisSpec, DiscrepancyReport, GridSpec, Verdict, _atomic_write, write_report
from .oracle import (QuadratureSpec, ShapeMismatchError, calibrate_constant_detailed,
                     oracle_marginal_xy, oracle_norm, oracle_wigner)
from .state import psi
from .wigner import (CANDIDATE, FORMS, STANDARD, SlicePlane, count_strict_minima, wigner4d,
                     wigner_slice)

__all__ = ["SuiteResult", "VerifyOutcome", "run_verify", "adjudicate", "canonical_slice_grid"]

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerifyOutcome:
    suites: tuple
    standard_report: DiscrepancyReport
    candidate_report: DiscrepancyReport
    report_paths: tuple

    @property
    def all_passed(self):
        return all(s.passed for s in self.suites)

    @property
    def exit_code(self):
        if self.standard_report.verdict is Verdict.SHAPE:
            return 1
        return 0 if self.all_passed else 1

    def summary_lines(self):
        lines = [f"{'PASS' if s.passed else 'FAIL'} {s.name}: {s.detail}" for s in self.suites]
        lines.append(f"closed-form verdict: {self.standard_report.verdict.value}")
        lines.append(f"candidate-form verdict: {self.candidate_report.verdict.value}")
        lines.append(f"overall: {'PASS' if self.exit_code == 0 else 'FAIL'}")
        return lines


def canonical_slice_grid(params, plane, count=301):
    """Symmetric grid around the displaced center, 3 widths per axis.

    Position half-widths are 3 sigma; momentum half-widths 3 sqrt(2)/sigma,
    wide enough for the slow momentum decay of the candidate form.
    """
    half = {
        "x": (params.x0, 3.0 * params.sigma_x),
        "y": (params.y0, 3.0 * params.sigma_y),
        "px": (params.px0, 3.0 * SQRT2 / params.sigma_x),
        "py": (params.py0, 3.0 * SQRT2 / params.sigma_y),
    }
    axes = []
    for label in plane.axis_labels:
        c, h = half[label]
        axes.append(AxisSpec(label=label, lo=c - h, hi=c + h, count=count))
    return GridSpec(axis1=axes[0], axis2=axes[1])


def adjudicate(params, q=QuadratureSpec(), form=STANDARD):
    """Calibrate one closed form against the oracle and build its report.

    The verdict is ``match`` when the ratios are constant and the nominal
    constant agrees with the calibrated one within 1e-6,
    ``constant-only-mismatch`` when only the constant differs, and
    ``shape-mismatch`` when no constant calibration exists. Stability under
    tolerance halving is checked by re-running at half tolerances.
    """
    if form not in FORMS:
        raise ValueError(f"unknown form {form!r}")
    nominal = FORMS[form].nominal(params)
    shape = FORMS[form].shape

    def attempt(spec):
        try:
            return calibrate_constant_detailed(params, q=spec, shape=shape), True
        except ShapeMismatchError as err:
            return err.result, False

    cal, fits = attempt(q)
    cal2, fits2 = attempt(q.halved())
    if fits and fits2:
        stable = abs(cal.constant / cal2.constant - 1.0) < 1e-6
    else:
        stable = fits == fits2

    notes = ()
    if not fits:
        verdict = Verdict.SHAPE
        notes = ("no constant calibration exists; calibrated_constant is the best-fit mean ratio",)
    elif abs(cal.constant / nominal - 1.0) <= 1e-6:
        verdict = Verdict.MATCH
    else:
        verdict = Verdict.CONSTANT_ONLY

    return DiscrepancyReport(
        label=f"{form} closed form, m={params.m}, sigma=({params.sigma_x:g},{params.sigma_y:g})",
        probes=cal.probes,
        closed_form=tuple(nominal * s for s in cal.shape_values),
        oracle=cal.oracle_values,
        ratios=cal.ratios,
        nominal_constant=nominal,
        calibrated_constant=cal.constant,
        verdict=verdict,
        stable_under_halving=stable,
        notes=notes,
    )


def _normalization_suite(params, q):
    val = oracle_norm(params, q)
    ok = abs(val - 1.0) <= 1e-8
    return SuiteResult("normalization", ok, f"integral |psi|^2 = {val:.12f} (tol 1e-8)")


def _marginal_suite(params, q, n_points, rng):
    worst = 0.0
    for _ in range(n_points):
        a, b = rng.uniform(-1.5, 1.5, 2)
        x = params.x0 + a * params.sigma_x
        y = params.y0 + b * params.sigma_y
        quad = oracle_marginal_xy(params, x, y, q)
        worst = max(worst, abs(quad - abs(psi(params, x, y)) ** 2))
    ok = worst <= 1e-5
    return SuiteResult("marginal", ok, f"max |marginal - |psi|^2| = {worst:.3e} over {n_points} points (tol 1e-5)")


def _equivalence_suite(params, q, n_points, rng):
    worst = 0.0
    used = 0
    while used < n_points:
        a, b, p, qq = rng.uniform(-1.8, 1.8, 4)
        pt = params.phase_point(a, b, p, qq)
        w_cf = wigner4d(params, *pt)
        if abs(w_cf) < 1e-6:
            continue
        w_or = oracle_wigner(params, *pt, q=q)
        worst = max(worst, abs(w_or - w_cf) / abs(w_cf))
        used += 1
    ok = worst <= 1e-6
    return SuiteResult("oracle-equivalence", ok,
                       f"max relative deviation = {worst:.3e} over {n_points} points (tol 1e-6)")


def _symmetry_suite(params):
    # width swap transposes the position slice
    grid = canonical_slice_grid(params, SlicePlane.XY, count=101)
    base = wigner_slice(params, SlicePlane.XY, grid)
    swapped = params.swapped()
    grid_t = GridSpec(
        axis1=AxisSpec("x", grid.axis2.lo, grid.axis2.hi, grid.axis2.count),
        axis2=AxisSpec("y", grid.axis1.lo, grid.axis1.hi, grid.axis1.count))
    swapped_field = wigner_slice(swapped, SlicePlane.XY, grid_t)
    dev_swap = float(np.max(np.abs(swapped_field.values - base.values.T)))

    # displacement covariance: shifted parameters evaluate the centered form
    centered = replace(params, x0=0.0, y0=0.0, px0=0.0, py0=0.0)
    rng = np.random.default_rng(7)
    dev_disp = 0.0
    for _ in range(50):
        a, b, p, qq = rng.uniform(-2.0, 2.0, 4)
        pt = params.phase_point(a, b, p, qq)
        shifted = (pt[0] - params.x0, pt[1] - params.y0, pt[2] - params.px0, pt[3] - params.py0)
        dev_disp = max(dev_disp, abs(wigner4d(params, *pt) - wigner4d(centered, *shifted)))
    ok = dev_swap <= 1e-10 and dev_disp <= 1e-12
    return SuiteResult("symmetry", ok,
                       f"swap-transpose dev = {dev_swap:.3e} (tol 1e-10), "
                       f"displacement dev = {dev_disp:.3e} (tol 1e-12)")


def _minima_suite(params, threads=None):
    counts = {}
    for plane in (SlicePlane.XPX, SlicePlane.YPX):
        grid = canonical_slice_grid(params, plane, count=301)
        for form in FORMS:
            f = wigner_slice(params, plane, grid, form=form, threads=threads)
            counts[(plane.name, form)] = count_strict_minima(f)
    ok = all(counts[(pl, STANDARD)] == params.m for pl in ("XPX", "YPX"))
    detail = "; ".join(
        f"{pl.lower()} {form}={counts[(pl, form)]}" for pl in ("XPX", "YPX") for form in FORMS)
    return SuiteResult("minima-count", ok, f"claim expects {params.m}: {detail}")


def run_verify(params, q=QuadratureSpec(), out_dir=".", threads=None, seed=2024):
    """Run all suites, write report files, and return the outcome."""
    rng = np.random.default_rng(seed)
    reports = {form: adjudicate(params, q, form=form) for form in FORMS}
    std_report, cand_report = reports[STANDARD], reports[CANDIDATE]

    suites = [
        _normalization_suite(params, q),
        _marginal_suite(params, q, 6, rng),
        _equivalence_suite(params, q, 20, rng),
        _symmetry_suite(params),
    ]
    suites.append(SuiteResult(
        "adjudication",
        std_report.verdict in (Verdict.MATCH, Verdict.CONSTANT_ONLY) and std_report.stable_under_halving,
        f"closed form verdict = {std_report.verdict.value}, stable = {std_report.stable_under_halving}; "
        f"candidate verdict = {cand_report.verdict.value}"))
    if params.m >= 1:
        suites.append(_minima_suite(params, threads=threads))

    os.makedirs(out_dir, exist_ok=True)
    paths = tuple(os.path.join(out_dir, f"discrepancy_{form}.txt") for form in FORMS)
    for form, path in zip(FORMS, paths):
        write_report(reports[form], path)

    outcome = VerifyOutcome(suites=tuple(suites), standard_report=std_report,
                            candidate_report=cand_report, report_paths=paths)
    summary_path = os.path.join(out_dir, "verify_summary.txt")
    _atomic_write(summary_path, [("\n".join(outcome.summary_lines()) + "\n").encode("ascii")])
    return outcome
