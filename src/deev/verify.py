"""End-to-end verification suites backing the ``verify`` command.

Five suites run against a parameter set: normalization of |psi|^2,
momentum marginals, oracle adjudication of both closed forms, symmetry (the
mode exchange, W(swapped, y, x, py, px) = W(x, y, px, py) at 4D points) and,
for m >= 1, the minima-count claim for the mixed-plane slices, the only
suite that samples a grid. Each suite reports one line; each adjudication
also yields a discrepancy report, which :func:`write_report` renders.

Adjudication lives here end to end: the probe points and their 1e-8 skip
thresholds, the calibration of each closed form's constant, every pass/fail
threshold, the verdicts and the report format. The oracle module only
integrates ``psi``.

The minima-count suite records an expected failure mode: the claim of m
strict minima in the x-px plane holds for the striped candidate form but
not for the validated form, whose mixed-plane slices are rings in scaled
coordinates (their discrete minima are grid artifacts along the ring).
Both counts are reported; the suite verdict follows the validated form.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _EXPORTS
from .gridio import _fmt
from .oracle import QuadratureSpec, oracle_marginal_xy, oracle_norm, oracle_wigner
from .state import psi
from .wigner import (CANDIDATE, FORMS, STANDARD, _closed_form, _finite, canonical_slice_grid,
                     count_strict_minima, wigner4d, wigner_slice)

__all__ = list(_EXPORTS["verify"])

_PROBE_OFFSETS = (
    (0.31, 0.22, -0.27, 0.18),
    (0.73, -0.41, 0.33, -0.24),
    (-0.52, 0.63, 0.21, 0.44),
    (0.24, -0.36, -0.61, 0.52),
    (-0.43, -0.28, 0.54, -0.37),
    (0.62, 0.47, 0.29, 0.36),
    (-0.33, 0.51, -0.45, -0.26),
    (0.85, 0.12, -0.38, 0.61),
    (-0.64, -0.55, 0.42, 0.23),
    (0.18, 0.74, 0.56, -0.49),
)
_N_PROBES = 5


@dataclass(frozen=True)
class CalibrationResult:
    constant: float
    probes: tuple            # phase-space points (x, y, px, py)
    shape_values: tuple      # constant-free closed form per probe
    oracle_values: tuple     # oracle value per probe
    ratios: tuple            # oracle / shape per probe

    @property
    def spread(self):
        return (max(self.ratios) - min(self.ratios)) / max(abs(r) for r in self.ratios)


def calibrate_constant_detailed(params, q=QuadratureSpec(), form=STANDARD):
    """Fit the overall constant of a closed form against the oracle.

    ``form`` is a name in ``deev.FORMS``; each probe evaluates that form at
    constant 1 (its shape). Probes are deterministic scaled offsets from the
    displaced center, skipping points where either value is below 1e-8 in
    magnitude. The result is returned whatever the ratios' spread;
    :func:`adjudicate` decides whether a constant calibration exists.
    """
    evaluate = _closed_form(form).evaluate
    probes, shapes, oracles = [], [], []
    for offsets in _PROBE_OFFSETS:
        if len(probes) == _N_PROBES:
            break
        pt = params.phase_point(*offsets)
        sv = float(evaluate(params, *pt, constant=1.0))
        if abs(sv) < 1e-8:
            continue
        ov = oracle_wigner(params, *pt, q=q)
        if abs(ov) < 1e-8:
            continue
        probes.append(pt)
        shapes.append(sv)
        oracles.append(ov)
    if len(probes) < _N_PROBES:
        raise ValueError("not enough usable probe points; state too degenerate")
    ratios = tuple(ov / sv for ov, sv in zip(oracles, shapes))
    return CalibrationResult(
        constant=float(np.mean(ratios)),
        probes=tuple(probes),
        shape_values=tuple(shapes),
        oracle_values=tuple(oracles),
        ratios=ratios,
    )


class Verdict(str, Enum):
    MATCH = "match"
    CONSTANT_ONLY = "constant-only-mismatch"
    SHAPE = "shape-mismatch"


@dataclass(frozen=True)
class DiscrepancyReport:
    """Adjudication record of a closed form against the oracle."""

    label: str
    calibration: CalibrationResult
    nominal_constant: float
    verdict: Verdict
    stable_under_halving: bool


def write_report(report, destination):
    """Write a discrepancy report as line-oriented key=value text.

    Narrative lines are '#'-prefixed; the machine-readable verdict is the
    final line. Each probe line carries the closed form at the nominal
    constant, the oracle value and their ratio to the shape.
    """
    cal = report.calibration
    lines = [
        f"# discrepancy report: {report.label}",
        "# columns: probe index, x, y, px, py, closed_form, oracle, ratio",
    ]
    if report.verdict is Verdict.SHAPE:
        lines.append("# no constant calibration exists; calibrated_constant is the best-fit mean ratio")
    for i, (pt, sv, ov, ra) in enumerate(zip(cal.probes, cal.shape_values, cal.oracle_values, cal.ratios)):
        coords = ":".join(_fmt(c) for c in pt)
        lines.append(f"probe{i}={coords}:{_fmt(report.nominal_constant * sv)}:{_fmt(ov)}:{_fmt(ra)}")
    lines.append(f"nominal_constant={_fmt(report.nominal_constant)}")
    lines.append(f"calibrated_constant={_fmt(cal.constant)}")
    dev = math.inf if cal.constant == 0 else max(abs(r / cal.constant - 1.0) for r in cal.ratios)
    lines.append(f"max_relative_deviation={_fmt(dev)}")
    lines.append(f"stable_under_halving={'true' if report.stable_under_halving else 'false'}")
    lines.append(f"verdict={report.verdict.value}")
    with open(destination, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode("ascii"))


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerifyOutcome:
    suites: tuple
    reports: dict           # form -> DiscrepancyReport, in FORMS order

    @property
    def exit_code(self):
        return 0 if all(s.passed for s in self.suites) else 1

    def summary_lines(self):
        lines = [f"{'PASS' if s.passed else 'FAIL'} {s.name}: {s.detail}" for s in self.suites]
        lines.append(f"closed-form verdict: {self.reports[STANDARD].verdict.value}")
        lines.append(f"candidate-form verdict: {self.reports[CANDIDATE].verdict.value}")
        lines.append(f"overall: {'PASS' if self.exit_code == 0 else 'FAIL'}")
        return lines


def adjudicate(params, q=QuadratureSpec(), form=STANDARD):
    """Calibrate one closed form against the oracle and build its report.

    The verdict is ``shape-mismatch`` when the oracle/shape ratios vary by
    1e-6 relative or more (no constant calibration exists), ``match`` when
    they do not and the nominal constant agrees with the calibrated one
    within 1e-6, and ``constant-only-mismatch`` when only the constant
    differs. Stability under tolerance halving is checked by re-running at
    half tolerances.
    """
    nominal = _closed_form(form).nominal(params)
    cal = calibrate_constant_detailed(params, q=q, form=form)
    # the report prints the form at its nominal constant, nominal * shape, at each probe
    _finite([nominal * sv for sv in cal.shape_values], form, params.m)
    cal2 = calibrate_constant_detailed(params, q=q.halved(), form=form)
    fits, fits2 = (c.spread < 1e-6 for c in (cal, cal2))
    # stable: neither calibration fits, or both fit with the same constant
    stable = fits == fits2 and (not fits or abs(cal.constant / cal2.constant - 1.0) < 1e-6)

    if not fits:
        verdict = Verdict.SHAPE
    elif abs(cal.constant / nominal - 1.0) <= 1e-6:
        verdict = Verdict.MATCH
    else:
        verdict = Verdict.CONSTANT_ONLY

    return DiscrepancyReport(
        label=f"{form} closed form, m={params.m}, sigma=({params.sigma_x:g},{params.sigma_y:g})",
        calibration=cal,
        nominal_constant=nominal,
        verdict=verdict,
        stable_under_halving=stable,
    )


def _normalization_suite(params, q):
    val = oracle_norm(params, q)
    ok = abs(val - 1.0) <= 1e-8
    return SuiteResult("normalization", ok, f"integral |psi|^2 = {val:.12f} (tol 1e-8)")


def _marginal_suite(params, q, n_points, rng):
    worst = 0.0
    for _ in range(n_points):
        a, b = rng.uniform(-1.5, 1.5, 2)
        x, y, _, _ = params.phase_point(a, b, 0.0, 0.0)
        # the marginal is in the state's units, sigma_x sigma_y |psi|^2, each factor O(1)
        scaled_psi = math.sqrt(params.sigma_x) * math.sqrt(params.sigma_y) * abs(psi(params, x, y))
        worst = max(worst, abs(oracle_marginal_xy(params, x, y, q) - scaled_psi ** 2))
    ok = worst <= 1e-5
    return SuiteResult("marginal", ok, f"max sigma_x sigma_y |marginal - |psi|^2| = {worst:.3e} "
                                       f"over {n_points} points (tol 1e-5)")


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
    # the mode exchange: W(swapped, y, x, py, px) = W(x, y, px, py); |W| <= 1/pi^2, so the tolerance is absolute
    swapped = params.swapped()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        x, y, px, py = params.phase_point(*rng.uniform(-2.0, 2.0, 4))
        worst = max(worst, abs(wigner4d(swapped, y, x, py, px) - wigner4d(params, x, y, px, py)))
    return SuiteResult("symmetry", worst <= 1e-12, f"mode-exchange dev = {worst:.3e} over 50 points (tol 1e-12)")


def _minima_suite(params, grids, threads=None):
    counts = {(plane, form): count_strict_minima(wigner_slice(params, grid, form=form, threads=threads))
              for plane, grid in grids.items() for form in FORMS}
    ok = all(counts[(plane, STANDARD)] == params.m for plane in grids)
    detail = "; ".join(f"{plane} {form}={n}" for (plane, form), n in counts.items())
    return SuiteResult("minima-count", ok, f"claim expects {params.m}: {detail}")


def _suite_grids(params):
    """The minima-count suite's canonical grids by plane (none for m = 0); ValueError if one collapses."""
    return {plane: canonical_slice_grid(params, plane) for plane in (("xpx", "ypx") if params.m >= 1 else ())}


def run_verify(params, q=QuadratureSpec(), threads=None, seed=2024):
    """Run all suites and return the outcome; nothing is written."""
    grids = _suite_grids(params)
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
    if grids:
        suites.append(_minima_suite(params, grids, threads=threads))
    return VerifyOutcome(suites=tuple(suites), reports=reports)
