"""End-to-end verification suites backing the ``verify`` command.

Six suites run against a parameter set, in this order: normalization of
|psi|^2, the validated form's momentum marginal against raw |psi|^2 (no
oracle), oracle-equivalence of the validated form at seeded points,
symmetry (the mode exchange, W(swapped, y, x, py, px) = W(x, y, px, py) at
4D points), oracle adjudication of both closed forms and, for m >= 1, the
minima-count claim for the mixed-plane slices, the only suite that samples a
grid. Each suite reports one line; each adjudication also yields a
discrepancy report, which :func:`write_report` renders. Each suite has one
point rule, drawn by ``random.Random``: the marginal's 6 points near the
intensity ring (scaled radius sqrt(m)) and the oracle-equivalence's 20
from the run's ``seed``, the symmetry's 50 from ``Random(7)`` and the
calibration's probes from ``Random(0)``; the calibration and the
oracle-equivalence share one loop, :func:`_oracle_points`, each with its
own generator, box, skip floor and draw cap.

Adjudication lives here end to end: the probe points and their 1e-8 skip
thresholds, the calibration of each closed form's constant, every pass/fail
threshold, the verdicts and the report format. The oracle module only
integrates ``psi``.

The minima-count suite records an expected failure mode: the claim of m
strict minima in the x-px plane fails for the validated form, whose
mixed-plane slices are rings in scaled coordinates (their discrete minima
are grid artifacts along the ring); the striped candidate form meets it
only at small m and some widths. Both counts are reported; the suite
verdict follows the validated form.
"""

import itertools
import math
import random
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _EXPORTS
from .gridio import _finite, _fmt
# oracle_marginal_xy is unused here; it stays bound because the benchmark's tracer wraps deev.verify.oracle_marginal_xy
from .oracle import _rule, _tolerance, oracle_marginal_xy, oracle_norm, oracle_wigner
from .state import psi
from .wigner import (CANDIDATE, FORMS, STANDARD, _closed_form, canonical_slice_grid,
                     count_strict_minima, wigner4d, wigner_slice)

__all__ = list(_EXPORTS["verify"])

_N_PROBES = 5


@dataclass(frozen=True)
class CalibrationResult:
    constant: float
    probes: tuple            # phase-space points (x, y, px, py)
    shape_values: tuple      # constant-free closed form per probe
    oracle_values: tuple     # oracle value per probe
    bounds: tuple            # the oracle's error bound per probe
    ratios: tuple            # oracle / shape per probe

    @property
    def spread(self):
        return (max(self.ratios) - min(self.ratios)) / max(abs(r) for r in self.ratios)


def _oracle_points(params, rng, half, evaluate, floor, draws=None):
    """Yield ``(point, value, oracle value, bound)`` at points of four ``rng`` draws, scaled offsets
    U(-half, half); a point whose ``evaluate(params, *point)`` is below ``floor`` in magnitude is skipped
    before the oracle runs. At most ``draws`` points are drawn (None: no cap)."""
    for _ in itertools.count() if draws is None else range(draws):
        pt = params.phase_point(*(rng.uniform(-half, half) for _ in range(4)))
        value = evaluate(params, *pt)
        if not abs(value) < floor:
            yield (pt, value, *oracle_wigner(params, *pt))


def calibrate_constant_detailed(params, form=STANDARD):
    """Fit the overall constant of a closed form against the oracle.

    ``form`` is a name in ``deev.FORMS``; each probe evaluates that form at
    constant 1 (its shape). The probes are the first 5 points of
    :func:`_oracle_points` where neither value is below 1e-8 in magnitude,
    of at most 10 draws at scaled offsets U(-0.85, 0.85) from a generator of
    their own, ``Random(0)``, so every calibration of a state shares one
    probe set, whatever ``seed``. The result is returned whatever the ratios'
    spread; :func:`adjudicate` decides whether a constant calibration exists.
    """
    evaluate = _closed_form(form).evaluate
    points = _oracle_points(params, random.Random(0), 0.85,
                            lambda p, *pt: float(evaluate(p, *pt, constant=1.0)), 1e-8, draws=2 * _N_PROBES)
    kept = list(itertools.islice((row for row in points if not abs(row[2]) < 1e-8), _N_PROBES))
    if len(kept) < _N_PROBES:
        raise ValueError("not enough usable probe points; state too degenerate")
    probes, shapes, oracles, bounds = zip(*kept)
    ratios = tuple(ov / sv for ov, sv in zip(oracles, shapes))
    return CalibrationResult(float(np.mean(ratios)), probes, shapes, oracles, bounds, ratios)


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


def adjudicate(params, form=STANDARD):
    """Calibrate one closed form against the oracle and build its report.

    The verdict is ``shape-mismatch`` when the oracle/shape ratios vary by
    1e-6 relative or more (no constant calibration exists), ``match`` when
    they do not and the nominal constant agrees with the calibrated one
    within 1e-6, and ``constant-only-mismatch`` when only the constant
    differs. The report is stable under halving when every probe's bound is
    at most half the oracle's tolerance at its value: an oracle at half the
    tolerance then stops at the same rule at each probe, with the same value.
    """
    nominal = _closed_form(form).nominal(params)
    cal = calibrate_constant_detailed(params, form=form)
    # the report prints the form at its nominal constant, nominal * shape, at each probe
    _finite([nominal * sv for sv in cal.shape_values], f"the {form} closed form at m={params.m}",
            "at a calibration probe")
    stable = all(bound <= _tolerance(ov) / 2 for ov, bound in zip(cal.oracle_values, cal.bounds))

    if cal.spread >= 1e-6:
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


def _normalization_suite(params):
    val = oracle_norm(params)
    ok = abs(val - 1.0) <= 1e-8
    return SuiteResult("normalization", ok, f"integral |psi|^2 = {val:.12f} (tol 1e-8)")


def _marginal_deviation(params, n, rng):
    """Worst sigma_x sigma_y |marginal - |psi|^2| over n points near the intensity ring.

    Each point takes two draws of ``rng``: its scaled radius sqrt(m) + U(-1.5, 1.5) and a uniform angle.
    The marginal, integral W dP dQ = sigma_x sigma_y |psi(x, y)|^2, is exact: in the state's frame W is
    exp(-(P^2 + Q^2)) times a degree-2m polynomial in (P, Q), which the (m + 2)-node Gauss-Hermite rule
    integrates. The nodes stay scaled momenta: as lab momenta px0 + P / sigma_x they would round away
    wherever |sigma_x px0| is large.
    """
    s, w = _rule(params.m + 2)
    worst = 0.0
    for _ in range(n):
        r, t = math.sqrt(params.m) + rng.uniform(-1.5, 1.5), rng.uniform(0.0, 2.0 * math.pi)
        x, y, _, _ = params.phase_point(r * math.cos(t), r * math.sin(t), 0.0, 0.0)
        A, B = params.offsets(x, y, params.px0, params.py0)[:2]
        marginal = float(w @ wigner4d(params.scaled, A, B, s[:, None], s[None, :]) @ w)
        # the marginal is in the state's units, sigma_x sigma_y |psi|^2, each factor O(1)
        scaled_psi = math.sqrt(params.sigma_x) * math.sqrt(params.sigma_y) * abs(psi(params, x, y))
        worst = max(worst, abs(marginal - scaled_psi ** 2))
    return worst


def _marginal_suite(params, rng):
    worst = _marginal_deviation(params, 6, rng)
    return SuiteResult("marginal", worst <= 1e-5, f"max sigma_x sigma_y |marginal - |psi|^2| = {worst:.3e} "
                                                  "over 6 points (tol 1e-5)")


def _equivalence_suite(params, rng):
    n, tol = 20, "1e-6"     # the tolerance as the summary prints it; also the skip floor
    worst = 0.0
    for _, w_cf, w_or, _ in itertools.islice(_oracle_points(params, rng, 1.8, wigner4d, float(tol)), n):
        worst = max(worst, abs(w_or - w_cf) / abs(w_cf))
    return SuiteResult("oracle-equivalence", worst <= float(tol),
                       f"max relative deviation = {worst:.3e} over {n} points (tol {tol})")


def _symmetry_suite(params):
    # the mode exchange: W(swapped, y, x, py, px) = W(x, y, px, py); |W| <= 1/pi^2, so the tolerance is absolute
    rng = random.Random(7)
    offsets = np.array([rng.uniform(-2.0, 2.0) for _ in range(200)]).reshape(50, 4)    # one row per point
    x, y, px, py = params.phase_point(*offsets.T)
    worst = float(np.max(np.abs(wigner4d(params.swapped(), y, x, py, px) - wigner4d(params, x, y, px, py))))
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


def run_verify(params, threads=None, seed=2024):
    """Run all suites and return the outcome; nothing is written."""
    grids = _suite_grids(params)
    rng = random.Random(seed)
    reports = {form: adjudicate(params, form=form) for form in FORMS}
    std_report, cand_report = reports[STANDARD], reports[CANDIDATE]

    suites = [
        _normalization_suite(params),
        _marginal_suite(params, rng),
        _equivalence_suite(params, rng),
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
