import math
import random
import re
from dataclasses import replace

import numpy as np
import pytest

from deev import oracle, verify
from deev.oracle import OracleConvergenceError, oracle_marginal_xy, oracle_norm, oracle_wigner
from deev.state import DeevParams, psi
from deev.verify import Verdict, adjudicate, calibrate_constant_detailed
from deev.wigner import CLOSED_FORMS, FORMS, standard_constant, wigner4d

def test_ground_state_anchor():
    p = DeevParams.tied(0, 1.0, 1.0)
    assert oracle_wigner(p, 0.0, 0.0, 0.0, 0.0)[0] == pytest.approx(1.0 / math.pi ** 2, abs=1e-8)


def test_vortex_core_is_negative_for_m1():
    p = DeevParams.tied(1, 1.0, 1.0)
    assert oracle_wigner(p, 0.0, 0.0, 0.0, 0.0)[0] < 0


def test_imaginary_residue_small():
    # oracle_wigner raises when the imaginary part exceeds 10 _ABS_TOL = 1e-11
    p = DeevParams.tied(2, 2.0, 0.7, x0=1.0, py0=0.4)
    rng = np.random.default_rng(5)
    for _ in range(3):
        a, b, pp, qq = rng.uniform(-1.5, 1.5, 4)
        assert math.isfinite(oracle_wigner(p, 1.0 + 2 * a, 0.7 * b, pp / 2, 0.4 + qq / 0.7)[0])


def test_imaginary_residue_raises(monkeypatch):
    monkeypatch.setattr(oracle, "_transform_integral", lambda *args, **kwargs: (0.1 + 1e-6j, 0.0))
    with pytest.raises(OracleConvergenceError, match="imaginary residue") as err:
        oracle_wigner(DeevParams.tied(1, 1.0, 1.0), 0.0, 0.0, 0.0, 0.0)
    assert "(best estimate 0.1, error bound 1e-06)" in str(err.value)


def test_matches_closed_form_at_random_points():
    for m, sx, sy in [(0, 1.0, 1.0), (2, 5.0, 3.0), (3, 2.0, 0.7)]:
        p = DeevParams.tied(m, sx, sy)
        rng = np.random.default_rng(m)
        checked = 0
        while checked < 5:
            a, b, pp, qq = rng.uniform(-1.8, 1.8, 4)
            pt = (a * sx, b * sy, pp / sx, qq / sy)
            w_cf = wigner4d(p, *pt)
            if abs(w_cf) < 1e-6:
                continue
            assert oracle_wigner(p, *pt)[0] == pytest.approx(w_cf, rel=1e-6)
            checked += 1


def test_marginal_vortex_core_and_peak():
    p = DeevParams.tied(2, 5.0, 3.0, x0=2.0, y0=4.0)
    assert oracle_marginal_xy(p, 2.0, 4.0) / (5.0 * 3.0) == pytest.approx(0.0, abs=1e-8)
    p0 = DeevParams.tied(0, 5.0, 3.0)
    got = oracle_marginal_xy(p0, 0.0, 0.0) / (5.0 * 3.0)
    assert got == pytest.approx(abs(psi(p0, 0.0, 0.0)) ** 2, abs=1e-8)


def test_marginal_random_points_match_intensity():
    p = DeevParams.tied(3, 5.0, 3.0, px0=0.2)
    rng = np.random.default_rng(17)
    for _ in range(4):
        x, y = 5.0 * rng.uniform(-1.5, 1.5), 3.0 * rng.uniform(-1.5, 1.5)
        assert oracle_marginal_xy(p, x, y) / (5.0 * 3.0) == pytest.approx(abs(psi(p, x, y)) ** 2, abs=1e-5)


def test_marginal_starts_at_its_converging_rule(monkeypatch):
    # the start depends on m alone; it must already meet the tolerance at n and 2n
    rules = []
    rule = oracle._rule
    monkeypatch.setattr(oracle, "_rule", lambda n: rules.append(n) or rule(n))
    rng = np.random.default_rng(15)
    for m in range(61):
        sx, sy = np.exp(rng.uniform(np.log(0.7), np.log(5.0), 2))
        x0, y0, px0, py0 = rng.uniform(-2.0, 2.0, 4)
        p = DeevParams.tied(m, sx, sy, x0=x0, y0=y0, px0=px0, py0=py0)
        rules.clear()
        oracle_marginal_xy(p, x0 + sx * rng.uniform(-1.0, 1.0), y0 + sy * rng.uniform(-1.0, 1.0))
        assert len(rules) == 2, (m, rules)


def test_displaced_states_in_width_units():
    # displacements up to 1e8 widths: integrating at absolute coordinates lost the digits
    # of x + u and of the plane waves' cancellation, so the rule did not converge
    rng = np.random.default_rng(0)
    for _ in range(24):
        m = int(rng.integers(0, 13))
        sx, sy = 10.0 ** rng.uniform(-1.0, 1.0, 2)
        d = np.where(rng.random(4) < 0.5, 0.0, rng.choice([-1.0, 1.0], 4) * 10.0 ** rng.uniform(-2.0, 8.0, 4))
        p = DeevParams.tied(m, sx, sy, x0=d[0] * sx, y0=d[1] * sy, px0=d[2] / sx, py0=d[3] / sy)
        pt = p.phase_point(*rng.normal(0.0, 1.5, 4))
        assert abs(wigner4d(p, *pt) - oracle_wigner(p, *pt)[0]) * math.pi ** 2 <= 1e-12, (p, pt)
        assert oracle_norm(p) == pytest.approx(1.0, abs=1e-8), p
        marginal = oracle_marginal_xy(p, *pt[:2]) / (sx * sy)
        assert sx * sy * abs(marginal - abs(psi(p, *pt[:2])) ** 2) <= 1e-5, (p, pt)


def test_no_width_reaches_the_oracle():
    # states with the same m, sign and eta_i sigma_i are one state in their own frame, whatever the
    # widths and the displacement, so the oracle gives the same values at the same offsets
    rng = np.random.default_rng(27)
    for m, tied in [(0, True), (1, False), (3, True), (6, False)]:
        hx, hy = (1.0 / math.sqrt(2.0),) * 2 if tied else rng.uniform(0.2, 2.0, 2)
        sign = int(rng.choice([-1, 1]))
        pair = []
        for _ in range(2):
            sx, sy = 10.0 ** rng.uniform(-3.0, 3.0, 2)
            d = rng.uniform(-2.0, 2.0, 4)
            pair.append(DeevParams.from_sigmas(m, sx, sy, eta_x=hx / sx, eta_y=hy / sy, sign=sign,
                                               x0=d[0] * sx, y0=d[1] * sy, px0=d[2] / sx, py0=d[3] / sy))
        p1, p2 = pair
        assert abs(oracle_norm(p1) - oracle_norm(p2)) <= 1e-12, pair
        for off in rng.uniform(-1.5, 1.5, (3, 4)):
            pt1, pt2 = p1.phase_point(*off), p2.phase_point(*off)
            assert abs(oracle_wigner(p1, *pt1)[0] - oracle_wigner(p2, *pt2)[0]) <= 1e-12, (pair, off)
            assert abs(oracle_marginal_xy(p1, *pt1[:2]) - oracle_marginal_xy(p2, *pt2[:2])) <= 1e-12, (pair, off)


def test_norm_is_one():
    for m, sx, sy in [(0, 1.0, 1.0), (3, 5.0, 3.0), (2, 2.0, 0.7)]:
        p = DeevParams.tied(m, sx, sy, x0=1.0)
        assert oracle_norm(p) == pytest.approx(1.0, abs=1e-8)


def test_norm_untied_state():
    p = DeevParams.from_sigmas(2, 2.0, 0.7, eta_x=0.9, eta_y=0.3)
    assert oracle_norm(p) == pytest.approx(1.0, abs=1e-8)


def test_calibration_recovers_exact_constant():
    for m in (0, 1, 2, 3):
        p = DeevParams.tied(m, 1.0, 1.0)
        cal = calibrate_constant_detailed(p, form="standard")
        assert cal.spread < 1e-6
        assert cal.constant == pytest.approx(standard_constant(m), rel=1e-9)


def halve_tolerances(patch):
    for name in ("_ABS_TOL", "_REL_TOL", "_MARGINAL_ABS_TOL"):
        patch.setattr(oracle, name, getattr(oracle, name) / 2)


def test_calibration_elliptic_stable(monkeypatch):
    p = DeevParams.tied(3, 5.0, 3.0)
    report = adjudicate(p, form="standard")
    assert report.stable_under_halving
    halve_tolerances(monkeypatch)
    c2 = calibrate_constant_detailed(p, form="standard").constant
    assert report.calibration.constant == pytest.approx(c2, rel=1e-9)
    assert report.calibration.constant == pytest.approx(standard_constant(3), rel=1e-9)


def test_halving_self_consistency(monkeypatch):
    # the reference is a calibration with the oracle's tolerances halved: wherever a report reads stable,
    # it returns the same probes, values and bounds
    rng, stable = random.Random(38), []
    for _ in range(16):
        m = rng.randint(0, 40)
        sx, sy = (10.0 ** rng.uniform(-2.0, 2.0) for _ in range(2))
        d = [rng.uniform(-3.0, 3.0) for _ in range(4)]
        p = DeevParams.tied(m, sx, sy, x0=d[0] * sx, y0=d[1] * sy, px0=d[2] / sx, py0=d[3] / sy)
        for form in FORMS:
            try:
                report = adjudicate(p, form=form)
            except OverflowError:       # the candidate form's values leave double precision at large m
                continue
            stable.append(report.stable_under_halving)
            if report.stable_under_halving:
                with monkeypatch.context() as halved:
                    halve_tolerances(halved)
                    assert calibrate_constant_detailed(p, form=form) == report.calibration, (p, form)
    assert len(stable) >= 30 and all(stable), stable


def test_calibrations_share_one_probe_set():
    p = DeevParams.tied(2, 5.0, 3.0, x0=0.4, py0=-0.3)
    assert len({calibrate_constant_detailed(p, form=f).probes for f in FORMS}) == 1


def test_calibration_skips_probes_below_1e8(monkeypatch):
    # the first draw's shape and the second oracle value are below 1e-8 in magnitude: both draws are skipped,
    # and two more draws take their places
    shape, oracle_value = CLOSED_FORMS["standard"].evaluate, verify.oracle_wigner
    drawn, asked = [], []

    def tiny_first_shape(p, *pt, constant=None):
        drawn.append(pt)
        return 1e-9 if len(drawn) == 1 else shape(p, *pt, constant=constant)

    def tiny_second_oracle(p, *pt):
        asked.append(pt)
        return (-1e-9, 0.0) if len(asked) == 2 else oracle_value(p, *pt)

    monkeypatch.setitem(CLOSED_FORMS, "standard", replace(CLOSED_FORMS["standard"], evaluate=tiny_first_shape))
    monkeypatch.setattr(verify, "oracle_wigner", tiny_second_oracle)
    cal = calibrate_constant_detailed(DeevParams.tied(3, 5.0, 3.0), form="standard")
    assert len(drawn) == 7 and asked == drawn[1:]
    assert cal.probes == (drawn[1], *drawn[3:])
    assert cal.constant == pytest.approx(standard_constant(3), rel=1e-9)


def test_calibration_needs_five_usable_probes(monkeypatch):
    # six tiny oracle values leave 4 usable probes of the 10 draws: the state is too degenerate to calibrate
    oracle_value, asked = verify.oracle_wigner, []

    def tiny_first_six(p, *pt):
        asked.append(pt)
        return (0.0, 0.0) if len(asked) <= 6 else oracle_value(p, *pt)

    monkeypatch.setattr(verify, "oracle_wigner", tiny_first_six)
    with pytest.raises(ValueError, match=r"^not enough usable probe points; state too degenerate$"):
        calibrate_constant_detailed(DeevParams.tied(3, 5.0, 3.0), form="standard")
    assert len(asked) == 10


def test_equivalence_suite_skips_small_values_and_keeps_20_points(monkeypatch):
    # the first three draws' closed-form values are below the 1e-6 floor, so the oracle runs only at the next
    # 20 draws; its k-th value 1 + k 1e-9 makes the 20th point the worst
    drawn, asked = [], []

    def zero_first_three(p, *pt):
        drawn.append(pt)
        return 0.0 if len(drawn) <= 3 else 1.0

    def drifting_oracle(p, *pt):
        asked.append(pt)
        return 1.0 + len(asked) * 1e-9, 0.0

    monkeypatch.setattr(verify, "wigner4d", zero_first_three)
    monkeypatch.setattr(verify, "oracle_wigner", drifting_oracle)
    p = DeevParams.tied(3, 5.0, 3.0, x0=0.4, py0=-0.3)
    rng, replay = random.Random(2024), random.Random(2024)
    suite = verify._equivalence_suite(p, rng)
    points = [p.phase_point(*(replay.uniform(-1.8, 1.8) for _ in range(4))) for _ in range(23)]
    assert drawn == points and asked == points[3:]
    assert suite.passed and suite.detail == "max relative deviation = 2.000e-08 over 20 points (tol 1e-6)"
    assert rng.getstate() == replay.getstate()      # 4 x 23 draws, none more


@pytest.mark.parametrize("call", [calibrate_constant_detailed, adjudicate])
def test_forms_are_named_by_key(call):
    with pytest.raises(ValueError, match=r"^form must be one of \['candidate', 'standard'\], got 'shape'$"):
        call(DeevParams.tied(1, 1.0, 1.0), form="shape")


def test_candidate_form_is_shape_mismatched():
    for m in (0, 2):
        p = DeevParams.tied(m, 5.0, 3.0)
        cal = calibrate_constant_detailed(p, form="candidate")
        assert cal.spread >= 1e-6


def test_shape_mismatch_report_holds_the_oracle_values():
    # calibration returns its result whatever the spread, and the candidate
    # report prints the oracle's own values, not ratio x shape (which can
    # differ in the last digit: probe 3 here)
    p = DeevParams.tied(2, 3.3570825953412484, 2.612793450391342,
                        x0=-1.4710365831323013, px0=0.9446745793730726, sign=+1)
    cal = calibrate_constant_detailed(p, form="candidate")
    assert len(cal.probes) == 5
    assert cal.spread >= 1e-6
    rep = adjudicate(p, form="candidate")
    assert rep.verdict is Verdict.SHAPE
    assert rep.calibration.probes == cal.probes
    assert rep.calibration.oracle_values == tuple(oracle_wigner(p, *pt)[0] for pt in cal.probes)


def test_convergence_failure_reports_estimate(monkeypatch):
    p = DeevParams.tied(3, 5.0, 3.0)
    for name, value in [("_MAX_RULE_NODES", 4), ("_ABS_TOL", 1e-15), ("_REL_TOL", 1e-15)]:
        monkeypatch.setattr(oracle, name, value)
    with pytest.raises(OracleConvergenceError) as err:
        oracle_wigner(p, 1.0, 1.0, 0.1, -0.1)
    assert math.isfinite(float(re.search(r"error bound (\S+)\)$", str(err.value)).group(1)))


@pytest.mark.parametrize("m", [40, 60])
def test_large_m_wigner_marginal_and_norm(m):
    # no truncation box: the rule integrates over the whole plane at any m
    p = DeevParams.tied(m, 5.0, 3.0, x0=1.0, py0=0.2)
    rng = np.random.default_rng(m)
    checked = 0
    while checked < 10:
        pt = p.phase_point(*rng.uniform(-1.8, 1.8, 4))
        w_cf = wigner4d(p, *pt)
        if abs(w_cf) < 1e-6:
            continue
        assert oracle_wigner(p, *pt)[0] == pytest.approx(w_cf, rel=1e-6)
        checked += 1
    for a, b in rng.uniform(-1.5, 1.5, (4, 2)):
        x, y = p.x0 + a * p.sigma_x, p.y0 + b * p.sigma_y
        assert oracle_marginal_xy(p, x, y) / (p.sigma_x * p.sigma_y) == pytest.approx(abs(psi(p, x, y)) ** 2,
                                                                                       abs=1e-5)
    assert oracle_norm(p) == pytest.approx(1.0, abs=1e-8)
