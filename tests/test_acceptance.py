"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criterion 6 asserts the literal minima-count claim and is expected to FAIL: it
asserts the striped minima-count claim against the validated Wigner
function, whose mixed-plane slices are radial in scaled coordinates (rings,
not stripes). The count it demands is a property of the shape-mismatched
candidate form only; the companion record test below criterion 6 shows the
candidate form reproducing the claimed counts. See the verify command's
discrepancy reports for the full adjudication.
"""

import json
import math
import os
import time
from fractions import Fraction

import numpy as np

from deev.cli import main as cli_main
from deev.coupling import DcdcParams, bs_coupler, dcdc_coupler, dcdc_time_for_ratio
from deev.gridio import AxisSpec, GridSpec
from deev.oracle import oracle_marginal_xy, oracle_norm, oracle_wigner
from deev.state import DeevParams, intensity_field, psi
from deev.verify import Verdict, canonical_slice_grid, run_verify, write_report
from deev.wigner import count_strict_minima, wigner4d, wigner_slice

import exact
from sitref import sit

SIGMA_SETS = [(1.0, 1.0), (5.0, 3.0), (2.0, 0.7)]


def report(n, ok, detail):
    print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_normalization():
    """Integral of |psi|^2 equals 1 within 1e-8 for m in 0..4, three width pairs."""
    worst, slowest = 0.0, 0.0
    for sx, sy in SIGMA_SETS:
        for m in range(5):
            p = DeevParams.tied(m, sx, sy, x0=2.0, y0=4.0)
            t0 = time.time()
            val = oracle_norm(p)
            slowest = max(slowest, time.time() - t0)
            worst = max(worst, abs(val - 1.0))
    ok = worst <= 1e-8 and slowest < 10.0
    report(1, ok, f"max |norm - 1| = {worst:.2e} (tol 1e-8), slowest case {slowest:.2f}s")
    assert worst <= 1e-8
    assert slowest < 10.0


def test_criterion_2_oracle_equivalence_circular():
    """Calibrated closed form matches the oracle in the circular limit."""
    p0 = DeevParams.tied(0, 1.0, 1.0)
    center, _ = oracle_wigner(p0, 0.0, 0.0, 0.0, 0.0)
    anchor_err = abs(center - 1.0 / math.pi ** 2)
    worst = 0.0
    rng = np.random.default_rng(20240810)
    for m in range(4):
        p = DeevParams.tied(m, 1.0, 1.0)
        used = 0
        while used < 200:
            a, b, pp, qq = rng.uniform(-1.8, 1.8, 4)
            w_cf = wigner4d(p, a, b, pp, qq)
            if abs(w_cf) < 1e-6:          # stay in the bulk; see ledger note
                continue
            w_or, _ = oracle_wigner(p, a, b, pp, qq)
            worst = max(worst, abs(w_or - w_cf) / abs(w_cf))
            used += 1
    ok = worst <= 1e-6 and anchor_err <= 1e-8
    report(2, ok, f"max rel dev = {worst:.2e} over 4x200 points (tol 1e-6), "
                  f"|W(0) - 1/pi^2| = {anchor_err:.2e} (tol 1e-8)")
    assert worst <= 1e-6
    assert anchor_err <= 1e-8


def test_criterion_3_oracle_adjudication_elliptic(tmp_path):
    """Verify pipeline produces a stable discrepancy report for (5, 3)."""
    verdicts = []
    for m in (1, 2, 3):
        p = DeevParams.tied(m, 5.0, 3.0)
        outcome = run_verify(p, seed=2024)
        rep = outcome.reports["standard"]
        verdicts.append(rep.verdict.value)
        assert rep.verdict in (Verdict.MATCH, Verdict.CONSTANT_ONLY)
        assert rep.stable_under_halving
        paths = {form: tmp_path / f"m{m}_{form}.txt" for form in outcome.reports}
        for form, path in paths.items():
            write_report(outcome.reports[form], str(path))
        with open(paths["standard"], encoding="ascii") as fh:
            assert Verdict(fh.read().splitlines()[-1].split("=", 1)[1]) is rep.verdict
        assert os.path.exists(paths["candidate"])
    report(3, True, f"verdicts for m=1,2,3: {verdicts}, all stable under tolerance halving")


def test_criterion_4_marginals():
    """Oracle momentum marginal equals |psi|^2 at 50 random points."""
    p = DeevParams.tied(3, 5.0, 3.0)
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(50):
        x = 5.0 * rng.uniform(-1.5, 1.5)
        y = 3.0 * rng.uniform(-1.5, 1.5)
        worst = max(worst, abs(oracle_marginal_xy(p, x, y) / (5.0 * 3.0) - abs(psi(p, x, y)) ** 2))
    ok = worst <= 1e-5
    report(4, ok, f"max |marginal - |psi|^2| = {worst:.2e} over 50 points (tol 1e-5)")
    assert worst <= 1e-5


def test_criterion_5_intensity_figure():
    """Displaced intensity: core zero at nearest node, x-major ring, swap transpose."""
    p = DeevParams.tied(3, 5.0, 3.0, x0=2.0, y0=4.0)
    grid = GridSpec(axis1=AxisSpec("x", -15.0, 19.0, 201), axis2=AxisSpec("y", -11.0, 19.0, 201))
    f = intensity_field(p, grid)
    xs, ys = grid.axis1.nodes(), grid.axis2.nodes()
    i = int(np.argmin(np.abs(xs - 2.0)))
    j = int(np.argmin(np.abs(ys - 4.0)))
    core_ok = f.values[i, j] <= 1e-20 and f.values.min() == f.values[i, j]

    ring = f.values >= 0.99 * f.values.max()
    ri, rj = np.nonzero(ring)
    span_x = xs[ri].max() - xs[ri].min()
    span_y = ys[rj].max() - ys[rj].min()
    ring_ok = span_x > span_y > 0

    swapped_grid = GridSpec(axis1=AxisSpec("x", -11.0, 19.0, 201), axis2=AxisSpec("y", -15.0, 19.0, 201))
    fs = intensity_field(p.swapped(), swapped_grid)
    swap_dev = float(np.max(np.abs(fs.values - f.values.T)))

    ok = core_ok and ring_ok and swap_dev <= 1e-10
    report(5, ok, f"core node value = {f.values[i, j]:.1e}, ring spans (x, y) = "
                  f"({span_x:.2f}, {span_y:.2f}), swap transpose dev = {swap_dev:.2e}")
    assert core_ok
    assert ring_ok
    assert swap_dev <= 1e-10


def _minima_counts(form):
    counts = {}
    for m in (3, 4):
        p = DeevParams.tied(m, 5.0, 3.0)
        for plane in ("xpx", "ypx"):
            grid = canonical_slice_grid(p, plane)
            counts[(m, plane.upper())] = count_strict_minima(wigner_slice(p, grid, form=form))
    return counts


def test_criterion_6_minima_counts():
    """Exactly m strict 8-neighbor minima in the XPX/YPX slices (m = 3, 4).

    Stated against the validated Wigner function this fails: its mixed-plane
    slices are radial in the scaled coordinates ((x-x0)/sigma_x,
    sigma_x (px-px0)), so their negative regions are degenerate rings whose
    discrete strict minima are grid-aliasing artifacts (count is large and
    unstable under tiny range changes). The striped structure with exactly
    m minima belongs to the shape-mismatched candidate form (recorded by the
    test below and in the verify reports).
    """
    counts = _minima_counts("standard")
    ok = (counts[(3, "XPX")] == 3 and counts[(3, "YPX")] == counts[(3, "XPX")]
          and counts[(4, "XPX")] == 4)
    report(6, ok, f"validated-form strict minima: m=3 xpx={counts[(3, 'XPX')]}, "
                  f"ypx={counts[(3, 'YPX')]}; m=4 xpx={counts[(4, 'XPX')]} "
                  f"(claim expects 3, 3, 4; holds only for the candidate form)")
    assert counts[(3, "XPX")] == 3, (
        "the minima-count claim does not hold for the oracle-validated Wigner function "
        f"(got {counts[(3, 'XPX')]}); it is a property of the candidate closed form only")
    assert counts[(3, "YPX")] == counts[(3, "XPX")]
    assert counts[(4, "XPX")] == 4


def test_criterion_6_record_candidate_counts():
    """Adjudication record: the candidate form does carry the claimed counts."""
    counts = _minima_counts("candidate")
    ok = (counts[(3, "XPX")] == 3 and counts[(3, "YPX")] == 3 and
          counts[(4, "XPX")] == 4 and counts[(4, "YPX")] == 4)
    report("6-record", ok, f"candidate-form strict minima: {dict(counts)}")
    assert ok


def test_criterion_7_sit():
    """SIT closed form at m=1, form reflection identity, rational oracle m=2..4."""
    rng = np.random.default_rng(7)
    worst1 = 0.0
    for _ in range(10000):
        r, s = rng.uniform(-8, 8, 2)
        if r * r + s * s <= 1e-8:
            continue
        worst1 = max(worst1, abs(sit(1, 5.0, 3.0, r, s) - 2 * r * s / (r * r + s * s)))

    reflect_ok = True
    for m in (1, 2, 3, 4):
        for _ in range(200):
            r, s = rng.uniform(-5, 5, 2)
            a = sit(m, 5.0, 3.0, r, s, form="difference")
            b = sit(m, 5.0, 3.0, r, -s, form="sum")
            if math.isnan(a) and math.isnan(b):
                continue
            reflect_ok = reflect_ok and (a == b)

    worst_hi = 0.0
    for m in (2, 3, 4):
        for _ in range(100):
            r = Fraction(int(rng.integers(-5000, 5000)), 1000)
            s = Fraction(int(rng.integers(-5000, 5000)), 1000)
            expect = exact.sit(m, 34, r, s)
            if not math.isfinite(expect):   # the denominator vanishes exactly
                continue
            got = sit(m, 5.0, 3.0, float(r), float(s))
            worst_hi = max(worst_hi, abs(got - expect) / max(abs(expect), 1.0))

    ok = worst1 <= 1e-12 and reflect_ok and worst_hi <= 1e-10
    report(7, ok, f"m=1 closed-form dev = {worst1:.2e} (tol 1e-12), reflection exact = {reflect_ok}, "
                  f"m=2..4 oracle dev = {worst_hi:.2e} (tol 1e-10)")
    assert worst1 <= 1e-12
    assert reflect_ok
    assert worst_hi <= 1e-10


def test_criterion_8_coupler_unitarity_and_solve():
    """Unitarity over 1e6 random couplers of each kind; 50/50 solve time."""
    rng = np.random.default_rng(8)
    worst = 0.0
    thetas = rng.uniform(-2 * math.pi, 2 * math.pi, 1_000_000)
    phis = rng.uniform(-2 * math.pi, 2 * math.pi, 1_000_000)
    for th, ph in zip(thetas, phis):
        c = bs_coupler(th, ph)  # construction re-validates unitarity at 1e-12
        worst = max(worst, abs(abs(c.a1) ** 2 + abs(c.a2) ** 2 - 1.0))
    gs = rng.uniform(1e-2, 20.0, 1_000_000)
    deltas = rng.uniform(-20.0, 20.0, 1_000_000)
    ts = rng.uniform(0.0, 10.0, 1_000_000)
    for g, d, t in zip(gs, deltas, ts):
        c = dcdc_coupler(DcdcParams(g=g, delta=d, t=t))
        worst = max(worst, abs(abs(c.a1) ** 2 + abs(c.a2) ** 2 - 1.0))
    t_solve = dcdc_time_for_ratio(1.0, 1.0, 0.0)
    solve_err = abs(t_solve - math.pi / 4)
    ok = worst <= 1e-12 and solve_err <= 1e-10
    report(8, ok, f"max |unitarity - 1| = {worst:.2e} over 2e6 couplers (tol 1e-12), "
                  f"|t - pi/4| = {solve_err:.2e} (tol 1e-10)")
    assert worst <= 1e-12
    assert solve_err <= 1e-10


def test_criterion_9_cli_determinism(tmp_path):
    """field/wigner/sit outputs byte-identical across runs and thread counts."""
    cfg_field = tmp_path / "field.json"
    cfg_field.write_text(json.dumps({
        "state": {"m": 2, "sigma_x": 5.0, "sigma_y": 3.0, "x0": 2.0, "y0": 4.0},
        "grid": {"axis1": {"label": "x", "min": -15.0, "max": 19.0, "count": 41},
                 "axis2": {"label": "y", "min": -11.0, "max": 19.0, "count": 41}}}))
    cfg_wig = tmp_path / "wig.json"
    cfg_wig.write_text(json.dumps({"state": {"m": 2, "sigma_x": 5.0, "sigma_y": 3.0}}))
    cfg_sit = tmp_path / "sit.json"
    cfg_sit.write_text(json.dumps({
        "sit": {"m": 1, "form": "sum", "clamp": 50.0},
        "grid": {"axis1": {"label": "r", "min": -5.0, "max": 5.0, "count": 41},
                 "axis2": {"label": "s", "min": -5.0, "max": 5.0, "count": 41}}}))

    def run_all(tag, threads):
        out = str(tmp_path / tag)
        assert cli_main(["field", "--config", str(cfg_field), "--out", out, "--threads", threads]) == 0
        assert cli_main(["wigner", "--config", str(cfg_wig), "--out", out, "--plane", "xpx",
                         "--threads", threads]) == 0
        assert cli_main(["sit", "--config", str(cfg_sit), "--out", out, "--threads", threads]) == 0
        blobs = {}
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                blobs[name] = fh.read()
        return blobs

    a = run_all("a", "1")
    b = run_all("b", "1")
    c = run_all("c", "4")
    ok = a == b == c and len(a) == 6
    report(9, ok, f"{len(a)} files byte-identical across two runs and threads 1 vs 4")
    assert a == b
    assert a == c
