import math
import random
import sys
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from deev import gridio, wigner
from deev.gridio import AxisSpec, GridSpec
from deev.state import DeevParams
from deev.wigner import (PLANES, _sit_coeffs, candidate_constant, canonical_slice_grid,
                         count_strict_minima, sit_field, standard_constant, wigner4d,
                         wigner4d_candidate, wigner_slice)

import exact
from sitref import sit

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------- closed forms

def test_center_values():
    for m in range(5):
        p = DeevParams.tied(m, 5.0, 3.0, x0=2.0, y0=4.0, px0=0.1, py0=0.2)
        # validated form: ((-1)^m / pi^2) L_m(0) with L_m(0) = 1
        assert wigner4d(p, 2.0, 4.0, 0.1, 0.2) == pytest.approx(
            (-1.0) ** m / math.pi ** 2, rel=1e-14)
        # candidate form: K * L_m^{-1/2}(0) = K * C(m - 1/2, m)
        expect = candidate_constant(m, 5.0, 3.0) * float(exact.laguerre_series(m, -0.5)[0])
        assert wigner4d_candidate(p, 2.0, 4.0, 0.1, 0.2) == pytest.approx(expect, rel=1e-13)


def test_m0_everywhere_positive():
    p = DeevParams.tied(0, 2.0, 0.7)
    rng = np.random.default_rng(2)
    pts = rng.uniform(-3, 3, (200, 4))
    w = wigner4d(p, pts[:, 0] * 2.0, pts[:, 1] * 0.7, pts[:, 2] / 2.0, pts[:, 3] / 0.7)
    assert (w > 0).all()


def test_untied_params_rejected():
    p = DeevParams.from_sigmas(2, 5.0, 3.0, eta_x=0.5, eta_y=0.9)
    with pytest.raises(ValueError, match="tied|oracle"):
        wigner4d(p, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        wigner4d_candidate(p, 0, 0, 0, 0)


def test_displacement_covariance():
    p = DeevParams.tied(3, 5.0, 3.0, x0=2.0, y0=4.0, px0=0.3, py0=-0.2)
    base = DeevParams.tied(3, 5.0, 3.0)
    rng = np.random.default_rng(4)
    for _ in range(100):
        a, b, pp, qq = rng.uniform(-2, 2, 4)
        x, y, px, py = 2.0 + 5 * a, 4.0 + 3 * b, 0.3 + pp / 5, -0.2 + qq / 3
        assert wigner4d(p, x, y, px, py) == pytest.approx(
            wigner4d(base, x - 2.0, y - 4.0, px - 0.3, py + 0.2), abs=1e-12)


def test_vortex_sign_mirrors_momentum():
    plus = DeevParams.tied(2, 5.0, 3.0)
    minus = DeevParams.tied(2, 5.0, 3.0, sign=-1)
    rng = np.random.default_rng(6)
    for _ in range(50):
        x, y, px, py = rng.uniform(-2, 2, 4)
        assert wigner4d(minus, x, y, px, py) == pytest.approx(
            wigner4d(plus, x, y, -px, -py), rel=1e-13, abs=1e-18)


def test_candidate_overflow_raises_without_warning():
    # alp_eval's recurrence reaches inf - inf at this state's first calibration probe
    p = DeevParams.tied(40, 61.1, 0.00597)
    pt = p.phase_point(0.31, 0.22, -0.27, 0.18)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match=r"^the candidate closed form at m=40 overflows "):
            wigner4d_candidate(p, *pt)
        with pytest.raises(OverflowError, match=r"^the candidate closed form at m=40 overflows "):
            wigner.CLOSED_FORMS["candidate"].evaluate(p, *pt, constant=1.0)


@pytest.mark.parametrize("m, sigma", [(64, 100.0), (90, 1.0), (50, 1e-4), (42, 1e-4), (43, 1e-4),
                                      pytest.param(64, np.float64(100.0), id="64-np.float64(100.0)")])
def test_candidate_constant_raises_when_not_a_double(m, sigma):
    # at m = 64 the product overflows to inf (a numpy scalar width warns where a float raises),
    # at m = 90 (2m)! is too large for a float, at m = 50 the product underflows to 0 (which would
    # sample an all-zero slice), and at m = 42 and 43 the power of the widths is subnormal (m = 43's
    # normal product lost 1e-6 relative)
    with pytest.raises(OverflowError, match=f"^the candidate closed form's constant at m={m} does not fit"):
        candidate_constant(m, sigma, sigma)


@pytest.mark.parametrize("sx, sy", [(5.0, 3.0), (1.0, 1.0), (0.37, 2.9), (100.0, 100.0)])
def test_candidate_constant_carries_gamma_of_m_plus_half(sx, sy):
    # the constant writes Gamma(m + 1/2) out as (2m)! sqrt(pi) / (4^m m!), and (2m)! leaves the floats
    # at m = 86; below that it must agree with lgamma's route wherever the constant is a normal double
    tiny, huge = math.log(np.finfo(float).tiny), math.log(np.finfo(float).max)
    for m in range(130):
        log_k = ((m - 4) * math.log(2.0) + math.lgamma(m + 1.0) - 1.5 * math.log(math.pi) - math.lgamma(m + 0.5)
                 + m * math.log(2.0 * (sx ** 2 + sy ** 2)))
        if m < 86 and tiny + 1e-9 < log_k < huge - 1e-9:
            k = candidate_constant(m, sx, sy)
            assert (k < 0) == (m % 2 == 1)
            assert math.log(abs(k)) == pytest.approx(log_k, rel=0, abs=1e-12), m
        elif m >= 86 or not tiny - 1e-9 < log_k < huge + 1e-9:
            with pytest.raises(OverflowError, match=f"^the candidate closed form's constant at m={m} "):
                candidate_constant(m, sx, sy)
    assert candidate_constant(0, sx, sy) == pytest.approx(2.0 ** -4 / (math.pi ** 1.5 * math.gamma(0.5)), rel=1e-15)


# ---------------------------------------------------------------- slices

def test_slice_equals_pinned_form():
    p = DeevParams.tied(3, 5.0, 3.0, px0=0.1)
    grid = canonical_slice_grid(p, "xpy")
    f = wigner_slice(p, grid)
    xs, pys = grid.axis1.nodes(), grid.axis2.nodes()
    for i in (0, 105, 300):
        for j in (45, 165):
            assert f.values[i, j] == wigner4d(p, xs[i], p.y0, p.px0, pys[j])


def test_slice_grid_label_mismatch():
    p = DeevParams.tied(1, 1.0, 1.0)
    # the reversed pair (px, x) names no plane
    xpx = canonical_slice_grid(p, "xpx")
    grid = GridSpec(axis1=xpx.axis2, axis2=xpx.axis1)
    with pytest.raises(ValueError, match="labels"):
        wigner_slice(p, grid)


def test_slice_bad_form():
    p = DeevParams.tied(1, 1.0, 1.0)
    with pytest.raises(ValueError, match="form"):
        wigner_slice(p, canonical_slice_grid(p, "xy"), form="printed")


def test_circular_xy_slice_rotation_invariant():
    p = DeevParams.tied(2, 1.5, 1.5)
    grid = GridSpec(axis1=AxisSpec("x", -4.5, 4.5, 81), axis2=AxisSpec("y", -4.5, 4.5, 81))
    f = wigner_slice(p, grid)
    rotated = np.rot90(f.values)
    assert np.max(np.abs(rotated - f.values)) <= 1e-10


def test_sigma_swap_transposes_xy_slice():
    p = DeevParams.tied(3, 5.0, 3.0)
    g1 = GridSpec(axis1=AxisSpec("x", -15.0, 15.0, 61), axis2=AxisSpec("y", -9.0, 9.0, 51))
    g2 = GridSpec(axis1=AxisSpec("x", -9.0, 9.0, 51), axis2=AxisSpec("y", -15.0, 15.0, 61))
    f = wigner_slice(p, g1)
    fs = wigner_slice(p.swapped(), g2)
    assert np.max(np.abs(fs.values - f.values.T)) <= 1e-10


def test_candidate_slice_minima_counts():
    # the striped candidate form carries exactly m strict minima in the
    # mixed planes; the validated form's rings do not (adjudicated in verify)
    for m, expect in ((1, 1), (2, 2), (3, 3), (4, 4)):
        p = DeevParams.tied(m, 5.0, 3.0)
        for plane in ("xpx", "ypx"):
            grid = canonical_slice_grid(p, plane)
            f = wigner_slice(p, grid, form="candidate")
            assert count_strict_minima(f) == expect, (m, plane)


# ---------------------------------------------------------------- SIT

def test_sit_m1_closed_form():
    rng = np.random.default_rng(3)
    for _ in range(2000):
        r, s = rng.uniform(-8, 8, 2)
        if r * r + s * s < 1e-8:
            continue
        got = sit(1, 5.0, 3.0, r, s)
        assert got == pytest.approx(2 * r * s / (r * r + s * s), abs=1e-12)
    # sigma independence at m = 1
    assert sit(1, 2.0, 0.7, 1.3, -0.4) == pytest.approx(sit(1, 5.0, 3.0, 1.3, -0.4), abs=1e-14)
    assert sit(1, 1.0, 1.0, 1.0, 1.0) == pytest.approx(1.0)
    assert sit(1, 1.0, 1.0, 1.0, -1.0) == pytest.approx(-1.0)
    assert sit(1, 1.0, 1.0, 1.0, 0.0) == 0.0


def test_sit_difference_is_sum_with_reflected_s():
    rng = np.random.default_rng(8)
    for m in (1, 2, 3):
        for _ in range(200):
            r, s = rng.uniform(-5, 5, 2)
            a = sit(m, 5.0, 3.0, r, s, form="difference")
            b = sit(m, 5.0, 3.0, r, -s, form="sum")
            if math.isnan(a) and math.isnan(b):
                continue
            assert a == b


def test_sit_rejects_m0_and_bad_form():
    with pytest.raises(ValueError):
        sit(0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        sit(1, 1.0, 1.0, 1.0, 1.0, form="weird")


def test_sit_out_of_double_range_raises_overflow():
    # numpy widths take the warning path where Python floats raise; neither may warn
    for m, sigma in ((200, 5.0), (200, np.float64(5.0)), (200, np.float64(0.1)), (400, 1.0), (171, 0.5)):
        with pytest.raises(OverflowError, match=f"coefficients at m={m} "):
            sit(m, sigma, sigma, 1.0, 2.0)
    with pytest.raises(OverflowError, match="m=100 overflows double precision on this grid"):
        sit(100, 1.0, 1.0, np.array([0.0, 1e3]), np.array([0.0, 1e3]))
    assert math.isfinite(sit(100, 1.0, 1.0, 5.0, 4.0))
    # the last order whose c_m = (-1)^m / m! is a normal double
    assert len(_sit_coeffs(170, 0.1, 0.1)) == 171


def test_sit_origin_nan_and_axis_zero():
    assert math.isnan(sit(2, 5.0, 3.0, 0.0, 0.0))
    assert sit(2, 5.0, 3.0, 0.0, 1.7) == 0.0


def test_sit_m2_exact_value():
    # sigma = (5, 3): denominators are exact integers
    expect = exact.sit(2, 34, 1, 1)
    assert sit(2, 5.0, 3.0, 1.0, 1.0) == pytest.approx(expect, rel=1e-12)


def test_sit_matches_rational_oracle():
    rng = np.random.default_rng(12)
    for m in (2, 3, 4):
        for _ in range(100):
            r = Fraction(int(rng.integers(-4000, 4000)), 1000)
            s = Fraction(int(rng.integers(-4000, 4000)), 1000)
            expect = exact.sit(m, 34, r, s)
            got = sit(m, 5.0, 3.0, float(r), float(s))
            if math.isnan(expect):
                assert math.isnan(got)
            else:
                assert got == pytest.approx(expect, rel=1e-10, abs=1e-10)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="item 30: the monomial series cancels as m grows, so sit writes wrong values from about m = 12")
@pytest.mark.parametrize("m, sigma, half, count", [
    # deev sit's default grid: sigma = 1, r and s over [-5, 5] in 201 nodes
    pytest.param(20, 1.0, 5.0, 201, id="20"),
    pytest.param(40, 1.0, 5.0, 201, id="40"),
    # the README exit table's rows that accept a high order, each with its widths and grid
    pytest.param(94, 5.0, 5.0, 201, id="sit-m94-sigma5"),
    pytest.param(149, 1.0, 5.0, 201, id="sit-m149"),
    pytest.param(170, 0.7071, 1.0, 5, id="sit-m170-sigma0.7071"),
])
def test_sit_matches_rational_oracle_at_high_order(m, sigma, half, count):
    # 20 seeded nodes of the grid; the axes, where the SIT is 0 or NaN exactly, are left out
    nodes = AxisSpec("r", -half, half, count).nodes()
    d = 2 * Fraction(sigma) ** 2
    rng = random.Random(30)
    worst = 0.0
    for _ in range(20):
        r, s = float(nodes[rng.randrange(count)]), float(nodes[rng.randrange(count)])
        if r and s:
            expect = exact.sit(m, d, r, s)
            worst = max(worst, abs(sit(m, sigma, sigma, r, s) - expect) / abs(expect))
    assert worst <= 1e-9


SIT_GRID = GridSpec(axis1=AxisSpec("r", -5.0, 5.0, 101), axis2=AxisSpec("s", -5.0, 5.0, 101))


def test_sit_field_m1_antisymmetric_and_diagonal():
    f = sit_field(1, 5.0, 3.0, SIT_GRID)
    vals = f.values
    # s -> -s flips the sign (grid symmetric about s = 0)
    flipped = vals[:, ::-1]
    mask = ~np.isnan(vals)
    assert np.max(np.abs(vals[mask] + flipped[mask])) <= 1e-12
    # constant 1 along the r = s diagonal away from the origin
    diag = np.diagonal(vals)
    nz = np.abs(SIT_GRID.axis1.nodes()) > 1e-9
    assert np.max(np.abs(diag[nz] - 1.0)) <= 1e-12
    assert f.metadata["clamp_cap"]


def test_sit_field_m3_has_negative_values():
    f = sit_field(3, 5.0, 3.0, SIT_GRID)
    finite = f.values[np.isfinite(f.values)]
    assert finite.min() < 0


def test_sit_field_builds_its_coefficients_once(monkeypatch):
    # each exact series starts from Fraction(-1, 2); the module seen by the import records each start
    calls = []
    monkeypatch.setitem(sys.modules, "fractions",
                        SimpleNamespace(Fraction=lambda *args: calls.append(args) or Fraction(*args)))
    monkeypatch.setattr(gridio, "_BLOCK_NODES", 8 * 101)    # 13 row blocks of the 101-column grid
    f = sit_field(6, 5.0, 3.0, SIT_GRID, threads=2)
    assert calls == [(-1, 2)]
    rr, ss = np.meshgrid(SIT_GRID.axis1.nodes(), SIT_GRID.axis2.nodes(), indexing="ij")
    assert np.array_equal(f.values, sit(6, 5.0, 3.0, rr, ss), equal_nan=True)


def test_sit_field_refuses_a_bool_order():
    # True is an int, so it was accepted and written to the CSV header as m=True
    with pytest.raises(ValueError, match="^SIT needs m >= 1 .*; got True$"):
        sit_field(True, 1.0, 1.0, SIT_GRID)


def test_alp_eval_refuses_a_bool_order():
    # True is an int, so alp_eval(True, 0.0, 2.0) returned L_1(2) = -1.0
    with pytest.raises(ValueError, match="^polynomial order must be a nonnegative integer, got True$"):
        wigner.alp_eval(True, 0.0, 2.0)


def test_sit_field_rejects_a_zero_width():
    with pytest.raises(ValueError, match="^beam widths must be positive$"):
        sit_field(1, 0.0, 1.0, SIT_GRID)


def test_sit_field_label_check():
    with pytest.raises(ValueError, match="axes"):
        sit_field(1, 1.0, 1.0, GridSpec(axis1=AxisSpec("x", -1, 1, 11), axis2=AxisSpec("s", -1, 1, 11)))


# ------------------------------------------------- printed 2D reduction forms

def _candidate_2d_formulas(p, plane, a1, a2):
    """The six reduced expressions written out directly (regression oracle
    for the pinned candidate form)."""
    from deev.wigner import alp_eval

    sx, sy = p.sigma_x, p.sigma_y
    K = candidate_constant(p.m, sx, sy)
    d = sx ** 2 + sy ** 2
    coords = {"x": p.x0, "y": p.y0, "px": p.px0, "py": p.py0}
    coords[PLANES[plane][0]] = a1
    coords[PLANES[plane][1]] = a2
    dx, dy = coords["x"] - p.x0, coords["y"] - p.y0
    dpx, dpy = coords["px"] - p.px0, coords["py"] - p.py0
    # the eight shifted-and-scaled variables of the candidate form's docstring
    x1, y1, px1, py1 = dx / sx, dy / sy, sx * dpx / SQRT2, sy * dpy / SQRT2
    x2, y2 = sy * dx / (2.0 * sx), sx * dy / (2.0 * sy)
    px2, py2 = sy ** 3 * dpx / SQRT2, sx ** 3 * dpy / SQRT2
    gauss_terms = {
        "xy": (x1, y1), "pxpy": (px1, py1),
        "xpx": (x1, px1), "ypy": (y1, py1),
        "xpy": (x1, py1), "ypx": (y1, px1)}
    alp_args = {
        "xy": (y2 + x2) ** 2, "pxpy": (py2 + px2) ** 2,
        "xpx": (px2 - x2) ** 2, "ypy": (py2 - y2) ** 2,
        "xpy": (py2 - x2) ** 2, "ypx": (px2 - y2) ** 2}
    g1, g2 = gauss_terms[plane]
    return K * math.exp(-(g1 ** 2 + g2 ** 2)) * alp_eval(p.m, -0.5, alp_args[plane] / d)


def test_pinned_candidate_slices_reproduce_reduced_forms():
    # sum forms emerge in the two same-quadrature planes, difference forms
    # in the four mixed planes, purely from pinning the 4D expression
    p = DeevParams.tied(3, 5.0, 3.0, x0=1.0, py0=0.2)
    rng = np.random.default_rng(14)
    for plane in PLANES:
        grid = canonical_slice_grid(p, plane)
        f = wigner_slice(p, grid, form="candidate")
        n1, n2 = grid.axis1.nodes(), grid.axis2.nodes()
        for _ in range(10):
            i, j = rng.integers(0, len(n1), 2)
            direct = _candidate_2d_formulas(p, plane, n1[i], n2[j])
            assert f.values[i, j] == pytest.approx(direct, rel=1e-12, abs=1e-300)


# ------------------------------------------------- full oracle sweep

def test_oracle_equivalence_all_parameter_sets():
    """Closed form vs transform oracle across the full (m, widths) matrix."""
    from deev.oracle import oracle_wigner

    rng = np.random.default_rng(101)
    worst = 0.0
    for sx, sy in ((1.0, 1.0), (5.0, 3.0), (2.0, 0.7)):
        for m in range(4):
            p = DeevParams.tied(m, sx, sy)
            used = 0
            while used < 200:
                a, b, pp, qq = rng.uniform(-1.8, 1.8, 4)
                pt = (a * sx, b * sy, pp / sx, qq / sy)
                w_cf = wigner4d(p, *pt)
                if abs(w_cf) < 1e-6:
                    continue
                w_or, _ = oracle_wigner(p, *pt)
                worst = max(worst, abs(w_or - w_cf) / abs(w_cf))
                used += 1
    assert worst <= 1e-6


def test_derived_example_point_matches_oracle():
    from deev.oracle import oracle_wigner

    p = DeevParams.tied(3, 5.0, 3.0)
    w_cf = wigner4d(p, 1.0, 1.0, 0.1, -0.1)
    w_or, _ = oracle_wigner(p, 1.0, 1.0, 0.1, -0.1)
    assert w_or == pytest.approx(w_cf, rel=1e-6)


def test_constant_helpers_and_type():
    for m, sx, sy in [(0, 1.0, 1.0), (3, 5.0, 3.0), (4, 2.0, 0.7)]:
        expect = (2.0 ** (m - 4) * math.factorial(m)
                  / (math.pi * math.sqrt(math.pi) * math.gamma(m + 0.5))
                  * (-2.0 * (sx * sx + sy * sy)) ** m)
        assert candidate_constant(m, sx, sy) == pytest.approx(expect, rel=1e-13)
    assert standard_constant(0) == pytest.approx(1.0 / math.pi ** 2, rel=1e-15)
    assert -1.0 / math.pi ** 2 == standard_constant(1)


def test_wigner4d_normalizes_to_one():
    # tensor Gauss-Legendre over the scaled box (dx dpx = dA dP, Jacobian 1)
    nodes, weights = np.polynomial.legendre.leggauss(48)
    half = 7.0
    a = half * nodes
    w = half * weights
    for m, sx, sy in [(0, 1.0, 1.0), (2, 5.0, 3.0), (3, 2.0, 0.7)]:
        p = DeevParams.tied(m, sx, sy, x0=1.0, px0=0.2)
        A = a[:, None, None, None]
        B = a[None, :, None, None]
        P = a[None, None, :, None]
        Q = a[None, None, None, :]
        vals = wigner4d(p, p.x0 + sx * A, p.y0 + sy * B, p.px0 + P / sx, p.py0 + Q / sy)
        total = np.einsum("i,j,k,l,ijkl->", w, w, w, w, vals)
        assert total == pytest.approx(1.0, abs=1e-4)


def test_wigner4d_marginal_is_intensity():
    from deev.state import psi

    nodes, weights = np.polynomial.legendre.leggauss(48)
    half = 7.0
    pn = half * nodes
    pw = half * weights
    p = DeevParams.tied(3, 5.0, 3.0)
    rng = np.random.default_rng(23)
    for _ in range(50):
        x = 5.0 * rng.uniform(-1.5, 1.5)
        y = 3.0 * rng.uniform(-1.5, 1.5)
        vals = wigner4d(p, x, y, pn[:, None] / 5.0, pn[None, :] / 3.0)
        marginal = float(pw @ vals @ pw) / (5.0 * 3.0)  # dpx dpy = dP dQ / (sx sy)
        assert marginal == pytest.approx(abs(psi(p, x, y)) ** 2, abs=1e-5)


def test_closed_form_marginal_is_intensity_exactly():
    # verify's marginal, an exact (m+2)-node integral over (P, Q), is sigma_x sigma_y |psi|^2 at the lab
    # point on seeded displaced tied states: m 0-10, 40, 100, 129, widths 10^U(-3, 3), at 3 points each near
    # the intensity ring (scaled radius sqrt(m)), where |psi|^2 is not negligible, drawn by the suite's own
    # helper; tolerance 1e-13 absolute
    from deev.verify import _marginal_deviation

    rng = np.random.default_rng(41)
    for m in [*range(11), 40, 100, 129]:
        sx, sy = 10.0 ** rng.uniform(-3.0, 3.0, 2)
        x0, y0, px0, py0 = rng.uniform(-2.0, 2.0, 4)
        p = DeevParams.tied(m, sx, sy, sign=int(rng.choice((-1, 1))), x0=x0, y0=y0, px0=px0, py0=py0)
        assert _marginal_deviation(p, 3, rng) <= 1e-13, p


def _identity_states(beyond=()):
    """Seeded tied states: m 0-10, then each order of ``beyond``; widths 10^U(-1, 1), random displacements and sign.

    The states of ``beyond`` are drawn after the first eleven, which stay the same whatever ``beyond`` is.
    """
    rng = np.random.default_rng(1984)
    for m in [*range(11), *beyond]:
        sx, sy = 10.0 ** rng.uniform(-1.0, 1.0, 2)
        x0, y0, px0, py0 = rng.uniform(-2.0, 2.0, 4)
        yield DeevParams.tied(m, sx, sy, sign=int(rng.choice((-1, 1))), x0=x0, y0=y0, px0=px0, py0=py0)


def _gauss_hermite_sum(p, n, scale, integrand):
    """Sum of integrand(W) over the n^4 Gauss-Hermite rule in the scaled (A, B, P, Q), nodes times scale.

    In scaled coordinates d^4z = dA dB dP dQ (Jacobian 1), and W is exp(-(A^2+B^2+P^2+Q^2)) times a
    polynomial; the weights carry exp(s^2), the envelope at unit scale.
    """
    s, w = np.polynomial.hermite.hermgauss(n)
    shapes = [[-1 if i == k else 1 for i in range(4)] for k in range(4)]    # axis k varies along dimension k
    weight = math.prod((w * np.exp(s * s)).reshape(shape) for shape in shapes)
    z = p.phase_point(*(s.reshape(shape) * scale for shape in shapes))
    return float(np.sum(weight * integrand(wigner4d(p, *z))))


def test_wigner4d_integrates_to_one_exactly():
    # an (m+1)-node rule per axis integrates the degree-2m polynomial exactly; tolerance 1e-13 absolute
    for p in _identity_states(beyond=(15, 20, 30)):
        assert abs(_gauss_hermite_sum(p, p.m + 1, 1.0, lambda v: v) - 1.0) <= 1e-13, p


def test_wigner4d_is_pure():
    # a pure two-mode state has (2 pi)^2 integral W^2 d^4z = 1. W^2 is exp(-2|z|^2) times a degree-4m
    # polynomial: s -> s / sqrt(2) gives a factor 1/4 and a (2m+1)-node rule; tolerance 1e-13 absolute.
    # m = 25 would take 51^4 nodes
    for p in _identity_states(beyond=(15, 20)):
        purity = (2.0 * math.pi) ** 2 / 4.0 * _gauss_hermite_sum(p, 2 * p.m + 1, 1.0 / SQRT2, np.square)
        assert abs(purity - 1.0) <= 1e-13, p


def test_xy_slice_zero_ring_count():
    # along the major axis from the core, the position slice changes sign at
    # each Laguerre root: m elliptical zero rings
    for m in (1, 2, 3):
        p = DeevParams.tied(m, 5.0, 3.0)
        xs = np.linspace(0.0, 4.0 * 5.0, 4001)
        vals = wigner4d(p, xs, 0.0, 0.0, 0.0)
        crossings = int(np.sum(np.sign(vals[1:]) * np.sign(vals[:-1]) < 0))
        assert crossings == m
