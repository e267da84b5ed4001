import math
import warnings
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest

from deev import wigner
from deev.gridio import AxisSpec, GridSpec
from deev.state import DeevParams, intensity_field, psi
from deev.wigner import wigner4d


def norm_quadrature(params):
    """The |psi|^2 integral by the trapezoid rule on a 201^2 lab-frame grid over 8 widths either side of the centre.

    |psi|^2 is a polynomial times a Gaussian, so the rule converges geometrically: at a spacing of 0.08 widths
    its own error and the tails past 8 widths are below 1e-20 for m <= 3, and what remains is the rounding of
    the sum, 1e-14 on the states here.
    """
    n = 201
    x = np.linspace(params.x0 - 8.0 * params.sigma_x, params.x0 + 8.0 * params.sigma_x, n)
    y = np.linspace(params.y0 - 8.0 * params.sigma_y, params.y0 + 8.0 * params.sigma_y, n)
    v = psi(params, x[:, None], y[None, :])
    wx, wy = np.full(n, x[1] - x[0]), np.full(n, y[1] - y[0])
    wx[[0, -1]] /= 2.0
    wy[[0, -1]] /= 2.0
    return float(wx @ (v.real ** 2 + v.imag ** 2) @ wy)


def analytic_tied_norm(m, sx, sy, h):
    """Closed form for tied weights eta_i sigma_i = h: (pi m! sx sy h^(2m))^(-1/2), through lgamma."""
    return math.exp(-0.5 * (math.log(math.pi * sx * sy) + math.lgamma(m + 1.0) + 2 * m * math.log(h)))


def test_validation():
    with pytest.raises(ValueError):
        DeevParams(m=-1, eta_x=1.0, eta_y=1.0)
    with pytest.raises(ValueError):
        DeevParams(m=2, eta_x=0.0, eta_y=0.0)
    with pytest.raises(ValueError):
        DeevParams(m=2, eta_x=1.0, eta_y=1.0, sign=2)
    with pytest.raises(ValueError):
        DeevParams.from_sigmas(1, -1.0, 2.0, eta_x=1.0, eta_y=1.0)


_FLOAT_FIELDS = [f.name for f in fields(DeevParams) if f.type is float]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", _FLOAT_FIELDS)
def test_every_float_field_must_be_finite(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        DeevParams(**{"m": 1, "eta_x": 1.0, "eta_y": 1.0, name: value})


@pytest.mark.parametrize("width", [0.0, -0.0, -1.0])
def test_every_construction_path_checks_the_widths(width):
    for build in (lambda: DeevParams(m=1, eta_x=1.0, eta_y=1.0, sigma_x=width),
                  lambda: DeevParams(m=1, eta_x=1.0, eta_y=1.0, sigma_y=width),
                  lambda: DeevParams.from_sigmas(1, 1.0, width, eta_x=1.0, eta_y=1.0),
                  # the tied weight 1 / (sqrt(2) sigma) divided by the zero width first
                  lambda: DeevParams.tied(1, width, 1.0),
                  lambda: replace(DeevParams.tied(1, 1.0, 1.0), sigma_x=width)):
        with pytest.raises(ValueError, match="^beam widths must be positive$"):
            build()


def test_a_bool_vorticity_is_refused():
    # True is an int, so it was accepted and written to the CSV header as m=True
    with pytest.raises(ValueError, match="^vorticity m must be a nonnegative integer, got True$"):
        DeevParams.tied(True, 1.0, 1.0)
    with pytest.raises(ValueError, match="^vorticity m must be a nonnegative integer, got False$"):
        DeevParams(m=False, eta_x=1.0, eta_y=1.0)


@pytest.mark.parametrize("sigma", [1e-160, 1e200])
def test_weights_whose_squares_leave_the_double_range(sigma):
    # eta = 1/(sqrt(2) sigma): its square overflows at 1e-160 and underflows to 0 at 1e200,
    # but only weights that are both zero vanish
    p = DeevParams.tied(1, sigma, sigma)
    assert p.eta_x == p.eta_y == 1.0 / (math.sqrt(2) * sigma)


def test_sigma_accessors():
    p = DeevParams(m=0, eta_x=1.0, eta_y=1.0, sigma_x=5.0)
    assert p.sigma_x == 5.0 and p.sigma_y == 1.0
    # the constructors keep the rounding of the former half-log storage until ROADMAP item 5's golden re-record
    rounded = math.exp(math.log(5.0))
    assert rounded == 4.999999999999999
    assert DeevParams.from_sigmas(0, 5.0, 1.0, eta_x=1.0, eta_y=1.0).sigma_x == rounded
    assert DeevParams.tied(0, 5.0, 1.0).sigma_x == rounded


def test_tied_constructor():
    p = DeevParams.tied(3, 5.0, 3.0)
    assert p.eta_x == pytest.approx(1.0 / (math.sqrt(2) * 5.0), rel=1e-15)
    assert p.eta_y == pytest.approx(1.0 / (math.sqrt(2) * 3.0), rel=1e-15)
    wigner._require_tied(p, "wigner")
    with pytest.raises(ValueError, match="requires eta_x sigma_x == eta_y sigma_y"):
        wigner._require_tied(DeevParams.from_sigmas(3, 5.0, 3.0, eta_x=0.5, eta_y=0.9), "wigner")


def test_norm_constant_matches_analytic_tied():
    for m, sx, sy in [(0, 1.0, 1.0), (1, 5.0, 3.0), (3, 5.0, 3.0), (4, 2.0, 0.7)]:
        # norm_constant normalizes the bracket in the weights of p.scaled
        p = DeevParams.tied(m, sx, sy)
        assert p.norm_constant == pytest.approx(analytic_tied_norm(m, sx, sy, p.scaled.eta_x), rel=1e-13)


def test_normalization_fig2_parameters():
    p = DeevParams.tied(3, 5.0, 3.0, x0=2.0, y0=4.0)
    assert norm_quadrature(p) == pytest.approx(1.0, abs=1e-8)


def test_normalization_untied():
    p = DeevParams.from_sigmas(2, 2.0, 0.7, eta_x=0.9, eta_y=0.3, px0=0.4)
    assert norm_quadrature(p) == pytest.approx(1.0, abs=1e-8)


def test_core_zero_and_gaussian_limit():
    p = DeevParams.tied(3, 5.0, 3.0, x0=2.0, y0=4.0)
    assert psi(p, 2.0, 4.0) == 0.0
    p0 = DeevParams.tied(0, 5.0, 3.0, x0=2.0, y0=4.0)
    vals = abs(psi(p0, np.linspace(-10, 14, 41), np.full(41, 4.0))) ** 2
    assert np.argmax(vals) == 20  # node at x = 2


def test_displacement_covariance_pointwise():
    p = DeevParams.tied(2, 5.0, 3.0, x0=2.0, y0=4.0, px0=0.3, py0=-0.2)
    base = DeevParams.tied(2, 5.0, 3.0)
    rng = np.random.default_rng(1)
    for _ in range(50):
        x, y = rng.uniform(-10, 10, 2)
        expected = (psi(base, x - 2.0, y - 4.0)
                    * np.exp(1j * (0.3 * (x - 2.0) - 0.2 * (y - 4.0))))
        assert psi(p, x, y) == pytest.approx(expected, abs=1e-12)


def test_momentum_phase_leaves_intensity():
    still = DeevParams.tied(2, 5.0, 3.0)
    moving = DeevParams.tied(2, 5.0, 3.0, px0=0.7, py0=-0.4)
    x, y = 1.3, -0.8
    assert abs(psi(moving, x, y)) == pytest.approx(abs(psi(still, x, y)), rel=1e-15)


FIG2_GRID = GridSpec(axis1=AxisSpec("x", -15.0, 19.0, 201), axis2=AxisSpec("y", -11.0, 19.0, 201))


def test_intensity_core_node():
    p = DeevParams.tied(3, 5.0, 3.0, x0=2.0, y0=4.0)
    f = intensity_field(p, FIG2_GRID)
    xs, ys = f.spec.axis1.nodes(), f.spec.axis2.nodes()
    i = int(np.argmin(np.abs(xs - 2.0)))
    j = int(np.argmin(np.abs(ys - 4.0)))
    assert f.values[i, j] <= 1e-20
    assert f.values.min() == f.values[i, j]


def test_intensity_m0_single_maximum():
    p = DeevParams.tied(0, 5.0, 3.0, x0=2.0, y0=4.0)
    f = intensity_field(p, FIG2_GRID)
    assert (f.values > 0).all()
    peak = np.unravel_index(np.argmax(f.values), f.values.shape)
    assert f.spec.axis1.nodes()[peak[0]] == pytest.approx(2.0, abs=0.2)
    assert f.spec.axis2.nodes()[peak[1]] == pytest.approx(4.0, abs=0.2)


def test_intensity_sigma_swap_transposes():
    p = DeevParams.tied(3, 5.0, 3.0, x0=2.0, y0=4.0)
    f = intensity_field(p, FIG2_GRID)
    swapped_grid = GridSpec(axis1=AxisSpec("x", -11.0, 19.0, 201), axis2=AxisSpec("y", -15.0, 19.0, 201))
    fs = intensity_field(p.swapped(), swapped_grid)
    assert np.max(np.abs(fs.values - f.values.T)) <= 1e-10


def test_normalization_wide_parameter_range():
    # widths spanning [0.5, 8] and orders up to 6
    from deev.oracle import oracle_norm

    for m, sx, sy in [(5, 0.5, 0.5), (6, 8.0, 0.5), (6, 1.0, 4.0)]:
        p = DeevParams.tied(m, sx, sy, y0=1.0)
        assert oracle_norm(p) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("m", [140, 200])
def test_norm_constant_out_of_range_raises(m):
    # the |psi|^2 integral in the given weights overflows (to inf at m = 140, to nan at m = 200); in the
    # scaled weights it is a normal double, and the constant and psi match the lgamma closed forms
    p = DeevParams.tied(m, 5.0, 3.0)
    assert p.norm_constant == pytest.approx(analytic_tied_norm(m, 5.0, 3.0, p.scaled.eta_x), rel=1e-12)
    a, b = math.sqrt(m) * np.array([0.6, 1.0, 1.3]), np.array([0.1, 0.0, -0.4])     # on and beside the ring
    want = np.exp(m * np.log(a * a + b * b) - (a * a + b * b) - math.log(15 * math.pi) - math.lgamma(m + 1.0))
    x, y, _, _ = p.phase_point(a, b, 0.0, 0.0)
    np.testing.assert_allclose(np.abs(psi(p, x, y)) ** 2, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("m", [0, 1, 4])
def test_norm_constant_across_the_width_range(m):
    # N sqrt(sigma_x sigma_y) does not depend on the widths. Out here sigma_x sigma_y S is subnormal, zero or
    # inf; through a subnormal product N lost digits (1.3e-2 relative at sigma = 1e-161)
    for sx, sy in [(1e-150, 1e-150), (1e-158, 1e-158), (1e-161, 1e-161), (1e-100, 1e-222), (1e-300, 1e-300),
                   (1e200, 1e200), (1e300, 1e-300)]:
        p = DeevParams.tied(m, sx, sy)
        want = analytic_tied_norm(m, 1.0, 1.0, p.scaled.eta_x)
        assert p.norm_constant * math.sqrt(p.sigma_x) * math.sqrt(p.sigma_y) == pytest.approx(want, rel=1e-12)


def _frame_draws(seed, n):
    """Seeded states, tied and untied, displaced up to 2 widths, widths 10^U(-3, 3); with the displacement in widths."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        m = int(rng.integers(0, 21))
        sx, sy = 10.0 ** rng.uniform(-3.0, 3.0, 2)
        d = rng.uniform(-2.0, 2.0, 4)
        kw = dict(sign=int(rng.choice([-1, 1])), x0=d[0] * sx, y0=d[1] * sy, px0=d[2] / sx, py0=d[3] / sy)
        if i % 2:
            yield DeevParams.tied(m, sx, sy, **kw), d
        else:
            hx, hy = rng.uniform(0.2, 2.0, 2)
            yield DeevParams.from_sigmas(m, sx, sy, eta_x=hx / sx, eta_y=hy / sy, **kw), d


def test_offsets_invert_phase_point():
    rng = np.random.default_rng(27)
    for p, d in _frame_draws(27, 200):
        want = rng.uniform(-3.0, 3.0, 4)
        got = p.offsets(*p.phase_point(*want))
        # x0 + a sigma rounds to an ulp of x, which is |a + d| widths from the origin
        for g, w, c in zip(got, want, d):
            assert abs(g - w) <= 4 * math.ulp(abs(w) + abs(c)), (p, want, got)


def test_scaled_state_is_psi_in_its_own_frame():
    rng = np.random.default_rng(15)
    for p, _ in _frame_draws(15, 200):
        s = p.scaled
        assert (s.sigma_x, s.sigma_y, s.x0, s.y0, s.px0, s.py0) == (1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
        a, b = rng.uniform(-2.5, 2.5, 2)
        x, y, _, _ = p.phase_point(a, b, 0.0, 0.0)
        want = math.sqrt(p.sigma_x) * math.sqrt(p.sigma_y) * abs(psi(p, x, y))
        assert abs(psi(s, a, b)) == pytest.approx(want, rel=1e-13), (p, a, b)


def test_swapped_is_the_mode_exchange():
    # the exchange turns the vortex the other way; a swapped() that kept the sign fails both identities
    rng = np.random.default_rng(28)
    for p, _ in _frame_draws(28, 200):
        if p.m == 0:
            continue
        s = p.swapped()
        x, y, px, py = p.phase_point(*rng.uniform(-2.0, 2.0, 4))
        assert (1j * p.sign) ** p.m * psi(s, y, x) == pytest.approx(psi(p, x, y), rel=1e-13), p
        if _tie_verdict(p):
            assert abs(wigner4d(s, y, x, py, px) - wigner4d(p, x, y, px, py)) <= 1e-15, p


def _intensity(p, x, y):
    """|psi|^2 at the points; p.norm_constant is forced first, as field and verify do before sampling."""
    p.norm_constant
    return np.abs(psi(p, x, y)) ** 2


def _tie_verdict(p):
    """True if ``wigner._require_tied`` accepts p, False if it calls p untied."""
    try:
        wigner._require_tied(p, "wigner")
    except ValueError as err:
        assert "requires eta_x sigma_x == eta_y sigma_y" in str(err)
        return False
    return True


def test_only_the_weight_ratio_is_physical():
    # the weights times 10^k (each rounded once) are the same state: |psi|^2 and the tie verdict stay for
    # every k where both weights are normal doubles. The scales span the double range, where eta_i sigma_i
    # underflows or overflows. A subnormal weight has lost digits of the ratio, so that state is compared
    # with the same two doubles times an exact power of two that brings them into the normal range
    rng = np.random.default_rng(45)
    under = over = subnormal = 0
    for i in range(12):
        m = int(rng.integers(0, 9))
        sx, sy = (float(v) for v in 10.0 ** rng.uniform(-2.0, 2.0, 2))
        kw = dict(sign=int(rng.choice([-1, 1])), x0=rng.uniform(-1.0, 1.0), py0=rng.uniform(-1.0, 1.0))
        if i % 2:
            p = DeevParams.tied(m, sx, sy, **kw)
        else:
            hx, hy = (float(v) for v in 10.0 ** rng.uniform(-1.0, 1.0, 2))
            p = DeevParams.from_sigmas(m, sx, sy, eta_x=hx / sx, eta_y=hy / sy, **kw)
        x, y, _, _ = p.phase_point(*rng.uniform(-2.5, 2.5, (2, 5)), 0.0, 0.0)
        want, tied = _intensity(p, x, y), _tie_verdict(p)
        for k in range(-340, 330):
            try:
                q = replace(p, **{name: float(Fraction(getattr(p, name)) * Fraction(10) ** k)
                                  for name in ("eta_x", "eta_y")})
            except (OverflowError, ValueError):     # a weight that is not a double, or two zero weights
                continue
            h = (q.eta_x * q.sigma_x, q.eta_y * q.sigma_y)
            under += h == (0.0, 0.0)
            over += math.isinf(max(h)) and math.isfinite(min(h))
            got, verdict = _intensity(q, x, y), _tie_verdict(q)
            if min(abs(q.eta_x), abs(q.eta_y)) >= np.finfo(float).tiny:
                assert got == pytest.approx(want, rel=1e-12, abs=0.0), (p, k)
                assert verdict == tied, (p, k, h)
                continue
            # both weights are below 1e-290 here, so 2^1000 brings them into the normal range exactly
            r = replace(q, eta_x=q.eta_x * 2.0 ** 1000, eta_y=q.eta_y * 2.0 ** 1000)
            assert (Fraction(r.eta_x), Fraction(r.eta_y)) == (Fraction(q.eta_x) * 2 ** 1000, Fraction(q.eta_y) * 2 ** 1000)
            assert min(abs(r.eta_x), abs(r.eta_y)) >= np.finfo(float).tiny or 0.0 in (r.eta_x, r.eta_y), (p, k)
            subnormal += 1
            assert np.array_equal(got, _intensity(r, x, y)) and verdict == _tie_verdict(r), (p, k)
    assert under and over and subnormal


def test_huge_weights_give_psi_without_a_warning():
    # at m = 0 the weights only fix the normalization: psi at (3, 1) is exp(-5)/sqrt(pi) for any weights
    params = DeevParams.from_sigmas(0, 1.0, 1.0, 9.7e307, 3.9e307)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = psi(params, 3.0, 1.0)
    want = math.exp(-5.0) / math.sqrt(math.pi)
    assert value.imag == 0.0 and abs(value.real - want) <= math.ulp(want)
