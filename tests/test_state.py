import math

import numpy as np
import pytest
from scipy.integrate import dblquad

from deev.gridio import AxisSpec, GridSpec
from deev.state import DeevParams, intensity_field, psi


def norm_quadrature(params):
    """Independent adaptive-quadrature oracle for the |psi|^2 integral."""
    r = 8.0 * max(params.sigma_x, params.sigma_y)
    val, _ = dblquad(
        lambda y, x: abs(psi(params, x, y)) ** 2,
        params.x0 - r, params.x0 + r,
        params.y0 - r, params.y0 + r,
        epsabs=1e-11, epsrel=1e-10)
    return val


def analytic_tied_norm(m, sx, sy):
    # closed form for the tied weights: 2^(m/2) / sqrt(pi m! sx sy)
    return 2.0 ** (m / 2.0) / math.sqrt(math.pi * math.factorial(m) * sx * sy)


def test_validation():
    with pytest.raises(ValueError):
        DeevParams(m=-1, eta_x=1.0, eta_y=1.0)
    with pytest.raises(ValueError):
        DeevParams(m=2, eta_x=0.0, eta_y=0.0)
    with pytest.raises(ValueError):
        DeevParams(m=2, eta_x=1.0, eta_y=1.0, sign=2)
    with pytest.raises(ValueError):
        DeevParams.from_sigmas(1, -1.0, 2.0, eta_x=1.0, eta_y=1.0)


@pytest.mark.parametrize("sigma", [1e-160, 1e200])
def test_weights_whose_squares_leave_the_double_range(sigma):
    # eta = 1/(sqrt(2) sigma): its square overflows at 1e-160 and underflows to 0 at 1e200,
    # but only weights that are both zero vanish
    p = DeevParams.tied(1, sigma, sigma)
    assert p.eta_x == p.eta_y == 1.0 / (math.sqrt(2) * sigma)


def test_sigma_accessors():
    p = DeevParams(m=0, eta_x=1.0, eta_y=1.0, zeta_x=0.5 * math.log(5.0), zeta_y=0.0)
    assert p.sigma_x == pytest.approx(5.0, rel=1e-15)
    assert p.sigma_y == 1.0


def test_tied_constructor():
    p = DeevParams.tied(3, 5.0, 3.0)
    assert p.eta_x == pytest.approx(1.0 / (math.sqrt(2) * 5.0), rel=1e-15)
    assert p.eta_y == pytest.approx(1.0 / (math.sqrt(2) * 3.0), rel=1e-15)
    assert p.is_eta_tied
    assert not DeevParams.from_sigmas(3, 5.0, 3.0, eta_x=0.5, eta_y=0.9).is_eta_tied


def test_norm_constant_matches_analytic_tied():
    for m, sx, sy in [(0, 1.0, 1.0), (1, 5.0, 3.0), (3, 5.0, 3.0), (4, 2.0, 0.7)]:
        p = DeevParams.tied(m, sx, sy)
        assert p.norm_constant == pytest.approx(analytic_tied_norm(m, sx, sy), rel=1e-13)


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
    from deev.oracle import QuadratureSpec, oracle_norm

    q = QuadratureSpec()
    for m, sx, sy in [(5, 0.5, 0.5), (6, 8.0, 0.5), (6, 1.0, 4.0)]:
        p = DeevParams.tied(m, sx, sy, y0=1.0)
        assert oracle_norm(p, q) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("m", [140, 200])
def test_norm_constant_out_of_range_raises(m):
    # the |psi|^2 integral overflows: to inf at m = 140 (N would be 0.0), to nan at m = 200
    p = DeevParams.tied(m, 5.0, 3.0)
    with pytest.raises(ValueError, match=f"m={m}, sigma_x=5, sigma_y=3"):
        p.norm_constant
    with pytest.raises(ValueError):
        psi(p, 1.0, 1.0)


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
