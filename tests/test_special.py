import math

import numpy as np
import pytest

from deev.wigner import alp_eval
from deev.wigner import _sit_coeffs

from exact import hermite, laguerre, laguerre_series, polynomial


def quadratic_alp(alpha, z):
    # independent closed form: L_2^a(z) = (a+1)(a+2)/2 - (a+2) z + z^2/2
    return (alpha + 1) * (alpha + 2) / 2 - (alpha + 2) * z + z * z / 2


def hermite_route(m, x):
    # H_{2m}(x) = (-1)^m 2^{2m} m! L_m^{-1/2}(x^2), independent of alp_eval
    return hermite(2 * m, x) * (-1.0) ** m / (4.0 ** m * math.factorial(m))


def test_order_zero_is_one():
    for z in (-3.0, 0.0, 0.5, 17.0, 100.0):
        assert alp_eval(0, -0.5, z) == 1.0


def test_order_one_closed_form():
    for z in (-1.0, 0.0, 0.25, 2.0, 50.0):
        assert alp_eval(1, -0.5, z) == pytest.approx(0.5 - z, abs=1e-14)


def test_order_two_value():
    assert alp_eval(2, -0.5, 2.0) == pytest.approx(-0.625, abs=1e-14)
    assert quadratic_alp(-0.5, 2.0) == pytest.approx(-0.625, abs=1e-15)


def test_vectorized_matches_scalar():
    z = np.linspace(0, 30, 7)
    vals = alp_eval(4, -0.5, z)
    assert vals.shape == z.shape
    for zi, vi in zip(z, vals):
        assert alp_eval(4, -0.5, float(zi)) == vi


def test_negative_order_rejected():
    with pytest.raises(ValueError):
        alp_eval(-1, 0.0, 1.0)


def half_coeffs(m):
    # the SIT's coefficients of L_m^{-1/2}, unscaled: at sigma = 1, c_k / 2^k is exact
    return [c * 2.0 ** k for k, c in enumerate(_sit_coeffs(m, 1.0, 1.0))]


def test_coeffs_examples():
    with pytest.raises(ValueError, match="m >= 1"):
        _sit_coeffs(0, 1.0, 1.0)
    assert half_coeffs(1) == pytest.approx([0.5, -1.0])
    c3 = half_coeffs(3)
    assert len(c3) == 4
    assert c3[0] == pytest.approx(5.0 / 16.0, abs=1e-15)


def test_coeffs_match_recurrence_at_sample_points():
    c3 = half_coeffs(3)
    for z in np.linspace(0.0, 40.0, 20):
        rec = alp_eval(3, -0.5, float(z))
        assert float(polynomial(c3, z)) == pytest.approx(rec, rel=1e-10, abs=1e-12)


def test_recurrence_vs_series_property():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        m = int(rng.integers(0, 13))
        alpha = float(rng.uniform(-0.9, 3.0))
        z = float(rng.uniform(0.0, 100.0))
        a = alp_eval(m, alpha, z)
        assert laguerre(m, alpha, z) == pytest.approx(a, rel=1e-10, abs=1e-10)


def test_value_at_zero_is_binomial():
    for m in range(13):
        for alpha in (-0.5, 0.0, 0.7, 2.0):
            expect = float(laguerre_series(m, alpha)[0])     # C(m + alpha, m)
            assert alp_eval(m, alpha, 0.0) == pytest.approx(expect, rel=1e-14, abs=1e-14)


def test_against_scipy():
    rng = np.random.default_rng(5)
    for _ in range(200):
        m = int(rng.integers(0, 10))
        alpha = float(rng.choice([-0.5, 0.0, 1.0]))
        z = float(rng.uniform(0.0, 60.0))
        assert alp_eval(m, alpha, z) == pytest.approx(
            laguerre(m, alpha, z), rel=1e-9, abs=1e-9)


def test_rodrigues_examples():
    assert hermite_route(0, 1.0) == 1.0
    assert hermite_route(1, 1.0) == pytest.approx(-0.5, abs=1e-14)
    assert hermite_route(3, 0.7) == pytest.approx(alp_eval(3, -0.5, 0.49), abs=1e-10)


def test_rodrigues_hermite_connection_property():
    rng = np.random.default_rng(3)
    for _ in range(300):
        m = int(rng.integers(0, 9))
        x = float(rng.uniform(-5.0, 5.0))
        lhs = hermite_route(m, x)
        rhs = alp_eval(m, -0.5, x * x)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


_SEEDED_WIDTHS = 10.0 ** np.random.default_rng(17).uniform(-2, 2, (6, 2))
_WIDTHS = [(5.0, 3.0), (1.0, 1.0), *map(tuple, _SEEDED_WIDTHS.tolist())]


def test_sit_coeffs_are_the_exact_series_rounded_once():
    # each c_k of L_m^{-1/2} rounded once, then divided by (sigma_x^2 + sigma_y^2)^k in floats;
    # where one of those leaves the normal range the order is rejected
    for m in range(1, 171):
        cs = [float(c) for c in laguerre_series(m, -0.5)]
        for sx, sy in _WIDTHS:
            d = sx ** 2 + sy ** 2
            try:
                expect = [c / d ** k for k, c in enumerate(cs)]
            except OverflowError:
                expect = [math.inf]
            if all(np.finfo(float).tiny <= abs(c) < math.inf for c in expect):
                assert _sit_coeffs(m, sx, sy) == expect, (m, sx, sy)
            else:
                with pytest.raises(OverflowError, match=f"^the SIT coefficients at m={m} "):
                    _sit_coeffs(m, sx, sy)
