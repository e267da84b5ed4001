import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import binom, eval_genlaguerre, eval_hermite

from deev.special import alp_coeffs, alp_eval, gamma_half_integer


def quadratic_alp(alpha, z):
    # independent closed form: L_2^a(z) = (a+1)(a+2)/2 - (a+2) z + z^2/2
    return (alpha + 1) * (alpha + 2) / 2 - (alpha + 2) * z + z * z / 2


def series_coeffs(m, alpha):
    # exact series coefficients from c_0 = C(m + a, m) and the term ratio
    # c_k / c_{k-1} = -(m - k + 1) / (k (k + a))
    a = Fraction(alpha)
    c = Fraction(1)
    for i in range(1, m + 1):
        c *= (a + i) / i
    out = [c]
    for k in range(1, m + 1):
        c *= -Fraction(m - k + 1, k) / (a + k)
        out.append(c)
    return out


def exact_poly(coeffs, z):
    # the series cancels heavily (condition up to ~1e7 on z <= 100, m <= 12),
    # so it is summed in exact rationals and rounded once
    zf = Fraction(float(z))
    return float(sum(Fraction(c) * zf ** k for k, c in enumerate(coeffs)))


def hermite_route(m, x):
    # H_{2m}(x) = (-1)^m 2^{2m} m! L_m^{-1/2}(x^2), independent of alp_eval
    return float(eval_hermite(2 * m, x)) * (-1.0) ** m / (4.0 ** m * math.factorial(m))


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
    for alpha in (-1.0, -1.5, -3.0):       # the coefficient recurrence divides by k + alpha
        with pytest.raises(ValueError, match="alpha > -1"):
            alp_coeffs(2, alpha)


def test_coeffs_examples():
    assert alp_coeffs(0, -0.5) == (1.0,)
    assert alp_coeffs(1, -0.5) == pytest.approx((0.5, -1.0))
    c3 = alp_coeffs(3, -0.5)
    assert len(c3) == 4
    assert c3[0] == pytest.approx(5.0 / 16.0, abs=1e-15)


def test_coeffs_match_recurrence_at_sample_points():
    c3 = alp_coeffs(3, -0.5)
    for z in np.linspace(0.0, 40.0, 20):
        rec = alp_eval(3, -0.5, float(z))
        assert exact_poly(c3, z) == pytest.approx(rec, rel=1e-10, abs=1e-12)


def test_recurrence_vs_series_property():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        m = int(rng.integers(0, 13))
        alpha = float(rng.uniform(-0.9, 3.0))
        z = float(rng.uniform(0.0, 100.0))
        a = alp_eval(m, alpha, z)
        exact = series_coeffs(m, alpha)
        assert alp_coeffs(m, alpha) == tuple(float(c) for c in exact)
        assert exact_poly(exact, z) == pytest.approx(a, rel=1e-10, abs=1e-10)


def test_value_at_zero_is_binomial():
    for m in range(13):
        for alpha in (-0.5, 0.0, 0.7, 2.0):
            expect = float(binom(m + alpha, m))
            assert alp_eval(m, alpha, 0.0) == pytest.approx(expect, rel=1e-14, abs=1e-14)


def test_against_scipy():
    rng = np.random.default_rng(5)
    for _ in range(200):
        m = int(rng.integers(0, 10))
        alpha = float(rng.choice([-0.5, 0.0, 1.0]))
        z = float(rng.uniform(0.0, 60.0))
        assert alp_eval(m, alpha, z) == pytest.approx(
            float(eval_genlaguerre(m, alpha, z)), rel=1e-9, abs=1e-9)


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


def test_gamma_half_integer_values():
    assert gamma_half_integer(0) == pytest.approx(math.sqrt(math.pi), rel=1e-15)
    assert gamma_half_integer(1) == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-15)
    assert gamma_half_integer(3) == pytest.approx(math.gamma(3.5), rel=1e-14)
