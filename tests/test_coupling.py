import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from deev.coupling import (DcdcParams, ModeCoupler, bs_coupler, coupler_to_ellipticity, dcdc_coupler,
                           dcdc_time_for_ratio)

SQ2 = math.sqrt(2.0) / 2.0


def phase_residual(c):
    """|a1* a2 + a1 a2*|; zero for phase-matched couplers."""
    return abs(c.a1.conjugate() * c.a2 + c.a1 * c.a2.conjugate())


def test_bs_fifty_fifty():
    c = bs_coupler(math.pi / 4, 0.0)
    assert c.a1 == pytest.approx(SQ2, abs=1e-15)
    assert c.a2 == pytest.approx(-1j * SQ2, abs=1e-15)
    assert phase_residual(c) < 1e-12


def test_bs_identity():
    for phi in (0.0, 1.0, -2.5):
        c = bs_coupler(0.0, phi)
        assert c.a1 == 1.0
        assert abs(c.a2) == 0.0


def test_bs_derived_example():
    c = bs_coupler(math.pi / 3, math.pi / 2)
    assert c.a1 == pytest.approx(0.5, abs=1e-12)
    assert c.a2 == pytest.approx(math.sqrt(3) / 2, abs=1e-12)
    assert abs(c.a1) ** 2 + abs(c.a2) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_dcdc_fifty_fifty():
    c = dcdc_coupler(DcdcParams(g=1.0, delta=0.0, t=math.pi / 4))
    assert c.a1 == pytest.approx(SQ2, abs=1e-15)
    assert c.a2 == pytest.approx(1j * SQ2, abs=1e-15)
    assert phase_residual(c) < 1e-12


def test_dcdc_zero_time():
    c = dcdc_coupler(DcdcParams(g=1.0, delta=0.0, t=0.0))
    assert c.a1 == 1.0 and c.a2 == 0.0


def test_dcdc_derived_example():
    p = DcdcParams(g=3.0, delta=4.0, t=0.1)
    assert p.omega == pytest.approx(5.0)
    c = dcdc_coupler(p)
    assert c.a1 == pytest.approx(math.cos(0.5) - 0.8j * math.sin(0.5), abs=1e-14)
    assert c.a2 == pytest.approx(0.6j * math.sin(0.5), abs=1e-14)
    assert abs(c.a1) ** 2 + abs(c.a2) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_dcdc_rejects_bad_params():
    with pytest.raises(ValueError):
        DcdcParams(g=0.0, delta=1.0, t=1.0)
    with pytest.raises(ValueError):
        DcdcParams(g=-2.0, delta=0.0, t=1.0)
    with pytest.raises(ValueError):
        DcdcParams(g=1.0, delta=0.0, t=-0.1)


def test_coupler_requires_unitarity():
    with pytest.raises(ValueError):
        ModeCoupler(a1=0.9, a2=0.9j)


def test_coupler_rejects_nan_amplitudes():
    with pytest.raises(ValueError, match="not unitary"):
        ModeCoupler(complex("nan"), 0j)


def test_ellipticity_examples():
    exact = ModeCoupler(a1=SQ2, a2=-1j * SQ2)
    ex, ey = coupler_to_ellipticity(exact)
    assert ex / ey == 1.0  # equal moduli by construction
    assert coupler_to_ellipticity(ModeCoupler(a1=1.0, a2=0.0)) == (1.0, 0.0)
    assert coupler_to_ellipticity(ModeCoupler(a1=0.6, a2=0.8j)) == (0.6, 0.8)


@settings(max_examples=300, deadline=None)
@given(theta=st.floats(-10.0, 10.0), phi=st.floats(-10.0, 10.0))
def test_bs_unitarity_property(theta, phi):
    c = bs_coupler(theta, phi)
    assert abs(abs(c.a1) ** 2 + abs(c.a2) ** 2 - 1.0) < 1e-12


@settings(max_examples=300, deadline=None)
@given(g=st.floats(1e-3, 50.0), delta=st.floats(-50.0, 50.0), t=st.floats(0.0, 20.0))
def test_dcdc_unitarity_property(g, delta, t):
    c = dcdc_coupler(DcdcParams(g=g, delta=delta, t=t))
    assert abs(abs(c.a1) ** 2 + abs(c.a2) ** 2 - 1.0) < 1e-12
    # directional couplers keep a2 purely imaginary
    assert c.a2.real == 0.0


@settings(max_examples=100, deadline=None)
@given(g=st.floats(0.1, 10.0), delta=st.floats(-10.0, 10.0), t=st.floats(0.0, 5.0))
def test_dcdc_periodicity(g, delta, t):
    p = DcdcParams(g=g, delta=delta, t=t)
    period = 2.0 * math.pi / p.omega
    c1 = dcdc_coupler(p)
    c2 = dcdc_coupler(DcdcParams(g=g, delta=delta, t=t + period))
    assert c1.a1 == pytest.approx(c2.a1, abs=1e-12)
    assert c1.a2 == pytest.approx(c2.a2, abs=1e-12)


def test_time_for_ratio_fifty_fifty():
    assert dcdc_time_for_ratio(1.0, 1.0, 0.0) == pytest.approx(math.pi / 4, abs=1e-10)


def test_time_for_ratio_small_angle_limit():
    t = dcdc_time_for_ratio(1e6, 1.0, 0.0)
    assert t == pytest.approx(1e-6, abs=1e-15)
    c = dcdc_coupler(DcdcParams(g=1.0, delta=0.0, t=t))
    assert abs(c.a1) / abs(c.a2) == pytest.approx(1e6, rel=1e-10)


def test_time_for_ratio_infeasible():
    # ratio below delta/g: the branch equation has no real solution
    with pytest.raises(ValueError, match=r"the achievable infimum is delta/g = 1\.33333$"):
        dcdc_time_for_ratio(1.0, 3.0, 4.0)


def test_time_for_ratio_detuned_vs_dense_scan():
    ratio, g, delta = 2.0, 3.0, 4.0
    t = dcdc_time_for_ratio(ratio, g, delta)

    def achieved(tt):
        c = dcdc_coupler(DcdcParams(g=g, delta=delta, t=tt))
        return abs(c.a1) / abs(c.a2)

    assert achieved(t) == pytest.approx(ratio, abs=1e-10)
    # dense-scan oracle over the first branch
    omega = math.hypot(g, delta)
    ts = np.linspace(1e-6, math.pi / (2 * omega), 200001)
    vals = np.abs(np.cos(omega * ts) - 1j * (delta / omega) * np.sin(omega * ts))
    vals /= np.abs((g / omega) * np.sin(omega * ts))
    t_scan = float(ts[np.argmin(np.abs(vals - ratio))])
    assert t == pytest.approx(t_scan, abs=1e-5)
    # closed-form oracle: t = atan(Omega / sqrt(ratio^2 g^2 - delta^2)) / Omega
    t_cf = math.atan(omega / math.sqrt(ratio ** 2 * g ** 2 - delta ** 2)) / omega
    assert t == pytest.approx(t_cf, abs=1e-12)


def test_time_for_ratio_at_infimum_boundary():
    t = dcdc_time_for_ratio(4.0 / 3.0, 3.0, 4.0)
    assert t == pytest.approx(math.pi / 10.0, rel=1e-9)


def test_phase_condition_scope():
    # holds for phi in {0, pi} and is violated at generic phi
    assert phase_residual(bs_coupler(0.7, 0.0)) < 1e-12
    assert phase_residual(bs_coupler(0.7, math.pi)) < 1e-12
    assert phase_residual(bs_coupler(0.7, 1.0)) > 0.1


def brentq_time_for_ratio(ratio, g, delta):
    """Root-finding reference for the closed form: |a1| - ratio |a2| = 0 on the first branch."""
    omega = math.hypot(delta, g)

    def residual(theta):
        c = dcdc_coupler(DcdcParams(g=g, delta=delta, t=theta / omega))
        return abs(c.a1) - ratio * abs(c.a2)

    return brentq(residual, 1e-14, math.pi / 2, xtol=1e-15, rtol=8.9e-16) / omega


@settings(max_examples=500, deadline=None)
@given(g=st.floats(0.01, 100.0), skew=st.floats(-3.0, 3.0), frac=st.floats(0.0, 1.0))
def test_time_for_ratio_closed_form_property(g, skew, frac):
    delta = skew * g
    infimum = abs(delta) / g
    # below ratio 1e-3 the achieved ratio is |cos(Omega t)| alone when delta ~ 0,
    # and its absolute rounding (~1e-17) is no longer 1e-11 relative
    lo = max(infimum * (1.0 + 1e-12), 1e-3)
    ratio = lo * (1e3 / lo) ** frac
    t = dcdc_time_for_ratio(ratio, g, delta)
    omega = math.hypot(delta, g)
    assert 0.0 < t <= math.pi / (2.0 * omega)
    c = dcdc_coupler(DcdcParams(g=g, delta=delta, t=t))
    assert abs(c.a1) / abs(c.a2) == pytest.approx(ratio, rel=1e-11)
    if ratio >= 1.01 * infimum:
        assert t == pytest.approx(brentq_time_for_ratio(ratio, g, delta), rel=1e-12)
