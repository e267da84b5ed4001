"""The accuracy ledger: a written quantity against an exact reference, across the inputs it accepts.

Each row draws seeded states in every decade of m up to the largest accepted order and compares the
computed value with a reference that needs only the standard library: rationals in ``fractions`` and
the transcendental factors in ``decimal``. The pieces the tests share, a Fraction as a Decimal, pi and
the exact series of L_m^(-1/2), come from ``exact``; the norm sum R is this file's own. A point whose
reference is not a normal double is counted, not skipped. Today the ledger holds two rows: |psi|^2, the
quantity ``deev field`` writes, and the candidate closed form, which ``deev wigner`` samples and
``deev verify`` adjudicates.
"""

import math
from dataclasses import replace
from functools import lru_cache
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from deev.state import DeevParams, psi
from deev.wigner import wigner4d_candidate

from exact import PI, decimal, laguerre_series

_TINY = np.finfo(float).tiny
_EPS = np.finfo(float).eps


@lru_cache(maxsize=None)     # the weights times 2^j share their reduced pair, so their sum too
def norm_sum(m, hx, hy):
    """R = S / pi, exact, for S = integral of ((hx a)^2 + (hy b)^2)^m exp(-a^2 - b^2) da db.

    Term by term, Gamma(k + 1/2) Gamma(m - k + 1/2) = pi (2k)! (2m - 2k)! / (4^m k! (m - k)!), so
    R = m! / 4^m sum_k C(2k, k) C(2m - 2k, m - k) hx^2k hy^(2m - 2k); m! h^2m for tied hx = hy = h.
    """
    x2, y2 = hx * hx, hy * hy
    u, v = x2.numerator * y2.denominator, y2.numerator * x2.denominator
    total = sum(math.comb(2 * k, k) * math.comb(2 * (m - k), m - k) * u ** k * v ** (m - k) for k in range(m + 1))
    return Fraction(math.factorial(m) * total, 4 ** m * (x2.denominator * y2.denominator) ** m)


def intensity_reference(p, xs, ys):
    """Exact |psi|^2 of ``p`` at the double points (xs, ys), each rounded once to a double.

    |psi|^2 = ((eta_x X)^2 + (eta_y Y)^2)^m exp(-(X/sigma_x)^2 - (Y/sigma_y)^2) / (sigma_x sigma_y pi R)
    with X = x - x0 and Y = y - y0 exact: the bracket and R in Fraction, exp and pi in Decimal. The
    value is homogeneous of degree 0 in the weights, so they are first divided by a power of two near
    the larger, which keeps the integers small at any scale and changes no digit.
    """
    ex, ey, sx, sy = (Fraction(v) for v in (p.eta_x, p.eta_y, p.sigma_x, p.sigma_y))
    big = max(abs(ex), abs(ey))
    ex, ey = (e / Fraction(2) ** (big.numerator.bit_length() - big.denominator.bit_length()) for e in (ex, ey))
    r = sx * sy * norm_sum(p.m, ex * sx, ey * sy)
    out = []
    for x, y in zip(xs, ys):
        X, Y = Fraction(x) - Fraction(p.x0), Fraction(y) - Fraction(p.y0)
        with localcontext() as ctx:
            ctx.prec = 40
            gauss = (-decimal((X / sx) ** 2 + (Y / sy) ** 2)).exp()
            out.append(float(decimal(((ex * X) ** 2 + (ey * Y) ** 2) ** p.m / r) * gauss / PI))
    return out


def _states(seed):
    """Seeded tied and untied states, m in every decade up to 368 and at 368; widths 10^U(-3, 3)."""
    rng = np.random.default_rng(seed)
    orders = [int(rng.integers(lo, hi)) for lo, hi in [(0, 10), (10, 100), (100, 369)] for _ in range(4)] + [368, 368]
    for i, m in enumerate(orders):
        sx, sy = (float(v) for v in 10.0 ** rng.uniform(-3.0, 3.0, 2))
        d = rng.uniform(-2.0, 2.0, 4)
        kw = dict(sign=int(rng.choice([-1, 1])), x0=d[0] * sx, y0=d[1] * sy, px0=d[2] / sx, py0=d[3] / sy)
        if i % 2:
            yield DeevParams.tied(m, sx, sy, **kw), rng
        else:
            hx, hy = (float(v) for v in 10.0 ** rng.uniform(-1.0, 1.0, 2))
            yield DeevParams.from_sigmas(m, sx, sy, eta_x=hx / sx, eta_y=hy / sy, **kw), rng


def _points(p, rng):
    """Points at scaled radius sqrt(m) (the ring), 0.2 sqrt(m) (the core side) and sqrt(m) + 5 (the tail)."""
    root = math.sqrt(max(p.m, 1))
    radius = np.array([root * rng.uniform(0.8, 1.2), root * rng.uniform(0.8, 1.2), 0.2 * root, root + 5.0])
    angle = rng.uniform(0.0, 2.0 * math.pi, 4)
    x, y, _, _ = p.phase_point(radius * np.cos(angle), radius * np.sin(angle), 0.0, 0.0)
    return x, y


# psi's relative error grows with m (the bracket's power) and with the Gaussian's exponent G (exp of a
# rounded argument): the bound allows 4 ulps of each, and 64 more
def _bound(p, x, y):
    g = ((x - p.x0) / p.sigma_x) ** 2 + ((y - p.y0) / p.sigma_y) ** 2
    return (4 * (p.m + g) + 64) * _EPS


def _check(p, x, y, tally):
    """Compare |psi|^2 with the reference at the points; count the refused state or the non-normal references."""
    try:
        p.norm_constant     # as field does before sampling
    except ValueError:
        # refused only where the scaled state's exact sum S = pi R is below the normal range
        s = p.scaled
        assert decimal(norm_sum(p.m, Fraction(s.eta_x), Fraction(s.eta_y))) * PI < Decimal(_TINY) * Decimal(1.001), p
        tally["refused"] += 1
        return
    v = psi(p, x, y)
    got = v.real ** 2 + v.imag ** 2     # as intensity_field samples it
    for gi, xi, yi, bound, want in zip(got, x, y, _bound(p, x, y), intensity_reference(p, x, y)):
        # below the normal range the squares of psi's parts round to multiples of the least subnormal
        assert abs(gi - want) <= bound * want + 2 * math.ulp(0.0), (p, xi, yi, gi, want)
        tally["checked" if want >= _TINY else "not normal"] += 1


def test_norm_sum_is_the_integral():
    # against the integrals done by hand at m = 1 and 2, and the tied closed form m! h^2m and its lgamma
    hx, hy = Fraction(0.3), Fraction(1.7)
    assert norm_sum(1, hx, hy) == (hx ** 2 + hy ** 2) / 2
    assert norm_sum(2, hx, hy) == Fraction(3, 4) * hx ** 4 + hx ** 2 * hy ** 2 / 2 + Fraction(3, 4) * hy ** 4
    for m in (0, 1, 7, 130, 368):
        assert norm_sum(m, hx, hx) == math.factorial(m) * hx ** (2 * m)
        with localcontext() as ctx:
            ctx.prec = 40
            log = float(decimal(norm_sum(m, hx, hx)).ln())
        assert log == pytest.approx(math.lgamma(m + 1.0) + 2 * m * math.log(0.3), rel=1e-13, abs=1e-13)


def test_intensity_matches_the_exact_value():
    tally = {"checked": 0, "not normal": 0, "refused": 0}
    for p, rng in _states(53):
        _check(p, *_points(p, rng), tally)
    assert tally["checked"] >= 40, tally


@pytest.mark.parametrize("m", [1, 7, 40, 130])
def test_intensity_at_every_weight_scale(m):
    # the weights times 2^j and 10^k across the double range, down to subnormal and up to the largest
    # doubles: each is checked against the reference for its own two doubles
    rng = np.random.default_rng(m)
    base = [DeevParams.tied(m, 0.7, 2.5, x0=0.3, sign=-1),
            DeevParams.from_sigmas(m, 0.7, 2.5, eta_x=0.9, eta_y=0.15, y0=-0.4)]
    tally = {"checked": 0, "not normal": 0, "refused": 0}
    for p in base:
        x, y = _points(p, rng)
        scales = [Fraction(2) ** j for j in range(-1070, 1024, 149)] + [Fraction(10) ** k for k in range(-322, 308, 53)]
        for scale in scales:
            try:
                q = replace(p, eta_x=float(Fraction(p.eta_x) * scale), eta_y=float(Fraction(p.eta_y) * scale))
            except (OverflowError, ValueError):     # a weight past the double range, or both weights zero
                continue
            _check(q, x, y, tally)
    assert tally["checked"] >= 4 * len(scales) and tally["refused"] == 0, tally


def candidate_reference(p, x, y, px, py):
    """The candidate closed form of ``p`` at the double point, exactly, rounded once; and the condition
    numbers of its Laguerre factor: kappa = |z L'(z) / L(z)| and the cancellation r of its argument.

    W = 2^(3m - 4) (m!)^2 / (2m)! (-2 s)^m / pi^2 exp(-G) L_m^(-1/2)(z), with s = sigma_x^2 + sigma_y^2, G the
    sum of the squared first variables (rational: the sqrt(2) is squared away) and z = (a / sqrt(2) - b)^2 / s,
    where a = sqrt(2) (px2 + py2) and b = x2 + y2 are rational. The series cancels, so it is summed at 30 digits
    more than its largest term's.
    """
    m, sx, sy = p.m, Fraction(p.sigma_x), Fraction(p.sigma_y)
    dx, dy, dpx, dpy = (Fraction(v) - Fraction(c) for v, c in zip((x, y, px, py), (p.x0, p.y0, p.px0, p.py0)))
    g = (dx / sx) ** 2 + (dy / sy) ** 2 + (sx * dpx) ** 2 / 2 + (sy * dpy) ** 2 / 2
    s = sx * sx + sy * sy
    rational = Fraction(2) ** (3 * m - 4) * math.factorial(m) ** 2 / math.factorial(2 * m) * (-2 * s) ** m
    a, b = sy ** 3 * dpx + sx ** 3 * dpy, sy * dx / (2 * sx) + sx * dy / (2 * sy)
    cs = laguerre_series(m, -0.5)
    z_max = float((a * a / 2 + b * b) / s)      # z is at most twice this
    largest = m * math.log10(1.0 + 2.0 * z_max) + math.log10(float(max(abs(c) for c in cs)))
    with localcontext() as ctx:
        ctx.prec = 30 + max(0, math.ceil(largest))
        root2 = Decimal(2).sqrt()
        z = (decimal(a * a / 2 + b * b) - decimal(a * b) * root2) / decimal(s)
        lag = slope = Decimal(0)
        for c in reversed(cs):      # Horner, with the derivative alongside
            slope = slope * z + lag
            lag = lag * z + decimal(c)
        w = decimal(rational) * (-decimal(g)).exp() * lag / (PI * PI)
        kappa = abs(z * slope / lag) if lag else Decimal("Infinity")
        r = (abs(decimal(a)) / root2 + abs(decimal(b))) / (z * decimal(s)).sqrt() if z else Decimal("Infinity")
    return float(w), float(kappa), float(r)


def test_candidate_matches_its_formula():
    # displaced tied states, m 0-85 (the candidate constant leaves the double range at m = 86), widths
    # 10^U(-1, 1), at scaled offsets U(-1.5, 1.5). The bound allows 16 ulps per order of m, amplified by the
    # Laguerre factor's sensitivity to its argument, kappa, and by the cancellation r in that argument; over
    # 12406 points (seeds 1-8, 200 states each) the worst error used 58% of it (m = 71, r = 50)
    rng = np.random.default_rng(54)
    tally = {"checked": 0, "not normal": 0}
    for _ in range(60):
        m = int(rng.integers(0, 86))
        sx, sy = (float(v) for v in 10.0 ** rng.uniform(-1.0, 1.0, 2))
        d = rng.uniform(-2.0, 2.0, 4)
        p = DeevParams.tied(m, sx, sy, sign=int(rng.choice([-1, 1])), x0=d[0] * sx, y0=d[1] * sy,
                            px0=d[2] / sx, py0=d[3] / sy)
        for point in zip(*p.phase_point(*rng.uniform(-1.5, 1.5, (4, 8)))):
            want, kappa, r = candidate_reference(p, *point)
            if abs(want) >= np.finfo(float).max:
                with pytest.raises(OverflowError):
                    wigner4d_candidate(p, *point)
                tally["not normal"] += 1
                continue
            got = wigner4d_candidate(p, *point)
            if abs(want) < _TINY:       # below the normal range only an absolute error is meaningful
                assert abs(got - want) <= _TINY, (p, point, got, want)
                tally["not normal"] += 1
                continue
            bound = 16 * (m + 1) * (1 + kappa * (1 + r)) * _EPS
            assert abs(got - want) <= bound * abs(want), (p, point, got, want, kappa, r)
            tally["checked"] += 1
    assert tally["checked"] >= 400, tally
