"""SU(2) two-mode couplers: beam splitter and dual-channel directional coupler.

A coupler is a pair of complex amplitudes (a1, a2) with |a1|^2 + |a2|^2 = 1.
The moduli (|a1|, |a2|) feed the vortex generator as the (eta_x, eta_y)
weights; relative phases are absorbed into the vortex sign and an overall
phase of the state.
"""

import cmath
import math
from collections import namedtuple

from . import _EXPORTS

__all__ = list(_EXPORTS["coupling"])

_UNITARITY_TOL = 1e-12
# how far the solved coupler's |a1|/|a2| may miss the requested ratio, relative
_RATIO_TOL = 1e-9


class ModeCoupler(namedtuple("ModeCoupler", "a1 a2")):
    """Validated SU(2) amplitude pair (a1, a2)."""

    __slots__ = ()

    def __new__(cls, a1, a2):
        norm = abs(a1) ** 2 + abs(a2) ** 2
        if not abs(norm - 1.0) <= _UNITARITY_TOL:  # a NaN norm fails too
            raise ValueError(f"|a1|^2 + |a2|^2 = {norm!r}, not unitary")
        return super().__new__(cls, a1, a2)


class DcdcParams(namedtuple("DcdcParams", "g delta t")):
    """Directional-coupler drive: strength g, half-detuning delta, time t."""

    __slots__ = ()

    def __new__(cls, g, delta, t):
        if not g > 0:
            raise ValueError(f"coupling strength g must be > 0, got {g!r}")
        if t < 0:
            raise ValueError(f"interaction time t must be >= 0, got {t!r}")
        return super().__new__(cls, g, delta, t)

    @property
    def omega(self):
        return math.hypot(self.delta, self.g)


def bs_coupler(theta, phi):
    """Beam-splitter coupler from mixing angle theta and phase phi.

    Returns (cos theta, -i e^{i phi} sin theta).
    """
    a1 = complex(math.cos(theta), 0.0)
    a2 = -1j * cmath.exp(1j * phi) * math.sin(theta)
    return ModeCoupler(a1=a1, a2=a2)


def dcdc_coupler(p):
    """Coupler after evolving a :class:`DcdcParams` drive for time t.

    a1 = cos(Omega t) - i (delta/Omega) sin(Omega t),
    a2 = i (g/Omega) sin(Omega t), Omega = sqrt(delta^2 + g^2). Raises
    ValueError when Omega t leaves the double range.
    """
    w = p.omega
    wt = w * p.t
    if not math.isfinite(wt):
        raise ValueError(f"Omega t overflows double precision at t = {p.t!r} (Omega = {w!r})")
    s, c = math.sin(wt), math.cos(wt)
    return ModeCoupler(a1=complex(c, -p.delta / w * s), a2=complex(0.0, p.g / w * s))


def coupler_to_ellipticity(c):
    """Vortex generator weights (eta_x, eta_y) = (|a1|, |a2|)."""
    return abs(c.a1), abs(c.a2)


def dcdc_time_for_ratio(ratio, g, delta):
    """Smallest t > 0 with |a1(t)|/|a2(t)| = ratio, on Omega*t in (0, pi/2].

    The ratio decreases monotonically from +inf at t -> 0 to delta/g at
    Omega*t = pi/2, so the first branch carries a unique solution whenever
    ratio >= delta/g; smaller ratios are unreachable at any time. Squaring
    |a1| = ratio |a2| gives tan(Omega t) = Omega / sqrt(ratio^2 g^2 - delta^2).
    Raises ValueError when the coupler at the solved t misses the ratio by more
    than 1e-9 relative: cos near pi/2 cannot resolve a ratio below about 1e-7
    (at delta = 0), and past ratio * g = 1e308 the solved t is 0.
    """
    if not ratio > 0:
        raise ValueError(f"ratio must be > 0, got {ratio!r}")
    if not g > 0:
        raise ValueError(f"coupling strength g must be > 0, got {g!r}")
    infimum = abs(delta) / g
    if ratio < infimum:
        raise ValueError(f"no time t > 0 gives |a1|/|a2| = {ratio:g}; "
                         f"the achievable infimum is delta/g = {infimum:g}")
    omega = math.hypot(delta, g)
    # the clamps absorb rounding at ratio == infimum, where Omega t = pi/2; two roots, as one
    # of the product overflows once ratio * g passes about 1e154
    rg = ratio * g
    t = math.atan2(omega, math.sqrt(max(rg - delta, 0.0)) * math.sqrt(max(rg + delta, 0.0))) / omega
    c = dcdc_coupler(DcdcParams(g, delta, t))
    a1, a2 = abs(c.a1), abs(c.a2)
    if not (a2 > 0 and abs(a1 / a2 / ratio - 1.0) <= _RATIO_TOL):
        raise ValueError(f"the coupler at the solved time t = {t:.15g} gives |a1|/|a2| = "
                         f"{a1 / a2 if a2 > 0 else math.inf:.15g}, not the requested {ratio:.15g}")
    return t
