"""Displaced elliptical-elliptical vortex (DEEV) state and its spatial field.

The state is an m-fold vortex factor ``[eta_x a_x^+ +/- i eta_y a_y^+]^m``
applied to a two-mode squeezed-displaced vacuum. In position space that is

    psi(x, y) = N [eta_x (x - x0) +/- i eta_y (y - y0)]^m
                * exp(-((x - x0)/sigma_x)^2 / 2 - ((y - y0)/sigma_y)^2 / 2)
                * exp(i (px0 (x - x0) + py0 (y - y0)))

with sigma_i = exp(2 zeta_i). The plane-wave factor realises the momentum
displacement; it drops out of every |psi|^2 quantity. The normalization
constant is computed by Gauss-Hermite quadrature at construction (exact for
the polynomial-times-Gaussian integrand), never transcribed.

The state's own frame is defined here alone: ``DeevParams.offsets`` maps a
point to its scaled offsets A = (x - x0)/sigma_x, B = (y - y0)/sigma_y,
P = sigma_x (px - px0), Q = sigma_y (py - py0), ``phase_point`` maps them
back, and ``DeevParams.scaled`` is the state in that frame, whose psi is
sqrt(sigma_x sigma_y) psi in modulus, O(1) whatever the widths.
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import _EXPORTS
from .gridio import _fmt, sample_field

__all__ = list(_EXPORTS["state"])

SQRT2 = math.sqrt(2.0)
# numpy builds Gauss-Hermite rules up to 370 nodes; it warns at 371 and gives NaN weights beyond.
# The normalization and the oracle's per-axis budget both stop here.
_MAX_RULE_NODES = 370


@dataclass(frozen=True)
class DeevParams:
    """Full parameterization of a DEEV state.

    m is the vorticity, (eta_x, eta_y) the vortex generator weights, sign
    the +/- orientation of the vortex, zeta_i the squeezing parameters
    (sigma_i = exp(2 zeta_i)), (x0, y0) the position displacements and
    (px0, py0) the momentum displacements.
    """

    m: int
    eta_x: float
    eta_y: float
    sign: int = +1
    zeta_x: float = 0.0
    zeta_y: float = 0.0
    x0: float = 0.0
    y0: float = 0.0
    px0: float = 0.0
    py0: float = 0.0

    def __post_init__(self):
        if not isinstance(self.m, (int, np.integer)) or self.m < 0:
            raise ValueError(f"vorticity m must be a nonnegative integer, got {self.m!r}")
        if self.sign not in (+1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign!r}")
        for name in ("eta_x", "eta_y", "zeta_x", "zeta_y", "x0", "y0", "px0", "py0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.eta_x == 0 and self.eta_y == 0:
            raise ValueError("eta_x and eta_y cannot both vanish")

    @classmethod
    def from_sigmas(cls, m, sigma_x, sigma_y, eta_x, eta_y, **kwargs):
        """Construct with beam widths given directly (zeta_i = ln(sigma_i)/2)."""
        if not (sigma_x > 0 and sigma_y > 0):
            raise ValueError("beam widths must be positive")
        return cls(m=m, eta_x=eta_x, eta_y=eta_y,
                   zeta_x=0.5 * math.log(sigma_x), zeta_y=0.5 * math.log(sigma_y), **kwargs)

    @classmethod
    def tied(cls, m, sigma_x, sigma_y, **kwargs):
        """Construct with the canonical tie eta_i = 1 / (sqrt(2) sigma_i)."""
        return cls.from_sigmas(m, sigma_x, sigma_y,
                               eta_x=1.0 / (SQRT2 * sigma_x),
                               eta_y=1.0 / (SQRT2 * sigma_y), **kwargs)

    @property
    def sigma_x(self):
        return math.exp(2.0 * self.zeta_x)

    @property
    def sigma_y(self):
        return math.exp(2.0 * self.zeta_y)

    @property
    def is_eta_tied(self):
        """True when eta_x sigma_x == eta_y sigma_y (up to rounding).

        Only the ratio eta_x : eta_y is physical (the overall scale is
        absorbed by normalization), so this is the condition under which the
        compact closed-form Wigner function applies.
        """
        hx, hy = self.eta_x * self.sigma_x, self.eta_y * self.sigma_y
        return abs(hx - hy) <= 1e-12 * max(abs(hx), abs(hy))

    def phase_point(self, a, b, p, q):
        """Phase-space point at scaled offsets (a, b, p, q) from the displaced center."""
        return (self.x0 + a * self.sigma_x, self.y0 + b * self.sigma_y,
                self.px0 + p / self.sigma_x, self.py0 + q / self.sigma_y)

    def offsets(self, x, y, px, py):
        """Scaled offsets (A, B, P, Q) of a phase-space point, the inverse of :meth:`phase_point`;
        scalar or array arguments."""
        return ((x - self.x0) / self.sigma_x, (y - self.y0) / self.sigma_y,
                self.sigma_x * (px - self.px0), self.sigma_y * (py - self.py0))

    def swapped(self):
        """The state with its modes exchanged (x <-> y): weights, widths and centers swap and the vortex
        turns the other way (sign -> -sign), so W(swapped, y, x, py, px) = W(self, x, y, px, py)."""
        return replace(self, eta_x=self.eta_y, eta_y=self.eta_x, sign=-self.sign,
                       zeta_x=self.zeta_y, zeta_y=self.zeta_x,
                       x0=self.y0, y0=self.x0, px0=self.py0, py0=self.px0)

    @cached_property
    def scaled(self):
        """The state in its own frame: unit widths, no displacement, weights eta_i sigma_i (built once)."""
        return replace(self, eta_x=self.eta_x * self.sigma_x, eta_y=self.eta_y * self.sigma_y,
                       zeta_x=0.0, zeta_y=0.0, x0=0.0, y0=0.0, px0=0.0, py0=0.0)

    @cached_property
    def norm_constant(self):
        """N such that the spatial distribution integrates to 1.

        The squared-modulus integral reduces, after scaling x = sigma_x a,
        y = sigma_y b, to a degree-2m polynomial against exp(-a^2 - b^2),
        which an (m + 2)-node Gauss-Hermite rule integrates exactly. Raises
        ValueError when the integral or N leaves the double range (large m),
        and before building the rule when m > 368 (numpy's largest rule).
        """
        what = f"normalization of m={self.m}, sigma_x={self.sigma_x:g}, sigma_y={self.sigma_y:g}"
        n = self.m + 2
        if n > _MAX_RULE_NODES:
            raise ValueError(f"{what} needs a {n}-node Gauss-Hermite rule; "
                             f"numpy's rules stop at {_MAX_RULE_NODES} nodes (m <= {_MAX_RULE_NODES - 2})")
        nodes, weights = np.polynomial.hermite.hermgauss(n)
        hx = self.eta_x * self.sigma_x
        hy = self.eta_y * self.sigma_y
        with np.errstate(over="ignore", invalid="ignore"):
            poly = ((hx * nodes[:, None]) ** 2 + (hy * nodes[None, :]) ** 2) ** self.m
            integral = self.sigma_x * self.sigma_y * float(np.sum(weights[:, None] * weights[None, :] * poly))
        if not (math.isfinite(integral) and integral > 0):
            raise ValueError(f"{what} is not representable (|psi|^2 integral = {integral!r})")
        return 1.0 / math.sqrt(integral)


def psi(params, x, y):
    """Normalized position-space wavefunction at (x, y); scalar or array."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    X = x - params.x0
    Y = y - params.y0
    bracket = (params.eta_x * X + 1j * params.sign * params.eta_y * Y) ** params.m
    gauss = np.exp(-0.5 * ((X / params.sigma_x) ** 2 + (Y / params.sigma_y) ** 2))
    phase = np.exp(1j * (params.px0 * X + params.py0 * Y))
    out = params.norm_constant * bracket * gauss * phase
    return out if out.ndim else complex(out)


def intensity_field(params, grid, threads=None):
    """Sample |psi|^2 over an (x, y) grid; zero at the displaced vortex core for m >= 1.

    Raises OverflowError when psi's vortex factor leaves the double range
    on the grid (large m at large radius).
    """
    got = (grid.axis1.label, grid.axis2.label)
    if got != ("x", "y"):
        raise ValueError(f"intensity grids use axes ('x', 'y'), got {got}")
    meta = _param_metadata(params)
    meta["quantity"] = "intensity"

    def fn(x, y):
        # |psi|^2 is finite everywhere, so a non-finite value is an overflow. The
        # errstate is set here because worker threads do not inherit it.
        with np.errstate(over="ignore", invalid="ignore"):
            p = psi(params, x, y)
            v = p.real ** 2 + p.imag ** 2
        if not np.isfinite(v).all():
            raise OverflowError(f"|psi|^2 at m={params.m} overflows double precision on this grid")
        return v

    return sample_field(fn, grid, threads=threads, metadata=meta)


def _param_metadata(params):
    return {
        "m": str(params.m),
        "sign": f"{params.sign:+d}",
        "eta_x": _fmt(params.eta_x),
        "eta_y": _fmt(params.eta_y),
        "sigma_x": _fmt(params.sigma_x),
        "sigma_y": _fmt(params.sigma_y),
        "x0": _fmt(params.x0),
        "y0": _fmt(params.y0),
        "px0": _fmt(params.px0),
        "py0": _fmt(params.py0),
    }
