"""Displaced elliptical-elliptical vortex (DEEV) state and its spatial field.

``psi`` computes, for beam widths sigma_i and vortex weights eta_i,

    psi(x, y) = N [eta_x (x - x0) +/- i eta_y (y - y0)]^m
                * exp(-((x - x0)/sigma_x)^2 / 2 - ((y - y0)/sigma_y)^2 / 2)
                * exp(i (px0 (x - x0) + py0 (y - y0))).

The operator form, the vortex factor ``[eta_x a_x^+ +/- i eta_y a_y^+]^m``
applied to a two-mode squeezed-displaced vacuum (squeezing zeta_i, width
sigma_i = exp(2 zeta_i)), equals it only for tied weights,
eta_x sigma_x = eta_y sigma_y; for untied weights the operator state is a
Hermite polynomial in the scaled offsets, not this monomial, and which of the
two untied weights name is left open (ROADMAP item 31). The plane-wave factor
realises the momentum displacement; it drops out of every |psi|^2 quantity.
The normalization constant is computed by Gauss-Hermite quadrature on first
use (a cached property; exact for the polynomial-times-Gaussian integrand),
never transcribed: ``deev field`` and ``deev verify`` force it before any
sampling, so an unrepresentable constant exits 2 naming ``state``; ``wigner``
and ``sit`` never compute it for the lab state. Only the ratio eta_x : eta_y
is physical: the arithmetic takes the weights times an exact power of two.

The state's own frame is defined here alone: ``DeevParams.offsets`` maps a
point to its scaled offsets A = (x - x0)/sigma_x, B = (y - y0)/sigma_y,
P = sigma_x (px - px0), Q = sigma_y (py - py0), ``phase_point`` maps them
back, and ``DeevParams.scaled`` is the state in that frame, whose psi is
sqrt(sigma_x sigma_y) psi in modulus, O(1) whatever the widths.
"""

import math
from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from . import _EXPORTS
from .gridio import _finite, _fmt, sample_field

__all__ = list(_EXPORTS["state"])

SQRT2 = math.sqrt(2.0)
# numpy builds Gauss-Hermite rules up to 370 nodes; it warns at 371 and gives NaN weights beyond.
# The normalization and the oracle's per-axis budget both stop here.
_MAX_RULE_NODES = 370


@dataclass(frozen=True)
class DeevParams:
    """Full parameterization of a DEEV state.

    m is the vorticity, (eta_x, eta_y) the vortex generator weights (only
    their ratio is physical: the arithmetic takes them times 2^-c, ``_weights``),
    sign the +/- orientation of the vortex, (sigma_x, sigma_y) the beam widths
    (finite and positive), (x0, y0) the position displacements and (px0, py0)
    the momentum displacements. ``psi`` evaluates the monomial in the module
    docstring, which is the operator state only for tied weights.
    """

    m: int
    eta_x: float
    eta_y: float
    sign: int = +1
    sigma_x: float = 1.0
    sigma_y: float = 1.0
    x0: float = 0.0
    y0: float = 0.0
    px0: float = 0.0
    py0: float = 0.0

    def __post_init__(self):
        if isinstance(self.m, bool) or not isinstance(self.m, (int, np.integer)) or self.m < 0:
            raise ValueError(f"vorticity m must be a nonnegative integer, got {self.m!r}")
        if self.sign not in (+1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign!r}")
        for name in ("eta_x", "eta_y", "sigma_x", "sigma_y", "x0", "y0", "px0", "py0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not (self.sigma_x > 0 and self.sigma_y > 0):
            raise ValueError("beam widths must be positive")
        if self.eta_x == 0 and self.eta_y == 0:
            raise ValueError("eta_x and eta_y cannot both vanish")

    @classmethod
    def from_sigmas(cls, m, sigma_x, sigma_y, eta_x, eta_y, **kwargs):
        """Construct from beam widths, each stored as exp(ln(sigma_i))."""
        # exp(ln sigma) rounds as the former half-log storage did; ROADMAP item 5 drops it with the golden re-record
        sx, sy = (math.exp(math.log(s)) if s > 0 else s for s in (sigma_x, sigma_y))
        return cls(m=m, eta_x=eta_x, eta_y=eta_y, sigma_x=sx, sigma_y=sy, **kwargs)

    @classmethod
    def tied(cls, m, sigma_x, sigma_y, **kwargs):
        """Construct with the canonical tie eta_i = 1 / (sqrt(2) sigma_i)."""
        state = cls.from_sigmas(m, sigma_x, sigma_y, 1.0, 1.0, **kwargs)    # a zero width fails its check, not a division
        return replace(state, eta_x=1.0 / (SQRT2 * sigma_x), eta_y=1.0 / (SQRT2 * sigma_y))

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
                       sigma_x=self.sigma_y, sigma_y=self.sigma_x,
                       x0=self.y0, y0=self.x0, px0=self.py0, py0=self.px0)

    @cached_property
    def _weights(self):
        """(eta_x, eta_y) 2^-c: c, from binary exponents, puts the larger eta_i sigma_i 2^-c in [2^(-s-1), 2^-s),
        s = floor(log2 m) // 2, so the normalization sum stays near 1; ValueError where a scaled weight overflows."""
        c = max(sum(math.frexp(v)[1] for v in (eta, sigma, math.frexp(eta)[0] * math.frexp(sigma)[0]))
                for eta, sigma in ((self.eta_x, self.sigma_x), (self.eta_y, self.sigma_y)) if eta)
        c += (max(self.m, 1).bit_length() - 1) // 2
        try:
            return math.ldexp(self.eta_x, -c), math.ldexp(self.eta_y, -c)
        except OverflowError:
            raise ValueError(f"eta_x and eta_y times 2^{-c} leave the double range (a subnormal width)") from None

    @cached_property
    def scaled(self):
        """The state in its own frame: unit widths, no displacement, weights (eta_i 2^-c) sigma_i (built once)."""
        wx, wy = self._weights
        return replace(self, eta_x=wx * self.sigma_x, eta_y=wy * self.sigma_y,
                       sigma_x=1.0, sigma_y=1.0, x0=0.0, y0=0.0, px0=0.0, py0=0.0)

    @cached_property
    def norm_constant(self):
        """The constant that normalizes psi's bracket in the weights eta_i 2^-c: N 2^(cm) for the N of the
        module docstring, so that psi = norm_constant [eta_x 2^-c X +/- i eta_y 2^-c Y]^m * ... integrates to 1.

        After scaling x = sigma_x a, y = sigma_y b, the squared-modulus integral is sigma_x sigma_y S,
        where S integrates a degree-2m polynomial in the weights of ``scaled`` against exp(-a^2 - b^2),
        which an (m + 2)-node Gauss-Hermite rule does exactly. Raises ValueError when S or the constant is
        not a normal double, and before building the rule when m > 368 (numpy's largest rule).
        """
        sx, sy = self.sigma_x, self.sigma_y
        what = f"normalization of m={self.m}, sigma_x={sx:g}, sigma_y={sy:g}"
        n = self.m + 2
        if n > _MAX_RULE_NODES:
            raise ValueError(f"{what} needs a {n}-node Gauss-Hermite rule; "
                             f"numpy's rules stop at {_MAX_RULE_NODES} nodes (m <= {_MAX_RULE_NODES - 2})")
        nodes, weights = np.polynomial.hermite.hermgauss(n)
        hx, hy = self.scaled.eta_x, self.scaled.eta_y
        with np.errstate(over="ignore", invalid="ignore"):
            poly = ((hx * nodes[:, None]) ** 2 + (hy * nodes[None, :]) ** 2) ** self.m
            total = float(np.sum(weights[:, None] * weights[None, :] * poly))
        # the root of sigma_x sigma_y S, taken factor by factor so the product need not be a double;
        # a subnormal S has lost digits
        root, tiny = math.sqrt(sx) * math.sqrt(sy) * math.sqrt(total), np.finfo(float).tiny
        if not (tiny <= total < math.inf and tiny <= root <= 1.0 / tiny):
            raise ValueError(f"{what} is not representable (|psi|^2 integral = {sx * sy * total!r})")
        return 1.0 / root


def psi(params, x, y):
    """Normalized position-space wavefunction at (x, y); scalar or array."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    X = x - params.x0
    Y = y - params.y0
    bracket = (params._weights[0] * X + 1j * params.sign * params._weights[1] * Y) ** params.m
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
    meta = _param_metadata(params, quantity="intensity")

    def fn(x, y):
        # set here, not by a caller: worker threads do not inherit errstate
        with np.errstate(over="ignore", invalid="ignore"):
            p = psi(params, x, y)
            v = p.real ** 2 + p.imag ** 2
        return _finite(v, f"|psi|^2 at m={params.m}")

    return sample_field(fn, grid, threads=threads, metadata=meta)


def _param_metadata(params, **extra):
    """A field's metadata: the state's parameters, m and sign in their own formats, and ``extra``."""
    meta = {f.name: _fmt(getattr(params, f.name)) for f in fields(params) if f.type is float}
    return dict(meta, m=str(params.m), sign=f"{params.sign:+d}", **extra)
