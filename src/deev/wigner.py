"""Closed-form Wigner functions, 2D slices, and scaled interference terms.

Convention (fixed throughout the package, hbar = 1):

    W(x, y, px, py) = (1/pi^2) integral psi*(x+u, y+v) psi(x-u, y-v)
                      exp(2i (px u + py v)) du dv

Two closed forms are provided for states with the tied weights
eta_x sigma_x = eta_y sigma_y:

* :func:`wigner4d` -- the validated form. In the scaled coordinates
  A = (x-x0)/sigma_x, B = (y-y0)/sigma_y, P = sigma_x (px-px0),
  Q = sigma_y (py-py0) it reads

      W = ((-1)^m / pi^2) exp(-(A^2+B^2+P^2+Q^2))
          L_m((A + s Q)^2 + (B - s P)^2)

  and agrees with the numerical Wigner transform (module ``oracle``) to
  machine precision for every parameter set tested.

* :func:`wigner4d_candidate` -- an alternative closed-form candidate built
  from the variables of :func:`scaled_coords` with an associated Laguerre
  factor of order -1/2 in a single squared combination. Its reduced slices
  show the striped structure with exactly m minima in the mixed planes, but
  the oracle adjudication reports a shape mismatch against the Wigner
  transform (see the verify command); it is retained for comparison and
  for that adjudication, not as a validated quantity.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .gridio import _fmt, sample_field
from .special import alp_coeffs, alp_eval, gamma_half_integer
from .state import _param_metadata

__all__ = [
    "ScaledCoords",
    "SlicePlane",
    "ClosedForm",
    "FORMS",
    "SIT_FORMS",
    "scaled_coords",
    "standard_constant",
    "candidate_constant",
    "wigner4d",
    "wigner4d_candidate",
    "wigner_slice",
    "sit",
    "sit_field",
    "count_strict_minima",
]

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class ScaledCoords:
    """The eight shifted-and-scaled phase-space variables.

    The first group carries the Gaussian factor, the second the argument of
    the associated Laguerre factor of the candidate form:

        x1 = (x - x0)/sigma_x          px1 = sigma_x (px - px0)/sqrt(2)
        y1 = (y - y0)/sigma_y          py1 = sigma_y (py - py0)/sqrt(2)
        x2 = sigma_y (x - x0)/(2 sigma_x)   px2 = sigma_y^3 (px - px0)/sqrt(2)
        y2 = sigma_x (y - y0)/(2 sigma_y)   py2 = sigma_x^3 (py - py0)/sqrt(2)

    All eight vanish at the displaced phase-space center.
    """

    x1: float
    y1: float
    px1: float
    py1: float
    x2: float
    y2: float
    px2: float
    py2: float


def scaled_coords(params, x, y, px, py):
    sx, sy = params.sigma_x, params.sigma_y
    dx, dy = x - params.x0, y - params.y0
    dpx, dpy = px - params.px0, py - params.py0
    return ScaledCoords(
        x1=dx / sx,
        y1=dy / sy,
        px1=sx * dpx / SQRT2,
        py1=sy * dpy / SQRT2,
        x2=sy * dx / (2.0 * sx),
        y2=sx * dy / (2.0 * sy),
        px2=sy ** 3 * dpx / SQRT2,
        py2=sx ** 3 * dpy / SQRT2,
    )


def standard_constant(m):
    """Constant of the validated closed form: (-1)^m / pi^2."""
    return (-1.0) ** m / math.pi ** 2


def candidate_constant(m, sigma_x, sigma_y):
    """Nominal constant of the candidate form.

    2^(m-4) m! / (pi sqrt(pi) Gamma(m + 1/2)) * (-2 (sigma_x^2 + sigma_y^2))^m
    """
    base = 2.0 ** (m - 4) * math.factorial(m) / (math.pi * math.sqrt(math.pi) * gamma_half_integer(m))
    return base * (-2.0 * (sigma_x ** 2 + sigma_y ** 2)) ** m


def _require_tied(params, what):
    if not params.is_eta_tied:
        raise ValueError(
            f"{what} requires eta_x sigma_x == eta_y sigma_y "
            f"(got {params.eta_x * params.sigma_x!r} vs {params.eta_y * params.sigma_y!r}); "
            "use the oracle module for untied weights"
        )


def wigner4d(params, x, y, px, py, constant=None):
    """Validated closed-form Wigner function; scalar or array arguments."""
    _require_tied(params, "wigner4d")
    if constant is None:
        constant = standard_constant(params.m)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    px = np.asarray(px, dtype=float)
    py = np.asarray(py, dtype=float)
    a = (x - params.x0) / params.sigma_x
    b = (y - params.y0) / params.sigma_y
    p = params.sigma_x * (px - params.px0)
    q = params.sigma_y * (py - params.py0)
    s = params.sign
    arg = (a + s * q) ** 2 + (b - s * p) ** 2
    out = constant * np.exp(-(a * a + b * b + p * p + q * q)) * alp_eval(params.m, 0.0, arg)
    return out if np.ndim(out) else float(out)


def wigner4d_candidate(params, x, y, px, py, constant=None):
    """Candidate closed form over the :func:`scaled_coords` variables."""
    _require_tied(params, "wigner4d_candidate")
    sx, sy = params.sigma_x, params.sigma_y
    if constant is None:
        constant = candidate_constant(params.m, sx, sy)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    px = np.asarray(px, dtype=float)
    py = np.asarray(py, dtype=float)
    c = scaled_coords(params, x, y, px, py)
    gauss = np.exp(-(c.x1 ** 2 + c.y1 ** 2 + c.px1 ** 2 + c.py1 ** 2))
    arg = (c.px2 + c.py2 - c.x2 - c.y2) ** 2 / (sx ** 2 + sy ** 2)
    out = constant * gauss * alp_eval(params.m, -0.5, arg)
    return out if np.ndim(out) else float(out)


@dataclass(frozen=True)
class ClosedForm:
    """A closed-form Wigner expression and its nominal overall constant."""

    evaluate: object    # (params, x, y, px, py, constant=None) -> W
    nominal: object     # params -> overall constant

    def shape(self, params, x, y, px, py):
        """The constant-free form (overall constant 1), for calibration."""
        return self.evaluate(params, x, y, px, py, constant=1.0)


FORMS = {
    "standard": ClosedForm(wigner4d, lambda p: standard_constant(p.m)),
    "candidate": ClosedForm(wigner4d_candidate,
                            lambda p: candidate_constant(p.m, p.sigma_x, p.sigma_y)),
}
STANDARD, CANDIDATE = FORMS

SIT_FORMS = ("sum", "difference")


class SlicePlane(Enum):
    """The six 2D reductions; the two off-plane variables pin to their
    displacement values."""

    XY = ("x", "y")
    PXPY = ("px", "py")
    XPX = ("x", "px")
    YPY = ("y", "py")
    XPY = ("x", "py")
    YPX = ("y", "px")

    @property
    def axis_labels(self):
        return self.value


def wigner_slice(params, plane, grid, form=STANDARD, threads=None):
    """Sample a 2D reduction of the 4D Wigner function over a grid.

    The grid axis labels must match the plane. ``form`` names the closed
    form in :data:`FORMS`, evaluated with its nominal constant. Raises
    OverflowError when the form leaves the double range (large m).
    """
    if form not in FORMS:
        raise ValueError(f"form must be one of {sorted(FORMS)}, got {form!r}")
    want = plane.axis_labels
    got = (grid.axis1.label, grid.axis2.label)
    if got != want:
        raise ValueError(f"grid labels {got} do not match plane {plane.name} (needs {want})")
    pinned = {"x": params.x0, "y": params.y0, "px": params.px0, "py": params.py0}
    fn4d = FORMS[form].evaluate
    overflow = f"the {form} closed form at m={params.m} overflows double precision on this grid"
    try:
        constant = FORMS[form].nominal(params)
    except OverflowError:
        raise OverflowError(overflow) from None

    def fn(a1, a2):
        coords = dict(pinned)
        coords[want[0]] = a1
        coords[want[1]] = a2
        # W is finite everywhere, so a non-finite value is an overflow. The
        # errstate is set here because worker threads do not inherit it.
        with np.errstate(over="ignore", invalid="ignore"):
            w = fn4d(params, coords["x"], coords["y"], coords["px"], coords["py"], constant=constant)
        if not np.isfinite(w).all():
            raise OverflowError(overflow)
        return w

    meta = _param_metadata(params)
    meta["quantity"] = "wigner"
    meta["plane"] = plane.name.lower()
    meta["form"] = form
    meta["constant"] = _fmt(constant)
    return sample_field(fn, grid, threads=threads, metadata=meta)


def _sit_coeffs(m, sigma_x, sigma_y):
    """The scaled SIT series coefficients c_k / (sigma_x^2 + sigma_y^2)^k, k = 0..m.

    OverflowError names m when a c_k or a scaled one is not a normal double (large m).
    """
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError(f"SIT needs m >= 1 (no interference terms exist below); got {m!r}")
    if not (sigma_x > 0 and sigma_y > 0):
        raise ValueError("beam widths must be positive")
    d = sigma_x ** 2 + sigma_y ** 2
    try:
        cs = alp_coeffs(m, -0.5)
        with np.errstate(all="ignore"):     # numpy scalar widths warn where floats raise
            ck = [c / d ** k for k, c in enumerate(cs)]
    except (OverflowError, ZeroDivisionError):
        cs = ck = [math.inf]                # fails the check below
    if not all(np.finfo(float).tiny <= abs(c) < math.inf for c in [*cs, *ck]):
        raise OverflowError(f"the SIT coefficients at m={m} leave the double range for "
                            f"sigma_x^2 + sigma_y^2 = {d:g}")
    return ck


def sit(m, sigma_x, sigma_y, r, s, form="sum"):
    """Scaled interference term of order m at dummy coordinates (r, s).

    Expanding L_m^{-1/2}(z) with z = (r +/- s)^2 / (sigma_x^2 + sigma_y^2)
    into monomials r^i s^j, the SIT is the ratio of the cross terms
    (i >= 1 and j >= 1) to the single-variable terms (exactly one of i, j
    nonzero); the constant monomial belongs to neither sum. Where the
    denominator vanishes the result follows IEEE semantics: signed infinity
    for a nonzero numerator, NaN when both sums vanish. Raises
    OverflowError when the series leaves the double range (large m).
    """
    return _sit_series(_sit_coeffs(m, sigma_x, sigma_y), r, s, form)


def _sit_series(ck, r, s, form):
    """The SIT from its scaled coefficients ck (from :func:`_sit_coeffs`)."""
    m = len(ck) - 1
    if form not in SIT_FORMS:
        raise ValueError(f"form must be one of {list(SIT_FORMS)}, got {form!r}")
    r = np.asarray(r, dtype=float)
    s = np.asarray(s, dtype=float)
    t = r + s if form == "sum" else r - s
    # powers of the squares keep the result exactly even in each variable,
    # so the difference form equals the sum form under s -> -s bitwise
    r2, s2, t2 = r * r, s * s, t * t
    num = np.zeros(np.broadcast(r, s).shape)
    den = np.zeros_like(num)
    # non-finite values are checked below; worker threads do not inherit errstate
    with np.errstate(all="ignore"):
        for k in range(1, m + 1):
            r2k, s2k = r2 ** k, s2 ** k
            num += ck[k] * (t2 ** k - r2k - s2k)
            den += ck[k] * (r2k + s2k)
        out = num / den
    zero = den == 0.0
    if not (np.isfinite(out) | zero).all():
        raise OverflowError(f"the SIT at m={m} overflows double precision on this grid")
    out = np.where(zero & (num > 0), np.inf, out)
    out = np.where(zero & (num < 0), -np.inf, out)
    out = np.where(zero & (num == 0), np.nan, out)
    return out if out.ndim else float(out)


def sit_field(m, sigma_x, sigma_y, grid, form="sum", clamp_cap=1e12, threads=None):
    """Sample the SIT over an (r, s) grid.

    Values are stored raw (IEEE infinities and the NaN at the undefined
    origin preserved); ``clamp_cap`` is recorded in the metadata as the
    finite cap renderers should apply.
    """
    got = (grid.axis1.label, grid.axis2.label)
    if got != ("r", "s"):
        raise ValueError(f"SIT grids use axes ('r', 's'), got {got}")
    meta = {
        "quantity": "sit",
        "m": str(m),
        "sigma_x": _fmt(sigma_x),
        "sigma_y": _fmt(sigma_y),
        "form": form,
        "clamp_cap": _fmt(clamp_cap),
        "allow_nonfinite": "true",
    }
    ck = _sit_coeffs(m, sigma_x, sigma_y)     # exact arithmetic, once per field
    return sample_field(lambda rr, ss: _sit_series(ck, rr, ss, form), grid, threads=threads, metadata=meta)


def count_strict_minima(field):
    """Count interior nodes of a field strictly below all 8 neighbors with |W| > 1e-12."""
    v = field.values
    center = v[1:-1, 1:-1]
    mask = np.abs(center) > 1e-12
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            mask &= center < v[1 + di:v.shape[0] - 1 + di, 1 + dj:v.shape[1] - 1 + dj]
    return int(mask.sum())
