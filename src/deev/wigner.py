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

* :func:`wigner4d_candidate` -- an alternative closed-form candidate with an
  associated Laguerre factor of order -1/2 in a single squared combination.
  In the eight shifted-and-scaled variables of its docstring it reads

      W = K exp(-(x1^2+y1^2+px1^2+py1^2))
          L_m^{-1/2}((px2 + py2 - x2 - y2)^2 / (sigma_x^2 + sigma_y^2))

  with K = :func:`candidate_constant`. Its reduced slices show the striped
  structure with exactly m minima in the mixed planes, but the oracle
  adjudication reports a shape mismatch against the Wigner transform (see
  the verify command); it is retained for comparison and for that
  adjudication, not as a validated quantity.

A 2D slice is named by its grid's axis labels, one of the six pairs in
:data:`PLANES` (``"xpx"`` is the grid labeled ``("x", "px")``). ``PLANES``,
``FORMS`` and ``SIT_FORMS`` are the package's (``deev.PLANES``);
:data:`CLOSED_FORMS` keys each closed form by its name in ``FORMS``.
"""

import math
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS, FORMS, PLANES, SIT_FORMS
from .gridio import AxisSpec, GridSpec, _fmt, sample_field
from .special import alp_coeffs, alp_eval, gamma_half_integer
from .state import SQRT2, _param_metadata

__all__ = list(_EXPORTS["wigner"])

STANDARD, CANDIDATE = FORMS


def standard_constant(m):
    """Constant of the validated closed form: (-1)^m / pi^2."""
    return (-1.0) ** m / math.pi ** 2


def candidate_constant(m, sigma_x, sigma_y):
    """Nominal constant of the candidate form; OverflowError naming m if it does not fit a double.

    2^(m-4) m! / (pi sqrt(pi) Gamma(m + 1/2)) * (-2 (sigma_x^2 + sigma_y^2))^m
    """
    with suppress(OverflowError):       # an int too large for a float, or a float power
        base = 2.0 ** (m - 4) * math.factorial(m) / (math.pi * math.sqrt(math.pi) * gamma_half_integer(m))
        constant = base * (-2.0 * (sigma_x ** 2 + sigma_y ** 2)) ** m
        if np.finfo(float).tiny <= abs(constant) < math.inf:     # a normal double
            return constant
    raise OverflowError(f"the candidate closed form's constant at m={m} does not fit a double")


def _require_tied(params, what):
    if not params.is_eta_tied:
        raise ValueError(
            f"{what} requires eta_x sigma_x == eta_y sigma_y "
            f"(got {params.eta_x * params.sigma_x!r} vs {params.eta_y * params.sigma_y!r}); "
            "use the oracle module for untied weights"
        )


def _finite(out, form, m):
    """Return W, which is finite everywhere: a non-finite value is an overflow."""
    if not np.isfinite(out).all():
        raise OverflowError(f"the {form} closed form at m={m} overflows double precision on this grid")
    return out if np.ndim(out) else float(out)


def wigner4d(params, x, y, px, py, constant=None):
    """Validated closed-form Wigner function; scalar or array arguments; OverflowError if not finite."""
    _require_tied(params, "wigner4d")
    if constant is None:
        constant = standard_constant(params.m)
    # set here, not by a caller: worker threads do not inherit errstate
    with np.errstate(over="ignore", invalid="ignore"):
        a, b, p, q = params.offsets(*(np.asarray(v, dtype=float) for v in (x, y, px, py)))
        s = params.sign
        arg = (a + s * q) ** 2 + (b - s * p) ** 2
        out = constant * np.exp(-(a * a + b * b + p * p + q * q)) * alp_eval(params.m, 0.0, arg)
    return _finite(out, STANDARD, params.m)


def wigner4d_candidate(params, x, y, px, py, constant=None):
    """Candidate closed form (see the module docstring) in the variables

        x1 = (x - x0)/sigma_x          px1 = sigma_x (px - px0)/sqrt(2)
        y1 = (y - y0)/sigma_y          py1 = sigma_y (py - py0)/sqrt(2)
        x2 = sigma_y (x - x0)/(2 sigma_x)   px2 = sigma_y^3 (px - px0)/sqrt(2)
        y2 = sigma_x (y - y0)/(2 sigma_y)   py2 = sigma_x^3 (py - py0)/sqrt(2)

    all eight of which vanish at the displaced phase-space center. Overflow raises as in wigner4d.
    """
    _require_tied(params, "wigner4d_candidate")
    sx, sy = params.sigma_x, params.sigma_y
    if constant is None:
        constant = candidate_constant(params.m, sx, sy)
    # set here, not by a caller: worker threads do not inherit errstate
    with np.errstate(over="ignore", invalid="ignore"):
        sx, sy = np.float64(sx), np.float64(sy)     # a float power raises OverflowError; these give inf
        dx = np.asarray(x, dtype=float) - params.x0
        dy = np.asarray(y, dtype=float) - params.y0
        dpx = np.asarray(px, dtype=float) - params.px0
        dpy = np.asarray(py, dtype=float) - params.py0
        x1, y1, px1, py1 = dx / sx, dy / sy, sx * dpx / SQRT2, sy * dpy / SQRT2
        x2, y2 = sy * dx / (2.0 * sx), sx * dy / (2.0 * sy)
        px2, py2 = sy ** 3 * dpx / SQRT2, sx ** 3 * dpy / SQRT2
        gauss = np.exp(-(x1 ** 2 + y1 ** 2 + px1 ** 2 + py1 ** 2))
        arg = (px2 + py2 - x2 - y2) ** 2 / (sx ** 2 + sy ** 2)
        out = constant * gauss * alp_eval(params.m, -0.5, arg)
    return _finite(out, CANDIDATE, params.m)


@dataclass(frozen=True)
class ClosedForm:
    """A closed-form Wigner expression and its nominal overall constant."""

    evaluate: object    # (params, x, y, px, py, constant=None) -> W
    nominal: object     # params -> overall constant


CLOSED_FORMS = {
    STANDARD: ClosedForm(wigner4d, lambda p: standard_constant(p.m)),
    CANDIDATE: ClosedForm(wigner4d_candidate, lambda p: candidate_constant(p.m, p.sigma_x, p.sigma_y)),
}


def _closed_form(name):
    """The :class:`ClosedForm` named ``name`` in :data:`FORMS`; ValueError for any other name."""
    if name not in CLOSED_FORMS:
        raise ValueError(f"form must be one of {sorted(CLOSED_FORMS)}, got {name!r}")
    return CLOSED_FORMS[name]


_PLANE_OF = {labels: name for name, labels in PLANES.items()}
_LABELS = ("x", "y", "px", "py")    # the coordinates of a phase-space point, in order


def canonical_slice_grid(params, plane):
    """Symmetric 301 x 301 grid around the displaced center, 3 widths per axis,
    on the plane named ``plane`` (a key of :data:`PLANES`).

    Position half-widths are 3 sigma; momentum half-widths 3 sqrt(2)/sigma,
    wide enough for the slow momentum decay of the candidate form.
    """
    k = 3.0 * SQRT2
    lo = dict(zip(_LABELS, params.phase_point(-3.0, -3.0, -k, -k)))
    hi = dict(zip(_LABELS, params.phase_point(3.0, 3.0, k, k)))
    axes = [AxisSpec(label=label, lo=lo[label], hi=hi[label], count=301) for label in PLANES[plane]]
    return GridSpec(axis1=axes[0], axis2=axes[1])


def wigner_slice(params, grid, form=STANDARD, threads=None):
    """Sample the 2D reduction of the 4D Wigner function that the grid's axis labels name.

    The labels must be one of the pairs in :data:`PLANES`. ``form`` names the
    closed form in :data:`CLOSED_FORMS`, evaluated with its nominal constant. The
    form raises OverflowError when it leaves the double range (large m).
    """
    closed = _closed_form(form)
    labels = (grid.axis1.label, grid.axis2.label)
    if labels not in _PLANE_OF:
        raise ValueError(f"grid labels {labels} name no plane; use one of {list(PLANES.values())}")
    pinned = {"x": params.x0, "y": params.y0, "px": params.px0, "py": params.py0}
    fn4d = closed.evaluate
    constant = closed.nominal(params)

    def fn(a1, a2):
        coords = dict(pinned)
        coords[labels[0]] = a1
        coords[labels[1]] = a2
        return fn4d(params, coords["x"], coords["y"], coords["px"], coords["py"], constant=constant)

    meta = _param_metadata(params)
    meta["quantity"] = "wigner"
    meta["plane"] = _PLANE_OF[labels]
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
    d = math.inf        # unless the sum below fits a double
    try:
        # 0.0 stands in for c_m = (-1)^m / m!, which is subnormal for every m >= 171
        cs = alp_coeffs(m, -0.5) if m < 171 else [0.0]
        with np.errstate(all="ignore"):     # numpy scalar widths warn where floats raise
            d = sigma_x ** 2 + sigma_y ** 2
            ck = [c / d ** k for k, c in enumerate(cs)]
    except (OverflowError, ZeroDivisionError):
        cs = ck = [math.inf]                # fails the check below
    if not all(np.finfo(float).tiny <= abs(c) < math.inf for c in [*cs, *ck]):
        raise OverflowError(f"the SIT coefficients at m={m} leave the double range for "
                            f"sigma_x^2 + sigma_y^2 = {d:g}")
    return ck


def _sit_series(ck, r, s, form):
    """Scaled interference term of order m = len(ck) - 1 at dummy coordinates (r, s).

    ``ck`` are the scaled coefficients from :func:`_sit_coeffs`. Expanding
    L_m^{-1/2}(z) with z = (r +/- s)^2 / (sigma_x^2 + sigma_y^2) into
    monomials r^i s^j, the SIT is the ratio of the cross terms (i >= 1 and
    j >= 1) to the single-variable terms (exactly one of i, j nonzero); the
    constant monomial belongs to neither sum. Where the denominator
    vanishes the result follows IEEE semantics: signed infinity for a
    nonzero numerator, NaN when both sums vanish. Raises OverflowError when
    the series leaves the double range (large m).
    """
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
