"""Independent numerical Wigner transform of the position-space wavefunction.

This module never looks at the closed forms: it integrates ``psi`` directly,

    W(x, y, px, py) = (1/pi^2) integral psi*(x+u, y+v) psi(x-u, y-v)
                      exp(2i (px u + py v)) du dv,

by nested adaptive Gauss-Legendre quadrature (outer u, inner v) over the
truncated box [-R, R]^2, R = truncation_radius * max(sigma_x, sigma_y).
The integrand is a Gaussian times a polynomial times a bounded oscillation,
so panel bisection with a two-level error estimate converges quickly; the
Gaussian tail beyond 6 sigma is below 1e-15 for every state in scope.

The transform of a pure state is real; the imaginary part of the computed
integral is retained as a convergence diagnostic and must stay below
10 * abs_tol.
"""

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .state import psi

__all__ = [
    "QuadratureSpec",
    "OracleConvergenceError",
    "ShapeMismatchError",
    "WignerQuadResult",
    "CalibrationResult",
    "oracle_wigner",
    "oracle_wigner_full",
    "oracle_marginal_xy",
    "oracle_norm",
    "calibrate_constant",
    "calibrate_constant_detailed",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and truncation for the numerical transform."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-9
    max_subdivisions: int = 400
    truncation_radius: float = 8.0

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 4:
            raise ValueError("max_subdivisions must be at least 4")
        if self.truncation_radius < 6.0:
            raise ValueError("truncation_radius must be >= 6 (Gaussian tail control)")

    def halved(self):
        return replace(self, abs_tol=self.abs_tol / 2.0, rel_tol=self.rel_tol / 2.0)


class OracleConvergenceError(RuntimeError):
    """Quadrature failed to converge; carries the best estimate and bound."""

    def __init__(self, message, best_estimate, error_bound):
        super().__init__(f"{message} (best estimate {best_estimate!r}, error bound {error_bound:g})")
        self.best_estimate = best_estimate
        self.error_bound = error_bound


class ShapeMismatchError(RuntimeError):
    """Calibration refused: the oracle/shape ratio is not constant."""

    def __init__(self, ratios, probes):
        spread = (max(ratios) - min(ratios)) / max(abs(r) for r in ratios)
        super().__init__(
            f"oracle/closed-form ratio varies by {spread:.3e} across probes; "
            "no constant calibration exists"
        )
        self.ratios = tuple(ratios)
        self.probes = tuple(probes)


@lru_cache(maxsize=None)
def _gl(n):
    return np.polynomial.legendre.leggauss(n)


_GL_N = 15


def _panel_eval(f, a, b):
    """Two-level Gauss-Legendre estimate of integral f over [a, b].

    f maps a node vector (k,) to values (..., k); returns the fine estimate
    (half-panel rule) and the |fine - coarse| error, both over the batch.
    """
    xs, ws = _gl(_GL_N)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    nodes = np.concatenate([
        mid + half * xs,                               # coarse
        a + 0.5 * half * (xs + 1.0),                   # fine, left half
        mid + 0.5 * half * (xs + 1.0),                 # fine, right half
    ])
    vals = f(nodes)
    coarse = half * vals[..., :_GL_N] @ ws
    fine = 0.5 * half * (vals[..., _GL_N:2 * _GL_N] @ ws + vals[..., 2 * _GL_N:] @ ws)
    err = np.max(np.abs(fine - coarse))
    return fine, float(err)


def _adaptive_quad(f, a, b, abs_tol, rel_tol, max_panels):
    """Adaptive panel-bisection quadrature of a batched integrand.

    Returns (integral over the batch, error bound). Raises
    :class:`OracleConvergenceError` when the panel budget is exhausted.
    """
    val, err = _panel_eval(f, a, b)
    panels = [(err, a, b, val)]
    while True:
        total_err = sum(p[0] for p in panels)
        total = sum(p[3] for p in panels)
        scale = float(np.max(np.abs(total)))
        if total_err <= max(abs_tol, rel_tol * scale):
            return total, total_err
        if len(panels) >= max_panels:
            raise OracleConvergenceError("quadrature did not converge", total, total_err)
        worst = max(range(len(panels)), key=lambda i: panels[i][0])
        _, pa, pb, _ = panels.pop(worst)
        pm = 0.5 * (pa + pb)
        for qa, qb in ((pa, pm), (pm, pb)):
            v, e = _panel_eval(f, qa, qb)
            panels.append((e, qa, qb, v))


@dataclass(frozen=True)
class WignerQuadResult:
    value: float
    imag_residue: float
    error_bound: float


def _transform_integral(params, kernel_u, kernel_v, x, y, q):
    """Nested adaptive integral of psi*(x+u, y+v) psi(x-u, y-v) K(u) K(v)."""
    r = q.truncation_radius * max(params.sigma_x, params.sigma_y)
    inner_tol = q.abs_tol / (8.0 * r)

    def outer(us):
        def inner(vs):
            u = us[:, None]
            v = vs[None, :]
            return np.conj(psi(params, x + u, y + v)) * psi(params, x - u, y - v) * kernel_v(v)

        inner_val, _ = _adaptive_quad(inner, -r, r, inner_tol, q.rel_tol, q.max_subdivisions)
        return inner_val * kernel_u(us)

    val, err = _adaptive_quad(outer, -r, r, q.abs_tol, q.rel_tol, q.max_subdivisions)
    return complex(val), err + 2.0 * r * inner_tol


def oracle_wigner_full(params, x, y, px, py, q=QuadratureSpec()):
    """Numerical Wigner transform with diagnostics."""
    val, err = _transform_integral(
        params,
        kernel_u=lambda us: np.exp(2j * px * us),
        kernel_v=lambda v: np.exp(2j * py * v),
        x=x, y=y, q=q,
    )
    val = val / math.pi ** 2
    res = WignerQuadResult(value=val.real, imag_residue=abs(val.imag), error_bound=err / math.pi ** 2)
    if res.imag_residue > 10.0 * q.abs_tol:
        raise OracleConvergenceError("imaginary residue exceeds the realness bound",
                                     res.value, res.imag_residue)
    return res


def oracle_wigner(params, x, y, px, py, q=QuadratureSpec()):
    """Numerical Wigner transform at a phase-space point (real value)."""
    return oracle_wigner_full(params, x, y, px, py, q).value


def oracle_marginal_xy(params, x, y, q=QuadratureSpec()):
    """Momentum marginal of the Wigner transform at (x, y).

    Integrates W over the momentum box |px - px0| <= 6/sigma_x,
    |py - py0| <= 6/sigma_y analytically in p (Dirichlet kernels), then
    numerically over (u, v) at reduced tolerance. The analytic identity
    makes this equal |psi(x, y)|^2; both values must agree within 1e-5 and
    the quadrature value is returned.
    """
    pu = 6.0 / params.sigma_x
    pv = 6.0 / params.sigma_y
    qm = replace(q, abs_tol=max(q.abs_tol * 1e3, 1e-10))

    def dirichlet(limit, center):
        def k(t):
            # integral of exp(2i p t) over |p - center| <= limit
            return 2.0 * limit * np.sinc(2.0 * limit * t / np.pi) * np.exp(2j * center * t)
        return k

    val, _ = _transform_integral(
        params,
        kernel_u=dirichlet(pu, params.px0),
        kernel_v=dirichlet(pv, params.py0),
        x=x, y=y, q=qm,
    )
    quad_value = val.real / math.pi ** 2
    shortcut = abs(psi(params, x, y)) ** 2
    if abs(quad_value - shortcut) > 1e-5:
        raise OracleConvergenceError(
            "momentum marginal disagrees with |psi|^2 beyond 1e-5", quad_value,
            abs(quad_value - shortcut))
    return quad_value


def oracle_norm(params, q=QuadratureSpec()):
    """Adaptive quadrature of |psi|^2 over the truncated position box."""
    r = q.truncation_radius * max(params.sigma_x, params.sigma_y)
    inner_tol = q.abs_tol / (8.0 * r)

    def outer(xs):
        def inner(ys):
            p = psi(params, params.x0 + xs[:, None], params.y0 + ys[None, :])
            return p.real ** 2 + p.imag ** 2
        val, _ = _adaptive_quad(inner, -r, r, inner_tol, q.rel_tol, q.max_subdivisions)
        return val

    val, _ = _adaptive_quad(outer, -r, r, q.abs_tol, q.rel_tol, q.max_subdivisions)
    return float(val)


_PROBE_OFFSETS = (
    (0.31, 0.22, -0.27, 0.18),
    (0.73, -0.41, 0.33, -0.24),
    (-0.52, 0.63, 0.21, 0.44),
    (0.24, -0.36, -0.61, 0.52),
    (-0.43, -0.28, 0.54, -0.37),
    (0.62, 0.47, 0.29, 0.36),
    (-0.33, 0.51, -0.45, -0.26),
    (0.85, 0.12, -0.38, 0.61),
    (-0.64, -0.55, 0.42, 0.23),
    (0.18, 0.74, 0.56, -0.49),
)


@dataclass(frozen=True)
class CalibrationResult:
    constant: float
    probes: tuple
    shape_values: tuple
    oracle_values: tuple
    ratios: tuple

    @property
    def spread(self):
        return (max(self.ratios) - min(self.ratios)) / max(abs(r) for r in self.ratios)


def calibrate_constant_detailed(params, q=QuadratureSpec(), *, shape, n_probes=5):
    """Fit the overall constant of a closed-form shape against the oracle.

    ``shape`` maps (params, x, y, px, py) to the constant-free closed form
    (``wigner.FORMS[name].shape``). Probes are deterministic scaled offsets
    from the displaced center, skipping points where either value is below
    1e-8 in magnitude. Raises :class:`ShapeMismatchError` when the ratios
    vary by more than 1e-6 relative.
    """
    probes, shapes, oracles, ratios = [], [], [], []
    for offsets in _PROBE_OFFSETS:
        if len(probes) == n_probes:
            break
        pt = params.phase_point(*offsets)
        sv = float(shape(params, *pt))
        if abs(sv) < 1e-8:
            continue
        ov = oracle_wigner(params, *pt, q=q)
        if abs(ov) < 1e-8:
            continue
        probes.append(pt)
        shapes.append(sv)
        oracles.append(ov)
        ratios.append(ov / sv)
    if len(probes) < n_probes:
        raise ValueError("not enough usable probe points; state too degenerate")
    spread = (max(ratios) - min(ratios)) / max(abs(r) for r in ratios)
    if spread >= 1e-6:
        raise ShapeMismatchError(ratios, probes)
    return CalibrationResult(
        constant=float(np.mean(ratios)),
        probes=tuple(probes),
        shape_values=tuple(shapes),
        oracle_values=tuple(oracles),
        ratios=tuple(ratios),
    )


def calibrate_constant(params, q=QuadratureSpec(), *, shape):
    """Calibrated overall constant (see :func:`calibrate_constant_detailed`)."""
    return calibrate_constant_detailed(params, q=q, shape=shape).constant
