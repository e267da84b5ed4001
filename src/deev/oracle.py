"""Independent numerical Wigner transform of the position-space wavefunction.

This module only measures: it integrates ``psi`` directly,

    W(x, y, px, py) = (1/pi^2) integral psi*(x+u, y+v) psi(x-u, y-v)
                      exp(2i (px u + py v)) du dv.

Every integrand here is the exact Gaussian envelope
exp(-u^2/sigma_x^2 - v^2/sigma_y^2) times an entire function (a polynomial
of degree 2m times a plane wave or a sinc kernel), so a tensor
Gauss-Hermite rule in u/sigma_x, v/sigma_y integrates it over the whole
plane, with no truncation box. Each evaluation computes the n-node and the
2n-node results and reports their difference as the error bound; n doubles
until the bound meets max(abs_tol, rel_tol * |value|), or the per-axis node
budget of 360 is spent; a rule whose value is not finite (the integrand
overflows at extreme widths) raises OverflowError at once. The starting n
grows with m and with the kernel's frequency in u/sigma_x, v/sigma_y: the
momentum offset from the state's center for the plane wave, and 12 for the
marginal's Dirichlet kernels whatever the widths (the center's momentum
cancels), so its start is m + 64.

The transform of a pure state is real; the imaginary part of the computed
integral is retained as a convergence diagnostic and must stay below
10 * abs_tol.

Which points are compared, against what, and how closely they must agree
is decided in ``deev.verify``.
"""

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .state import psi

__all__ = [
    "QuadratureSpec",
    "OracleConvergenceError",
    "WignerQuadResult",
    "oracle_wigner",
    "oracle_wigner_full",
    "oracle_marginal_xy",
    "oracle_norm",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances of the Gauss-Hermite rule, on the value each oracle function returns."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-9

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("tolerances must be positive")

    def halved(self):
        return replace(self, abs_tol=self.abs_tol / 2.0, rel_tol=self.rel_tol / 2.0)


class OracleConvergenceError(RuntimeError):
    """Quadrature failed to converge; carries the best estimate and bound."""

    def __init__(self, message, best_estimate, error_bound):
        super().__init__(f"{message} (best estimate {best_estimate:.6g}, error bound {error_bound:g})")
        self.best_estimate = best_estimate
        self.error_bound = error_bound


# per-axis node budget: numpy's hermgauss returns nan weights above 371 nodes
_MAX_NODES = 360


@lru_cache(maxsize=None)
def _rule(n):
    """n-node Gauss-Hermite nodes s and weights w e^{s^2} (the envelope removed)."""
    s, w = np.polynomial.hermite.hermgauss(n)
    with np.errstate(divide="ignore"):
        w = np.exp(np.log(w) + s * s)       # finite where e^{s^2} alone overflows
    s.flags.writeable = w.flags.writeable = False
    return s, w


def _self_checked(integral, n, q, m):
    """Evaluate ``integral(n)`` and ``integral(2n)``, doubling n until they agree.

    Returns the 2n-node value and |I_n - I_2n|. No rule uses more than
    ``_MAX_NODES`` nodes per axis; when that budget is spent,
    :class:`OracleConvergenceError` carries the best value and its bound.
    A rule whose value is not finite raises OverflowError naming the state's m.
    """
    def checked(k):
        with np.errstate(over="ignore", invalid="ignore"):
            value = integral(k)
        if not np.isfinite(value):
            raise OverflowError(f"the oracle's integrand at m={m} overflows double precision")
        return value

    n = min(n, _MAX_NODES // 2)
    coarse = checked(n)
    while True:
        fine = checked(2 * n)
        err = abs(fine - coarse)
        if err <= max(q.abs_tol, q.rel_tol * abs(fine)):
            return fine, err
        if 4 * n > _MAX_NODES:
            raise OracleConvergenceError(
                f"Gauss-Hermite rule did not converge within {_MAX_NODES} nodes per axis",
                fine, err)
        n, coarse = 2 * n, fine


@dataclass(frozen=True)
class WignerQuadResult:
    value: float
    imag_residue: float
    error_bound: float


def _transform_integral(params, kernel_u, kernel_v, x, y, n, q):
    """(1/pi^2) integral of psi*(x+u, y+v) psi(x-u, y-v) K(u) K(v), from n nodes per axis."""
    sx, sy = params.sigma_x, params.sigma_y

    def integral(k):
        s, w = _rule(k)
        u, v = sx * s, sy * s
        a = psi(params, x + u[:, None], y + v[None, :])
        # the nodes are symmetric, so psi(x - u, y - v) is `a` reversed on both axes
        f = np.conj(a) * a[::-1, ::-1]
        return sx * sy * ((w * kernel_u(u)) @ f @ (w * kernel_v(v))) / math.pi ** 2

    return _self_checked(integral, n, q, params.m)


def oracle_wigner_full(params, x, y, px, py, q=QuadratureSpec()):
    """Numerical Wigner transform with diagnostics."""
    offset = max(abs(px - params.px0) * params.sigma_x, abs(py - params.py0) * params.sigma_y)
    val, err = _transform_integral(
        params,
        kernel_u=lambda u: np.exp(2j * px * u),
        kernel_v=lambda v: np.exp(2j * py * v),
        x=x, y=y, n=params.m + 16 + 2 * math.ceil(2.0 * offset), q=q,
    )
    res = WignerQuadResult(value=val.real, imag_residue=abs(val.imag), error_bound=err)
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
    numerically over (u, v) at reduced tolerance, and returns the quadrature
    value. The analytic identity makes it equal |psi(x, y)|^2 up to the
    box's Gaussian tails; the verify marginal suite judges the agreement.
    The absolute tolerance is divided by sigma_x sigma_y, the scale of
    |psi|^2, so convergence does not depend on the unit of length.
    """
    pu = 6.0 / params.sigma_x
    pv = 6.0 / params.sigma_y
    qm = replace(q, abs_tol=max(q.abs_tol * 1e3, 1e-10) / (params.sigma_x * params.sigma_y))

    def dirichlet(limit, center):
        def k(t):
            # integral of exp(2i p t) over |p - center| <= limit
            return 2.0 * limit * np.sinc(2.0 * limit * t / np.pi) * np.exp(2j * center * t)
        return k

    val, _ = _transform_integral(
        params,
        kernel_u=dirichlet(pu, params.px0),
        kernel_v=dirichlet(pv, params.py0),
        x=x, y=y, n=params.m + 64, q=qm,
    )
    return val.real


def oracle_norm(params, q=QuadratureSpec()):
    """Gauss-Hermite quadrature of |psi|^2 over the plane.

    Starts from m + 8 nodes per axis, not the m + 2 of
    ``DeevParams.norm_constant``, so the check does not repeat the state's
    own rule.
    """
    sx, sy = params.sigma_x, params.sigma_y

    def integral(k):
        s, w = _rule(k)
        p = psi(params, params.x0 + sx * s[:, None], params.y0 + sy * s[None, :])
        return sx * sy * (w @ (p.real ** 2 + p.imag ** 2) @ w)

    val, _ = _self_checked(integral, params.m + 8, q, params.m)
    return float(val)
