"""Independent numerical Wigner transform of the position-space wavefunction.

This module only measures: it integrates ``psi``,

    W(x, y, px, py) = (1/pi^2) integral psi*(x+u, y+v) psi(x-u, y-v)
                      exp(2i (px u + py v)) du dv,

in the state's own frame: at the scaled offsets (A, B, P, Q) =
``params.offsets(x, y, px, py)`` every integral evaluates
``psi(params.scaled, A + t, B + w)`` in t = u/sigma_x, w = v/sigma_y, with
kernels exp(2iPt), exp(2iQw). Each factor is O(1) whatever the widths and the
displacement, and no width enters a value; the momentum marginal comes out in
the same units, sigma_x sigma_y |psi(x, y)|^2. The marginal suite checks raw
psi's displacement and normalization, tests/test_state.py its plane wave
(which cancels there).

Every integrand is exp(-t^2 - w^2) times an entire function (a polynomial of
degree 2m times a plane wave or a sinc kernel), so a tensor Gauss-Hermite
rule in t, w integrates it over the whole plane, with no truncation box.
Each evaluation computes the n-node and the 2n-node results and reports
their difference as the error bound; n doubles until the bound meets
max(abs_tol, rel_tol * |value|), or the per-axis node budget of 370
(numpy's largest rule, ``state._MAX_RULE_NODES``) is spent; a rule whose
value is not finite (the integrand leaves the double range) raises
OverflowError at once. Every integral starts from one rule,
n = m + 16 + 2 ceil(2 f), where f is the kernel's frequency: max(|P|, |Q|)
for the plane wave, 12 for the marginal's Dirichlet kernels (so m + 64) and
0 for the norm (so m + 16).

The transform of a pure state is real; the imaginary part of the computed
integral must stay below 10 * abs_tol, or OracleConvergenceError is raised.

Which points are compared, against what, and how closely they must agree
is decided in ``deev.verify``.
"""

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import _EXPORTS
from .state import _MAX_RULE_NODES, psi

__all__ = list(_EXPORTS["oracle"])


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


@lru_cache(maxsize=None)
def _rule(n):
    """n-node Gauss-Hermite nodes s and weights w e^{s^2} (the envelope removed)."""
    s, w = np.polynomial.hermite.hermgauss(n)
    with np.errstate(divide="ignore"):
        w = np.exp(np.log(w) + s * s)       # finite where e^{s^2} alone overflows
    s.flags.writeable = w.flags.writeable = False
    return s, w


def _self_checked(integral, f, q, m):
    """Evaluate ``integral(n)`` and ``integral(2n)``, doubling n until they agree.

    The first n is m + 16 + 2 ceil(2 f), for a kernel of frequency f.
    Returns the 2n-node value and |I_n - I_2n|. No rule uses more than
    ``_MAX_RULE_NODES`` nodes per axis; when that budget is spent,
    :class:`OracleConvergenceError` carries the best value and its bound.
    A rule whose value is not finite raises OverflowError naming the state's m.
    """
    def checked(k):
        with np.errstate(over="ignore", invalid="ignore"):
            value = integral(k)
        if not np.isfinite(value):
            raise OverflowError(f"the oracle's integrand at m={m} overflows double precision")
        return value

    n = min(m + 16 + 2 * math.ceil(2.0 * f), _MAX_RULE_NODES // 2)
    coarse = checked(n)
    while True:
        fine = checked(2 * n)
        err = abs(fine - coarse)
        if err <= max(q.abs_tol, q.rel_tol * abs(fine)):
            return fine, err
        if 4 * n > _MAX_RULE_NODES:
            raise OracleConvergenceError(
                f"Gauss-Hermite rule did not converge within {_MAX_RULE_NODES} nodes per axis",
                fine, err)
        n, coarse = 2 * n, fine


def _transform_integral(params, kernel_t, kernel_w, a0, b0, f, q):
    """(1/pi^2) integral of c*(A+t, B+w) c(A-t, B-w) K(t) K(w) dt dw, for kernels of frequency f.

    c is ``psi`` of ``params.scaled`` and (A, B) = (a0, b0) the point's scaled position offsets.
    """
    def integral(k):
        s, w = _rule(k)     # the nodes s serve as both t and w
        a = psi(params.scaled, a0 + s[:, None], b0 + s[None, :])
        # the nodes are symmetric, so c(A - t, B - w) is `a` reversed on both axes
        g = np.conj(a) * a[::-1, ::-1]
        return ((w * kernel_t(s)) @ g @ (w * kernel_w(s))) / math.pi ** 2

    return _self_checked(integral, f, q, params.m)


def oracle_wigner(params, x, y, px, py, q=QuadratureSpec()):
    """Numerical Wigner transform at a phase-space point (real value).

    Raises OracleConvergenceError when the imaginary part exceeds 10 * abs_tol.
    """
    A, B, P, Q = params.offsets(x, y, px, py)
    val, _ = _transform_integral(
        params, lambda t: np.exp(2j * P * t), lambda w: np.exp(2j * Q * w),
        A, B, f=max(abs(P), abs(Q)), q=q)
    if abs(val.imag) > 10.0 * q.abs_tol:
        raise OracleConvergenceError("imaginary residue exceeds the realness bound", val.real, abs(val.imag))
    return val.real


def oracle_marginal_xy(params, x, y, q=QuadratureSpec()):
    """Momentum marginal of the Wigner transform at (x, y), in the state's units.

    Integrates W over the momentum box |P|, |Q| <= 6 analytically (Dirichlet
    kernels), then numerically over (t, w) at reduced tolerance. The analytic
    identity makes it equal sigma_x sigma_y |psi(x, y)|^2 up to the box's
    Gaussian tails; the verify marginal suite judges the agreement.
    """
    def dirichlet(t):       # the integral of exp(2iPt) over |P| <= 6
        return 12.0 * np.sinc(12.0 * t / np.pi)

    A, B, _, _ = params.offsets(x, y, params.px0, params.py0)
    val, _ = _transform_integral(params, dirichlet, dirichlet, A, B, f=12.0,
                                 q=replace(q, abs_tol=max(q.abs_tol * 1e3, 1e-10)))
    return val.real


def oracle_norm(params, q=QuadratureSpec()):
    """Gauss-Hermite quadrature of |psi|^2 over the plane, in the state's own frame.

    Starts from m + 16 nodes per axis (the oracle's one start rule at
    frequency 0), not the m + 2 of ``DeevParams.norm_constant``, so the
    check does not repeat the state's own rule.
    """
    def integral(k):
        s, w = _rule(k)
        p = psi(params.scaled, s[:, None], s[None, :])
        return w @ (p.real ** 2 + p.imag ** 2) @ w

    val, _ = _self_checked(integral, 0.0, q, params.m)
    return float(val)
