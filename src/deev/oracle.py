"""Independent numerical Wigner transform of the position-space wavefunction.

This module only measures: it integrates ``psi``,

    W(x, y, px, py) = (1/pi^2) integral psi*(x+u, y+v) psi(x-u, y-v)
                      exp(2i (px u + py v)) du dv,

in the state's own frame: at the scaled offsets (A, B, P, Q) =
``params.offsets(x, y, px, py)`` every integral evaluates
``psi(params.scaled, A + t, B + w)`` in t = u/sigma_x, w = v/sigma_y, with
kernels exp(2iPt), exp(2iQw). Each factor is O(1) whatever the widths and the
displacement, and no width enters a value; the momentum marginal comes out in
the same units, sigma_x sigma_y |psi(x, y)|^2.

Every integrand is exp(-t^2 - w^2) times an entire function (a polynomial of
degree 2m times a plane wave or a sinc kernel), so a tensor Gauss-Hermite
rule in t, w integrates it over the whole plane, with no truncation box.
Each evaluation computes the n-node and the 2n-node results and takes
their difference as the error bound; n doubles until the bound meets the
oracle's tolerance, max(1e-12, 1e-9 |value|) (``_tolerance``; 1e-9 absolute
for the marginal), or the per-axis node budget of 370
(numpy's largest rule, ``state._MAX_RULE_NODES``) is spent; a rule whose
value is not finite (the integrand leaves the double range) raises
OverflowError at once. Every integral starts from one rule,
n = m + 16 + 2 ceil(2 f), where f is the kernel's frequency: max(|P|, |Q|)
for the plane wave, 12 for the marginal's Dirichlet kernels (so m + 64) and
0 for the norm (so m + 16).

The transform of a pure state is real; the imaginary part of the computed
integral must stay below 1e-11, or OracleConvergenceError is raised.
``oracle_wigner`` returns the value with its bound.

Which points are compared, against what, and how closely they must agree
is decided in ``deev.verify``.
"""

import math
from functools import lru_cache

import numpy as np

from . import _EXPORTS
from .state import _MAX_RULE_NODES, psi

__all__ = list(_EXPORTS["oracle"])


# the tolerance of each oracle function's value, max(abs, rel |value|); the marginal's absolute part is relaxed
_ABS_TOL, _REL_TOL, _MARGINAL_ABS_TOL = 1e-12, 1e-9, 1e-9


def _tolerance(value, abs_tol=None):
    """The oracle's tolerance at ``value``: max(abs_tol, _REL_TOL |value|), abs_tol ``_ABS_TOL`` unless given."""
    return max(_ABS_TOL if abs_tol is None else abs_tol, _REL_TOL * abs(value))


class OracleConvergenceError(RuntimeError):
    """Quadrature failed to converge; the message carries the best estimate and bound."""

    def __init__(self, message, best_estimate, error_bound):
        super().__init__(f"{message} (best estimate {best_estimate:.6g}, error bound {error_bound:g})")


@lru_cache(maxsize=None)
def _rule(n):
    """n-node Gauss-Hermite nodes s and weights w e^{s^2} (the envelope removed)."""
    s, w = np.polynomial.hermite.hermgauss(n)
    with np.errstate(divide="ignore"):
        w = np.exp(np.log(w) + s * s)       # finite where e^{s^2} alone overflows
    s.flags.writeable = w.flags.writeable = False
    return s, w


def _self_checked(integral, f, m, abs_tol=None):
    """Evaluate ``integral(n)`` and ``integral(2n)``, doubling n until they agree.

    The first n is m + 16 + 2 ceil(2 f), for a kernel of frequency f.
    Returns the 2n-node value and its bound |I_n - I_2n|, the first within
    ``_tolerance(value, abs_tol)``. No rule uses more than
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
        if err <= _tolerance(fine, abs_tol):
            return fine, err
        if 4 * n > _MAX_RULE_NODES:
            raise OracleConvergenceError(
                f"Gauss-Hermite rule did not converge within {_MAX_RULE_NODES} nodes per axis",
                fine, err)
        n, coarse = 2 * n, fine


def _transform_integral(params, kernel_t, kernel_w, a0, b0, f, abs_tol=None):
    """(1/pi^2) integral of c*(A+t, B+w) c(A-t, B-w) K(t) K(w) dt dw, for kernels of frequency f.

    c is ``psi`` of ``params.scaled`` and (A, B) = (a0, b0) the point's scaled position offsets.
    """
    def integral(k):
        s, w = _rule(k)     # the nodes s serve as both t and w
        a = psi(params.scaled, a0 + s[:, None], b0 + s[None, :])
        # the nodes are symmetric, so c(A - t, B - w) is `a` reversed on both axes
        g = np.conj(a) * a[::-1, ::-1]
        return ((w * kernel_t(s)) @ g @ (w * kernel_w(s))) / math.pi ** 2

    return _self_checked(integral, f, params.m, abs_tol)


def oracle_wigner(params, x, y, px, py):
    """Numerical Wigner transform at a phase-space point: (real value, error bound).

    Raises OracleConvergenceError when the imaginary part exceeds 10 _ABS_TOL.
    """
    A, B, P, Q = params.offsets(x, y, px, py)
    val, bound = _transform_integral(
        params, lambda t: np.exp(2j * P * t), lambda w: np.exp(2j * Q * w), A, B, f=max(abs(P), abs(Q)))
    if abs(val.imag) > 10.0 * _ABS_TOL:
        raise OracleConvergenceError("imaginary residue exceeds the realness bound", val.real, abs(val.imag))
    # |imag| <= 1e-11 moves |val| under half an ulp where |val| >= 1e-3: _tolerance(val.real) is the self-check's
    return val.real, bound


def oracle_marginal_xy(params, x, y):
    """Momentum marginal of the Wigner transform at (x, y), in the state's units.

    Integrates W over the momentum box |P|, |Q| <= 6 analytically (Dirichlet
    kernels), then numerically over (t, w) at the relaxed absolute tolerance
    ``_MARGINAL_ABS_TOL``. The analytic identity makes it equal
    sigma_x sigma_y |psi(x, y)|^2 up to the box's Gaussian tails. No ``verify``
    suite calls it; the tests and the benchmark's tracer do.
    """
    def dirichlet(t):       # the integral of exp(2iPt) over |P| <= 6
        return 12.0 * np.sinc(12.0 * t / np.pi)

    A, B, _, _ = params.offsets(x, y, params.px0, params.py0)
    val, _ = _transform_integral(params, dirichlet, dirichlet, A, B, f=12.0, abs_tol=_MARGINAL_ABS_TOL)
    return val.real


def oracle_norm(params):
    """Gauss-Hermite quadrature of |psi|^2 over the plane, in the state's own frame.

    Starts from m + 16 nodes per axis (the oracle's one start rule at
    frequency 0), not the m + 2 of ``DeevParams.norm_constant``, so the
    check does not repeat the state's own rule.
    """
    def integral(k):
        s, w = _rule(k)
        p = psi(params.scaled, s[:, None], s[None, :])
        return w @ (p.real ** 2 + p.imag ** 2) @ w

    val, _ = _self_checked(integral, 0.0, params.m)
    return float(val)
