"""Associated Laguerre polynomials and half-integer gamma values.

Everything here is polynomial arithmetic: the three-term recurrence
evaluates L_m^alpha, and the explicit series coefficients feed the scaled
interference terms.
"""

import math

import numpy as np

from . import _EXPORTS

__all__ = list(_EXPORTS["special"])


def _check_order(m):
    if not isinstance(m, (int, np.integer)) or m < 0:
        raise ValueError(f"polynomial order must be a nonnegative integer, got {m!r}")


def alp_eval(m, alpha, z):
    """Evaluate the associated Laguerre polynomial L_m^alpha(z).

    Uses the stable three-term recurrence
    ``L_k = ((2k - 1 + alpha - z) L_{k-1} - (k - 1 + alpha) L_{k-2}) / k``.
    Accepts scalar or array ``z``; defined for all real ``z``.
    """
    _check_order(m)
    z = np.asarray(z, dtype=float)
    prev = np.ones_like(z)
    if m == 0:
        return prev if prev.ndim else float(prev)
    cur = 1.0 + alpha - z
    for k in range(2, m + 1):
        prev, cur = cur, ((2 * k - 1 + alpha - z) * cur - (k - 1 + alpha) * prev) / k
    return cur if cur.ndim else float(cur)


def alp_coeffs(m, alpha):
    """Explicit power-series coefficients of L_m^alpha as a tuple of floats.

    Entry k multiplies ``z**k``; there are ``m + 1`` entries with
    ``(-1)^k C(m + alpha, m - k) / k!``, each rounded once from the exact
    rational value (any float alpha is rational). The exact values follow
    c_0 = prod_i (alpha + i) / i and c_k = -c_{k-1} (m - k + 1) / (k (k + alpha)),
    which needs alpha > -1.
    """
    from fractions import Fraction      # here, not at the top: only the SIT builds exact coefficients

    _check_order(m)
    if not alpha > -1:
        raise ValueError(f"alp_coeffs needs alpha > -1, got {alpha!r}")
    a = Fraction(float(alpha))
    c = Fraction(1)
    for i in range(1, m + 1):
        c *= (a + i) / i
    out = [c]
    for k in range(1, m + 1):
        c = -c * (m - k + 1) / (k * (k + a))
        out.append(c)
    return tuple(float(c) for c in out)


def gamma_half_integer(m):
    """Gamma(m + 1/2) via the exact product formula (2m)! sqrt(pi) / (4^m m!)."""
    _check_order(m)
    return math.factorial(2 * m) * math.sqrt(math.pi) / (4.0 ** m * math.factorial(m))
