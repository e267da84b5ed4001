"""Associated Laguerre polynomials and half-integer gamma values.

Everything here is polynomial arithmetic: the three-term recurrence
evaluates L_m^alpha, and the explicit series coefficients feed the scaled
interference terms.
"""

import math
from fractions import Fraction

import numpy as np

__all__ = ["alp_eval", "alp_coeffs", "gamma_half_integer"]


def _check_order(m):
    if not isinstance(m, (int, np.integer)) or m < 0:
        raise ValueError(f"polynomial order must be a nonnegative integer, got {m!r}")


def _exact_coeffs(m, alpha):
    """Series coefficients as exact rationals (any float alpha is rational)."""
    a = Fraction(alpha)
    out = []
    for k in range(m + 1):
        binom = Fraction(1)
        for i in range(1, m - k + 1):
            binom *= (a + k + i) / i
        out.append((-1) ** k * binom / math.factorial(k))
    return tuple(out)


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
    rational value.
    """
    _check_order(m)
    return tuple(float(c) for c in _exact_coeffs(m, float(alpha)))


def gamma_half_integer(m):
    """Gamma(m + 1/2) via the exact product formula (2m)! sqrt(pi) / (4^m m!)."""
    _check_order(m)
    return math.factorial(2 * m) * math.sqrt(math.pi) / (4.0 ** m * math.factorial(m))
