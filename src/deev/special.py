"""Associated Laguerre polynomials by their three-term recurrence.

Both closed forms evaluate their Laguerre factor here (L_m for the validated
form, L_m^{-1/2} for the candidate). The exact series of L_m^{-1/2} that the
scaled interference terms expand lives with them in ``wigner``.
"""

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
