"""The scaled interference term at points, for the tests: the series that ``deev.wigner.sit_field`` samples,
and an exact rational reference for it."""

import math
from fractions import Fraction

from deev.wigner import _sit_coeffs, _sit_series


def sit(m, sigma_x, sigma_y, r, s, form="sum"):
    """SIT of order m at dummy coordinates (r, s); its definition is ``deev.wigner._sit_series``'s."""
    return _sit_series(_sit_coeffs(m, sigma_x, sigma_y), r, s, form)


def sit_fraction_oracle(m, sx2_plus_sy2, r, s, form="sum"):
    """SIT via exact rational expansion of the order -1/2 Laguerre series."""
    d = Fraction(sx2_plus_sy2)
    r, s = Fraction(r), Fraction(s)
    t = r + s if form == "sum" else r - s
    num = Fraction(0)
    den = Fraction(0)
    for k in range(1, m + 1):
        binom = Fraction(1)
        for i in range(1, m - k + 1):
            binom *= (Fraction(-1, 2) + k + i) / i
        ck = (-1) ** k * binom / math.factorial(k)
        num += ck * (t ** (2 * k) - r ** (2 * k) - s ** (2 * k)) / d ** k
        den += ck * (r ** (2 * k) + s ** (2 * k)) / d ** k
    if den == 0:
        return math.inf if num > 0 else (-math.inf if num < 0 else math.nan)
    return float(num / den)
