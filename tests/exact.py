"""Exact references for the tests, from the standard library alone.

Each is computed exactly in ``fractions`` from its defining series or recurrence. A value returned as a
double is the exact value rounded once, so within half an ulp; ``decimal`` states its own bound.
"""

import math
from decimal import Decimal, getcontext
from fractions import Fraction
from functools import lru_cache

PI = Decimal("3.14159265358979323846264338327950288419716939937510")    # 50 digits


def decimal(q):
    """The Fraction ``q`` as a Decimal at the context's precision, within 0.51 units in its last digit.

    A huge integer converts to Decimal in quadratic time, so ``q`` is first cut to an integer of at least
    three more digits than the precision (a truncation), whose decimal point is then moved and rounded once.
    """
    k = getcontext().prec + 3 - (q.numerator.bit_length() - q.denominator.bit_length()) * 30103 // 100000
    n = q.numerator * 10 ** k // q.denominator if k >= 0 else q.numerator // (q.denominator * 10 ** -k)
    return Decimal(n).scaleb(-k)


@lru_cache(maxsize=None)
def laguerre_series(m, alpha):
    """L_m^alpha(z) = sum_k c_k z^k at the double ``alpha``, exact.

    c_0 = prod_i (alpha + i) / i = C(m + alpha, m) = L_m^alpha(0), and c_k = -c_(k-1) (m - k + 1) / (k (k + alpha)).
    """
    a = Fraction(alpha)
    cs = [math.prod((a + i) / i for i in range(1, m + 1))]
    for k in range(1, m + 1):
        cs.append(-cs[-1] * (m - k + 1) / (k * (k + a)))
    return tuple(cs)


def polynomial(cs, z):
    """sum_k cs[k] z^k as an exact Fraction, for coefficients and ``z`` each a double or a Fraction.

    A series that cancels, such as L_m^alpha's as m and z grow, is never summed in floats.
    """
    z, total = Fraction(z), Fraction(0)
    for c in reversed(cs):
        total = total * z + Fraction(c)
    return total


def laguerre(m, alpha, z):
    """L_m^alpha at the double ``z``: the exact series summed exactly, rounded once (half an ulp)."""
    return float(polynomial(laguerre_series(m, alpha), z))


def hermite(n, x):
    """The physicists' H_n at the double ``x``, from H_(k+1) = 2x H_k - 2k H_(k-1) in Fraction, rounded once."""
    x = Fraction(x)
    prev, cur = Fraction(0), Fraction(1)
    for k in range(n):
        prev, cur = cur, 2 * x * cur - 2 * k * prev
    return float(cur)


def sit(m, d, r, s, form="sum"):
    """The scaled interference term of order m at (r, s) for sigma_x^2 + sigma_y^2 = d, rounded once.

    ``d``, ``r`` and ``s`` are taken exactly (a double or a Fraction). With L = L_m^(-1/2), t = r + s (form
    "sum") or r - s and z = (.)^2 / d, the SIT is the series' cross terms over its single-variable terms:
    (L(zt) - L(zr) - L(zs) + L(0)) / (L(zr) + L(zs) - 2 L(0)). Where the denominator is 0 it is a signed
    infinity, or NaN at 0 / 0.
    """
    d, r, s = Fraction(d), Fraction(r), Fraction(s)
    t = r + s if form == "sum" else r - s
    cs = laguerre_series(m, -0.5)
    lt, lr, ls = (polynomial(cs, v * v / d) for v in (t, r, s))
    num, den = lt - lr - ls + cs[0], lr + ls - 2 * cs[0]
    if den == 0:
        return math.inf if num > 0 else (-math.inf if num < 0 else math.nan)
    return float(num / den)
