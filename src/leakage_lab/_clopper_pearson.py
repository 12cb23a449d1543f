"""The one-sided Clopper-Pearson lower edge p, where P(Bin(n, p) >= k) = ALPHA.

The tail is b(k) S: the binomial term in the saddle-point form of C. Loader ("Fast and
accurate computation of binomial probabilities", 2000), times S = sum_t b(k + t) / b(k).
Halley steps on log(P / ALPHA) in log p (slope k / S) start from a corrected Wilson bound
inside a bracket; below 16 successes a last Newton step takes a 40-digit decimal residual.
"""

from __future__ import annotations

import math

import numpy as np

CONFIDENCE = 0.99
ALPHA = 1.0 - CONFIDENCE
_Z = 2.3263478740408408  # the standard normal quantile at CONFIDENCE
# stirlerr(m) = log(m!) - (m + 1/2) log(m) + m - log(2 pi) / 2 for m < 16,
# and the coefficients of its series in 1 / m^2, highest order first
_STIRLERR = (math.nan, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
             0.020790672103765093, 0.016644691189821193, 0.013876128823070748, 0.01189670994589177,
             0.010411265261972096, 0.009255462182712733, 0.00833056343336287, 0.007573675487951841,
             0.00694284010720953, 0.006408994188004207, 0.0059513701127588475, 0.005554733551962801)
_STIRLING = (1 / 156, -691 / 360360, 1 / 1188, -1 / 1680, 1 / 1260, -1 / 360, 1 / 12)


def _stirlerr(m: int) -> float:
    if m < len(_STIRLERR):
        return _STIRLERR[m]
    s = 0.0  # the terms left out change the sum by less than 1e-17
    for c in _STIRLING[-2 if m > 500 else -3 if m > 80 else -4 if m > 35 else -6:]:
        s = s / (m * m) + c
    return s / m


def _bd0(x: int, d: float) -> tuple[float, float]:
    """x log(x / m) + m - x at m = x - d, as a leading term and the sum of the small ones."""
    if abs(d) >= 0.5 * (2 * x - d):
        return -x * math.log1p(-d / x), -d
    v = d / (2 * x - d)  # near m = x: d v + 2x (v^3/3 + v^5/5 + ...)
    rest, term, v2, j = 0.0, 2 * x * v, v * v, 3
    while rest + (term := term * v2) / j != rest:
        rest, j = rest + term / j, j + 2
    return d * v, rest


def _clopper_pearson_lower(successes: int, trials: int) -> float:
    """One-sided lower bound for a binomial proportion at confidence CONFIDENCE."""
    k, n = successes, trials
    if k <= 0:
        return 0.0
    if k >= n:
        return ALPHA ** (1.0 / n)
    lo = -math.expm1(math.log1p(-ALPHA) / n)  # the edge of one success, below every other
    if k == 1:
        return lo
    hi = k / (n + 1)  # from here on the mode reaches k and the tail is above ALPHA
    logs = (_stirlerr(n), -_stirlerr(k), -_stirlerr(n - k),
            0.5 * math.log(n / (k * (n - k) * 2 * math.pi * ALPHA * ALPHA)))
    # the Wilson bound at k less a continuity and a skewness correction
    c, z2 = k - 0.5 - (_Z * _Z - 1) * (1 - 2 * k / n) / 6, _Z * _Z
    p = min(max((c + z2 / 2 - _Z * math.sqrt(c * (n - c) / n + z2 / 4)) / (n + z2), lo), hi)
    # b(k + t + 1) / b(k + t) at p / q = 1; up to hi, terms past m fell below 1e-19 in all tries
    m = min(n - k, 32 + int(10 * math.sqrt(n * hi * (1 - hi))))
    ratios = np.arange(n - k, n - k - m, -1.0) / np.arange(k + 1.0, k + 1.0 + m)
    for _ in range(100):
        rho = p / (1.0 - p)
        s = 1.0 + float(np.add.reduce(np.multiply.accumulate(ratios * rho)))
        # d = k - n p with one rounding: for n < 2^26, n times either half of p is exact
        top = 134217729.0 * p
        top -= top - p
        d = (k - n * top) - n * (p - top)
        (a1, a2), (b1, b2) = _bd0(k, d), _bd0(n - k, -d)
        f = math.fsum((*logs, math.log(s), -a1, -a2, -b1, -b2))  # log(b(k) S / ALPHA)
        slope, rate = k / s, (n - k) * rho - k  # f' = slope, f'' = -slope (slope + rate)
        lo, hi = (lo, p) if f > 0 else (p, hi)
        step = -f / slope / max(1 + f * (slope + rate) / (2 * slope), 0.5)
        new = p + p * math.expm1(min(step, 1.0))
        # Halley's next error is about (slope + rate)^2 step^3 / 4
        if step * step * abs(step) * (1 + (slope + rate) ** 2) < 2.0 ** -60:
            p = new
            break
        p = new if lo < new < hi else math.sqrt(lo * hi)
    if k >= 16:  # the slope now hides the last bits of the sum: within 1.0 ulps where tried
        return p
    import decimal  # only small counts pay for loading it

    with decimal.localcontext(decimal.Context(prec=40)):
        exact_p = decimal.Decimal(p)
        rho = exact_p / (1 - exact_p)
        # P(Bin(n, p) >= k) = 1 - sum_{j < k} b(j), each b(j) to 40 digits
        term = below = (1 - exact_p) ** n
        for j in range(k - 1):
            term = term * rho * (n - j) / (j + 1)
            below += term
        f = math.log1p(float((1 - below) / decimal.Decimal(ALPHA) - 1))
    return p + p * math.expm1(-f / slope)
