"""The Clopper-Pearson lower edge against an exact tail in 50-digit decimals.

The edge p for k successes of n trials solves P(Bin(n, p) >= k) = ALPHA,
the double ``1.0 - CONFIDENCE`` read exactly. The tail rises with p, so
the exact root lies within 2 ulps of the returned double exactly when the
tail 2 ulps below it is at most ALPHA and the tail 2 ulps above it at least.
"""

from __future__ import annotations

import decimal
import functools
import math
from fractions import Fraction

import pytest
from scipy.special import betaincinv

from leakage_lab import _clopper_pearson as cp
from leakage_lab._clopper_pearson import ALPHA, _clopper_pearson_lower

D = decimal.Decimal
CONTEXT = decimal.Context(prec=50, Emin=-10**9, Emax=10**9)
EXACT_ALPHA = D(ALPHA)
PI = D("3.14159265358979323846264338327950288419716939937510582097494459")
# below this m, log(m!) is read off the exact factorial
STIRLING_FROM = 60

TRIALS = (2, 3, 10, 30, 256, 1000, 10**4, 2 * 10**4, 10**5, 10**6)
# counts of the benchmark's simulate runs
BENCHMARK_COUNTS = ((365, 2 * 10**4), (764, 2 * 10**4), (779, 2 * 10**4),
                    (111, 1000), (63, 1000), (23, 256))
GRID = sorted({(k, n) for n in TRIALS
               for k in (1, 2, 3, 5, 15, 16, n // 10, n // 3, n // 2, n - 1) if 1 <= k < n}
              | set(BENCHMARK_COUNTS))


@functools.cache
def _stirling_terms() -> tuple[Fraction, ...]:
    """B_2j / (2j (2j - 1)) for j = 1..20, the Bernoulli numbers by Akiyama-Tanigawa."""
    bernoulli, row = [], []
    for m in range(41):
        row.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        bernoulli.append(row[0])
    return tuple(bernoulli[2 * j] / (2 * j * (2 * j - 1)) for j in range(1, 21))


def _log_factorial(m: int) -> D:
    """log(m!) to 50 digits: exact below STIRLING_FROM, else Stirling's series to 1/m^39."""
    with decimal.localcontext(CONTEXT):
        if m < STIRLING_FROM:
            return D(math.factorial(m)).ln()
        x = D(m)
        total = x * x.ln() - x + (2 * PI * x).ln() / 2
        for j, c in enumerate(_stirling_terms(), 1):
            total += D(c.numerator) / D(c.denominator) / x ** (2 * j - 1)
        return total


def exact_tail(k: int, n: int, p: float) -> D:
    """P(Bin(n, p) >= k) at the double p, summed from b(k) upward in 50-digit decimals."""
    with decimal.localcontext(CONTEXT):
        exact_p = D(p)
        q = 1 - exact_p
        term = (_log_factorial(n) - _log_factorial(k) - _log_factorial(n - k)
                + k * exact_p.ln() + (n - k) * q.ln()).exp()
        total, rho, j = term, exact_p / q, k
        while j < n and term > total * D("1e-55"):
            term = term * (n - j) / (j + 1) * rho
            total += term
            j += 1
        return total


def neighbours(p: float, ulps: int) -> tuple[float, float]:
    lo = hi = p
    for _ in range(ulps):
        lo, hi = math.nextafter(lo, 0.0), math.nextafter(hi, 1.0)
    return lo, hi


def brackets_root(k: int, n: int, p: float) -> bool:
    """Whether the exact root lies within 2 ulps of p."""
    lo, hi = neighbours(p, 2)
    return exact_tail(k, n, lo) <= EXACT_ALPHA <= exact_tail(k, n, hi)


class TestOracle:
    def test_log_factorial_matches_exact_on_both_sides_of_the_switch(self):
        for m in (STIRLING_FROM, 61, 100, 1000):
            with decimal.localcontext(CONTEXT):
                exact = D(math.factorial(m)).ln()
            assert abs(_log_factorial(m) - exact) < D("1e-45")

    def test_tail_matches_an_exact_rational_sum(self):
        # the whole binomial sum over integers at p = 3/16
        k, n, p = 7, 40, 0.1875
        exact = sum(Fraction(math.comb(n, j) * 3**j * 13 ** (n - j), 16**n) for j in range(k, n + 1))
        got = exact_tail(k, n, p)
        assert abs(got - CONTEXT.divide(exact.numerator, exact.denominator)) < D("1e-45") * got


@pytest.mark.parametrize("successes,trials", GRID)
def test_edge_is_within_two_ulps_of_the_exact_root(successes, trials):
    p = _clopper_pearson_lower(successes, trials)
    lo, hi = neighbours(p, 2)
    tails = [exact_tail(successes, trials, x) for x in (lo, p, hi)]
    assert tails == sorted(tails)
    assert tails[0] <= EXACT_ALPHA <= tails[2]


@pytest.mark.parametrize("successes,trials", GRID)
def test_edge_agrees_with_betaincinv(successes, trials):
    mine = _clopper_pearson_lower(successes, trials)
    theirs = float(betaincinv(successes, trials - successes + 1, ALPHA))
    if abs(mine - theirs) > 3 * math.ulp(mine):
        # betaincinv is the one that misses: it was up to 4.5 ulps off on this grid
        assert not brackets_root(successes, trials, theirs)


@pytest.mark.parametrize("successes", [2, 3, 15, 16, 10**5, 333_333, 500_000, 999_999])
def test_million_trials_take_at_most_three_evaluations(monkeypatch, successes):
    # each evaluation of the tail calls bd0 twice
    calls = []
    bd0 = cp._bd0
    monkeypatch.setattr(cp, "_bd0", lambda x, d: calls.append(x) or bd0(x, d))
    p = _clopper_pearson_lower(successes, 10**6)
    assert 0.0 < p < successes / 10**6
    assert len(calls) <= 6
