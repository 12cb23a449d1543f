"""Semantic exception types raised by validation and infeasible parameters.

Everything derives from :class:`LeakageLabError` (itself a ``ValueError``)
so callers can catch the whole family with one handler, and each class
carries its code as ``exit_code``: 2 for validation, 3 for
:class:`Infeasible` and its subclasses, 4 for :class:`CapExceeded`.

Every scalar parameter is checked once, where it enters, by :func:`_within`,
and every count, index and seed by :func:`_count`. A bool, a non-number,
NaN and the infinities exit 2, whatever class the caller names, and a
value past the largest float exits 3. A count is a whole number, kept as
an ``int``: ``500.0`` is the count 500 and ``2.5`` exits 2.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys

from . import _EXPORTS

__all__ = _EXPORTS["errors"]


class LeakageLabError(ValueError):
    """Base class for all validation and feasibility errors."""

    exit_code = 2


class AlphabetMismatch(LeakageLabError):
    """Two objects that must share an alphabet do not."""


class NegativeMass(LeakageLabError):
    """A probability entry is negative (tiny negatives are not clipped)."""


class NotNormalized(LeakageLabError):
    """A probability vector does not sum to one within tolerance."""

    def __init__(self, residual: float, what: str = "distribution"):
        self.residual = float(residual)
        super().__init__(f"{what} mass is off by {residual:+.3g}")


class EmptySupport(LeakageLabError):
    """A support set that must be nonempty is empty."""


class CapExceeded(LeakageLabError):
    """An exhaustive enumeration would exceed the configured state cap."""

    exit_code = 4


class InputNotProduct(LeakageLabError):
    """An operation needs a channel whose input is a product alphabet."""


class Infeasible(LeakageLabError):
    """Valid inputs whose result does not exist or cannot be represented."""

    exit_code = 3


class NoFeasibleSet(Infeasible):
    """No outcome set clears the mass budget of an approximate divergence."""


class BetaOutOfRange(Infeasible):
    """A mass budget lies outside its feasible interval."""


class NegativeEpsilon(Infeasible):
    """A differential-privacy parameter is negative."""


class NonPositiveSensitivity(Infeasible):
    """A per-sample sensitivity must be strictly positive."""


class DenominatorNonPositive(Infeasible):
    """A bound's denominator is not positive for these parameters."""


@functools.cache
def _ends(interval: str) -> tuple[float, bool, float, bool]:
    """The low end, whether it is open, the high end, whether it is open."""
    low, high = interval[1:-1].split(",")
    return float(low), interval[0] == "(", float(high), interval[-1] == ")"


def _within(value, name: str, interval: str, error: type[LeakageLabError] = LeakageLabError):
    """``value`` if it lies in ``interval``, written as ``"(0, 1]"`` or ``"[1, inf)"``.

    Every comparison with NaN is false, so NaN lies in no interval. A bool,
    a non-number or a non-finite value raises :class:`LeakageLabError`, a
    finite one outside the interval ``error``, and one inside it that no
    float holds :class:`Infeasible`, since the results that it feeds would overflow.
    """
    cls = type(value)
    # plain floats and ints are tested first: they are nearly every call
    if cls is not float and cls is not int and (cls is bool or not isinstance(value, numbers.Real)):
        raise LeakageLabError(f"{name} must be a number, got {value!r}")
    low, low_open, high, high_open = _ends(interval)
    above = low < value if low_open else low <= value
    if above and (value < high if high_open else value <= high):
        if cls is float or abs(value) <= sys.float_info.max:
            return value
        raise Infeasible("result too large to represent")
    shown = value
    if isinstance(value, int) and not -10**19 < value < 10**20:
        import decimal  # an integer past 20 characters prints in scientific form

        shown = f"{decimal.Decimal(value):.3e}"
    raise (error if -math.inf < value < math.inf else LeakageLabError)(
        f"{name} must lie in {interval}, got {shown}"
    )


def _count(value, name: str, interval: str = "[1, inf)") -> int:
    """``value`` as an ``int`` if it is a whole number in ``interval`` (see :func:`_within`).

    A fraction raises :class:`LeakageLabError`; an integral float is its ``int``.
    """
    whole = int(_within(value, name, interval))
    if whole != value:
        raise LeakageLabError(f"{name} must be a whole number, got {value}")
    return whole
