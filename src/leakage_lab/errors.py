"""Semantic exception types raised by validation and infeasible parameters.

Everything derives from :class:`LeakageLabError` (itself a ``ValueError``)
so callers can catch the whole family with one handler, and each class
carries its code as ``exit_code``: 2 for validation, 3 for
:class:`Infeasible` and its subclasses, 4 for :class:`CapExceeded`.
"""

from __future__ import annotations

__all__ = [
    "LeakageLabError",
    "AlphabetMismatch",
    "NegativeMass",
    "NotNormalized",
    "EmptySupport",
    "CapExceeded",
    "InputNotProduct",
    "Infeasible",
    "NoFeasibleSet",
    "BetaOutOfRange",
    "NegativeEpsilon",
    "NonPositiveSensitivity",
    "DenominatorNonPositive",
]


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
