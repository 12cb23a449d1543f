"""Leakage budgets for adaptively composed analyses.

A ledger is an append-only list of per-step leakage bounds; the budget
of the whole interaction is their sum, which is what sequential
composition of maximal leakage guarantees. Each entry records where its
bound came from:

* ``computed-channel``: exact leakage of an explicit channel;
* ``dp-derived``: an epsilon-DP step contributes epsilon * n;
* ``cardinality``: any step with k possible outputs contributes log k;
* ``max-info-derived``: a max-information bound transfers one-to-one;
* ``declared``: an externally asserted bound.

Totals are recomputed from the entries on every call, never cached.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping

from . import _EXPORTS
from .errors import BetaOutOfRange, Infeasible, LeakageLabError, NegativeEpsilon, _count, _within
from .jsonio import _read_array, _read_int, _read_number, _read_object, _read_scalar

if TYPE_CHECKING:
    from .core import Channel

__all__ = _EXPORTS["ledger"]

_KINDS = ("computed-channel", "dp-derived", "cardinality", "max-info-derived", "declared")


def dp_to_leakage(epsilon: float, n: int) -> float:
    """Leakage budget of an epsilon-DP mechanism on n-sample datasets."""
    _within(epsilon, "epsilon", "[0, inf)", NegativeEpsilon)
    n = _count(n, "dataset size")
    leakage = float(epsilon) * n
    if math.isinf(leakage):
        raise Infeasible(f"epsilon * n = {epsilon} * {n} overflows")
    return leakage


def cardinality_bound(output_size: int) -> float:
    """log of the number of possible outputs."""
    return math.log(_count(output_size, "output size"))


def leakage_to_approx_maxinfo(leakage_nats: float, beta: float) -> float:
    """Budgeted max-information implied by a leakage bound: L + log(1/beta)."""
    _within(leakage_nats, "leakage bound", "[0, inf)")
    return float(leakage_nats) - math.log(_within(beta, "beta", "(0, 1)", BetaOutOfRange))


def maxinfo_to_leakage(maxinfo_nats: float) -> float:
    """A max-information bound is itself a leakage bound."""
    return float(_within(maxinfo_nats, "max-information bound", "[0, inf)"))


@dataclass(frozen=True)
class LedgerEntry:
    """One analysis step: a label, a leakage bound in nats, a provenance."""

    label: str
    bound_nats: float
    provenance: Mapping[str, object]

    def __post_init__(self):
        if isinstance(self.bound_nats, bool) or not isinstance(self.bound_nats, numbers.Real):
            raise LeakageLabError(
                f"entry {self.label!r} bound must be a number, got {self.bound_nats!r}")
        if not math.isfinite(self.bound_nats):
            raise LeakageLabError(f"entry {self.label!r} has non-finite bound {self.bound_nats}")
        kind = self.provenance.get("kind")
        if kind not in _KINDS:
            raise LeakageLabError(f"unknown provenance kind {kind!r}")
        if self.bound_nats < 0.0:
            raise LeakageLabError(f"entry {self.label!r} has negative bound")
        where = f"entry {self.label!r}: provenance."
        if kind == "dp-derived":
            expected = dp_to_leakage(
                _read_number(self.provenance, "epsilon", where),
                _read_int(self.provenance, "n", where),
            )
            if self.bound_nats != expected:
                raise LeakageLabError(
                    f"dp-derived entry {self.label!r} must carry epsilon * n = {expected}"
                )
        elif kind == "cardinality":
            expected = cardinality_bound(_read_int(self.provenance, "output_size", where))
            if self.bound_nats != expected:
                raise LeakageLabError(
                    f"cardinality entry {self.label!r} must carry log(output_size) = {expected}"
                )
        object.__setattr__(self, "provenance", dict(self.provenance))

    @classmethod
    def from_dp(cls, label: str, epsilon: float, n: int) -> "LedgerEntry":
        return cls(label, dp_to_leakage(epsilon, n),
                   {"kind": "dp-derived", "epsilon": float(epsilon), "n": _count(n, "dataset size")})

    @classmethod
    def from_cardinality(cls, label: str, output_size: int) -> "LedgerEntry":
        return cls(label, cardinality_bound(output_size),
                   {"kind": "cardinality", "output_size": _count(output_size, "output size")})

    @classmethod
    def from_maxinfo(cls, label: str, maxinfo_nats: float) -> "LedgerEntry":
        return cls(label, maxinfo_to_leakage(maxinfo_nats),
                   {"kind": "max-info-derived", "maxinfo_nats": float(maxinfo_nats)})

    @classmethod
    def from_channel(cls, label: str, channel: Channel, support=None) -> "LedgerEntry":
        from .measures import maximal_leakage

        value = maximal_leakage(channel, support)
        return cls(label, value.nats, {"kind": "computed-channel"})

    @classmethod
    def declared(cls, label: str, bound_nats: float) -> "LedgerEntry":
        return cls(label, float(_within(bound_nats, "bound_nats", "[-inf, inf]")), {"kind": "declared"})

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "bound_nats": self.bound_nats,
            "provenance": dict(self.provenance),
        }

    @classmethod
    def from_json(cls, payload: Mapping) -> "LedgerEntry":
        label = _read_scalar(payload, "label", "entry ", str, "a string")
        where = f"entry {label!r}: "
        return cls(label, _read_number(payload, "bound_nats", where),
                   _read_object(payload["provenance"], f"{where}provenance"))


@dataclass(frozen=True)
class LeakageLedger:
    """Immutable sequence of ledger entries."""

    entries: tuple[LedgerEntry, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))

    def with_entry(self, entry: LedgerEntry) -> "LeakageLedger":
        return LeakageLedger(self.entries + (entry,))

    def total(self) -> float:
        """Composed leakage budget; the sum is permutation-invariant."""
        try:
            return math.fsum(entry.bound_nats for entry in self.entries)
        except OverflowError:
            raise Infeasible("ledger total overflows") from None

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def to_json(self) -> dict:
        return {"entries": [entry.to_json() for entry in self.entries]}

    @classmethod
    def from_json(cls, payload: Mapping) -> "LeakageLedger":
        return cls(tuple(LedgerEntry.from_json(_read_object(item, f"entries[{i}]"))
                         for i, item in enumerate(_read_array(payload["entries"], "entries"))))


def compose(ledger: LeakageLedger | Iterable[LedgerEntry]) -> float:
    """Total leakage budget of a sequence of steps."""
    if not isinstance(ledger, LeakageLedger):
        ledger = LeakageLedger(tuple(ledger))
    return ledger.total()
