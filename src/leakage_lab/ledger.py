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
import reprlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping

from . import _EXPORTS, jsonio
from .errors import BetaOutOfRange, Infeasible, LeakageLabError, NegativeEpsilon, _count, _within

if TYPE_CHECKING:
    from .core import Channel

__all__ = _EXPORTS["ledger"]


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
        jsonio.read("number", self.bound_nats, f"entry {self.label!r} bound")
        if not math.isfinite(self.bound_nats):
            raise LeakageLabError(f"entry {self.label!r} has non-finite bound {self.bound_nats}")
        provenance = jsonio.read("provenance", self.provenance, "provenance", None)
        if self.bound_nats < 0.0:
            raise LeakageLabError(f"entry {self.label!r} has negative bound")
        kind = provenance["kind"]
        if kind in ("dp-derived", "cardinality"):
            formula, expected = (
                ("epsilon * n", dp_to_leakage(provenance["epsilon"], provenance["n"]))
                if kind == "dp-derived"
                else ("log(output_size)", cardinality_bound(provenance["output_size"])))
            if self.bound_nats != expected:
                raise LeakageLabError(f"{kind} entry {self.label!r} must carry {formula} = {expected}")
        object.__setattr__(self, "provenance", provenance)

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
        return jsonio.write("ledger entry", self.label, self.bound_nats, dict(self.provenance))

    @classmethod
    def from_json(cls, payload: Mapping, name: str | None = None) -> "LedgerEntry":
        return cls(*jsonio.read("ledger entry", payload, name))


@dataclass(frozen=True)
class LeakageLedger:
    """Immutable sequence of ledger entries."""

    entries: tuple[LedgerEntry, ...] = field(default_factory=tuple)

    def __post_init__(self):
        entries = tuple(self.entries)
        for i, entry in enumerate(entries):
            if not isinstance(entry, LedgerEntry):
                raise LeakageLabError(f"ledger entry {i} must be a LedgerEntry, "
                                      f"got {reprlib.repr(entry)}")
        object.__setattr__(self, "entries", entries)

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
        return jsonio.write("ledger", [entry.to_json() for entry in self.entries])

    @classmethod
    def from_json(cls, payload: Mapping, name: str | None = None) -> "LeakageLedger":
        (entries,) = jsonio.read("ledger", payload, name)
        return cls(tuple(LedgerEntry(*entry) for entry in entries))


def compose(ledger: LeakageLedger | Iterable[LedgerEntry]) -> float:
    """Total leakage budget of a sequence of steps."""
    if not isinstance(ledger, LeakageLedger):
        ledger = LeakageLedger(tuple(ledger))
    return ledger.total()
