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
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .core import Channel
from .errors import BetaOutOfRange, LeakageLabError, NegativeEpsilon
from .jsonio import _read_int, _read_number
from .measures import maximal_leakage

__all__ = [
    "LedgerEntry",
    "LeakageLedger",
    "dp_to_leakage",
    "cardinality_bound",
    "compose",
    "leakage_to_approx_maxinfo",
    "maxinfo_to_leakage",
]

_KINDS = ("computed-channel", "dp-derived", "cardinality", "max-info-derived", "declared")


def dp_to_leakage(epsilon: float, n: int) -> float:
    """Leakage budget of an epsilon-DP mechanism on n-sample datasets."""
    if not math.isfinite(epsilon):
        raise LeakageLabError(f"epsilon must be finite, got {epsilon}")
    if epsilon < 0.0:
        raise NegativeEpsilon(f"epsilon must be nonnegative, got {epsilon}")
    if n < 1:
        raise LeakageLabError(f"dataset size must be >= 1, got {n}")
    return float(epsilon) * n


def cardinality_bound(output_size: int) -> float:
    """log of the number of possible outputs."""
    if output_size < 1:
        raise LeakageLabError(f"output size must be >= 1, got {output_size}")
    return math.log(output_size)


def leakage_to_approx_maxinfo(leakage_nats: float, beta: float) -> float:
    """Budgeted max-information implied by a leakage bound: L + log(1/beta)."""
    if leakage_nats < 0.0:
        raise LeakageLabError(f"leakage bound must be nonnegative, got {leakage_nats}")
    if not 0.0 < beta < 1.0:
        raise BetaOutOfRange(f"beta must lie in (0, 1), got {beta}")
    return float(leakage_nats) - math.log(beta)


def maxinfo_to_leakage(maxinfo_nats: float) -> float:
    """A max-information bound is itself a leakage bound."""
    if maxinfo_nats < 0.0:
        raise LeakageLabError(f"max-information bound must be nonnegative, got {maxinfo_nats}")
    return float(maxinfo_nats)


@dataclass(frozen=True)
class LedgerEntry:
    """One analysis step: a label, a leakage bound in nats, a provenance."""

    label: str
    bound_nats: float
    provenance: Mapping[str, object]

    def __post_init__(self):
        if not math.isfinite(self.bound_nats):
            raise LeakageLabError(f"entry {self.label!r} has non-finite bound {self.bound_nats}")
        kind = self.provenance.get("kind")
        if kind not in _KINDS:
            raise LeakageLabError(f"unknown provenance kind {kind!r}")
        if self.bound_nats < 0.0:
            raise LeakageLabError(f"entry {self.label!r} has negative bound")
        if kind == "dp-derived":
            expected = dp_to_leakage(
                _read_number(self.provenance, "epsilon"), _read_int(self.provenance, "n")
            )
            if self.bound_nats != expected:
                raise LeakageLabError(
                    f"dp-derived entry {self.label!r} must carry epsilon * n = {expected}"
                )
        elif kind == "cardinality":
            expected = cardinality_bound(_read_int(self.provenance, "output_size"))
            if self.bound_nats != expected:
                raise LeakageLabError(
                    f"cardinality entry {self.label!r} must carry log(output_size) = {expected}"
                )
        object.__setattr__(self, "provenance", dict(self.provenance))

    @classmethod
    def from_dp(cls, label: str, epsilon: float, n: int) -> "LedgerEntry":
        return cls(label, dp_to_leakage(epsilon, n),
                   {"kind": "dp-derived", "epsilon": float(epsilon), "n": int(n)})

    @classmethod
    def from_cardinality(cls, label: str, output_size: int) -> "LedgerEntry":
        return cls(label, cardinality_bound(output_size),
                   {"kind": "cardinality", "output_size": int(output_size)})

    @classmethod
    def from_maxinfo(cls, label: str, maxinfo_nats: float) -> "LedgerEntry":
        return cls(label, maxinfo_to_leakage(maxinfo_nats),
                   {"kind": "max-info-derived", "maxinfo_nats": float(maxinfo_nats)})

    @classmethod
    def from_channel(cls, label: str, channel: Channel, support=None) -> "LedgerEntry":
        value = maximal_leakage(channel, support)
        return cls(label, value.nats, {"kind": "computed-channel"})

    @classmethod
    def declared(cls, label: str, bound_nats: float) -> "LedgerEntry":
        return cls(label, float(bound_nats), {"kind": "declared"})

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "bound_nats": self.bound_nats,
            "provenance": dict(self.provenance),
        }

    @classmethod
    def from_json(cls, payload: Mapping) -> "LedgerEntry":
        return cls(str(payload["label"]), _read_number(payload, "bound_nats"), payload["provenance"])


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
        return math.fsum(entry.bound_nats for entry in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def to_json(self) -> dict:
        return {"entries": [entry.to_json() for entry in self.entries]}

    @classmethod
    def from_json(cls, payload: Mapping) -> "LeakageLedger":
        return cls(tuple(LedgerEntry.from_json(item) for item in payload["entries"]))


def compose(ledger: LeakageLedger | Iterable[LedgerEntry]) -> float:
    """Total leakage budget of a sequence of steps."""
    if not isinstance(ledger, LeakageLedger):
        ledger = LeakageLedger(tuple(ledger))
    return ledger.total()
