"""Tests for leakage budgets and their composition rules."""

import json
import math

import pytest

from leakage_lab import (
    BetaOutOfRange,
    Infeasible,
    LeakageLabError,
    LeakageLedger,
    LedgerEntry,
    NegativeEpsilon,
    cardinality_bound,
    compose,
    dp_to_leakage,
    jsonio,
    leakage_to_approx_maxinfo,
    maximal_leakage,
    maxinfo_to_leakage,
)
from leakage_lab.core import adaptive_channel

from conftest import random_channel, stage_of


class TestConversions:
    def test_dp_to_leakage_values(self):
        assert dp_to_leakage(0.0, 50) == 0.0
        assert dp_to_leakage(0.01, 100) == 1.0
        assert dp_to_leakage(0.5, 4) == 2.0

    def test_dp_to_leakage_validation(self):
        with pytest.raises(NegativeEpsilon):
            dp_to_leakage(-0.1, 10)
        with pytest.raises(LeakageLabError):
            dp_to_leakage(0.5, 0)
        for epsilon in (math.nan, math.inf, -math.inf):
            with pytest.raises(LeakageLabError) as caught:
                dp_to_leakage(epsilon, 10)
            assert str(caught.value) == f"epsilon must lie in [0, inf), got {epsilon}"
            assert caught.value.exit_code == 2
        with pytest.raises(Infeasible, match="overflows"):
            dp_to_leakage(1e308, 10)

    def test_cardinality_bound_values(self):
        assert cardinality_bound(1) == 0.0
        assert cardinality_bound(10) == math.log(10.0)
        assert cardinality_bound(16) == 2.772588722239781

    def test_cardinality_bound_validation(self):
        with pytest.raises(LeakageLabError):
            cardinality_bound(0)

    def test_leakage_to_approx_maxinfo(self):
        assert leakage_to_approx_maxinfo(0.5, 0.1) == 2.8025850929940455
        assert leakage_to_approx_maxinfo(0.0, 0.5) == pytest.approx(
            math.log(2.0), abs=1e-15
        )

    def test_leakage_to_approx_maxinfo_validation(self):
        for beta in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(BetaOutOfRange):
                leakage_to_approx_maxinfo(0.5, beta)
        with pytest.raises(LeakageLabError):
            leakage_to_approx_maxinfo(-0.01, 0.1)

    def test_maxinfo_to_leakage(self):
        assert maxinfo_to_leakage(0.0) == 0.0
        assert maxinfo_to_leakage(1.25) == 1.25
        with pytest.raises(LeakageLabError):
            maxinfo_to_leakage(-1e-9)


class TestLedgerEntry:
    def test_from_dp(self):
        entry = LedgerEntry.from_dp("query", 0.25, 8)
        assert entry.bound_nats == 2.0
        assert entry.provenance == {"kind": "dp-derived", "epsilon": 0.25, "n": 8}

    def test_from_cardinality(self):
        entry = LedgerEntry.from_cardinality("argmax", 16)
        assert entry.bound_nats == cardinality_bound(16)
        assert entry.provenance["output_size"] == 16

    def test_from_maxinfo(self):
        entry = LedgerEntry.from_maxinfo("external", 0.75)
        assert entry.bound_nats == 0.75
        assert entry.provenance["kind"] == "max-info-derived"

    def test_from_channel(self, bec05):
        entry = LedgerEntry.from_channel("erasure", bec05)
        assert entry.bound_nats == maximal_leakage(bec05).nats
        assert entry.provenance == {"kind": "computed-channel"}

    def test_from_channel_with_support(self, bec05):
        entry = LedgerEntry.from_channel("erasure", bec05, support=["0"])
        assert entry.bound_nats == 0.0

    def test_from_channel_refuses_float_support(self, bec05):
        # 0.5 is neither a label nor an index; it is not truncated to 0
        with pytest.raises(LeakageLabError, match="support entry 0.5"):
            LedgerEntry.from_channel("erasure", bec05, support=[0.5, 1.5])

    def test_declared(self):
        entry = LedgerEntry.declared("trusted", 0.3)
        assert entry.bound_nats == 0.3
        assert entry.provenance == {"kind": "declared"}

    def test_rejects_unknown_kind(self):
        with pytest.raises(LeakageLabError, match="provenance kind"):
            LedgerEntry("bad", 0.1, {"kind": "guesswork"})

    @pytest.mark.parametrize("bound", [True, "3", None])
    def test_rejects_a_bound_that_is_not_a_number(self, bound):
        # a bool would be written as JSON true, which from_json refuses
        with pytest.raises(LeakageLabError, match=f"^entry 'bad' bound must be a number, got {bound!r}$"):
            LedgerEntry("bad", bound, {"kind": "declared"})

    def test_rejects_negative_bound(self):
        with pytest.raises(LeakageLabError, match="negative bound"):
            LedgerEntry("bad", -0.1, {"kind": "declared"})

    @pytest.mark.parametrize("bound", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "provenance",
        [{"kind": "declared"}, {"kind": "dp-derived", "epsilon": math.nan, "n": 10}],
    )
    def test_rejects_non_finite_bound_first(self, bound, provenance):
        with pytest.raises(LeakageLabError, match="entry 'bad' has non-finite bound"):
            LedgerEntry("bad", bound, provenance)

    def test_dp_entry_bound_must_match_parameters(self):
        # the stored bound is redundant for derived kinds; a mismatch
        # means the record was edited after the fact
        with pytest.raises(LeakageLabError, match="epsilon"):
            LedgerEntry("bad", 1.5, {"kind": "dp-derived", "epsilon": 0.1, "n": 10})

    def test_cardinality_entry_bound_must_match_size(self):
        with pytest.raises(LeakageLabError, match="output_size"):
            LedgerEntry("bad", 1.0, {"kind": "cardinality", "output_size": 4})

    def test_json_round_trip(self):
        entry = LedgerEntry.from_dp("query", 0.3, 7)
        again = LedgerEntry.from_json(json.loads(jsonio.dumps(entry.to_json())))
        assert again == entry

    def test_from_json_rejects_tampered_bound(self):
        payload = LedgerEntry.from_dp("query", 0.3, 7).to_json()
        payload["bound_nats"] += 0.1
        with pytest.raises(LeakageLabError):
            LedgerEntry.from_json(payload)


class TestLeakageLedger:
    def test_empty_total(self):
        assert LeakageLedger().total() == 0.0
        assert len(LeakageLedger()) == 0

    def test_total_is_exact_sum(self):
        ledger = LeakageLedger(
            (LedgerEntry.declared("a", 0.3), LedgerEntry.declared("b", 0.7))
        )
        assert ledger.total() == 1.0

    def test_overflowing_total_is_infeasible(self):
        ledger = LeakageLedger(
            (LedgerEntry.declared("a", 1e308), LedgerEntry.declared("b", 1e308))
        )
        with pytest.raises(Infeasible, match="ledger total overflows"):
            ledger.total()

    def test_with_entry_leaves_original_alone(self):
        base = LeakageLedger((LedgerEntry.declared("a", 0.25),))
        grown = base.with_entry(LedgerEntry.declared("b", 0.5))
        assert len(base) == 1
        assert len(grown) == 2
        assert grown.total() == 0.75
        with pytest.raises(AttributeError):
            base.entries = ()

    def test_total_is_permutation_invariant(self, rng):
        bounds = rng.random(12).tolist()
        entries = [LedgerEntry.declared(f"s{i}", b) for i, b in enumerate(bounds)]
        forward = LeakageLedger(tuple(entries)).total()
        backward = LeakageLedger(tuple(reversed(entries))).total()
        assert forward == backward

    def test_json_round_trip(self):
        ledger = LeakageLedger(
            (
                LedgerEntry.from_dp("q1", 0.1, 20),
                LedgerEntry.from_cardinality("argmax", 5),
                LedgerEntry.declared("oracle", 0.123456789012345678),
            )
        )
        again = LeakageLedger.from_json(json.loads(jsonio.dumps(ledger.to_json())))
        assert again == ledger
        assert again.total() == ledger.total()

    def test_compose_accepts_iterables(self):
        entries = [LedgerEntry.declared("a", 0.25), LedgerEntry.declared("b", 0.5)]
        assert compose(entries) == 0.75
        assert compose(LeakageLedger(tuple(entries))) == 0.75
        assert compose(iter(entries)) == 0.75


class TestLedgerSoundness:
    def test_cardinality_entry_dominates_channel_entry(self, rng):
        for _ in range(50):
            outputs = int(rng.integers(2, 7))
            channel = random_channel(rng, int(rng.integers(2, 7)), outputs)
            computed = LedgerEntry.from_channel("step", channel).bound_nats
            assert computed <= cardinality_bound(outputs) + 1e-12

    def test_two_step_budget_bounds_joint_leakage(self, rng):
        # an adaptive pair never leaks more than the per-step budget:
        # first step billed exactly, second billed at its worst branch
        for _ in range(50):
            nx = int(rng.integers(2, 6))
            ny = int(rng.integers(2, 5))
            nz = int(rng.integers(2, 5))
            first = random_channel(rng, nx, ny)
            second = [
                random_channel(rng, nx, nz, input_alphabet=first.input)
                for _ in first.output.labels
            ]
            ledger = LeakageLedger().with_entry(
                LedgerEntry.from_channel("first", first)
            )
            worst = max(maximal_leakage(branch).nats for branch in second)
            ledger = ledger.with_entry(LedgerEntry.declared("second", worst))
            joint = adaptive_channel(first, stage_of(first, first.output.labels, second))
            assert maximal_leakage(joint).nats <= ledger.total() + 1e-10
