"""Tests for the tail and error bounds."""

import math

import numpy as np
import pytest

from leakage_lab import (
    Alphabet,
    BetaOutOfRange,
    AlphabetMismatch,
    BoundReport,
    Channel,
    DenominatorNonPositive,
    EventMask,
    Infeasible,
    LeakageLabError,
    NegativeEpsilon,
    NonPositiveSensitivity,
    adaptive_event_bound,
    adjusted_significance,
    compare_sensitivity_bounds,
    dp_sensitivity_reference_bound,
    dwork_dp_bound,
    exact_event_probability,
    fdr_bound,
    fiber_max_prob,
    gen_error_bound,
    gen_error_bound_sensitivity,
    joint_from,
    maximal_leakage,
    mcdiarmid_tail,
    mi_gen_bound,
    sample_complexity,
)
from conftest import (
    exact_event_probability_by_fibers,
    random_channel,
    random_distribution,
    random_event,
    uniform,
)
from leakage_lab import bounds, ledger
from leakage_lab.ledger import LedgerEntry


class TestAdaptiveEventBound:
    def test_zero_leakage_recovers_fiber_probability(self):
        report = adaptive_event_bound(0.25, 0.0)
        assert report.value == 0.25
        assert not report.trivial

    def test_scaling(self):
        report = adaptive_event_bound(0.01, math.log(10.0))
        assert report.value == pytest.approx(0.1, abs=1e-15)

    def test_tight_on_identity_diagonal(self):
        # uniform prior, identity channel, diagonal event: the true
        # probability is 1 and the bound is exp(log k) * (1 / k) = 1
        for k in (2, 3, 5, 8):
            alphabet = Alphabet(str(i) for i in range(k))
            prior = uniform(alphabet.labels)
            channel = Channel.identity(alphabet)
            event = EventMask.diagonal(alphabet)
            exact = exact_event_probability(joint_from(prior, channel), event)
            bound = adaptive_event_bound(
                fiber_max_prob(event, prior), maximal_leakage(channel).nats
            )
            assert exact == pytest.approx(1.0, abs=1e-12)
            assert bound.value == pytest.approx(exact, abs=1e-12)

    def test_trivial_flag(self):
        assert adaptive_event_bound(0.5, math.log(4.0)).trivial
        assert not adaptive_event_bound(0.5, math.log(1.5)).trivial

    def test_validation(self):
        with pytest.raises(LeakageLabError):
            adaptive_event_bound(-0.1, 0.0)
        with pytest.raises(LeakageLabError):
            adaptive_event_bound(1.1, 0.0)
        with pytest.raises(LeakageLabError):
            adaptive_event_bound(0.5, -0.01)

    def test_monotone_in_leakage(self):
        values = [adaptive_event_bound(0.1, L).value for L in (0.0, 0.5, 1.0, 2.0)]
        assert values == sorted(values)

    def test_overflowing_exponent_with_a_small_coefficient(self):
        # exp(1000) overflows, yet 0 * exp(L) is 0 at any L
        for report in (adaptive_event_bound(0.0, 1000.0), fdr_bound(0.0, 1000.0)):
            assert report.value == 0.0
            assert not report.trivial
        tiny = adaptive_event_bound(1e-300, 750.0)
        assert tiny.value == math.exp(750.0 + math.log(1e-300))
        assert math.isfinite(tiny.value)
        assert tiny.trivial


class TestExactEventProbability:
    def test_full_and_empty_masks(self, rng):
        prior = random_distribution(rng, 4)
        channel = random_channel(rng, 4, 3, input_alphabet=prior.alphabet)
        joint = joint_from(prior, channel)
        full = EventMask.full(joint.input, joint.output)
        assert exact_event_probability(joint, full) == pytest.approx(1.0, abs=1e-12)
        empty = EventMask(joint.input, joint.output, np.zeros((4, 3), dtype=bool))
        assert exact_event_probability(joint, empty) == 0.0

    def test_two_routes_agree(self, rng):
        for _ in range(100):
            nx = int(rng.integers(2, 7))
            ny = int(rng.integers(2, 7))
            prior = random_distribution(rng, nx, allow_zeros=True)
            channel = random_channel(rng, nx, ny, input_alphabet=prior.alphabet)
            joint = joint_from(prior, channel)
            event = random_event(rng, nx, ny, joint.input, joint.output)
            direct = exact_event_probability(joint, event)
            by_fibers = exact_event_probability_by_fibers(joint, event)
            assert direct == pytest.approx(by_fibers, abs=1e-12)
            assert 0.0 <= direct <= 1.0 + 1e-12

    def test_alphabet_mismatch(self, rng):
        prior = random_distribution(rng, 3)
        channel = random_channel(rng, 3, 3, input_alphabet=prior.alphabet)
        joint = joint_from(prior, channel)
        other = Alphabet(("p", "q", "r"))
        event = EventMask(other, other, np.eye(3, dtype=bool))
        with pytest.raises(AlphabetMismatch):
            exact_event_probability(joint, event)
        with pytest.raises(AlphabetMismatch):
            exact_event_probability_by_fibers(joint, event)


class TestMcDiarmidTail:
    def test_reference_point(self):
        assert mcdiarmid_tail(100, 0.1, 0.01) == pytest.approx(
            math.exp(-2.0), abs=1e-15
        )

    def test_zero_deviation(self):
        assert mcdiarmid_tail(100, 0.0, 0.01) == 1.0

    def test_sensitivity_scaling(self):
        # doubling c quarters the exponent
        loose = mcdiarmid_tail(50, 0.2, 0.02)
        tight = mcdiarmid_tail(50, 0.2, 0.01)
        assert loose == pytest.approx(tight ** 0.25, rel=1e-12)

    def test_validation(self):
        with pytest.raises(NonPositiveSensitivity):
            mcdiarmid_tail(10, 0.1, 0.0)
        with pytest.raises(LeakageLabError):
            mcdiarmid_tail(10, -0.1, 0.01)
        with pytest.raises(LeakageLabError):
            mcdiarmid_tail(0, 0.1, 0.01)


class TestGenErrorBound:
    def test_zero_leakage_is_twice_mcdiarmid(self):
        for n, eta in ((10, 0.2), (50, 0.3), (400, 0.05)):
            report = gen_error_bound(n, eta, 0.0)
            assert report.value == pytest.approx(
                2.0 * mcdiarmid_tail(n, eta, 1.0 / n), rel=1e-12
            )

    def test_reference_point(self):
        # n=500, eta=0.1, L=1 gives 2 exp(1 - 10) = 2 exp(-9)
        report = gen_error_bound(500, 0.1, 1.0)
        assert report.value == 0.0002468196081733591
        assert report.value == pytest.approx(2.0 * math.exp(-9.0), abs=1e-18)
        assert not report.trivial

    def test_leakage_rate_algebra(self):
        # with L = epsilon * n the bound reads 2 exp(-n (2 eta^2 - epsilon))
        n, eta, eps = 50, 0.3, 0.01
        report = gen_error_bound(n, eta, eps * n)
        assert report.value == pytest.approx(
            2.0 * math.exp(-n * (2.0 * eta * eta - eps)), rel=1e-12
        )

    def test_trivial_flag(self):
        assert gen_error_bound(2, 0.1, 0.0).trivial
        assert not gen_error_bound(500, 0.1, 0.0).trivial

    def test_eta_validation(self):
        for eta in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(LeakageLabError):
                gen_error_bound(10, eta, 0.0)

    def test_monotone_in_leakage(self):
        values = [gen_error_bound(100, 0.1, L).value for L in (0.0, 0.5, 1.0, 2.0)]
        assert values == sorted(values)


class TestSensitivityBounds:
    def test_reduces_to_standard_at_c_equals_one_over_n(self):
        for n, eta, L in ((10, 0.2, 0.0), (50, 0.3, 0.5), (200, 0.05, 1.0)):
            general = gen_error_bound_sensitivity(n, eta, 1.0 / n, L)
            standard = gen_error_bound(n, eta, L)
            assert general.value == pytest.approx(standard.value, rel=1e-12)

    def test_eta_above_one_is_allowed(self):
        # general-sensitivity risks are not confined to [0, 1]
        report = gen_error_bound_sensitivity(1, 1.0, 1.0, 0.0)
        assert report.value == pytest.approx(2.0 * math.exp(-2.0), rel=1e-15)
        with pytest.raises(LeakageLabError):
            gen_error_bound_sensitivity(1, 0.0, 1.0, 0.0)

    def test_dp_reference_value(self):
        assert dp_sensitivity_reference_bound(1, 1.0, 1.0) == pytest.approx(
            3.0 * math.exp(-1.0), rel=1e-15
        )
        with pytest.raises(NonPositiveSensitivity):
            dp_sensitivity_reference_bound(10, 0.5, -0.1)

    @pytest.mark.parametrize("bound", [
        mcdiarmid_tail,
        dp_sensitivity_reference_bound,
        lambda n, eta, c: gen_error_bound_sensitivity(n, eta, c, 1.0),
    ], ids=["mcdiarmid", "dp-reference", "generr-c"])
    def test_underflowed_denominator_is_named(self, bound):
        with pytest.raises(DenominatorNonPositive, match="c = 1e-200, n = 10"):
            bound(10, 0.1, 1e-200)

    def test_comparison_flag_matches_algebra(self):
        # 2 exp(L - 2x) < 3 exp(-x) iff L < x + log(3/2), x = eta^2/(c^2 n)
        for n in (1, 10, 100):
            for eta in (0.5, 1.0, 2.0):
                for c in (0.1, 1.0):
                    for L in (0.0, 0.5, 2.0, 10.0):
                        table = compare_sensitivity_bounds(n, eta, c, L)
                        x = eta * eta / (c * c * n)
                        expected = L < x + math.log(1.5)
                        assert table["leakage_bound_smaller"] == expected
                        assert table["leakage_bound"] == pytest.approx(
                            gen_error_bound_sensitivity(n, eta, c, L).value
                        )
                        assert table["dp_reference_bound"] == pytest.approx(
                            dp_sensitivity_reference_bound(n, eta, c)
                        )


class TestSignificance:
    def test_adjusted_reference_points(self):
        assert adjusted_significance(0.05, math.log(10.0)) == 0.004999999999999999
        assert adjusted_significance(0.01, 1.0) == 0.0036787944117144234
        assert adjusted_significance(0.2, 0.0) == 0.2

    def test_adjustment_inverts_fdr(self):
        for delta, L in ((0.05, math.log(10.0)), (0.01, 2.0), (0.3, 0.123)):
            sigma = adjusted_significance(delta, L)
            assert fdr_bound(sigma, L).value == pytest.approx(delta, rel=1e-12)

    def test_fdr_values(self):
        assert fdr_bound(0.005, math.log(10.0)).value == pytest.approx(
            0.05, rel=1e-12
        )
        assert fdr_bound(0.1, 0.0).value == 0.1

    def test_fdr_cardinality_is_test_count_times_sigma(self):
        # selecting among T tests costs exp(log T) = T
        report = fdr_bound(0.01, math.log(20.0))
        assert report.value == pytest.approx(0.2, rel=1e-12)

    def test_trivial_flag(self):
        assert fdr_bound(0.5, math.log(3.0)).trivial
        assert not fdr_bound(0.01, math.log(3.0)).trivial

    def test_validation(self):
        with pytest.raises(LeakageLabError):
            adjusted_significance(0.0, 1.0)
        with pytest.raises(LeakageLabError):
            adjusted_significance(1.2, 1.0)
        assert adjusted_significance(1.0, 0.0) == 1.0
        with pytest.raises(LeakageLabError):
            fdr_bound(-0.1, 1.0)
        with pytest.raises(LeakageLabError):
            fdr_bound(1.1, 1.0)

    def test_monotone_in_leakage(self):
        values = [fdr_bound(0.01, L).value for L in (0.0, 0.5, 1.0, 2.0)]
        assert values == sorted(values)


class TestDworkDpBound:
    def test_reference_point(self):
        report = dwork_dp_bound(0.01, 0.1, 100)
        assert report.value == pytest.approx(0.3, abs=1e-9)
        assert report.flags == {"epsilon_within_validity": True}
        assert report.inputs["crossover_epsilon"] == pytest.approx(
            math.log(3.0 / 0.1) / 100, rel=1e-12
        )

    def test_validity_flag_both_sides(self):
        # the ceiling at beta=0.01, n=100 is sqrt(ln(100)/200) ~ 0.1517
        ceiling = math.sqrt(math.log(100.0) / 200.0)
        below = dwork_dp_bound(0.01, ceiling * 0.9, 100)
        above = dwork_dp_bound(0.01, ceiling * 1.1, 100)
        assert below.flags["epsilon_within_validity"]
        assert not above.flags["epsilon_within_validity"]

    def test_trivial_when_beta_large(self):
        report = dwork_dp_bound(1.0 / 9.0, 0.05, 100)
        assert report.value == pytest.approx(1.0, rel=1e-12)
        assert report.trivial

    def test_validation(self):
        for beta in (0.0, 1.0, -0.5):
            with pytest.raises(LeakageLabError):
                dwork_dp_bound(beta, 0.1, 100)
        with pytest.raises(NegativeEpsilon):
            dwork_dp_bound(0.01, -0.1, 100)


class TestMiGenBound:
    def test_reference_point(self):
        report = mi_gen_bound(1.0, 1000, 0.1)
        assert report.value == 0.08769669486759213
        assert report.value == pytest.approx(
            (1.0 + math.log(2.0)) / (20.0 - math.log(2.0)), rel=1e-15
        )

    def test_denominator_guard(self):
        # 2 n eta^2 must exceed log 2
        with pytest.raises(DenominatorNonPositive):
            mi_gen_bound(0.5, 1, 0.5)
        mi_gen_bound(0.5, 2, 0.5)

    def test_decreasing_in_n(self):
        values = [mi_gen_bound(1.0, n, 0.1).value for n in (100, 500, 1000, 5000)]
        assert values == sorted(values, reverse=True)

    def test_validation(self):
        with pytest.raises(LeakageLabError):
            mi_gen_bound(-0.1, 100, 0.1)
        with pytest.raises(LeakageLabError):
            mi_gen_bound(1.0, 100, 1.5)


class TestSampleComplexity:
    def test_leakage_reference_point(self):
        got = sample_complexity(math.log(16.0), 0.1, 0.05, mode="leakage")
        assert got == 576.8320995793771
        assert got == pytest.approx(
            (math.log(16.0) + math.log(20.0)) / 0.01, rel=1e-12
        )

    def test_mutual_info_reference_point(self):
        assert sample_complexity(1.0, 0.1, 0.05, mode="mutual-info") == pytest.approx(
            2000.0, rel=1e-12
        )

    def test_confidence_scaling_gap(self):
        # the MI estimate pays 1/delta while the leakage estimate pays
        # ln(1/delta); the ratio grows without bound as delta shrinks
        ratios = []
        for delta in (0.1, 0.01, 0.001):
            mi = sample_complexity(1.0, 0.1, delta, mode="mutual-info")
            lk = sample_complexity(1.0, 0.1, delta, mode="leakage")
            ratios.append(mi / lk)
        assert ratios == sorted(ratios)
        assert ratios[-1] > ratios[0] * 10

    def test_validation(self):
        with pytest.raises(LeakageLabError):
            sample_complexity(-1.0, 0.1, 0.05, mode="leakage")
        with pytest.raises(LeakageLabError):
            sample_complexity(1.0, 0.0, 0.05, mode="leakage")
        with pytest.raises(LeakageLabError):
            sample_complexity(1.0, 0.1, 1.0, mode="leakage")
        with pytest.raises(LeakageLabError, match="mode"):
            sample_complexity(1.0, 0.1, 0.05, mode="bits")

    @pytest.mark.parametrize("eta,delta,mode", [
        (1e-200, 0.1, "leakage"),
        (1e-160, 1e-10, "mutual-info"),
    ])
    def test_underflowed_denominator_is_named(self, eta, delta, mode):
        with pytest.raises(DenominatorNonPositive, match="denominator underflows"):
            sample_complexity(1.0, eta, delta, mode=mode)

    def test_overflow_is_infeasible(self):
        with pytest.raises(Infeasible, match="overflows"):
            sample_complexity(1.0, 1e-160, 0.1, mode="leakage")


class TestBoundReport:
    @pytest.mark.parametrize("value", [-0.01, math.nan])
    def test_rejects_negative_value(self, value):
        with pytest.raises(LeakageLabError):
            BoundReport("bad", value, {}, trivial=False)

    def test_inputs_are_copied(self):
        inputs = {"n": 10.0}
        report = BoundReport("ok", 0.5, inputs, trivial=False)
        inputs["n"] = 99.0
        assert report.inputs == {"n": 10.0}

    @pytest.mark.parametrize("bound, args", [
        (gen_error_bound, (500.0, 0.1, 1.0)),
        (gen_error_bound_sensitivity, (500.0, 0.1, 0.01, 1.0)),
        (dwork_dp_bound, (0.01, 0.1, 500.0)),
        (mi_gen_bound, (0.5, 500.0, 0.2)),
    ], ids=["generr", "generr-c", "dwork", "mi"])
    def test_n_is_echoed_as_the_int_it_was_validated_as(self, bound, args):
        # an integral float is the count, kept as the int
        n = bound(*args).inputs["n"]
        assert type(n) is int and n == 500

    def test_to_json_shape(self):
        report = gen_error_bound(500, 0.1, 1.0)
        payload = report.to_json()
        assert payload["name"] == "generalization-error"
        assert payload["value"] == report.value
        assert payload["trivial"] is False
        assert payload["inputs"]["n"] == 500.0
        assert "flags" not in payload
        flagged = dwork_dp_bound(0.01, 0.1, 100).to_json()
        assert flagged["flags"] == {"epsilon_within_validity": True}


# every public callable of bounds and ledger that takes a number, with valid numeric arguments
NUMERIC_CALLS = {
    "adaptive_event_bound": (adaptive_event_bound, (0.1, 1.0)),
    "mcdiarmid_tail": (mcdiarmid_tail, (100, 0.1, 0.01)),
    "gen_error_bound": (gen_error_bound, (100, 0.1, 1.0)),
    "gen_error_bound_sensitivity": (gen_error_bound_sensitivity, (100, 0.1, 0.01, 1.0)),
    "dp_sensitivity_reference_bound": (dp_sensitivity_reference_bound, (100, 0.1, 0.01)),
    "compare_sensitivity_bounds": (compare_sensitivity_bounds, (100, 0.1, 0.01, 1.0)),
    "adjusted_significance": (adjusted_significance, (0.05, 1.0)),
    "fdr_bound": (fdr_bound, (0.01, 1.0)),
    "dwork_dp_bound": (dwork_dp_bound, (0.01, 0.01, 100)),
    "mi_gen_bound": (mi_gen_bound, (0.1, 100, 0.1)),
    "sample_complexity": (
        lambda value, eta, delta: sample_complexity(value, eta, delta, "leakage"), (1.0, 0.1, 0.05)),
    "dp_to_leakage": (ledger.dp_to_leakage, (0.01, 100)),
    "cardinality_bound": (ledger.cardinality_bound, (4,)),
    "leakage_to_approx_maxinfo": (ledger.leakage_to_approx_maxinfo, (1.0, 0.1)),
    "maxinfo_to_leakage": (ledger.maxinfo_to_leakage, (1.0,)),
    "LedgerEntry.from_dp": (lambda epsilon, n: LedgerEntry.from_dp("s", epsilon, n), (0.01, 100)),
    "LedgerEntry.from_cardinality": (lambda size: LedgerEntry.from_cardinality("s", size), (4,)),
    "LedgerEntry.from_maxinfo": (lambda nats: LedgerEntry.from_maxinfo("s", nats), (1.0,)),
    "LedgerEntry.declared": (lambda nats: LedgerEntry.declared("s", nats), (1.0,)),
}
# the position of each numeric call's count argument
COUNT_POSITIONS = {
    "mcdiarmid_tail": 0, "gen_error_bound": 0, "gen_error_bound_sensitivity": 0,
    "dp_sensitivity_reference_bound": 0, "compare_sensitivity_bounds": 0, "dwork_dp_bound": 2,
    "mi_gen_bound": 1, "dp_to_leakage": 1, "cardinality_bound": 0, "LedgerEntry.from_dp": 1,
    "LedgerEntry.from_cardinality": 0,
}
# exports that take no scalar parameter of their own
NO_NUMBER = {"BoundReport", "P_VALUE_NOTE", "exact_event_probability", "LeakageLedger", "compose"}


def test_numeric_calls_cover_every_export():
    exports = set(bounds.__all__) | set(ledger.__all__)
    assert {name.split(".")[0] for name in NUMERIC_CALLS} | NO_NUMBER == exports
    # the constructors that take a number; from_json reads one and from_channel computes it
    builders = {name for name, member in vars(LedgerEntry).items()
                if isinstance(member, classmethod) and name not in ("from_json", "from_channel")}
    assert {name for name in NUMERIC_CALLS if name.startswith("LedgerEntry.")} == {
        f"LedgerEntry.{name}" for name in builders}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name,position", [
    (name, position) for name, (_, args) in NUMERIC_CALLS.items() for position in range(len(args))])
def test_non_finite_argument_is_a_validation_error(name, position, value):
    call, args = NUMERIC_CALLS[name]
    call(*args)  # the valid arguments pass, so the error below is the replaced one's
    args = args[:position] + (value,) + args[position + 1:]
    with pytest.raises(LeakageLabError) as caught:
        call(*args)
    assert caught.value.exit_code == 2


@pytest.mark.parametrize("call,error,message", [
    (lambda: gen_error_bound(0, 0.1, 1.0), LeakageLabError,
     "sample size must lie in [1, inf), got 0"),
    (lambda: dwork_dp_bound(0.01, -0.5, 10), NegativeEpsilon,
     "epsilon must lie in [0, inf), got -0.5"),
    (lambda: mcdiarmid_tail(10, 0.1, 0.0), NonPositiveSensitivity,
     "sensitivity must lie in (0, inf), got 0.0"),
    (lambda: ledger.leakage_to_approx_maxinfo(1.0, 1.0), BetaOutOfRange,
     "beta must lie in (0, 1), got 1.0"),
    # a count that no float holds
    (lambda: gen_error_bound(10**400, 0.1, 1.0), Infeasible, "result too large to represent"),
    (lambda: ledger.dp_to_leakage(0.1, 10**400), Infeasible, "result too large to represent"),
    (lambda: LedgerEntry.from_dp("s", 0.0, 10**400), Infeasible, "result too large to represent"),
], ids=["sample-size", "epsilon", "sensitivity", "beta", "huge-sample-size", "huge-dataset-size",
        "huge-dp-entry"])
def test_finite_value_outside_its_interval_keeps_its_error_class(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert str(caught.value) == message


@pytest.mark.parametrize("name", list(COUNT_POSITIONS))
def test_fractional_count_is_a_validation_error(name):
    call, args = NUMERIC_CALLS[name]
    position = COUNT_POSITIONS[name]
    # an integral float is the same count
    assert call(*args[:position], float(args[position]), *args[position + 1:]) == call(*args)
    with pytest.raises(LeakageLabError, match="must be a whole number, got 2.5") as caught:
        call(*args[:position], 2.5, *args[position + 1:])
    assert type(caught.value) is LeakageLabError and caught.value.exit_code == 2


@pytest.mark.parametrize("value", [True, "3", None], ids=["bool", "string", "none"])
@pytest.mark.parametrize("name,position", [
    (name, position) for name, (_, args) in NUMERIC_CALLS.items() for position in range(len(args))])
def test_non_number_argument_is_a_validation_error(name, position, value):
    # a bool is not the number 1, and nothing is converted on the way in
    call, args = NUMERIC_CALLS[name]
    with pytest.raises(LeakageLabError) as caught:
        call(*args[:position], value, *args[position + 1:])
    assert type(caught.value) is LeakageLabError and caught.value.exit_code == 2
    assert str(caught.value).endswith(f" must be a number, got {value!r}")


@pytest.mark.parametrize("name", list(COUNT_POSITIONS))
def test_count_below_its_range_or_past_every_float_is_refused(name):
    call, args = NUMERIC_CALLS[name]
    position = COUNT_POSITIONS[name]
    for value, error in ((0, LeakageLabError), (-3, LeakageLabError), (10**400, Infeasible)):
        with pytest.raises(error) as caught:
            call(*args[:position], value, *args[position + 1:])
        assert type(caught.value) is error
