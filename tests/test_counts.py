"""One rule for every count, index and seed, wherever it enters the library.

A count is a whole number. An integral float is the same count as its
int and gives a byte-identical result: the same channel rows, report
JSON and trace. A fraction, a bool, a string, None, a value below the
count's range and a value too large for the work or for a float are
refused with a :class:`LeakageLabError`, never with a bare Python error
and never with a result.
"""

import math
from dataclasses import dataclass
from typing import Callable

import pytest

from leakage_lab import jsonio
from leakage_lab.bounds import gen_error_bound
from leakage_lab.core import Alphabet, DiscreteDistribution, ProductAlphabet, iid_prior
from leakage_lab.errors import Infeasible, LeakageLabError
from leakage_lab.simulate import (
    ERM,
    EXPONENTIAL_MECHANISM,
    GenErrConfig,
    HypTestConfig,
    LearnerSpec,
    binomial_tail_table,
    data_alphabet,
    derive_trial_seed,
    generalization_event,
    learner_channel,
    run_gen_error_experiment,
    run_hyptest_experiment,
    statistic_windows,
)
from leakage_lab.verify import run_suites, sweep_composition, sweep_maxinfo, sweep_soundness

DIST = DiscreteDistribution(data_alphabet(2), [0.4, 0.1, 0.3, 0.2])
HYPOTHESES = ((0, 0), (0, 1), (1, 0), (1, 1))
MECHANISM = LearnerSpec(EXPONENTIAL_MECHANISM, HYPOTHESES, 0.5)
HUGE = 10**400
WIDE = 2**64


def _alphabet(product: ProductAlphabet):
    return product.labels, repr(product.n), product.digit_matrix().tobytes()


def _generr(tmp_path, d, n, trials, seed):
    config = GenErrConfig(d, n, DIST, LearnerSpec(ERM, HYPOTHESES), 0.3, trials, seed)
    trace = tmp_path / "generr.csv"
    report = run_gen_error_experiment(config, str(trace))
    return jsonio.dumps(config.to_json()), jsonio.dumps(report), trace.read_bytes()


def _hyptest(tmp_path, n, num_stats, trials, seed):
    config = HypTestConfig(n, num_stats, 0.01, 0.05, trials, seed)
    trace = tmp_path / "hyptest.csv"
    report = run_hyptest_experiment(config, str(trace))
    return jsonio.dumps(config.to_json()), jsonio.dumps(report), trace.read_bytes()


def _channel(tmp_path, d, n):
    channel = learner_channel(MECHANISM, d, n, DIST)
    return _alphabet(channel.input), channel.rows.tobytes(), jsonio.dumps(channel.to_json())


def _event(tmp_path, d, n):
    joint, event = generalization_event(LearnerSpec(ERM, HYPOTHESES), d, n, DIST, 0.3)
    return _alphabet(joint.input), joint.mass.tobytes(), event.mask.tobytes()


def _array(values):
    return values.dtype.str, values.shape, values.tobytes()


@dataclass(frozen=True)
class Count:
    """A count at ``position`` of ``call(tmp_path, *args)``, with its refusals.

    ``below`` lies under the count's range; ``huge`` maps each value too
    large for the work or for a float to the exit code that refuses it.
    """

    call: Callable
    args: tuple
    position: int
    below: int
    huge: dict


def _sweep(sweep):
    return lambda _, instances, seed: jsonio.dumps(sweep(instances, seed))


_PAST_THE_CAP = {WIDE: 4, HUGE: 3}
_PAST_A_SEED = {WIDE: 2, HUGE: 2}
_SWEEPS = {
    "sweep_soundness": _sweep(sweep_soundness),
    "sweep_composition": _sweep(sweep_composition),
    "sweep_maxinfo": _sweep(sweep_maxinfo),
    "run_suites": _sweep(lambda instances, seed: run_suites(["soundness", "maxinfo"], instances, seed)),
}

COUNTS = {
    "ProductAlphabet-n": Count(
        lambda _, n: _alphabet(ProductAlphabet(Alphabet(("a", "b", "c")), n)), (3,), 0, 0,
        _PAST_THE_CAP),
    "iid_prior-n": Count(
        lambda _, n: (_alphabet(iid_prior(DIST, n).alphabet), iid_prior(DIST, n).probs.tobytes()),
        (3,), 0, 0, _PAST_THE_CAP),
    "data_alphabet-d": Count(lambda _, d: data_alphabet(d).labels, (3,), 0, 0, _PAST_THE_CAP),
    # a d that no hypothesis covers is refused by name before its pairs are built
    "GenErrConfig-d": Count(_generr, (2, 3, 40, 7), 0, 0, {WIDE: 2, HUGE: 3}),
    "GenErrConfig-n": Count(_generr, (2, 3, 40, 7), 1, 0, _PAST_THE_CAP),
    "GenErrConfig-trials": Count(_generr, (2, 3, 40, 7), 2, 0, {HUGE: 3}),
    "GenErrConfig-seed": Count(_generr, (2, 3, 40, 7), 3, -1, _PAST_A_SEED),
    "HypTestConfig-n": Count(_hyptest, (64, 4, 40, 7), 0, 0, _PAST_THE_CAP),
    "HypTestConfig-num_stats": Count(_hyptest, (64, 4, 40, 7), 1, 0, _PAST_THE_CAP),
    "HypTestConfig-trials": Count(_hyptest, (64, 4, 40, 7), 2, 0, {HUGE: 3}),
    "HypTestConfig-seed": Count(_hyptest, (64, 4, 40, 7), 3, -1, _PAST_A_SEED),
    "learner_channel-d": Count(_channel, (2, 2), 0, 0, {WIDE: 2, HUGE: 3}),
    "learner_channel-n": Count(_channel, (2, 2), 1, 0, _PAST_THE_CAP),
    "generalization_event-d": Count(_event, (2, 2), 0, 0, {WIDE: 2, HUGE: 3}),
    "generalization_event-n": Count(_event, (2, 2), 1, 0, _PAST_THE_CAP),
    "statistic_windows-n": Count(
        lambda _, n, t: _array(statistic_windows(n, t)), (64, 4), 0, 0, _PAST_THE_CAP),
    "statistic_windows-t": Count(
        lambda _, n, t: _array(statistic_windows(n, t)), (64, 4), 1, 0, _PAST_THE_CAP),
    "binomial_tail_table-m": Count(
        lambda _, m: _array(binomial_tail_table(m)), (8,), 0, -1, _PAST_THE_CAP),
    "derive_trial_seed-master_seed": Count(
        lambda _, seed, index: repr(derive_trial_seed(seed, index)), (7, 3), 0, -1, _PAST_A_SEED),
    "derive_trial_seed-index": Count(
        lambda _, seed, index: repr(derive_trial_seed(seed, index)), (7, 3), 1, -1, _PAST_A_SEED),
    **{f"{name}-instances": Count(call, (4, 7), 0, 0, {HUGE: 3}) for name, call in _SWEEPS.items()},
    **{f"{name}-seed": Count(call, (4, 7), 1, -1, _PAST_A_SEED) for name, call in _SWEEPS.items()},
}

REFUSED = [(name, value, code) for name, count in COUNTS.items() for value, code in (
    (2.5, 2), (True, 2), ("3", 2), (None, 2), (count.below, 2), *count.huge.items())]


_NAMES = {HUGE: "10**400", WIDE: "2**64"}


def _with(count: Count, value) -> tuple:
    return count.args[:count.position] + (value,) + count.args[count.position + 1:]


@pytest.mark.parametrize("name,value,code", REFUSED, ids=[
    f"{name}-{_NAMES.get(value, repr(value))}" for name, value, _ in REFUSED])
def test_a_count_is_checked_where_it_enters(tmp_path, name, value, code):
    count = COUNTS[name]
    with pytest.raises(LeakageLabError) as caught:
        count.call(tmp_path, *_with(count, value))
    assert caught.value.exit_code == code


@pytest.mark.parametrize("name", list(COUNTS))
def test_an_integral_float_is_its_int(tmp_path, name):
    count = COUNTS[name]
    whole = count.args[count.position]
    expected = count.call(tmp_path, *count.args)
    assert count.call(tmp_path, *_with(count, float(whole))) == expected


def test_the_last_trial_index_is_computed():
    # the counter wraps modulo 2**64: index 2**64 - 1 steps by 0 * GOLDEN
    z = 7
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & (2**64 - 1)
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & (2**64 - 1)
    assert derive_trial_seed(7, 2**64 - 1) == z ^ (z >> 31)


@pytest.mark.parametrize("epsilon", [True, "3", None, 0.0, -1.0, math.nan])
def test_an_exponential_mechanism_epsilon_is_one_interval_check(epsilon):
    with pytest.raises(LeakageLabError, match="^epsilon must") as caught:
        LearnerSpec(EXPONENTIAL_MECHANISM, HYPOTHESES, epsilon)
    assert caught.value.exit_code == 2


def test_an_epsilon_that_no_float_holds_is_infeasible():
    # the weights exp(-epsilon * n * risk / 2) that it scales would overflow
    with pytest.raises(Infeasible, match="result too large to represent"):
        LearnerSpec(EXPONENTIAL_MECHANISM, HYPOTHESES, HUGE)


@pytest.mark.parametrize("epsilon", [0.5, 0.0, True])
def test_an_erm_learner_refuses_an_epsilon(epsilon):
    with pytest.raises(LeakageLabError, match="an ERM learner takes no epsilon") as caught:
        LearnerSpec(ERM, HYPOTHESES, epsilon)
    assert caught.value.exit_code == 2


@pytest.mark.parametrize("value,shown", [
    (10**19, "10000000000000000000"),
    (-10**18, "-1000000000000000000"),
    (10**20, "1.000e+20"),
    (-10**19, "-1.000e+19"),
    (HUGE, "1.000e+400"),
    (10**5000 + 7, "1.000e+5000"),
], ids=["20-digits", "negative-20-characters", "21-digits", "negative-21-characters",
        "10**400", "10**5000"])
def test_a_huge_integer_prints_in_scientific_form(value, shown):
    # values of at most 20 characters print as before; past the int-to-string
    # limit of 4300 digits, printing in full would itself raise ValueError
    with pytest.raises(LeakageLabError) as caught:
        gen_error_bound(100, value, 1.0)
    assert str(caught.value) == f"accuracy eta must lie in (0, 1), got {shown}"
