"""The benchmark's oracles against the program, on inputs small enough to enumerate.

Run with ``PYTHONPATH=src python -m pytest bench``.
"""

import itertools
import math

import numpy as np
import pytest

import oracles
import workloads
from leakage_lab import bounds, measures
from leakage_lab.core import Alphabet, Channel, DiscreteDistribution, JointDistribution, iid_prior
from leakage_lab.simulate import (
    LearnerSpec,
    binomial_tail_table,
    data_alphabet,
    generalization_event,
    learner_channel,
    statistic_windows,
)

HYPOTHESES = workloads.HYPOTHESES
DISTRIBUTIONS = ([0.4, 0.1, 0.3, 0.2], [0.25, 0.25, 0.25, 0.25], [0.5, 0.0, 0.3, 0.2])
LEARNERS = ((oracles.ERM, None), (oracles.EXPONENTIAL_MECHANISM, 0.5),
            (oracles.EXPONENTIAL_MECHANISM, 3.0))


def _program(kind, epsilon, probs, n):
    spec = LearnerSpec(kind, tuple(map(tuple, HYPOTHESES)), epsilon)
    dist = DiscreteDistribution(data_alphabet(2), probs)
    return spec, dist, learner_channel(spec, 2, n, dist)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("probs", DISTRIBUTIONS)
@pytest.mark.parametrize("kind,epsilon", LEARNERS)
def test_type_classes_match_full_enumeration(kind, epsilon, probs, n):
    spec, dist, channel = _program(kind, epsilon, probs, n)
    truth = oracles.TypeClassLearner(kind, HYPOTHESES, epsilon, probs, n)

    prior = iid_prior(dist, n)
    assert abs(measures.maximal_leakage(channel, prior.support()).nats - truth.leakage()) <= 1e-12
    for eta in (0.2, 0.3, 0.45):
        joint, event = generalization_event(spec, 2, n, dist, eta)
        exact = bounds.exact_event_probability(joint, event)
        assert abs(exact - truth.event_probability(eta)) <= 1e-12
    program_dp = measures.empirical_dp(channel)
    oracle_dp = truth.empirical_dp()
    if math.isinf(program_dp):
        assert math.isinf(oracle_dp)
    else:
        assert abs(program_dp - oracle_dp) <= 1e-9


def test_per_dataset_rows_match_the_learner_channel():
    n = 4
    _, _, channel = _program(oracles.EXPONENTIAL_MECHANISM, 0.5, DISTRIBUTIONS[0], n)
    counts = oracles.dataset_counts(4, n)
    rows = oracles.learner_rows(oracles.EXPONENTIAL_MECHANISM, 0.5,
                                counts @ oracles.symbol_losses(HYPOTHESES))
    np.testing.assert_allclose(rows, channel.rows, rtol=0, atol=1e-15)
    labels = [",".join(t) for t in itertools.product(workloads.BASE_LABELS, repeat=n)]
    assert labels == list(channel.input.labels)


def test_types_cover_every_histogram():
    counts = oracles.types(4, 5)
    assert len(counts) == math.comb(5 + 3, 3)
    assert np.all(counts.sum(axis=1) == 5)
    assert len({tuple(c) for c in counts.tolist()}) == len(counts)


def _brute_force_false_discovery(n, t, level):
    windows = statistic_windows(n, t)
    table = binomial_tail_table(windows.shape[1])
    bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    p_min = table[bits[:, windows].sum(axis=2)].min(axis=1)
    return float(np.mean(p_min <= level))


@pytest.mark.parametrize("n,t,level", [(12, 3, 0.005), (16, 2, 0.05), (10, 4, 0.02), (8, 1, 0.01)])
def test_inclusion_exclusion_matches_brute_force(n, t, level):
    assert oracles.windows(n, t) == statistic_windows(n, t).tolist()
    want = _brute_force_false_discovery(n, t, level)
    assert abs(oracles.false_discovery_probability(n, t, level) - want) <= 1e-12
    assert abs(oracles.false_discovery_probability_by_complement(n, t, level) - want) <= 1e-12


def test_benchmark_hyptest_routes_agree():
    cfg = workloads.HYPTEST
    a = oracles.false_discovery_probability(cfg["n"], cfg["numStats"], cfg["sigma"])
    b = oracles.false_discovery_probability_by_complement(cfg["n"], cfg["numStats"], cfg["sigma"])
    assert abs(a - b) <= 1e-12


def test_rejection_threshold():
    assert oracles.rejection_threshold(8, 0.005) == 8
    assert oracles.rejection_threshold(8, 0.04) == 7
    assert oracles.rejection_threshold(8, 0.001) == 9


@pytest.mark.parametrize("seed", range(20))
def test_small_measures_match(seed):
    rng = np.random.default_rng(seed)
    rows = rng.random((4, 3)) * (rng.random((4, 3)) < 0.7) + 1e-3
    rows /= rows.sum(axis=1, keepdims=True)
    mass = rng.random((4, 3)) * (rng.random((4, 3)) < 0.7)
    mass.flat[0] += 0.1
    mass /= mass.sum()
    x, y = Alphabet(f"x{i}" for i in range(4)), Alphabet(f"y{j}" for j in range(3))
    joint = JointDistribution(x, y, mass)
    assert abs(measures.maximal_leakage(Channel(x, y, rows)).nats
               - oracles.maximal_leakage(rows)) <= 1e-12
    assert abs(measures.mutual_information(joint) - oracles.mutual_information(mass)) <= 1e-12
    assert abs(measures.max_information(joint) - oracles.max_information(mass)) <= 1e-12
    for beta in (0.01, 0.1, 0.3):
        want = oracles.approx_max_information(mass, beta)
        assert abs(measures.approx_max_information(joint, beta) - want) <= 1e-9
        assert abs(measures.approx_max_information_by_enumeration(joint, beta) - want) <= 1e-9


@pytest.mark.parametrize("theorem,args,program", [
    ("adapt", {"max_fiber_prob": 0.1, "leakage": 0.7},
     lambda a: bounds.adaptive_event_bound(a["max_fiber_prob"], a["leakage"]).value),
    ("generr", {"n": 500, "eta": 0.1, "leakage": 1.0},
     lambda a: bounds.gen_error_bound(a["n"], a["eta"], a["leakage"]).value),
    ("generr-c", {"n": 300, "eta": 0.1, "sensitivity": 0.004, "leakage": 1.0},
     lambda a: bounds.gen_error_bound_sensitivity(a["n"], a["eta"], a["sensitivity"],
                                                  a["leakage"]).value),
    ("hyptest", {"sigma": 0.005, "leakage": 2.0},
     lambda a: bounds.fdr_bound(a["sigma"], a["leakage"]).value),
    ("dwork", {"beta": 0.01, "epsilon": 0.1, "n": 100},
     lambda a: bounds.dwork_dp_bound(a["beta"], a["epsilon"], a["n"]).value),
    ("mi", {"mutual_info": 0.5, "n": 400, "eta": 0.2},
     lambda a: bounds.mi_gen_bound(a["mutual_info"], a["n"], a["eta"]).value),
    ("sample-complexity", {"value": 1.5, "eta": 0.1, "delta": 0.05, "mode": "leakage"},
     lambda a: bounds.sample_complexity(a["value"], a["eta"], a["delta"], a["mode"])),
    ("sample-complexity", {"value": 1.5, "eta": 0.1, "delta": 0.05, "mode": "mutual-info"},
     lambda a: bounds.sample_complexity(a["value"], a["eta"], a["delta"], a["mode"])),
])
def test_bound_closed_forms(theorem, args, program):
    want = oracles.bound_value(theorem, args)
    assert abs(program(args) - want) <= 1e-12 * max(abs(want), 1.0)


def test_tail_band_refuses_an_event_it_cannot_judge():
    assert workloads.mc_band(0.05, 100_000) > 0.0
    with pytest.raises(RuntimeError):
        workloads.mc_band(1e-4, 1_000)
