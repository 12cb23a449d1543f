"""Tests for the randomized verification sweeps and their generators."""

import numpy as np
import pytest

from leakage_lab import Channel, maximal_leakage
from leakage_lab.verify import (
    SUITES,
    diagonal_equality_gap,
    random_channel,
    random_distribution,
    random_joint,
    run_suites,
    sweep_composition,
    sweep_maxinfo,
    sweep_soundness,
    three_step_channel,
    two_step_channel,
)


class TestGenerators:
    def test_random_distribution_is_valid(self, rng):
        saw_zero = False
        for _ in range(200):
            dist = random_distribution(rng, int(rng.integers(2, 9)), allow_zeros=True)
            assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)
            assert dist.probs.min() >= 0.0
            assert len(dist.support()) >= 1
            saw_zero = saw_zero or (dist.probs == 0.0).any()
        assert saw_zero

    def test_random_channel_rows_are_valid(self, rng):
        saw_zero = False
        for _ in range(200):
            channel = random_channel(rng, int(rng.integers(2, 7)), int(rng.integers(2, 7)))
            assert np.allclose(channel.rows.sum(axis=1), 1.0, atol=1e-12)
            assert (channel.rows.max(axis=1) > 0.0).all()
            saw_zero = saw_zero or (channel.rows == 0.0).any()
        assert saw_zero

    def test_random_joint_is_valid(self, rng):
        for _ in range(100):
            joint = random_joint(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
            assert joint.mass.sum() == pytest.approx(1.0, abs=1e-12)
            assert joint.mass.min() >= 0.0
            assert (joint.mass > 0.0).any()


class TestAdaptiveChannels:
    def test_two_step_marginalizes_to_first(self, rng):
        for _ in range(25):
            first = random_channel(rng, 3, 3, allow_zeros=False)
            second = {
                y: random_channel(rng, 3, 2, allow_zeros=False, input_alphabet=first.input)
                for y in first.output.labels
            }
            pair = two_step_channel(first, second)
            # pair labels iterate z fastest, so each y owns a block
            width = 2
            for j in range(3):
                block = pair.rows[:, j * width : (j + 1) * width].sum(axis=1)
                assert np.allclose(block, first.rows[:, j], atol=1e-12)

    def test_two_step_labels(self, rng):
        first = random_channel(rng, 2, 2, allow_zeros=False)
        second = {
            y: random_channel(rng, 2, 2, allow_zeros=False, input_alphabet=first.input)
            for y in first.output.labels
        }
        pair = two_step_channel(first, second)
        ys = list(first.output.labels)
        zs = list(next(iter(second.values())).output.labels)
        assert list(pair.output.labels) == [f"{y}&{z}" for y in ys for z in zs]

    def test_three_step_marginalizes_to_pair(self, rng):
        first = random_channel(rng, 2, 2, allow_zeros=False)
        second = {
            y: random_channel(rng, 2, 2, allow_zeros=False, input_alphabet=first.input)
            for y in first.output.labels
        }
        pair = two_step_channel(first, second)
        third = {
            (y, z): random_channel(rng, 2, 3, allow_zeros=False, input_alphabet=first.input)
            for y in first.output.labels
            for z in ("y0", "y1")
        }
        # the inner output labels of second channels are y0, y1 by
        # construction of the generator's naming scheme
        triple = three_step_channel(first, second, third)
        width = 3
        for j in range(pair.rows.shape[1]):
            block = triple.rows[:, j * width : (j + 1) * width].sum(axis=1)
            assert np.allclose(block, pair.rows[:, j], atol=1e-12)

    def test_identity_steps_compose_to_identity_leakage(self, rng):
        # two deterministic identity steps leak exactly log of the
        # alphabet size each; the pair leaks that once, which is within
        # the two-entry budget
        alphabet = random_channel(rng, 3, 3).input
        identity = Channel.identity(alphabet)
        pair = two_step_channel(identity, {y: identity for y in alphabet.labels})
        single = maximal_leakage(identity).nats
        assert maximal_leakage(pair).nats == pytest.approx(single, abs=1e-12)
        assert maximal_leakage(pair).nats <= 2.0 * single


class TestSweeps:
    def test_diagonal_family_is_tight(self):
        assert diagonal_equality_gap() <= 1e-12

    def test_soundness_sweep_passes(self):
        result = sweep_soundness(60, seed=20260814)
        assert result["pass"]
        assert result["instances"] == 60
        assert result["checks"]["event_bound"]["count"] > 0
        assert result["checks"]["event_bound"]["violations"] == 0
        assert result["failures"] == []

    def test_composition_sweep_passes(self):
        result = sweep_composition(60, seed=20260814)
        assert result["pass"]
        for name in ("post_processing", "two_step", "three_step", "conditional_chain"):
            assert result["checks"][name]["violations"] == 0

    def test_maxinfo_sweep_passes(self):
        result = sweep_maxinfo(60, seed=20260814)
        assert result["pass"]
        for name in (
            "leakage_budget",
            "enumeration_match",
            "beta_monotone",
            "dominates_leakage",
        ):
            assert result["checks"][name]["violations"] == 0

    def test_run_suites_bundles(self):
        result = run_suites(("soundness", "maxinfo"), instances=30, seed=3)
        assert [suite["suite"] for suite in result["suites"]] == ["soundness", "maxinfo"]
        assert result["pass"]
        assert set(SUITES) == {"soundness", "composition", "maxinfo"}


def test_compose_channels_matches_two_step_marginal(rng):
    # a non-adaptive second step collapses the adaptive construction to
    # ordinary channel composition
    first = random_channel(rng, 3, 3, allow_zeros=False)
    fixed = random_channel(rng, 3, 2, allow_zeros=False, input_alphabet=first.input)
    # same second channel regardless of y, but adaptive in form
    pair = two_step_channel(first, {y: fixed for y in first.output.labels})
    assert maximal_leakage(pair).nats <= (
        maximal_leakage(first).nats + maximal_leakage(fixed).nats + 1e-10
    )
