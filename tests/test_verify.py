"""Tests for the randomized verification sweeps and their generators."""

import numpy as np
import pytest

from leakage_lab import (
    Channel,
    LeakageLabError,
    conditional_maximal_leakage,
    maximal_leakage,
)
from leakage_lab.verify import (
    SUITES,
    _certificate_total,
    _conditional_chain_total,
    _random_stages,
    adaptive_channel,
    diagonal_equality_gap,
    random_channel,
    random_distribution,
    random_joint,
    run_suites,
    sweep_composition,
    sweep_maxinfo,
    sweep_soundness,
)

from conftest import stage_of


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


def random_stage(rng, first, prefixes, outputs):
    blocks = [
        random_channel(rng, len(first.input), outputs, input_alphabet=first.input)
        for _ in prefixes
    ]
    return stage_of(first, prefixes, blocks)


def per_block_oracle(first, *stages):
    """Joint rows built block by block: P(prefix j | x) times prefix j's stage block."""
    nx = len(first.input)
    rows = first.rows
    for stage in stages:
        width = len(stage.output)
        out = np.empty((nx, rows.shape[1] * width))
        for j in range(rows.shape[1]):
            out[:, j * width : (j + 1) * width] = rows[:, j : j + 1] * stage.rows[j * nx : (j + 1) * nx]
        rows = out
    return rows


class TestAdaptiveChannels:
    @pytest.mark.parametrize("steps", [1, 2, 3])
    def test_matches_per_block_oracle(self, rng, steps):
        for _ in range(25):
            first = random_channel(rng, int(rng.integers(2, 5)), int(rng.integers(2, 4)))
            stages, prefixes = [], list(first.output.labels)
            for _ in range(steps - 1):
                stage = random_stage(rng, first, prefixes, int(rng.integers(2, 4)))
                stages.append(stage)
                prefixes = [f"{p}&{z}" for p in prefixes for z in stage.output.labels]
            joint = adaptive_channel(first, *stages)
            assert np.array_equal(joint.rows, per_block_oracle(first, *stages))
            assert list(joint.output.labels) == prefixes
            assert joint.input == first.input

    def test_stage_height_must_match_prefix_count(self, rng):
        first = random_channel(rng, 3, 2)
        short = random_channel(rng, 5, 2)
        with pytest.raises(LeakageLabError, match="needs 6"):
            adaptive_channel(first, short)
        stage = random_stage(rng, first, first.output.labels, 2)
        pair = adaptive_channel(first, stage)
        with pytest.raises(LeakageLabError, match="needs 12"):
            adaptive_channel(first, stage, stage)
        assert len(pair.output) == 4

    def test_two_step_marginalizes_to_first(self, rng):
        for _ in range(25):
            first = random_channel(rng, 3, 3)
            second = random_stage(rng, first, first.output.labels, 2)
            pair = adaptive_channel(first, second)
            # pair labels iterate z fastest, so each y owns a block
            width = 2
            for j in range(3):
                block = pair.rows[:, j * width : (j + 1) * width].sum(axis=1)
                assert np.allclose(block, first.rows[:, j], atol=1e-12)

    def test_two_step_labels(self, rng):
        first = random_channel(rng, 2, 2)
        second = random_stage(rng, first, first.output.labels, 2)
        pair = adaptive_channel(first, second)
        ys = list(first.output.labels)
        zs = list(second.output.labels)
        assert list(pair.output.labels) == [f"{y}&{z}" for y in ys for z in zs]

    def test_three_step_marginalizes_to_pair(self, rng):
        first = random_channel(rng, 2, 2)
        second = random_stage(rng, first, first.output.labels, 2)
        pair = adaptive_channel(first, second)
        third = random_stage(rng, first, pair.output.labels, 3)
        triple = adaptive_channel(first, second, third)
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
        pair = adaptive_channel(identity, stage_of(identity, alphabet.labels, [identity] * 3))
        single = maximal_leakage(identity).nats
        assert maximal_leakage(pair).nats == pytest.approx(single, abs=1e-12)
        assert maximal_leakage(pair).nats <= 2.0 * single


class TestChainCertificates:
    def test_certificate_is_the_worst_block_leakage(self):
        # conditional leakage over every (x, prefix) pair is the maximum of
        # the per-prefix blocks' leakages, to the bit
        rng = np.random.default_rng(7)
        for _ in range(200):
            first, *stages = _random_stages(rng, 3)
            nx = len(first.input)
            expected = maximal_leakage(first).nats
            for stage in stages:
                blocks = [
                    Channel(first.input, stage.output, stage.rows[j : j + nx])
                    for j in range(0, len(stage.input), nx)
                ]
                expected += max(maximal_leakage(block).nats for block in blocks)
            assert _certificate_total(first, stages) == expected

    def test_conditional_total_matches_support_sets(self):
        # oracle: the reached (x, prefix) pairs as explicit sets of indices
        rng = np.random.default_rng(11)
        for _ in range(200):
            first, *stages = _random_stages(rng, 3)
            prior = random_distribution(rng, len(first.input), allow_zeros=True)
            nx = len(first.input)
            reached = {(i, j) for i in range(nx) for j in range(len(first.output))
                       if prior.probs[i] > 0.0 and first.rows[i, j] > 0.0}
            expected = maximal_leakage(first, prior.support()).nats
            for stage in stages:
                pairs = [(x, p) for p in range(len(stage.input) // nx) for x in first.input.labels]
                support = {(first.input.labels[i], p) for i, p in reached}
                expected += conditional_maximal_leakage(stage, pairs, support).nats
                width = len(stage.output)
                reached = {(i, p * width + k) for i, p in reached for k in range(width)
                           if stage.rows[p * nx + i, k] > 0.0}
            assert _conditional_chain_total(prior, first, stages) == expected


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
    first = random_channel(rng, 3, 3)
    fixed = random_channel(rng, 3, 2, input_alphabet=first.input)
    # same second channel regardless of y, but adaptive in form
    pair = adaptive_channel(first, stage_of(first, first.output.labels, [fixed] * 3))
    assert maximal_leakage(pair).nats <= (
        maximal_leakage(first).nats + maximal_leakage(fixed).nats + 1e-10
    )
