"""Property tests: validators reject non-finite entries, and the public
measures map valid finite inputs to a finite value or an explicit inf.

The examples are derandomized, so every run checks the same cases; the
seeded sweeps in ``test_measures.py`` and ``verify`` stay alongside.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leakage_lab import (
    Alphabet,
    Channel,
    DiscreteDistribution,
    JointDistribution,
    LeakageLabError,
    LedgerEntry,
    approx_max_information,
    maximal_leakage,
    mutual_information,
)

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
# weights spanning zeros, subnormals and ordinary magnitudes
WEIGHTS = st.one_of(
    st.just(0.0), st.floats(0.0, 1.0, allow_subnormal=True), st.floats(1e-3, 1.0)
)


def labels(prefix, k):
    return Alphabet(f"{prefix}{i}" for i in range(k))


@st.composite
def weight_matrices(draw, max_rows=5, max_cols=5):
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    flat = draw(st.lists(WEIGHTS, min_size=rows * cols, max_size=rows * cols))
    return np.array(flat).reshape(rows, cols)


@st.composite
def channels(draw):
    weights = draw(weight_matrices())
    weights[weights.sum(axis=1) == 0.0, 0] = 1.0
    rows = weights / weights.sum(axis=1, keepdims=True)
    return Channel(labels("x", rows.shape[0]), labels("y", rows.shape[1]), rows)


@st.composite
def joints(draw):
    weights = draw(weight_matrices())
    if weights.sum() == 0.0:
        weights[0, 0] = 1.0
    mass = weights / weights.sum()
    return JointDistribution(labels("x", mass.shape[0]), labels("y", mass.shape[1]), mass)


def poison(matrix, position, value):
    bad = np.array(matrix, dtype=np.float64)
    bad.flat[position % bad.size] = value
    return bad


def finite_or_inf(value):
    return isinstance(value, float) and (math.isfinite(value) or value == math.inf)


class TestValidatorsRejectNonFinite:
    @SETTINGS
    @given(channels(), st.integers(0, 1000), NON_FINITE)
    def test_discrete_distribution(self, channel, position, value):
        row = channel.rows[0]
        with pytest.raises(LeakageLabError):
            DiscreteDistribution(channel.output, poison(row, position, value))

    @SETTINGS
    @given(channels(), st.integers(0, 1000), NON_FINITE)
    def test_channel(self, channel, position, value):
        with pytest.raises(LeakageLabError):
            Channel(channel.input, channel.output, poison(channel.rows, position, value))

    @SETTINGS
    @given(joints(), st.integers(0, 1000), NON_FINITE)
    def test_joint(self, joint, position, value):
        with pytest.raises(LeakageLabError):
            JointDistribution(joint.input, joint.output, poison(joint.mass, position, value))

    @SETTINGS
    @given(
        st.text(max_size=8),
        NON_FINITE,
        st.sampled_from(
            [
                {"kind": "declared"},
                {"kind": "computed-channel"},
                {"kind": "max-info-derived"},
                {"kind": "dp-derived", "epsilon": 0.5, "n": 4},
                {"kind": "cardinality", "output_size": 4},
            ]
        ),
    )
    def test_ledger_entry(self, label, value, provenance):
        with pytest.raises(LeakageLabError, match="non-finite"):
            LedgerEntry(label, value, provenance)


class TestMeasuresStayFiniteOrInf:
    @SETTINGS
    @given(channels(), st.data())
    def test_maximal_leakage(self, channel, data):
        size = len(channel.input)
        support = data.draw(
            st.lists(st.integers(0, size - 1), min_size=1, max_size=size, unique=True)
        )
        for chosen in (None, support):
            value = maximal_leakage(channel, chosen).nats
            assert finite_or_inf(value)
            assert value <= math.log(len(channel.output)) + 1e-9

    @SETTINGS
    @given(joints())
    def test_mutual_information(self, joint):
        value = mutual_information(joint)
        assert finite_or_inf(value)
        assert value >= 0.0

    @SETTINGS
    @given(joints(), st.floats(1e-6, 1.0, exclude_max=True))
    def test_approx_max_information(self, joint, beta):
        assert finite_or_inf(approx_max_information(joint, beta))
