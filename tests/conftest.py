import numpy as np
import pytest

from leakage_lab import Alphabet, AlphabetMismatch, Channel, DiscreteDistribution, joint_from


def bec_channel(alpha: float) -> Channel:
    """Binary symbols through an erasure channel with erasure rate alpha."""
    return Channel(
        Alphabet(["0", "1"]),
        Alphabet(["0", "1", "e"]),
        [[1.0 - alpha, 0.0, alpha], [0.0, 1.0 - alpha, alpha]],
    )


def tuple_at(product, index: int) -> tuple[str, ...]:
    """Base labels of tuple ``index`` of a product alphabet, from its digit matrix."""
    return tuple(product.base.labels[d] for d in product.digit_matrix()[index])


def hamming_neighbors(product, index: int) -> list[int]:
    """Indices reached from tuple ``index`` by changing one position, by its stride."""
    digits = product.digit_matrix()[index].tolist()
    return [
        index + (value - digit) * stride
        for digit, stride in zip(digits, product.strides())
        for value in range(len(product.base))
        if value != digit
    ]


def exact_event_probability_by_fibers(joint, event) -> float:
    """Oracle for ``exact_event_probability``: the sum over outputs of the fiber mass."""
    if joint.input != event.input or joint.output != event.output:
        raise AlphabetMismatch("event mask is indexed by different alphabets")
    total = 0.0
    for y in range(len(joint.output)):
        fiber = event.fiber(y)
        total += float(joint.mass[fiber, y].sum())
    return total


def stage_of(first, prefixes, blocks) -> Channel:
    """Prefix-major adaptive stage: one channel from ``first.input`` per prefix, stacked."""
    pairs = Alphabet(f"{x}|{p}" for p in prefixes for x in first.input.labels)
    return Channel(pairs, blocks[0].output, np.vstack([block.rows for block in blocks]))


def uniform(labels) -> DiscreteDistribution:
    labels = list(labels)
    return DiscreteDistribution(Alphabet(labels), np.full(len(labels), 1.0 / len(labels)))


def bernoulli_identity_joint(p: float):
    """Joint of (X, X) for X ~ Bernoulli(p); diagonal mass (1 - p, p)."""
    alphabet = Alphabet(["0", "1"])
    return joint_from(
        DiscreteDistribution(alphabet, [1.0 - p, p]),
        Channel.identity(alphabet),
    )


@pytest.fixture
def bec05() -> Channel:
    return bec_channel(0.5)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260814)
