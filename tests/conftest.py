import numpy as np
import pytest

from leakage_lab import Alphabet, Channel, DiscreteDistribution, joint_from


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
