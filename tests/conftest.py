import numpy as np
import pytest

from leakage_lab import (
    Alphabet,
    AlphabetMismatch,
    Channel,
    DiscreteDistribution,
    EventMask,
    JointDistribution,
    joint_from,
)


def named_alphabet(prefix: str, size: int) -> Alphabet:
    return Alphabet(f"{prefix}{i}" for i in range(size))


def random_distribution(rng: np.random.Generator, size: int,
                        allow_zeros: bool = False) -> DiscreteDistribution:
    """Random probability vector; with ``allow_zeros``, half of them lose about 35% of their entries."""
    weights = rng.random(size) + 1e-3
    if allow_zeros and size > 1 and rng.random() < 0.5:
        kill = rng.random(size) < 0.35
        if kill.all():
            kill[int(rng.integers(size))] = False
        weights[kill] = 0.0
    return DiscreteDistribution(named_alphabet("x", size), weights / weights.sum())


def random_rows(rng: np.random.Generator, inputs: int, outputs: int) -> np.ndarray:
    """Row-stochastic (inputs, outputs) matrix with zeros; each row keeps its largest entry."""
    rows = rng.random((inputs, outputs)) + 1e-3
    kill = rng.random((inputs, outputs)) < 0.3
    kill[np.arange(inputs), rows.argmax(axis=1)] = False
    rows[kill] = 0.0
    rows /= rows.sum(axis=1, keepdims=True)
    return rows


def random_channel(rng: np.random.Generator, inputs: int, outputs: int,
                   input_alphabet: Alphabet | None = None,
                   output_alphabet: Alphabet | None = None) -> Channel:
    return Channel(
        input_alphabet if input_alphabet is not None else named_alphabet("x", inputs),
        output_alphabet if output_alphabet is not None else named_alphabet("y", outputs),
        random_rows(rng, inputs, outputs),
    )


def random_joint(rng: np.random.Generator, inputs: int, outputs: int) -> JointDistribution:
    mass = rng.random((inputs, outputs))
    kill = rng.random((inputs, outputs)) < 0.3
    kill.flat[int(rng.integers(mass.size))] = False
    mass[kill] = 0.0
    if mass.sum() == 0.0:
        mass.flat[0] = 1.0
    return JointDistribution(
        named_alphabet("x", inputs), named_alphabet("y", outputs), mass / mass.sum()
    )


def random_event(rng: np.random.Generator, inputs: int, outputs: int,
                 input_alphabet: Alphabet, output_alphabet: Alphabet) -> EventMask:
    return EventMask(input_alphabet, output_alphabet, rng.random((inputs, outputs)) < 0.5)


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
    """Indices reached from tuple ``index`` by changing one position, by its stride.

    Position p of a tuple has the stride base ** (n - 1 - p) in its index.
    """
    base, n = len(product.base), product.n
    digits = product.digit_matrix()[index].tolist()
    return [
        index + (value - digit) * base ** (n - 1 - pos)
        for pos, digit in enumerate(digits)
        for value in range(base)
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
