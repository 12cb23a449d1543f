"""Finite alphabets, distributions, channels, joints and event masks.

All probability data lives in read-only ``float64`` arrays, so every
object is immutable after construction and safe to share across threads.
Input data is accepted when normalized within ``NORMALIZATION_TOL``
(1e-9); internal identities (marginalization, factorization) are held to
1e-12 by the test suite.

Product alphabets enumerate length-n tuples in lexicographic order and
expose their digits and strides, from which empirical differential
privacy finds Hamming neighbors. Exhaustive enumerations refuse to build
more than ``enumeration_cap()`` states; the default of 10^6 can be
overridden with the ``LEAKAGE_LAB_CAP`` environment variable.
"""

from __future__ import annotations

import itertools
import math
import os
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import (
    AlphabetMismatch,
    CapExceeded,
    EmptySupport,
    LeakageLabError,
    NegativeMass,
    NotNormalized,
)

__all__ = [
    "NORMALIZATION_TOL",
    "DEFAULT_ENUMERATION_CAP",
    "enumeration_cap",
    "Alphabet",
    "ProductAlphabet",
    "DiscreteDistribution",
    "Channel",
    "JointDistribution",
    "EventMask",
    "joint_from",
    "compose_channels",
    "iid_prior",
    "fiber_max_prob",
]

NORMALIZATION_TOL = 1e-9
DEFAULT_ENUMERATION_CAP = 10**6
_CAP_ENV = "LEAKAGE_LAB_CAP"


def enumeration_cap() -> int:
    """Current cap on exhaustively enumerated state spaces."""
    raw = os.environ.get(_CAP_ENV)
    if raw is None:
        return DEFAULT_ENUMERATION_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise LeakageLabError(f"{_CAP_ENV} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise LeakageLabError(f"{_CAP_ENV} must be positive, got {cap}")
    return cap


def _readonly(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class Alphabet:
    """Ordered collection of distinct symbol labels."""

    __slots__ = ("labels", "_index")

    def __init__(self, labels: Iterable[str]):
        labels = tuple(str(label) for label in labels)
        if not labels:
            raise EmptySupport("an alphabet needs at least one symbol")
        index = {label: i for i, label in enumerate(labels)}
        if len(index) != len(labels):
            raise LeakageLabError("alphabet labels must be distinct")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_index", index)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise LeakageLabError(f"unknown symbol {label!r}") from None

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[str]:
        return iter(self.labels)

    def __contains__(self, label: object) -> bool:
        return label in self._index

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Alphabet) and self.labels == other.labels

    def __hash__(self) -> int:
        return hash(self.labels)

    def __repr__(self) -> str:
        if len(self.labels) <= 6:
            return f"Alphabet({list(self.labels)!r})"
        return f"Alphabet(<{len(self.labels)} symbols>)"


class ProductAlphabet(Alphabet):
    """All length-``n`` tuples over a base alphabet, lexicographically ordered.

    Labels join the component labels with commas. Tuple i has the base
    indices of row i of ``digit_matrix()``, and raising its position p by
    one moves the index up by ``strides()[p]``.
    """

    __slots__ = ("base", "n", "_strides")

    SEPARATOR = ","

    def __init__(self, base: Alphabet, n: int):
        if n < 1:
            raise LeakageLabError(f"product power must be >= 1, got {n}")
        cap = enumeration_cap()
        size = len(base) ** n
        if size > cap:
            raise CapExceeded(f"{len(base)}^{n} = {size} states exceed the enumeration cap {cap}")
        labels = (self.SEPARATOR.join(t) for t in itertools.product(base.labels, repeat=n))
        super().__init__(labels)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "n", int(n))
        object.__setattr__(
            self, "_strides", tuple(len(base) ** (n - 1 - pos) for pos in range(n))
        )

    def digit_matrix(self) -> np.ndarray:
        """(len(self), n) matrix of base indices; row i spells tuple i."""
        idx = np.arange(len(self), dtype=np.int64)
        out = np.empty((len(self), self.n), dtype=np.int64)
        for pos, stride in enumerate(self._strides):
            out[:, pos] = (idx // stride) % len(self.base)
        return out

    def strides(self) -> tuple[int, ...]:
        return self._strides


def _check_entries(values: np.ndarray, what: str) -> float:
    """Sum of ``values`` once they are known finite and nonnegative."""
    total = float(values.sum())
    # a NaN or an infinite entry leaves the sum NaN or infinite
    if not math.isfinite(total):
        raise LeakageLabError(f"{what} has a non-finite entry")
    if values.min() < 0.0:
        raise NegativeMass(f"{what} has a negative entry ({float(values.min()):.3g})")
    return total


def _check_channel_rows(rows: np.ndarray) -> None:
    """Finite, nonnegative entries and rows that each sum to 1 within NORMALIZATION_TOL."""
    _check_entries(rows, "Channel")
    sums = rows.sum(axis=1)
    residual = np.abs(sums - 1.0)
    if residual.max() > NORMALIZATION_TOL:
        row = int(np.flatnonzero(residual > NORMALIZATION_TOL)[0])
        raise NotNormalized(float(sums[row] - 1.0), f"channel row {row}")


def _check_prob_vector(probs: np.ndarray, what: str) -> None:
    # nonnegative entries summing to ~1 leave a nonempty support
    total = _check_entries(probs, what)
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise NotNormalized(total - 1.0, what)


class DiscreteDistribution:
    """Probability vector over an alphabet."""

    __slots__ = ("alphabet", "probs")

    def __init__(self, alphabet: Alphabet, probs: Iterable[float]):
        vec = np.array(probs, dtype=np.float64)
        if vec.shape != (len(alphabet),):
            raise AlphabetMismatch(
                f"expected {len(alphabet)} probabilities, got shape {vec.shape}"
            )
        _check_prob_vector(vec, "distribution")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "probs", _readonly(vec))

    def __setattr__(self, name, value):
        raise AttributeError("DiscreteDistribution is immutable")

    def prob(self, label: str) -> float:
        return float(self.probs[self.alphabet.index(label)])

    def support(self) -> np.ndarray:
        """Indices with strictly positive mass."""
        return np.flatnonzero(self.probs > 0.0)

    def support_labels(self) -> tuple[str, ...]:
        return tuple(self.alphabet.labels[i] for i in self.support())

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DiscreteDistribution)
            and self.alphabet == other.alphabet
            and np.array_equal(self.probs, other.probs)
        )

    def __hash__(self):
        return hash((self.alphabet, self.probs.tobytes()))

    def to_json(self) -> dict:
        return {"labels": list(self.alphabet.labels), "probs": self.probs.tolist()}

    @classmethod
    def from_json(cls, payload: Mapping) -> "DiscreteDistribution":
        return cls(Alphabet(payload["labels"]), payload["probs"])


class _Rectangle:
    """A read-only matrix over an input x output rectangle of two alphabets.

    A subclass names its matrix attribute in ``_field`` (which is also its
    JSON key) and its dtype in ``_dtype``, and adds its own invariant in
    ``_check``, which by default requires finite, nonnegative entries.
    """

    __slots__ = ("input", "output")
    _field: str
    _dtype: type = np.float64

    def __init__(self, input: Alphabet, output: Alphabet, matrix):
        matrix = np.array(matrix, dtype=self._dtype)
        if matrix.shape != (len(input), len(output)):
            raise AlphabetMismatch(
                f"expected a {len(input)}x{len(output)} matrix, got shape {matrix.shape}"
            )
        self._check(matrix)
        object.__setattr__(self, "input", input)
        object.__setattr__(self, "output", output)
        object.__setattr__(self, self._field, _readonly(matrix))

    def _check(self, matrix: np.ndarray) -> None:
        """Invariant beyond the shape."""
        _check_entries(matrix, type(self).__name__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, type(self))
            and self.input == other.input
            and self.output == other.output
            and np.array_equal(getattr(self, self._field), getattr(other, self._field))
        )

    def __hash__(self):
        return hash((self.input, self.output, getattr(self, self._field).tobytes()))

    def to_json(self) -> dict:
        return {
            "input_labels": list(self.input.labels),
            "output_labels": list(self.output.labels),
            self._field: getattr(self, self._field).tolist(),
        }

    @classmethod
    def from_json(cls, payload: Mapping):
        return cls(
            Alphabet(payload["input_labels"]),
            Alphabet(payload["output_labels"]),
            payload[cls._field],
        )


class Channel(_Rectangle):
    """Row-stochastic conditional distribution from one alphabet to another."""

    __slots__ = ("rows",)
    _field = "rows"

    def _check(self, matrix: np.ndarray) -> None:
        _check_channel_rows(matrix)

    @classmethod
    def identity(cls, alphabet: Alphabet) -> "Channel":
        return cls(alphabet, alphabet, np.eye(len(alphabet)))

    @classmethod
    def deterministic(
        cls, input: Alphabet, output: Alphabet, mapping: Mapping[str, str]
    ) -> "Channel":
        rows = np.zeros((len(input), len(output)))
        for label in input.labels:
            rows[input.index(label), output.index(mapping[label])] = 1.0
        return cls(input, output, rows)


class JointDistribution(_Rectangle):
    """Joint probability mass over an input and an output alphabet."""

    __slots__ = ("mass",)
    _field = "mass"

    def _check(self, matrix: np.ndarray) -> None:
        total = _check_entries(matrix, "JointDistribution")
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise NotNormalized(total - 1.0, "joint mass")

    def marginal_input(self) -> DiscreteDistribution:
        return DiscreteDistribution(self.input, self.mass.sum(axis=1))

    def marginal_output(self) -> DiscreteDistribution:
        return DiscreteDistribution(self.output, self.mass.sum(axis=0))

    def channel(self) -> Channel:
        """Conditional rows mass(x, .) / mass(x).

        Rows with zero marginal are outside the support; they are filled
        uniformly so the result is a valid channel, and no measure ever
        reads them.
        """
        row_sums = self.mass.sum(axis=1, keepdims=True)
        uniform = np.full((1, len(self.output)), 1.0 / len(self.output))
        with np.errstate(invalid="ignore", divide="ignore"):
            rows = np.where(row_sums > 0.0, self.mass / row_sums, uniform)
        return Channel(self.input, self.output, rows)


class EventMask(_Rectangle):
    """Boolean subset of an input x output rectangle."""

    __slots__ = ("mask",)
    _field = "mask"
    _dtype = bool

    def _check(self, matrix: np.ndarray) -> None:
        """Any boolean matrix is an event."""

    def fiber(self, y: int | str) -> np.ndarray:
        """Input indices belonging to the event at output ``y``."""
        col = self.output.index(y) if isinstance(y, str) else int(y)
        return np.flatnonzero(self.mask[:, col])

    @classmethod
    def diagonal(cls, alphabet: Alphabet) -> "EventMask":
        return cls(alphabet, alphabet, np.eye(len(alphabet), dtype=bool))

    @classmethod
    def full(cls, input: Alphabet, output: Alphabet) -> "EventMask":
        return cls(input, output, np.ones((len(input), len(output)), dtype=bool))


def joint_from(prior: DiscreteDistribution, channel: Channel) -> JointDistribution:
    """Joint mass prior(x) * channel(y|x)."""
    if prior.alphabet != channel.input:
        raise AlphabetMismatch("prior alphabet differs from channel input")
    return JointDistribution(channel.input, channel.output, prior.probs[:, None] * channel.rows)


def compose_channels(first: Channel, second: Channel) -> Channel:
    """Cascade two channels; output of ``first`` feeds ``second``."""
    if first.output != second.input:
        raise AlphabetMismatch("inner alphabets do not match")
    return Channel(first.input, second.output, first.rows @ second.rows)


def _iid_probs(probs: np.ndarray, n: int) -> np.ndarray:
    """Probabilities of all length-``n`` tuples, in ProductAlphabet order."""
    out = np.ones(1)
    for _ in range(n):
        out = np.multiply.outer(out, probs).reshape(-1)
    return out


def iid_prior(base: DiscreteDistribution, n: int) -> DiscreteDistribution:
    """Product distribution of ``n`` independent copies of ``base``."""
    alphabet = ProductAlphabet(base.alphabet, n)
    return DiscreteDistribution(alphabet, _iid_probs(base.probs, n))


def fiber_max_prob(event: EventMask, prior: DiscreteDistribution) -> float:
    """max over outputs y of the prior mass of the event's fiber at y."""
    if prior.alphabet != event.input:
        raise AlphabetMismatch("prior alphabet differs from event input")
    fibers = event.mask.T @ prior.probs
    # the sum of a subset of the masses can overshoot 1 by an ulp
    return float(min(fibers.max(), 1.0))

