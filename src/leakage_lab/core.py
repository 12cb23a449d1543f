"""Finite alphabets, distributions, channels, joints and event masks.

All probability data lives in read-only ``float64`` arrays, so every
object is immutable after construction and safe to share across threads.
Input data is accepted when normalized within ``NORMALIZATION_TOL``
(1e-9); internal identities (marginalization, factorization) are held to
1e-12 by the test suite.

Product alphabets enumerate length-n tuples in lexicographic order, so
tuple i is the C-order index of its digits. Exhaustive enumerations
refuse to build more than ``enumeration_cap()`` states; the default of
10^6 can be overridden with the ``LEAKAGE_LAB_CAP`` environment variable.
"""

from __future__ import annotations

import math
import os
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    AlphabetMismatch,
    CapExceeded,
    EmptySupport,
    LeakageLabError,
    NegativeMass,
    NotNormalized,
    _count,
    _within,
)
from .jsonio import _read_array

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
    "adaptive_channel",
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
    return _within(cap, _CAP_ENV, "[1, inf)")


def _readonly(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _to_array(values, dtype, field: str) -> np.ndarray:
    """``values`` as a new ``dtype`` array; ragged or unparsable input names ``field``.

    A boolean array is built only from booleans: numbers, strings and
    objects are refused rather than read by their truthiness.
    """
    try:
        array = np.array(values, dtype=None if dtype is bool else dtype)
        if array.dtype != dtype:
            raise TypeError
    except (TypeError, ValueError):
        what = "booleans" if dtype is bool else "numbers"
        raise LeakageLabError(f"{field} must be a rectangular array of {what}") from None
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


def _glue(heads: Sequence[str], tails: Sequence[str], separator: str) -> list[str]:
    """Each head joined to each tail by ``separator``, heads outermost."""
    tails = [separator + tail for tail in tails]
    return [head + tail for head in heads for tail in tails]


def _joined_tuples(labels: Sequence[str], n: int, separator: str) -> Sequence[str]:
    """Every length-``n`` tuple of ``labels`` joined by ``separator``, lexicographically.

    Gluing every head to every tail, heads outermost, keeps the
    lexicographic order, so the tuples are their first n // 2 positions
    glued to the rest. The strings built on the way hold about n / 2
    labels and number about the square root of the result's count, so
    they leave little freed memory behind, and a one-label base costs
    O(n) characters.
    """
    if n == 1:
        return labels
    half = _joined_tuples(labels, n // 2, separator)
    return _glue(half, _glue(half, labels, separator) if n % 2 else half, separator)


class ProductAlphabet(Alphabet):
    """All length-``n`` tuples over a base alphabet, lexicographically ordered.

    Labels join the component labels with commas (see ``_joined_tuples``).
    Tuple i has the base indices of row i of ``digit_matrix()``: i is
    their C-order index, so a (len(self), ...) array reshapes to one axis
    per position.
    """

    __slots__ = ("base", "n")

    SEPARATOR = ","

    def __init__(self, base: Alphabet, n: int):
        n = _count(n, "product power")
        cap = enumeration_cap()
        # k >= 2 symbols give k^n >= 2^n > cap once n passes the cap's bit
        # length, so a huge n is refused before its power is computed
        if len(base) > 1 and n > cap.bit_length():
            raise CapExceeded(f"{len(base)}^{n} states exceed the enumeration cap {cap}")
        # one symbol makes one state at any n, but its label holds n copies
        if n > cap:
            raise CapExceeded(f"a label of {n} copies exceeds the enumeration cap {cap}")
        size = len(base) ** n
        if size > cap:
            raise CapExceeded(f"{len(base)}^{n} = {size} states exceed the enumeration cap {cap}")
        super().__init__(_joined_tuples(base.labels, n, self.SEPARATOR))
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "n", n)

    def digit_matrix(self) -> np.ndarray:
        """(len(self), n) matrix of base indices; row i spells tuple i."""
        idx = np.arange(len(self), dtype=np.int64)
        out = np.empty((len(self), self.n), dtype=np.int64)
        for pos in range(self.n):
            out[:, pos] = (idx // len(self.base) ** (self.n - 1 - pos)) % len(self.base)
        return out


def _check_entries(values: np.ndarray, what: str) -> float:
    """Sum of ``values`` once they are known finite and nonnegative."""
    total = float(values.sum())
    # a NaN or an infinite entry leaves the sum NaN or infinite
    if not math.isfinite(total):
        raise LeakageLabError(f"{what} has a non-finite entry")
    if values.min() < 0.0:
        raise NegativeMass(f"{what} has a negative entry ({float(values.min()):.3g})")
    return total


def _check_channel_rows(rows: np.ndarray, live: np.ndarray | float = 1.0) -> None:
    """Finite, nonnegative entries and rows that each sum to 1 within NORMALIZATION_TOL.

    ``rows`` may stack channels along leading axes. Padding rows, where
    the boolean ``live`` (shaped like ``rows`` without its last axis) is
    False, must instead sum to 0, so they are all zero.
    """
    _check_entries(rows, "Channel")
    excess = (rows.sum(axis=-1) - live).reshape(-1)
    off = np.abs(excess) > NORMALIZATION_TOL
    if off.any():
        row = int(np.flatnonzero(off)[0])
        raise NotNormalized(float(excess[row]), f"channel row {row}")


def _check_prob_vector(probs: np.ndarray, what: str) -> None:
    # nonnegative entries summing to ~1 leave a nonempty support
    total = _check_entries(probs, what)
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise NotNormalized(total - 1.0, what)


class DiscreteDistribution:
    """Probability vector over an alphabet."""

    __slots__ = ("alphabet", "probs")

    def __init__(self, alphabet: Alphabet, probs: Iterable[float]):
        vec = _to_array(probs, np.float64, "probs")
        if vec.shape != (len(alphabet),):
            raise AlphabetMismatch(
                f"expected {len(alphabet)} probabilities, got shape {vec.shape}"
            )
        _check_prob_vector(vec, "distribution")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "probs", _readonly(vec))

    def __setattr__(self, name, value):
        raise AttributeError("DiscreteDistribution is immutable")

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
        return cls(Alphabet(_read_array(payload["labels"], "labels")), payload["probs"])


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
        matrix = _to_array(matrix, self._dtype, self._field)
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
            Alphabet(_read_array(payload["input_labels"], "input_labels")),
            Alphabet(_read_array(payload["output_labels"], "output_labels")),
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
            raise NotNormalized(total - 1.0, "joint")

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
        col = self.output.index(y) if isinstance(y, str) else _count(
            y, "output index", f"[0, {len(self.output)})")
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


def _chain_rows(first: np.ndarray, *stages: np.ndarray) -> np.ndarray:
    """(B, X, prefixes) joint rows of stacked adaptive chains.

    ``first`` is (B, X, Y) and stage k >= 2 is (B, P, X, Z), its rows for
    prefix p of the chain so far. The joint output (p, z) is column
    p * Z + z. On boolean masks this propagates supports instead.
    """
    rows = first
    for stage in stages:
        rows = (rows[..., None] * stage.transpose(0, 2, 1, 3)).reshape(*rows.shape[:2], -1)
    return rows


def adaptive_channel(first: Channel, *stages: Channel) -> Channel:
    """Joint channel x -> (y_1, ..., y_k) of an adaptive chain.

    Stage k >= 2 is a channel from the (x, prefix) pairs, where a prefix
    is an output of the chain so far, to y_k. Its rows are stored
    prefix-major: row p * |X| + i is P(y_k | x_i, prefix p), with the
    prefixes in the joint's output order. The joint output (prefix, y_k)
    is labelled ``prefix&y_k`` and carries P(prefix | x) P(y_k | x, prefix).
    """
    inputs = len(first.input)
    labels = first.output.labels
    blocks = []
    for stage in stages:
        if len(stage.input) != len(labels) * inputs:
            raise LeakageLabError(f"an adaptive stage needs {len(labels) * inputs} (x, prefix) "
                                  f"rows, got {len(stage.input)}")
        blocks.append(stage.rows.reshape(1, len(labels), inputs, -1))
        labels = [f"{p}&{z}" for p in labels for z in stage.output.labels]
    return Channel(first.input, Alphabet(labels), _chain_rows(first.rows[None], *blocks)[0])


def _iid_probs(probs: np.ndarray, n: int) -> np.ndarray:
    """Probabilities of all length-``n`` tuples, in ProductAlphabet order."""
    out = np.ones(1)
    for _ in range(n):
        out = np.multiply.outer(out, probs).reshape(-1)
    return out


def iid_prior(base: DiscreteDistribution, n: int) -> DiscreteDistribution:
    """Product distribution of ``n`` independent copies of ``base``."""
    alphabet = ProductAlphabet(base.alphabet, n)
    return DiscreteDistribution(alphabet, _iid_probs(base.probs, alphabet.n))


def _event_mass(mass: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Total mass inside each event of a stack: (B, X, Y) masses and masks -> (B,)."""
    return np.where(mask, mass, 0.0).reshape(len(mass), -1).sum(axis=1)


def _fiber_max(mask: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """max_y of the prior mass of each stacked event's fiber at y: (B, X, Y), (B, X) -> (B,)."""
    fibers = np.where(mask, probs[:, :, None], 0.0).sum(axis=1)
    # the sum of a subset of the masses can overshoot 1 by an ulp
    return np.minimum(fibers.max(axis=1), 1.0)


def fiber_max_prob(event: EventMask, prior: DiscreteDistribution) -> float:
    """max over outputs y of the prior mass of the event's fiber at y."""
    if prior.alphabet != event.input:
        raise AlphabetMismatch("prior alphabet differs from event input")
    return float(_fiber_max(event.mask[None], prior.probs[None])[0])

