"""Information-leakage measures over finite channels and joints.

All values are natural-log based (nats). The measures implemented here:

* maximal leakage of a channel seen through a prior's support,
      log sum_y max_{x in supp} P(y|x),
  which depends on the prior only through its support;
* conditional maximal leakage for side information z,
      log max_z sum_y max_{x: (x,z) in supp} P(y|x,z);
* Shannon mutual information of a joint;
* Renyi-infinity divergence  log max_{p(x)>0} p(x)/q(x);
* approximate max-divergence with mass budget delta,
      log max_{O: p(O) > delta} (p(O) - delta) / q(O),
  computed by a ratio-threshold scan (optimal sets are superlevel sets
  of p/q), with an exhaustive-enumeration twin kept as a test oracle;
* max-information of a joint, the Renyi-infinity divergence between the
  joint and the product of its marginals, plus its budgeted variant;
* empirical differential privacy of a channel on a product alphabet,
  the exact sup of log-probability ratios over Hamming neighbors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import Channel, DiscreteDistribution, JointDistribution, ProductAlphabet
from .errors import (
    AlphabetMismatch,
    BetaOutOfRange,
    EmptySupport,
    InputNotProduct,
    LeakageLabError,
    NoFeasibleSet,
)

__all__ = [
    "LeakageValue",
    "maximal_leakage",
    "maximal_leakage_of_joint",
    "conditional_maximal_leakage",
    "mutual_information",
    "renyi_inf_divergence",
    "approx_max_divergence",
    "approx_max_divergence_by_enumeration",
    "max_information",
    "approx_max_information",
    "approx_max_information_by_enumeration",
    "empirical_dp",
]

# Channels are only validated to NORMALIZATION_TOL, so a mathematically
# zero leakage can surface as a log of a sum slightly below one.
_ZERO_GUARD = 1e-8


@dataclass(frozen=True)
class LeakageValue:
    """A leakage in nats together with the input-support size it used."""

    nats: float
    support_size: int

    def __post_init__(self):
        if not self.nats >= 0.0:
            raise LeakageLabError(f"leakage must be a nonnegative number, got {self.nats}")
        if self.support_size < 1:
            raise EmptySupport("leakage needs a nonempty support")

    def __float__(self) -> float:
        return self.nats


def _log_clamped(total: float) -> float:
    value = math.log(total)
    if value < -_ZERO_GUARD:
        raise LeakageLabError(f"column maxima sum to {total}, below any valid channel")
    # the sum is mathematically >= 1, with equality exactly for channels
    # whose supported rows coincide; snap the float noise around 1 to 0
    # so that equality case reports a true zero
    if value <= _ZERO_GUARD:
        return 0.0
    return value


def _column_max_leakage(rows: np.ndarray) -> float:
    """log of the sum of the column maxima of ``rows``, the supported rows of a channel."""
    return _log_clamped(float(rows.max(axis=0).sum()))


def _support_indices(channel: Channel, support) -> np.ndarray:
    """Sorted distinct input indices of ``support`` (labels or indices).

    Labels become their indices, which are range-checked and deduplicated
    in array passes; an object array keeps Python integers exact until then.
    """
    size = len(channel.input)
    if support is None:
        return np.arange(size)
    if not (isinstance(support, np.ndarray) and support.dtype.kind in "iu"):
        items = [channel.input.index(i) if isinstance(i, str) else int(i) for i in support]
        support = np.array(items, dtype=object)
    if not support.size:
        raise EmptySupport("support set is empty")
    if support.min() < 0 or support.max() >= size:
        first = next(int(i) for i in support if not 0 <= i < size)
        raise LeakageLabError(f"support index {first} out of range")
    chosen = np.zeros(size, dtype=bool)
    chosen[support.astype(np.intp)] = True
    return np.flatnonzero(chosen)


def maximal_leakage(channel: Channel, support: Iterable[str | int] | None = None) -> LeakageValue:
    """Maximal leakage of ``channel`` for any prior with the given support.

    Parameters
    ----------
    channel : Channel
    support : iterable of input labels or indices, optional
        Defaults to the whole input alphabet. Two priors with equal
        support produce bit-identical results.
    """
    idx = _support_indices(channel, support)
    return LeakageValue(_column_max_leakage(channel.rows[idx]), int(idx.size))


def maximal_leakage_of_joint(joint: JointDistribution) -> LeakageValue:
    """Maximal leakage of the conditional channel of ``joint`` on its support."""
    support = joint.marginal_input().support()
    if support.size == 0:
        raise EmptySupport("joint has an empty input marginal")
    return maximal_leakage(joint.channel(), support)


def conditional_maximal_leakage(
    channel: Channel,
    pairs: Sequence[tuple[str, str]],
    support: Iterable[tuple[str, str]] | None = None,
) -> LeakageValue:
    """Maximal leakage of ``channel`` given side information z.

    Parameters
    ----------
    channel : Channel
        Input symbols each stand for an (x, z) pair.
    pairs : sequence of (x, z) label pairs
        Aligned with ``channel.input.labels``.
    support : iterable of (x, z) pairs, optional
        Pairs with positive joint probability; defaults to all pairs.
        Conditioning values z with an empty x-section are skipped.
    """
    if len(pairs) != len(channel.input):
        raise AlphabetMismatch(
            f"need {len(channel.input)} (x, z) pairs, got {len(pairs)}"
        )
    pairs = [(str(x), str(z)) for x, z in pairs]
    wanted = set((str(x), str(z)) for x, z in support) if support is not None else set(pairs)
    unknown = wanted - set(pairs)
    if unknown:
        raise LeakageLabError(f"support references unknown pairs: {sorted(unknown)[:3]}")

    sections: dict[str, list[int]] = {}
    xs: set[str] = set()
    for i, (x, z) in enumerate(pairs):
        if (x, z) in wanted:
            sections.setdefault(z, []).append(i)
            xs.add(x)
    if not sections:
        raise EmptySupport("conditional support is empty")

    worst = 0.0
    for rows_idx in sections.values():
        section = channel.rows[np.array(rows_idx, dtype=np.intp)]
        worst = max(worst, float(section.max(axis=0).sum()))
    return LeakageValue(_log_clamped(worst), len(xs))


def mutual_information(joint: JointDistribution) -> float:
    """Shannon mutual information of a joint, in nats."""
    px = joint.mass.sum(axis=1)
    py = joint.mass.sum(axis=0)
    mass = joint.mass
    positive = mass > 0.0
    product = np.outer(px, py)
    terms = mass[positive] * (np.log(mass[positive]) - np.log(product[positive]))
    value = float(terms.sum())
    if value < 0.0:
        if value < -_ZERO_GUARD:
            raise LeakageLabError(f"mutual information computed as {value}")
        return 0.0
    return value


def _common_vectors(p: DiscreteDistribution, q: DiscreteDistribution):
    if p.alphabet != q.alphabet:
        raise AlphabetMismatch("distributions live on different alphabets")
    return np.asarray(p.probs), np.asarray(q.probs)


def renyi_inf_divergence(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """log max over the support of p of p(x)/q(x); +inf if q misses it."""
    pv, qv = _common_vectors(p, q)
    on = pv > 0.0
    if np.any(qv[on] == 0.0):
        return math.inf
    return float(np.log(pv[on] / qv[on]).max())


def _ratio_order(pv: np.ndarray, qv: np.ndarray) -> np.ndarray:
    # Sort outcomes by p/q descending; q = 0 with p > 0 counts as +inf
    # and p = 0 sinks to the end (such cells never change an optimum).
    ratio = np.where(pv > 0.0, np.inf, -np.inf)
    np.divide(pv, qv, out=ratio, where=qv > 0.0)
    return np.argsort(-ratio, kind="stable")


def _approx_max_div_vectors(pv: np.ndarray, qv: np.ndarray, delta: float) -> float:
    """Ratio-threshold prefix scan.

    The objective (p(O) - delta)/q(O) strictly improves when adding an
    outcome whose ratio p/q exceeds the current value and when dropping
    one below it, so some prefix of the ratio-sorted order attains the
    maximum; the scan evaluates every feasible prefix. ``cumsum`` adds in
    order, so each prefix sum is the one a sequential loop would form, and
    prefix sums of nonnegative terms never decrease: the feasible prefixes
    are those from the first one with mass above delta on.
    """
    if not 0.0 <= delta < 1.0:
        raise BetaOutOfRange(f"mass budget must lie in [0, 1), got {delta}")
    order = _ratio_order(pv, qv)
    mass = pv[order].cumsum()
    denom = qv[order].cumsum()
    first = int(mass.searchsorted(delta, side="right"))
    if first == mass.size:
        raise NoFeasibleSet(f"no outcome set has mass above {delta}")
    if denom[first] == 0.0:
        return math.inf
    return math.log(((mass[first:] - delta) / denom[first:]).max())


_ENUM_LIMIT = 16
_subset_cache: dict[int, np.ndarray] = {}


def _subset_matrix(m: int) -> np.ndarray:
    if m not in _subset_cache:
        count = (1 << m) - 1
        rows = np.arange(1, count + 1, dtype=np.uint32)
        bits = np.arange(m, dtype=np.uint32)
        _subset_cache[m] = ((rows[:, None] >> bits[None, :]) & 1).astype(np.float64)
    return _subset_cache[m]


def _approx_max_div_enumerated(pv: np.ndarray, qv: np.ndarray, delta: float) -> float:
    """Exhaustive twin of the prefix scan, for small alphabets only."""
    if not 0.0 <= delta < 1.0:
        raise BetaOutOfRange(f"mass budget must lie in [0, 1), got {delta}")
    m = pv.size
    if m > _ENUM_LIMIT:
        raise LeakageLabError(f"enumeration oracle is limited to {_ENUM_LIMIT} outcomes")
    subsets = _subset_matrix(m)
    mass = subsets @ pv
    denom = subsets @ qv
    feasible = mass > delta
    if not np.any(feasible):
        raise NoFeasibleSet(f"no outcome set has mass above {delta}")
    if np.any(feasible & (denom == 0.0)):
        return math.inf
    values = (mass[feasible] - delta) / denom[feasible]
    return math.log(float(values.max()))


def approx_max_divergence(
    p: DiscreteDistribution, q: DiscreteDistribution, delta: float
) -> float:
    """Approximate max-divergence with mass budget ``delta``.

    At ``delta = 0`` this reduces to :func:`renyi_inf_divergence`.
    """
    pv, qv = _common_vectors(p, q)
    return _approx_max_div_vectors(pv, qv, delta)


def approx_max_divergence_by_enumeration(
    p: DiscreteDistribution, q: DiscreteDistribution, delta: float
) -> float:
    pv, qv = _common_vectors(p, q)
    return _approx_max_div_enumerated(pv, qv, delta)


def _joint_product_vectors(joint: JointDistribution):
    px = joint.mass.sum(axis=1)
    py = joint.mass.sum(axis=0)
    return joint.mass.reshape(-1), np.outer(px, py).reshape(-1)


def max_information(joint: JointDistribution) -> float:
    """Renyi-infinity divergence of the joint from the product of marginals."""
    mass, product = _joint_product_vectors(joint)
    on = mass > 0.0
    # mass(x, y) > 0 forces both marginals positive, so the ratio is finite.
    value = float(np.log(mass[on] / product[on]).max())
    return max(value, 0.0)


def approx_max_information(joint: JointDistribution, beta: float) -> float:
    """Budgeted max-information; requires 0 < beta < 1.

    A zero budget is exactly :func:`max_information`; call that instead.
    """
    if not 0.0 < beta < 1.0:
        raise BetaOutOfRange(f"beta must lie in (0, 1), got {beta}")
    mass, product = _joint_product_vectors(joint)
    return _approx_max_div_vectors(mass, product, beta)


def approx_max_information_by_enumeration(joint: JointDistribution, beta: float) -> float:
    if not 0.0 < beta < 1.0:
        raise BetaOutOfRange(f"beta must lie in (0, 1), got {beta}")
    mass, product = _joint_product_vectors(joint)
    return _approx_max_div_enumerated(mass, product, beta)


def empirical_dp(channel: Channel) -> float:
    """Exact differential-privacy level of a channel over dataset tuples.

    Scans every ordered pair of Hamming-neighbor inputs and every output:
    the result is the sup of log(P(y|s)/P(y|s')), +inf when some output
    is possible under s but impossible under its neighbor, and 0 for
    constant channels. Pairs where both probabilities vanish are skipped.
    """
    alphabet = channel.input
    if not isinstance(alphabet, ProductAlphabet):
        raise InputNotProduct("empirical differential privacy needs a product input alphabet")
    rows = channel.rows
    digits = alphabet.digit_matrix()
    strides = alphabet.strides()
    base_size = len(alphabet.base)
    index = np.arange(len(alphabet), dtype=np.int64)

    best = 0.0
    for pos in range(alphabet.n):
        stride = strides[pos]
        for value in range(base_size):
            moved = digits[:, pos] != value
            if not np.any(moved):
                continue
            neighbor = index[moved] + (value - digits[moved, pos]) * stride
            p = rows[moved]
            q = rows[neighbor]
            hot = p > 0.0
            if np.any(hot & (q == 0.0)):
                return math.inf
            with np.errstate(divide="ignore", invalid="ignore"):
                log_ratio = np.where(hot, np.log(p) - np.log(q), -np.inf)
            best = max(best, float(log_ratio.max()))
    return best
