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
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import _EXPORTS
from .core import Channel, DiscreteDistribution, JointDistribution, ProductAlphabet
from .errors import (
    AlphabetMismatch,
    BetaOutOfRange,
    EmptySupport,
    InputNotProduct,
    LeakageLabError,
    NoFeasibleSet,
    _within,
)

__all__ = _EXPORTS["measures"]

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


def _log_clamped(totals: np.ndarray) -> np.ndarray:
    """log of each column-maxima sum, with the float noise around 1 snapped to 0.

    Each sum is mathematically >= 1, with equality exactly for channels
    whose supported rows coincide, so that case reports a true zero. The
    logs are ``math.log`` values, so one object's leakage does not depend
    on the batch it comes in.
    """
    values = np.array([math.log(total) for total in totals.tolist()])
    low = values < -_ZERO_GUARD
    if low.any():
        raise LeakageLabError(f"column maxima sum to {totals[low][0]}, below any valid channel")
    values[values <= _ZERO_GUARD] = 0.0
    return values


def _maxima_leakage(maxima: np.ndarray) -> np.ndarray:
    """log max_s sum_y of stacked section column maxima, (B, S, Y) -> (B,): every leakage's tail."""
    return _log_clamped(maxima.sum(axis=2).max(axis=1))


def _section_leakage(sections: np.ndarray, support: np.ndarray | None) -> np.ndarray:
    """Leakage of each stacked channel over sections of its rows: (B, S, L, Y) -> (B,).

    Item b is log max_s sum_y max over the rows l of section s of
    ``sections[b, s, l, y]``, each max starting from 0. A ``support``
    mask, broadcastable to (B, S, L), skips the rows outside it without a
    masked copy; ``None`` keeps every row. Callers mask only to drop rows
    with mass: entries are nonnegative, so an all-zero row, such as
    padding, never raises a max. A section without support never wins.
    """
    where = True if support is None else support[..., None]
    return _maxima_leakage(sections.max(axis=2, where=where, initial=0.0))


def _joint_leakage(mass: np.ndarray) -> np.ndarray:
    """Maximal leakage of the conditional channel of each stacked joint over its input support.

    A row without mass divides into a zero row, so the support needs no mask.
    """
    row_sums = mass.sum(axis=2, keepdims=True)
    rows = np.divide(mass, row_sums, out=np.zeros_like(mass), where=row_sums > 0.0)
    return _section_leakage(rows[:, None], None)


def _support_index(channel: Channel, item) -> int:
    """Input index of one support entry: a label, or an integer that is not a bool."""
    if isinstance(item, str):
        return channel.input.index(item)
    if isinstance(item, (int, np.integer)) and not isinstance(item, bool):
        return int(item)
    raise LeakageLabError(f"support entry {item!r} is neither an input label nor an integer index")


def _support_mask(channel: Channel, support) -> np.ndarray | None:
    """Boolean input mask of ``support`` (labels or integer indices); ``None`` for all inputs.

    Labels become their indices, which are range-checked in array passes;
    an object array keeps Python integers exact until then. Bools, floats
    and arrays of any dtype but an integer one are refused, not truncated.
    """
    if support is None:
        return None
    size = len(channel.input)
    if not (isinstance(support, np.ndarray) and support.dtype.kind in "iu"):
        support = np.array([_support_index(channel, i) for i in support], dtype=object)
    if not support.size:
        raise EmptySupport("support set is empty")
    if support.min() < 0 or support.max() >= size:
        first = next(int(i) for i in support if not 0 <= i < size)
        raise LeakageLabError(f"support index {first} out of range")
    chosen = np.zeros(size, dtype=bool)
    chosen[support.astype(np.intp)] = True
    return chosen


def maximal_leakage(channel: Channel, support: Iterable[str | int] | None = None) -> LeakageValue:
    """Maximal leakage of ``channel`` for any prior with the given support.

    Parameters
    ----------
    channel : Channel
    support : iterable of input labels or integer indices, optional
        Defaults to the whole input alphabet, which needs no mask. Two
        priors with equal support produce bit-identical results.
    """
    chosen = _support_mask(channel, support)
    nats = _section_leakage(channel.rows[None, None], chosen)[0]
    return LeakageValue(float(nats), len(channel.input) if chosen is None else int(chosen.sum()))


def maximal_leakage_of_joint(joint: JointDistribution) -> LeakageValue:
    """Maximal leakage of the conditional channel of ``joint`` on its (never empty) support."""
    support = int(np.count_nonzero(joint.mass.sum(axis=1) > 0.0))
    return LeakageValue(float(_joint_leakage(joint.mass[None])[0]), support)


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
        Aligned with ``channel.input.labels``; no pair may repeat.
    support : iterable of (x, z) pairs, optional
        Pairs with positive joint probability; defaults to all pairs.
        Conditioning values z with an empty x-section are skipped.

    The supported rows, grouped by z, are maxed in one pass without padding.
    """
    if len(pairs) != len(channel.input):
        raise AlphabetMismatch(
            f"need {len(channel.input)} (x, z) pairs, got {len(pairs)}"
        )
    pairs = [(str(x), str(z)) for x, z in pairs]
    known = set(pairs)
    if len(known) != len(pairs):
        repeated = next(pair for pair, count in Counter(pairs).items() if count > 1)
        raise LeakageLabError(f"(x, z) pair {list(repeated)} appears more than once")
    wanted = set((str(x), str(z)) for x, z in support) if support is not None else known
    unknown = wanted - known
    if unknown:
        raise LeakageLabError(f"support references unknown pairs: {sorted(unknown)[:3]}")

    kept = [i for i, pair in enumerate(pairs) if pair in wanted]
    if not kept:
        raise EmptySupport("conditional support is empty")
    # number the z values in order of first appearance; a stable sort by
    # number puts each section's rows in one run, which reduceat maxes
    numbers: dict[str, int] = {}
    keys = np.array([numbers.setdefault(pairs[i][1], len(numbers)) for i in kept])
    sizes = np.bincount(keys)
    rows = channel.rows[np.array(kept)[np.argsort(keys, kind="stable")]]
    maxima = np.maximum.reduceat(rows, sizes.cumsum() - sizes)
    xs = {pairs[i][0] for i in kept}
    return LeakageValue(float(_maxima_leakage(maxima[None])[0]), len(xs))


def mutual_information(joint: JointDistribution) -> float:
    """Shannon mutual information of a joint, in nats."""
    mass, product = _joint_product_vectors(joint.mass[None])
    positive = mass > 0.0
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
    return float(_max_information(pv[None], qv[None])[0])


def _ratio_order(pv: np.ndarray, qv: np.ndarray) -> np.ndarray:
    # Sort outcomes by p/q descending, along the last axis; q = 0 with
    # p > 0 counts as +inf and p = 0 sinks to the end (such cells, and
    # zero padding, never change an optimum).
    ratio = np.where(pv > 0.0, np.inf, -np.inf)
    np.divide(pv, qv, out=ratio, where=qv > 0.0)
    return np.argsort(-ratio, axis=-1, kind="stable")


def _check_budgets(deltas) -> None:
    for delta in deltas:
        _within(delta, "mass budget", "[0, 1)", BetaOutOfRange)


def _best_ratios(mass: np.ndarray, denom: np.ndarray, deltas) -> np.ndarray:
    """Max of (mass - delta) / denom over the columns with mass above delta: (rows, K) -> (D, rows).

    Each column is an outcome set with its p-mass and q-mass. Every
    budget is taken in one (D, rows, K) pass, and each entry is the double
    a per-budget pass forms. A feasible set without q-mass divides a
    positive numerator by zero, which makes the result +inf; a row
    without a feasible set keeps -inf.
    """
    budgets = np.array(deltas, dtype=np.float64)[:, None, None]
    ratios = mass - budgets
    np.copyto(ratios, -np.inf, where=mass <= budgets)
    with np.errstate(divide="ignore"):
        ratios /= denom
    return ratios.max(axis=-1)


def _best_ratio_logs(best: np.ndarray, deltas) -> np.ndarray:
    """``math.log`` of each best ratio: (D, rows) -> (rows, D).

    Raises NoFeasibleSet naming the first budget, in the given order, at
    which some row has no feasible set (a -inf best ratio). The logs are
    ``math.log`` values, so a row's result does not depend on its batch.
    """
    infeasible = (best == -np.inf).any(axis=1)
    if infeasible.any():
        raise NoFeasibleSet(f"no outcome set has mass above {deltas[int(infeasible.argmax())]}")
    logs = np.fromiter(map(math.log, best.T.ravel().tolist()), np.float64, best.size)
    return logs.reshape(best.shape[::-1])


def _approx_max_div_scan(pv: np.ndarray, qv: np.ndarray, deltas) -> np.ndarray:
    """Ratio-threshold prefix scan of each row pair at each budget: (B, M), (B, M) -> (B, D).

    The objective (p(O) - delta)/q(O) strictly improves when adding an
    outcome whose ratio p/q exceeds the current value and when dropping
    one below it, so some prefix of the ratio-sorted order attains the
    maximum; the scan evaluates every feasible prefix. ``cumsum`` adds in
    order, so each prefix sum is the one a sequential loop would form, and
    prefix sums of nonnegative terms never decrease: the feasible prefixes
    are those from the first one with mass above delta on. Zero cells
    padding a row repeat its prefix sums and leave its value unchanged.
    """
    _check_budgets(deltas)
    order = _ratio_order(pv, qv)
    rows = np.arange(len(order))[:, None]
    mass = pv[rows, order].cumsum(axis=1)
    denom = qv[rows, order].cumsum(axis=1)
    return _best_ratio_logs(_best_ratios(mass, denom, deltas), deltas)


_ENUM_LIMIT = 16
_ENUM_BLOCK = 1 << 18


def _subset_sums(v: np.ndarray) -> np.ndarray:
    """Sums of the last axis over its nonempty subsets: (..., m) -> (..., 2^m - 1).

    Column s - 1 holds subset s, whose bit j selects entry j. A subset's
    sum is its sum without its highest entry plus that entry, so every
    sum adds its entries in index order whatever the batch is (a matrix
    product with a 0/1 subset matrix rounds differently with the row count).
    """
    sums = np.empty(v.shape[:-1] + ((1 << v.shape[-1]) - 1,))
    for k in range(v.shape[-1]):
        sums[..., (1 << k) - 1] = v[..., k]
        np.add(sums[..., : (1 << k) - 1], v[..., k, None], out=sums[..., 1 << k : (2 << k) - 1])
    return sums


def _approx_max_div_enumerated(pv: np.ndarray, qv: np.ndarray, deltas) -> np.ndarray:
    """Exhaustive twin of the prefix scan over the sets of positive cells: (B, M) -> (B, D).

    Each row enumerates every nonempty subset of its cells with p > 0, in
    index order, so rows of any length and with any zero padding go in
    one call; rows are grouped by their count of positive cells. A cell
    with p = 0 adds nothing to a set's p-mass and only q-mass to its
    denominator, so it never raises the objective of a feasible set, and
    the subsets left add their cells in the same index order: the maximum
    is the double that enumerating every cell gives, +inf and ties
    included. A row without a positive cell has no feasible set. For
    small alphabets only: at most ``_ENUM_LIMIT`` positive cells a row.
    """
    _check_budgets(deltas)
    positive = pv > 0.0
    counts = positive.sum(axis=1)
    if (counts > _ENUM_LIMIT).any():
        raise LeakageLabError(
            f"enumeration oracle is limited to {_ENUM_LIMIT} outcomes with positive mass"
        )
    best = np.full((len(deltas), len(pv)), -np.inf)
    for m in np.unique(counts[counts > 0]).tolist():
        rows = np.flatnonzero(counts == m)
        # boolean indexing walks each row's positive cells in index order
        on = positive[rows]
        cells = np.stack((pv[rows][on], qv[rows][on])).reshape(2, len(rows), m)
        # rows a few at a time, so that neither the (2, rows, 2^m - 1) sums nor
        # the (D, rows, 2^m - 1) ratios hold more than _ENUM_BLOCK values
        step = max(1, _ENUM_BLOCK // (max(2, len(deltas)) * ((1 << m) - 1)))
        for lo in range(0, len(rows), step):
            sums = _subset_sums(cells[:, lo : lo + step])
            best[:, rows[lo : lo + step]] = _best_ratios(*sums, deltas)
    return _best_ratio_logs(best, deltas)


def approx_max_divergence(
    p: DiscreteDistribution, q: DiscreteDistribution, delta: float
) -> float:
    """Approximate max-divergence with mass budget ``delta``.

    At ``delta = 0`` this reduces to :func:`renyi_inf_divergence`.
    """
    pv, qv = _common_vectors(p, q)
    return float(_approx_max_div_scan(pv[None], qv[None], (delta,))[0, 0])


def _joint_product_vectors(mass: np.ndarray):
    """Flattened (B, X * Y) masses of stacked joints and of the products of their marginals."""
    px = mass.sum(axis=2)
    py = mass.sum(axis=1)
    product = px[:, :, None] * py[:, None, :]
    return mass.reshape(len(mass), -1), product.reshape(len(mass), -1)


def _max_information(mass: np.ndarray, product: np.ndarray) -> np.ndarray:
    """Renyi-infinity divergence of each row of ``mass`` from the same row of ``product``.

    A cell with mass but no product mass divides by zero, which makes the
    result +inf; cells without mass read log 1 = 0, the floor of the
    result anyway. Rows of a joint's cells against its product of
    marginals give its max-information.
    """
    with np.errstate(divide="ignore"):
        ratio = np.divide(mass, product, out=np.ones_like(mass), where=mass > 0.0)
    return np.maximum(np.log(ratio).max(axis=1), 0.0)


def max_information(joint: JointDistribution) -> float:
    """Renyi-infinity divergence of the joint from the product of marginals."""
    return float(_max_information(*_joint_product_vectors(joint.mass[None]))[0])


def approx_max_information(joint: JointDistribution, beta: float) -> float:
    """Budgeted max-information; requires 0 < beta < 1.

    A zero budget is exactly :func:`max_information`; call that instead.
    """
    _within(beta, "beta", "(0, 1)", BetaOutOfRange)
    mass, product = _joint_product_vectors(joint.mass[None])
    return float(_approx_max_div_scan(mass, product, (beta,))[0, 0])


def approx_max_information_by_enumeration(joint: JointDistribution, beta: float) -> float:
    """:func:`approx_max_information` by exhaustive enumeration of outcome sets.

    Only the cells with positive mass are enumerated, so a joint of any
    size is accepted as long as at most 16 of its cells are positive.
    """
    _within(beta, "beta", "(0, 1)", BetaOutOfRange)
    mass, product = _joint_product_vectors(joint.mass[None])
    return float(_approx_max_div_enumerated(mass, product, (beta,))[0, 0])


def empirical_dp(channel: Channel) -> float:
    """Exact differential-privacy level of a channel over dataset tuples.

    The sup over ordered pairs of Hamming-neighbor inputs s, s' and every
    output y of log(P(y|s)/P(y|s')): +inf when some output is possible
    under s but impossible under its neighbor, and 0 for constant
    channels. Pairs where P(y|s) vanishes are skipped.

    Tuple i is the C-order index of its digits, so the log rows reshape
    to one axis per position, and the neighbors that differ only at
    position k are the entries along axis k. Subtraction rounds
    monotonically, so the largest pairwise difference along an axis is
    exactly its max minus its min, and slices where every entry vanishes
    are skipped.
    """
    alphabet = channel.input
    if not isinstance(alphabet, ProductAlphabet):
        raise InputNotProduct("empirical differential privacy needs a product input alphabet")
    base = len(alphabet.base)
    if base == 1:
        # one tuple has no neighbors; return before numpy's limit of 64 axes
        return 0.0
    with np.errstate(divide="ignore"):
        logs = np.log(channel.rows).reshape((base,) * alphabet.n + channel.rows.shape[1:])
    best = 0.0
    # hi - lo is +inf where only some entries vanish, nan where all do
    with np.errstate(invalid="ignore"):
        for axis in range(alphabet.n):
            hi, lo = logs.max(axis), logs.min(axis)
            best = max(best, float(np.max(hi - lo, where=hi > -np.inf, initial=-np.inf)))
    return best
