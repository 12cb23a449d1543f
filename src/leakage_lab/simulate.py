"""Desk-scale adaptive-analysis experiments with enumerable learners.

Two experiment families check the bounds against live randomness:

* generalization error: datasets of n samples drawn i.i.d. from a finite
  distribution over domain-label pairs feed a learner (deterministic
  empirical-risk minimization, or the exponential mechanism with weight
  exp(-epsilon * n * risk / 2)); the Monte Carlo frequency of
  |true risk - empirical risk| > eta is compared against
  2 exp(L - 2 n eta^2). L is the exact leakage of the learner channel
  when the C(n + 2d - 1, 2d - 1) symbol histograms of n draws fit under
  the enumeration cap (the learner sees a dataset only through its
  histogram), else the ledger bound. The trials, the enumerated datasets
  and the types all reach one set of learner rules as draw-major
  (symbols, rows) histograms;

* post-selection hypothesis testing: under a fair-coin null, the
  minimum-p-value rule picks one of T coordinate-window binomial tests
  with exact tail p-values (the first window with the most heads, whose
  exact p-value is the smallest); the false-discovery frequency is
  compared against exp(log T) * sigma at both the adjusted and raw
  significance.

Trials are independent work items on the counter-based streams of
``_stream``: trial t of master seed s draws from derive_trial_seed(s, t),
a slice of trials at a time, draw-major. A generalization trial turns
each draw into one uniform; a hypothesis-testing trial reads its n fair
coins packed 64 to a draw, coin i being bit 63 - (i mod 64) of draw
i // 64. Both run on one harness, ``_count_trials``, which adds the hit
columns of the slices as integers in slice order, so a report depends
only on its config and seed.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from ._stream import (
    _check_seed,
    _counter_mix,
    _trial_seeds,
    _uniform_block,
    derive_trial_seed,
    map_chunked,
)
from .bounds import P_VALUE_NOTE, adjusted_significance, fdr_bound, gen_error_bound
from .core import (
    Alphabet,
    Channel,
    DiscreteDistribution,
    EventMask,
    JointDistribution,
    ProductAlphabet,
    _check_channel_rows,
    _iid_probs,
    enumeration_cap,
    joint_from,
)
from .errors import CapExceeded, LeakageLabError, _count, _within
from .jsonio import _read_array, _read_int, _read_number, _read_object
from .ledger import cardinality_bound, dp_to_leakage
from .measures import _maxima_leakage

__all__ = [
    "LearnerSpec",
    "GenErrConfig",
    "HypTestConfig",
    "ExperimentReport",
    "SignificanceCheck",
    "HypTestReport",
    "derive_trial_seed",
    "map_chunked",
    "data_alphabet",
    "learner_channel",
    "generalization_event",
    "statistic_windows",
    "binomial_tail_table",
    "run_gen_error_experiment",
    "run_hyptest_experiment",
]

CONFIDENCE = 0.99

ERM = "ERM"
EXPONENTIAL_MECHANISM = "exponential-mechanism"
# the one tie break: ties in empirical risk go to the lowest hypothesis index
TIE_BREAK = "lowest-index"


def _clopper_pearson_lower(successes: int, trials: int) -> float:
    """One-sided lower bound for a binomial proportion at confidence CONFIDENCE."""
    if successes <= 0:
        return 0.0
    if successes >= trials:
        return float((1.0 - CONFIDENCE) ** (1.0 / trials))
    # imported here so that no other command pays for loading scipy
    from scipy.special import betaincinv

    return float(betaincinv(successes, trials - successes + 1, 1.0 - CONFIDENCE))


def _tail_check(hits: int, trials: int, bound: float) -> tuple[float, float, bool]:
    """Empirical tail, its Monte Carlo half-width, and whether the tail passes.

    The half-width reaches down to the Clopper-Pearson lower edge, and the
    tail passes when that edge does not exceed ``bound``.
    """
    tail = hits / trials
    half_width = tail - _clopper_pearson_lower(hits, trials)
    return tail, half_width, tail - half_width <= bound


def _count_trials(seed: int, trials: int, per_trial: int, block: Callable,
                  header: tuple[str, ...], trace_path: str | None) -> list[int]:
    """Hits of each column ``block`` returns, summed over trials 0..trials-1 of ``seed``.

    ``block(seeds)`` maps the uint64 seeds of a slice of consecutive
    trials, whose widest arrays hold ``per_trial`` values each, to
    (boolean hit columns, trace columns). With ``trace_path`` every
    trial's trace columns make one CSV row under ``header``, in trial
    order. The file is opened before the first trial and each slice's
    rows are written as the slice completes, so an unwritable path fails
    at once and no slice's rows outlive it.
    """
    with contextlib.ExitStack() as stack:
        writer = None
        if trace_path:
            writer = csv.writer(stack.enter_context(
                open(trace_path, "w", newline="", encoding="utf-8")))
            writer.writerow(header)

        def run(lo: int, hi: int):
            hits, columns = block(_trial_seeds(seed, lo, hi))
            if writer is not None:
                writer.writerows(zip(range(lo, hi), *(c.tolist() for c in columns)))
            return [int(np.count_nonzero(h)) for h in hits]

        # called through the module global, so that a wrapper installed there sees it
        results = map_chunked(run, trials, per_trial)
    return [sum(column) for column in zip(*results)]


def data_alphabet(d: int) -> Alphabet:
    """Domain-label pairs x{i}:{b} for a domain of size d and binary labels, at most the cap."""
    d, cap = _count(d, "domain size"), enumeration_cap()
    if 2 * d > cap:
        raise CapExceeded(f"2 * {d} domain-label pairs exceed the enumeration cap {cap}")
    return Alphabet(f"x{i}:{b}" for i in range(d) for b in (0, 1))


def _binary_label(value) -> int:
    """``value`` as a hypothesis label; only the integers 0 and 1 qualify."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value not in (0, 1):
        raise LeakageLabError(
            f"hypothesisClass must hold binary label vectors of 0 and 1, got {value!r}"
        )
    return int(value)


@dataclass(frozen=True)
class LearnerSpec:
    """An enumerable learner over a finite hypothesis class.

    ``hypotheses`` are binary label vectors over the domain; ties in
    empirical risk always resolve to the lowest index (``TIE_BREAK``).
    """

    kind: str
    hypotheses: tuple[tuple[int, ...], ...]
    epsilon: float | None = None

    def __post_init__(self):
        if self.kind not in (ERM, EXPONENTIAL_MECHANISM):
            raise LeakageLabError(f"unknown learner kind {self.kind!r}")
        hypotheses = tuple(tuple(_binary_label(v) for v in h) for h in self.hypotheses)
        if not hypotheses:
            raise LeakageLabError("hypothesis class is empty")
        widths = {len(h) for h in hypotheses}
        if len(widths) != 1:
            raise LeakageLabError("hypotheses must share the domain size")
        if len(set(hypotheses)) != len(hypotheses):
            raise LeakageLabError("hypotheses must be distinct")
        if self.kind == EXPONENTIAL_MECHANISM:
            _within(self.epsilon, "epsilon", "(0, inf)")
        elif self.epsilon is not None:
            raise LeakageLabError(f"an ERM learner takes no epsilon, got {self.epsilon!r}")
        object.__setattr__(self, "hypotheses", hypotheses)

    @property
    def domain_size(self) -> int:
        return len(self.hypotheses[0])

    def to_json(self) -> dict:
        payload: dict = {
            "kind": self.kind,
            "hypothesisClass": [list(h) for h in self.hypotheses],
            "tieBreak": TIE_BREAK,
        }
        if self.epsilon is not None:
            payload["epsilon"] = self.epsilon
        return payload

    @classmethod
    def from_json(cls, payload: Mapping) -> "LearnerSpec":
        tie_break = payload.get("tieBreak", TIE_BREAK)
        if tie_break != TIE_BREAK:
            raise LeakageLabError(f"unsupported tie break {tie_break!r}")
        name = "learner.hypothesisClass"
        hypotheses = _read_array(payload["hypothesisClass"], name)
        return cls(
            kind=str(payload["kind"]),
            hypotheses=tuple(
                tuple(_read_array(h, f"{name}[{i}]")) for i, h in enumerate(hypotheses)
            ),
            epsilon=payload.get("epsilon"),
        )


def _check_learner(spec: LearnerSpec, d: int, data_dist: DiscreteDistribution) -> None:
    """Hypotheses over exactly the d domain points, and data over the canonical 2d pairs."""
    if spec.domain_size != d:
        raise LeakageLabError("hypotheses do not cover the domain")
    if data_dist.alphabet != data_alphabet(d):
        raise LeakageLabError("data distribution must use the canonical x{i}:{b} symbols")


def _keep(config, **checked) -> None:
    """Store each checked field on the frozen ``config``, so an integral float is kept as its int."""
    for field, value in checked.items():
        object.__setattr__(config, field, value)


@dataclass(frozen=True)
class GenErrConfig:
    """Generalization-error experiment parameters."""

    d: int
    n: int
    data_dist: DiscreteDistribution
    learner: LearnerSpec
    eta: float
    trials: int
    seed: int

    def __post_init__(self):
        _keep(self, d=_count(self.d, "domain size"), n=_count(self.n, "sample size"),
              eta=_within(self.eta, "eta", "(0, 1)"), trials=_count(self.trials, "trial count"))
        _check_learner(self.learner, self.d, self.data_dist)
        epsilon = self.learner.epsilon  # None for ERM
        # the weights exp(-epsilon * n * risk / 2) need a finite exponent scale
        if epsilon is not None and not math.isfinite(0.5 * epsilon * self.n):
            raise LeakageLabError(f"epsilon * n / 2 overflows for epsilon = {epsilon} and n = {self.n}")
        _keep(self, seed=_check_seed(self.seed))

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "n": self.n,
            "dataDistribution": self.data_dist.to_json(),
            "learner": self.learner.to_json(),
            "eta": self.eta,
            "trials": self.trials,
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, payload: Mapping) -> "GenErrConfig":
        return cls(
            d=_read_int(payload, "d"),
            n=_read_int(payload, "n"),
            data_dist=DiscreteDistribution.from_json(
                _read_object(payload["dataDistribution"], "dataDistribution")),
            learner=LearnerSpec.from_json(_read_object(payload["learner"], "learner")),
            eta=_read_number(payload, "eta"),
            trials=_read_int(payload, "trials"),
            seed=_read_int(payload, "seed"),
        )


@dataclass(frozen=True)
class HypTestConfig:
    """Post-selection hypothesis-testing experiment parameters."""

    n: int
    num_stats: int
    sigma: float
    delta: float
    trials: int
    seed: int

    def __post_init__(self):
        _keep(self, n=_count(self.n, "sample size"),
              num_stats=_count(self.num_stats, "statistic count"),
              sigma=_within(self.sigma, "sigma", "(0, 1)"),
              delta=_within(self.delta, "delta", "(0, 1)"),
              trials=_count(self.trials, "trial count"), seed=_check_seed(self.seed))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "numStats": self.num_stats,
            "sigma": self.sigma,
            "delta": self.delta,
            "trials": self.trials,
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, payload: Mapping) -> "HypTestConfig":
        return cls(
            n=_read_int(payload, "n"),
            num_stats=_read_int(payload, "numStats"),
            sigma=_read_number(payload, "sigma"),
            delta=_read_number(payload, "delta"),
            trials=_read_int(payload, "trials"),
            seed=_read_int(payload, "seed"),
        )


@dataclass(frozen=True)
class ExperimentReport:
    """One empirical tail compared against one theoretical bound."""

    empirical_tail: float
    mc_half_width: float
    theoretical_bound: float
    exact_leakage_nats: float | None
    ledger_bound_nats: float
    passed: bool

    def to_json(self) -> dict:
        return {
            "empiricalTail": self.empirical_tail,
            "mcHalfWidth": self.mc_half_width,
            "theoreticalBound": self.theoretical_bound,
            "exactLeakage_nats": self.exact_leakage_nats,
            "ledgerBound_nats": self.ledger_bound_nats,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class SignificanceCheck:
    """False-discovery frequency at one significance level."""

    significance: float
    empirical_tail: float
    mc_half_width: float
    theoretical_bound: float
    passed: bool

    def to_json(self) -> dict:
        return {
            "significance": self.significance,
            "empiricalTail": self.empirical_tail,
            "mcHalfWidth": self.mc_half_width,
            "theoreticalBound": self.theoretical_bound,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class HypTestReport:
    """Both significance checks of a post-selection testing experiment."""

    adjusted_sigma: float
    ledger_bound_nats: float
    adjusted: SignificanceCheck
    raw: SignificanceCheck
    passed: bool

    def to_json(self) -> dict:
        return {
            "adjustedSigma": self.adjusted_sigma,
            "exactLeakage_nats": None,
            "ledgerBound_nats": self.ledger_bound_nats,
            "adjusted": self.adjusted.to_json(),
            "raw": self.raw.to_json(),
            "pass": self.passed,
            "note": P_VALUE_NOTE,
        }


# An (H, rows) risk array is stored row by row, each hypothesis's risks
# contiguous, when its rows number at least _WHOLE_ROWS times H: a
# reduction over the hypotheses is then a few passes over whole rows.
# With fewer rows each column of H risks is contiguous instead, and numpy
# reduces it in one call per column, which costs less than a Python-level
# pass per hypothesis once H is large. On a 2-CPU x86-64 host the two
# meet between 64 and 256 rows per hypothesis. Results do not depend on
# the layout.
_WHOLE_ROWS = 128


def _whole_rows(hypotheses: int, rows: int) -> bool:
    """Whether an (H, rows) array is stored and reduced row by row (see ``_WHOLE_ROWS``)."""
    return rows >= _WHOLE_ROWS * hypotheses


def _key_dtype(top: int, rows: int) -> np.dtype:
    """Narrowest unsigned dtype of ``_first_max``'s keys for values <= top over ``rows`` rows."""
    return np.min_scalar_type(((top + 1) << (rows - 1).bit_length()) - 1)


def _first_max(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per column of an (R, N) array, the lowest row index of its largest value, and that value.

    ``values`` must already be in ``_key_dtype(top, R)``, top its largest
    possible value, so the keys value * 2^s + (R - 1 - row),
    s = bit_length(R - 1), are formed without a cast and none wraps: one
    max over the R rows holds a column's largest value and the lowest row
    that reaches it. A key is at most (top + 1) * 2^s - 1 and must fit in
    uint64. Whole generr rows (see ``_WHOLE_ROWS``) have top = n and R = H:
    a trial slice of 2^16 values holds at least 128 H of them only for
    H <= 22 and n <= 512, and on the exact path n < K, so an overflow
    there needs more than 2^35 types. Both results stay in the key dtype;
    callers gather with ``take``, which casts the indices once, because
    fancy indexing by narrow integers costs several times more.
    """
    rows = values.shape[0]
    shift = (rows - 1).bit_length()
    # a multiply by 2^s is the shift; numpy multiplies narrow integers faster
    keys = values * values.dtype.type(1 << shift)
    keys |= np.arange(rows - 1, -1, -1, dtype=values.dtype)[:, None]
    best = keys.max(axis=0)
    return (rows - 1) - (best & ((1 << shift) - 1)), best >> shift


class _LearnerTables:
    """Precomputed loss tables shared by the type kernel, the dataset layer and the trials.

    One set of learner rules serves all three: ``mistakes`` maps draw-major
    (symbols, rows) histograms to integer mistake counts,
    ``_lowest_minimizer`` counts to the ERM pick, and ``risks`` counts to
    risks over n, which ``_weights`` maps to exponential-mechanism weights.
    For counts m1 < m2 <= n < 2^53 the doubles m1 / n and m2 / n are
    distinct and in the same order, so ERM compares counts and divides only
    the picked one. Each rule works on (H, rows) arrays and reduces over
    the leading hypothesis axis.
    """

    def __init__(self, spec: LearnerSpec, n: int, data_dist: DiscreteDistribution):
        self.spec = spec
        self.n = n
        hypotheses = np.array(spec.hypotheses, dtype=np.int64)  # (H, d)
        symbols = len(data_dist.alphabet)                       # 2 d
        domain = np.arange(symbols, dtype=np.int64) // 2
        labels = np.arange(symbols, dtype=np.int64) % 2
        # loss01[s, h] = 1 when hypothesis h mislabels the pair behind symbol s
        self.loss01 = (hypotheses[:, domain].T != labels[:, None]).astype(np.float64)
        self.true_risk = self.loss01.T @ np.asarray(data_dist.probs)
        # mistake counts are integers of at most n, which float32 holds
        # exactly up to 2^24; its matrix product costs a fraction of float64's
        self._count_dtype = np.float32 if n <= 1 << 24 else np.float64
        self._loss = self.loss01.astype(self._count_dtype)
        self.cum_probs = np.cumsum(np.asarray(data_dist.probs))

    def mistakes(self, counts: np.ndarray) -> np.ndarray:
        """(H, rows) mistake counts of the datasets whose (symbols, rows) histograms are given.

        Exact integers in ``_count_dtype``, so a dataset's counts do not
        depend on the order of its draws, nor on the memory layout chosen
        here from the shape (see ``_WHOLE_ROWS``).
        """
        counts = counts.astype(self._count_dtype, copy=False)
        if _whole_rows(self._loss.shape[1], counts.shape[1]):
            return self._loss.T @ counts
        return (counts.T @ self._loss).T

    def risks(self, counts: np.ndarray) -> np.ndarray:
        """(H, rows) empirical risks, the mistake counts over n in float64."""
        return np.divide(self.mistakes(counts), self.n, dtype=np.float64)

    def _weights(self, empirical: np.ndarray) -> np.ndarray:
        """Exponential-mechanism weights exp(-epsilon * n * risk / 2), up to a column factor.

        Shifted by the column minimum so that the largest weight of every column is 1.
        """
        weights = empirical - empirical.min(axis=0)
        weights *= -0.5 * self.spec.epsilon * self.n
        return np.exp(weights, out=weights)

    def _lowest_minimizer(self, mistakes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per column, the lowest hypothesis index of fewest mistakes, and that count.

        Whole rows take the first maximum of n - mistakes (``_first_max``),
        cast once into its key dtype; column-contiguous counts take argmin.
        """
        if not _whole_rows(*mistakes.shape):
            picks = mistakes.argmin(axis=0)
            return picks, mistakes[picks, np.arange(len(picks))]
        # the correctly labelled draws, written straight into the key dtype
        correct = np.empty(mistakes.shape, dtype=_key_dtype(self.n, len(mistakes)))
        np.subtract(self.n, mistakes, out=correct, casting="unsafe")
        picks, most = _first_max(correct)
        return picks, self.n - most

    def rows(self, counts: np.ndarray) -> np.ndarray:
        """(rows, H) P(h | dataset) of the datasets whose (symbols, rows) histograms are given.

        ERM rows are one-hot at the lowest-index minimizer; exponential-
        mechanism rows are the normalized weights. A row depends only on
        its histogram, whichever other rows come with it. No name keeps
        the risks or the mistake counts, so at most two arrays of the rows'
        size are alive at once, and ERM's mistake counts are gone before
        its rows are built.
        """
        if self.spec.kind == ERM:
            picks = self._lowest_minimizer(self.mistakes(counts))[0]
            rows = np.zeros((counts.shape[1], len(self.true_risk)))
            rows[np.arange(len(rows)), picks] = 1.0
            return rows
        rows = np.ascontiguousarray(self._weights(self.risks(counts)).T)
        rows /= rows.sum(axis=1, keepdims=True)
        return rows

    def learn(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Picked hypothesis and its empirical risk for each column of draw-major uniforms.

        Row j of ``u`` holds draw j of every trial: rows ``:n`` draw the
        datasets' symbols and row ``n`` drives the exponential
        mechanism's pick. ``_tally`` counts the symbols over whole rows of
        trials, and the pick reduces over the hypotheses in the layout that
        ``mistakes`` chose; trial-major rows would instead run one tiny
        numpy reduction per trial. ERM compares mistake counts and divides
        only the picked one by n.
        """
        n = self.n
        # searchsorted(cum_probs, u, side="right") clipped to the last symbol, ties included
        counts = _tally(u[:n], self.cum_probs[:-1], n)
        if self.spec.kind == ERM:
            picks, least = self._lowest_minimizer(self.mistakes(counts))
            return picks, np.divide(least, n, dtype=np.float64)
        empirical = self.risks(counts)
        picks = _inverse_cdf(_running_sums(self._weights(empirical)), u[n])
        return picks, empirical[picks, np.arange(len(picks))]


def _running_sums(weights: np.ndarray) -> np.ndarray:
    """``np.cumsum(weights, axis=0)``, added in the same order; may overwrite ``weights``.

    With whole contiguous rows, one row add per hypothesis beats numpy's
    accumulate, which loops over the columns.
    """
    if not _whole_rows(*weights.shape):
        return np.cumsum(weights, axis=0)
    for h in range(1, len(weights)):
        weights[h] += weights[h - 1]
    return weights


def _inverse_cdf(cumulative: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per column i, ``searchsorted(cumulative[:, i], u[i] * cumulative[-1, i], side="right")``.

    The boolean rows are added as uint8 into the narrowest unsigned type
    that holds the row count, then widened to ``intp``; clipped to the
    last row, which a total rounded below u can overrun.
    """
    rows = len(cumulative)
    below = (cumulative <= u * cumulative[-1]).view(np.uint8)
    picks = np.add.reduce(below, axis=0, dtype=np.min_scalar_type(rows)).astype(np.intp)
    return np.minimum(picks, rows - 1, out=picks)


def _tally(values: np.ndarray, cuts: np.ndarray, n: int) -> np.ndarray:
    """(symbols, columns) histograms of each column's n draw-major ``values``.

    A value's symbol is the number of the ascending ``cuts`` at or below
    it. Each cut takes one pass over whole rows, adding the boolean rows as
    uint8 into the narrowest unsigned type that holds n. reached[s] counts
    the values at or above cut s - 1 and never increases with s, so the
    unsigned differences cannot wrap.
    """
    tally = np.min_scalar_type(n)
    reached = np.empty((len(cuts) + 2, values.shape[1]), dtype=tally)
    reached[0] = n
    reached[-1] = 0
    for s, cut in enumerate(cuts, start=1):
        np.add.reduce((values >= cut).view(np.uint8), axis=0, dtype=tally, out=reached[s])
    return reached[:-1] - reached[1:]


def _type_count(symbols: int, n: int) -> int:
    """Number of histograms of n draws over ``symbols`` symbols: C(n + symbols - 1, symbols - 1)."""
    return math.comb(n + symbols - 1, symbols - 1)


def _histograms(symbols: int, n: int) -> np.ndarray:
    """All (symbols, K) histograms of n draws, columns in lexicographic order, by stars and bars.

    Each choice of ``symbols - 1`` bar positions among ``n + symbols - 1``
    slots is one histogram: the counts are the runs of stars between bars.
    Lexicographic bar positions give lexicographic counts.
    """
    slots = n + symbols - 1
    count = _type_count(symbols, n)
    bars = np.empty((symbols + 1, count), dtype=np.int64)
    bars[0] = -1
    bars[-1] = slots
    bars[1:-1] = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(slots), symbols - 1)),
        dtype=np.int64,
        count=count * (symbols - 1),
    ).reshape(count, symbols - 1).T
    return np.diff(bars, axis=0) - 1


def _dataset_layer(spec: LearnerSpec, d: int, n: int, data_dist: DiscreteDistribution):
    """The learner tables, the (2d, N) histograms of all N = (2d)^n datasets, and their channel.

    A base index is its own symbol under the cuts 1, ..., 2d - 1. Each
    dataset's row comes from its histogram by the type kernel's rule.
    """
    d, n = _count(d, "domain size"), _count(n, "sample size")
    _check_learner(spec, d, data_dist)
    tables = _LearnerTables(spec, n, data_dist)
    product = ProductAlphabet(data_dist.alphabet, n)
    counts = _tally(product.digit_matrix().T, np.arange(1, 2 * d), n)
    hypotheses = Alphabet("".join(map(str, h)) for h in spec.hypotheses)
    return tables, counts, Channel(product, hypotheses, tables.rows(counts))


def learner_channel(spec: LearnerSpec, d: int, n: int, data_dist: DiscreteDistribution) -> Channel:
    """Exact dataset-to-hypothesis channel over all (2d)^n datasets.

    ERM rows are one-hot at the lowest-index empirical-risk minimizer;
    exponential-mechanism rows are proportional to
    exp(-epsilon * n * risk / 2).
    """
    return _dataset_layer(spec, d, n, data_dist)[2]


def generalization_event(
    spec: LearnerSpec,
    d: int,
    n: int,
    data_dist: DiscreteDistribution,
    eta: float,
) -> tuple[JointDistribution, EventMask]:
    """Materialize {(dataset, h): |true - empirical| > eta} with its joint."""
    _within(eta, "eta", "(0, 1)")
    tables, counts, channel = _dataset_layer(spec, d, n, data_dist)
    gaps = np.abs(tables.true_risk[:, None] - tables.risks(counts))
    mask = np.ascontiguousarray(gaps.T > eta)
    prior = DiscreteDistribution(channel.input, _iid_probs(data_dist.probs, tables.n))
    return joint_from(prior, channel), EventMask(channel.input, channel.output, mask)


def _ledger_bound(spec: LearnerSpec, n: int) -> float:
    candidates = [cardinality_bound(len(spec.hypotheses))]
    if spec.kind == EXPONENTIAL_MECHANISM:
        candidates.append(dp_to_leakage(spec.epsilon, n))
    return min(candidates)


def _exact_leakage(tables: _LearnerTables, data_dist: DiscreteDistribution) -> float:
    """Maximal leakage of the learner over the histograms of the supported datasets.

    A dataset's row depends only on its histogram, so the column maxima
    over the supported datasets are those over the supported histograms:
    the ones that put no draw on a symbol of zero probability, and only
    those get rows.
    """
    counts = _histograms(len(tables.cum_probs), tables.n)
    unsupported = np.asarray(data_dist.probs) == 0.0
    rows = tables.rows(counts[:, ~counts[unsupported].any(axis=0)])
    # validated like any channel's rows, without labelling the types
    _check_channel_rows(rows)
    return float(_maxima_leakage(rows.max(axis=0)[None, None])[0])


def run_gen_error_experiment(
    config: GenErrConfig,
    trace_path: str | None = None,
    require_exact: bool = False,
) -> ExperimentReport:
    """Monte Carlo check of the generalization bound for one learner.

    A trial wider than the enumeration cap is refused before anything is
    built or opened.
    """
    cap = enumeration_cap()
    symbols = len(config.data_dist.alphabet)
    width = config.n + (config.learner.kind == EXPONENTIAL_MECHANISM)
    # a trial's widest array is its uniforms, its histogram or its mistake counts
    per_trial = max(width, symbols, len(config.learner.hypotheses))
    if per_trial > cap:
        raise CapExceeded(
            f"a trial of n = {config.n} draws holds {per_trial} values, "
            f"which exceed the cap {cap}"
        )
    tables = _LearnerTables(config.learner, config.n, config.data_dist)
    types = _type_count(symbols, config.n)
    exact_leakage = None if types > cap else _exact_leakage(tables, config.data_dist)
    if require_exact and exact_leakage is None:
        raise CapExceeded(
            f"C({config.n}+{symbols}-1, {symbols}-1) = {types} dataset histograms "
            f"exceed the cap {cap}"
        )
    ledger_bound = _ledger_bound(config.learner, config.n)
    used_leakage = ledger_bound if exact_leakage is None else exact_leakage
    bound = gen_error_bound(config.n, config.eta, used_leakage).value

    def block(seeds: np.ndarray):
        picks, empirical = tables.learn(_uniform_block(seeds, width))
        gaps = np.abs(tables.true_risk.take(picks) - empirical)
        hits = gaps > config.eta
        return (hits,), (picks, empirical, gaps, hits)

    (exceed,) = _count_trials(
        config.seed, config.trials, per_trial, block,
        ("trial", "hypothesis", "empirical_risk", "gap", "exceeds"), trace_path,
    )
    empirical_tail, half_width, passed = _tail_check(exceed, config.trials, bound)
    return ExperimentReport(
        empirical_tail=empirical_tail,
        mc_half_width=half_width,
        theoretical_bound=bound,
        exact_leakage_nats=exact_leakage,
        ledger_bound_nats=ledger_bound,
        passed=passed,
    )


def statistic_windows(n: int, t: int) -> np.ndarray:
    """Fixed coordinate windows for the T test statistics.

    Windows are evenly spaced, wrap around, and are at least 8 wide (when
    the sample allows) so that small significance levels stay reachable
    by the discrete binomial p-values. A (T, w) table larger than the
    enumeration cap is refused before anything is allocated.
    """
    n, t, cap = _count(n, "sample size"), _count(t, "statistic count"), enumeration_cap()
    width = min(n, max(8, n // t))
    if t * width > cap:
        raise CapExceeded(
            f"numStats = {t} windows of width {width} over n = {n} coins make "
            f"{t * width} window entries, which exceed the cap {cap}"
        )
    starts = np.arange(t, dtype=np.intp) * n // t
    return (starts[:, None] + np.arange(width, dtype=np.intp)) % n


def binomial_tail_table(m: int) -> np.ndarray:
    """Exact one-sided p-values: table[k] = P(Bin(m, 1/2) >= k).

    Each entry is the correctly rounded double of the integer tail sum
    over 2^m, so the table is nonincreasing; where neighbouring tails round
    (or underflow) to one double, neighbouring entries are equal. More
    coins than the enumeration cap are refused before any tail is computed.
    """
    m, cap = _count(m, "coin count", "[0, inf)"), enumeration_cap()
    if m > cap:
        raise CapExceeded(f"the tails of {m} coins exceed the enumeration cap {cap}")
    # C(m, i + 1) = C(m, i) * (m - i) / (i + 1), exact in integers
    weights = [1]
    for i in range(m):
        weights.append(weights[-1] * (m - i) // (i + 1))
    total = 1 << m
    tails = list(itertools.accumulate(reversed(weights)))[::-1]
    return np.array([tail / total for tail in tails])


def _window_masks(windows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(T, k) word indices and uint64 masks of the windows over coins packed 64 to a draw.

    Coordinate c sets bit 63 - (c mod 64) of word c // 64. Slot j of row
    t holds the j-th run of window t's coordinates that share a word; a
    window of width w wraps at most once, so it has at most
    ceil(w / 64) + 2 runs. Rows with fewer runs end in word 0 under mask 0.
    """
    words = windows // 64
    bits = np.left_shift(np.uint64(1), (63 - windows % 64).astype(np.uint64))
    # a coordinate's slot counts the word changes before it in its window
    slots = np.zeros(windows.shape, dtype=np.intp)
    np.cumsum(words[:, 1:] != words[:, :-1], axis=1, out=slots[:, 1:])
    rows = np.arange(len(windows))[:, None]
    word_index = np.zeros((len(windows), int(slots[:, -1].max()) + 1), dtype=np.intp)
    word_index[rows, slots] = words
    masks = np.zeros(word_index.shape, dtype=np.uint64)
    np.bitwise_or.at(masks, (rows, slots), bits)
    return word_index, masks


def run_hyptest_experiment(
    config: HypTestConfig,
    trace_path: str | None = None,
) -> HypTestReport:
    """Monte Carlo check of the post-selection false-discovery bound.

    A trial selects the first window with the most heads (``_first_max``).
    The exact tails sum_{j >= k} C(w, j) / 2^w strictly decrease in k, so
    that window has the smallest exact p-value; its reported p-value is
    that tail's rounded double.
    """
    windows = statistic_windows(config.n, config.num_stats)
    table = binomial_tail_table(windows.shape[1])
    word_index, masks = _window_masks(windows)
    key_dtype = _key_dtype(windows.shape[1], config.num_stats)
    draws_per_trial = -(-config.n // 64)
    selection_bound = cardinality_bound(config.num_stats)
    adjusted_sigma = adjusted_significance(config.delta, selection_bound)

    def block(seeds: np.ndarray):
        # every bit of a draw is a fair coin: a window's head count is the
        # popcount of its masked words
        words = _counter_mix(seeds, 0, draws_per_trial)[word_index]
        # masked in place: a second slice-sized temporary made glibc hand
        # pages back between slices, and each slice then paid page faults
        words &= masks[..., None]
        counts = np.bitwise_count(words).sum(axis=1, dtype=key_dtype)
        selected, top = _first_max(counts)
        p_min = table.take(top)
        reject_adjusted = p_min <= adjusted_sigma
        reject_raw = p_min <= config.sigma
        return (reject_adjusted, reject_raw), (selected, p_min, reject_adjusted, reject_raw)

    hits_adjusted, hits_raw = _count_trials(
        config.seed, config.trials, max(draws_per_trial, masks.size), block,
        ("trial", "selected", "p_value", "reject_adjusted", "reject_raw"), trace_path,
    )

    def check(level: float, hits: int) -> SignificanceCheck:
        bound = fdr_bound(level, selection_bound).value
        empirical, half_width, passed = _tail_check(hits, config.trials, bound)
        return SignificanceCheck(level, empirical, half_width, bound, passed)

    adjusted = check(adjusted_sigma, hits_adjusted)
    raw = check(config.sigma, hits_raw)
    return HypTestReport(
        adjusted_sigma=adjusted_sigma,
        ledger_bound_nats=selection_bound,
        adjusted=adjusted,
        raw=raw,
        passed=adjusted.passed and raw.passed,
    )
