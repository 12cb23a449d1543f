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
  histogram), else the ledger bound;

* post-selection hypothesis testing: under a fair-coin null, the
  minimum-p-value rule picks one of T coordinate-window binomial tests
  with exact tail p-values; the false-discovery frequency is compared
  against exp(log T) * sigma at both the adjusted and raw significance.

Trials are independent work items. Trial t of master seed s has the seed
derive_trial_seed(s, t), and its draw j is the SplitMix64 mix of
seed_t + (j + 1) * GOLDEN, a counter-based stream computed for a whole
block of trials at once in numpy uint64 arithmetic. Both experiments run
on one harness: ``map_chunked`` cuts the trial range into slices whose
bounds depend only on the trial count and the draws per trial, each
experiment maps a slice's seeds to boolean hit columns (and per-trial
trace columns), and the hits are added as integers in slice order, so a
report depends only on its config and seed.
"""

from __future__ import annotations

import csv
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .bounds import adjusted_significance, fdr_bound, gen_error_bound
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
from .errors import CapExceeded, LeakageLabError
from .jsonio import _read_int, _read_number
from .ledger import cardinality_bound, dp_to_leakage
from .measures import _column_max_leakage

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

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_CHUNK_TRIALS = 1024
# Most draws one slice holds: trials that draw many values each come in
# slices shorter than _CHUNK_TRIALS, so that the working set stays bounded
# whatever n is. Results depend on neither size.
_BLOCK_DRAWS = 1 << 16
CONFIDENCE = 0.99

ERM = "ERM"
EXPONENTIAL_MECHANISM = "exponential-mechanism"
# the one tie break: ties in empirical risk go to the lowest hypothesis index
TIE_BREAK = "lowest-index"


def derive_trial_seed(master_seed: int, index: int) -> int:
    """Counter-mixed per-trial seed (a SplitMix64 step).

    For a fixed master seed the map index -> seed is injective, so no
    two trials ever share a stream.
    """
    if index < 0:
        raise LeakageLabError(f"trial index must be nonnegative, got {index}")
    z = (int(master_seed) + (index + 1) * _GOLDEN) & _MASK64
    z ^= z >> 30
    z = (z * _MIX1) & _MASK64
    z ^= z >> 27
    z = (z * _MIX2) & _MASK64
    z ^= z >> 31
    return z


def _counter_mix(base: np.ndarray, first: int, count: int) -> np.ndarray:
    """SplitMix64 outputs ``mix(base + (first + j + 1) * GOLDEN)`` for j < count.

    The result has shape ``base.shape + (count,)``; uint64 arithmetic
    wraps modulo 2**64 exactly like the masked Python integers of
    ``derive_trial_seed``.
    """
    counters = np.arange(first + 1, first + count + 1, dtype=np.uint64)
    z = np.asarray(base, dtype=np.uint64)[..., None] + counters * np.uint64(_GOLDEN)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def _trial_seeds(master_seed: int, lo: int, hi: int) -> np.ndarray:
    """``derive_trial_seed(master_seed, t)`` for t in ``range(lo, hi)``, as uint64."""
    return _counter_mix(np.uint64(master_seed), lo, hi - lo)


def _uniform_block(seeds: np.ndarray, width: int) -> np.ndarray:
    """(rows, width) doubles in [0, 1): the top 53 bits of draws 0..width-1 per seed."""
    return (_counter_mix(seeds, 0, width) >> np.uint64(11)) * 2.0 ** -53


def map_chunked(worker: Callable[[int, int], object], total: int, per_trial: int = 1) -> list:
    """Results of ``worker(lo, hi)`` over consecutive slices of ``range(total)``, in order.

    A slice holds at most _CHUNK_TRIALS trials and at most _BLOCK_DRAWS
    draws of ``per_trial`` each, but never fewer than one trial; the slice
    boundaries depend only on ``total`` and ``per_trial``.
    """
    step = max(1, min(_CHUNK_TRIALS, _BLOCK_DRAWS // per_trial))
    return [worker(lo, min(lo + step, total)) for lo in range(0, total, step)]


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
    trials, which draw ``per_trial`` values each, to (boolean hit columns,
    trace columns). With ``trace_path`` every trial's trace columns make
    one CSV row under ``header``, in trial order.
    """

    def run(lo: int, hi: int):
        hits, columns = block(_trial_seeds(seed, lo, hi))
        rows = list(zip(range(lo, hi), *(c.tolist() for c in columns))) if trace_path else []
        return [int(h.sum()) for h in hits], rows

    # called through the module global, so that a wrapper installed there sees it
    results = map_chunked(run, trials, per_trial)
    if trace_path:
        with open(trace_path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            for _, rows in results:
                writer.writerows(rows)
    return [sum(column) for column in zip(*(counts for counts, _ in results))]


def data_alphabet(d: int) -> Alphabet:
    """Domain-label pairs x{i}:{b} for a domain of size d and binary labels."""
    if d < 1:
        raise LeakageLabError(f"domain size must be >= 1, got {d}")
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
        if self.epsilon is not None and (
            isinstance(self.epsilon, bool)
            or not isinstance(self.epsilon, numbers.Real)
            or not math.isfinite(self.epsilon)
        ):
            raise LeakageLabError(f"epsilon must be a finite number, got {self.epsilon!r}")
        if self.kind == EXPONENTIAL_MECHANISM:
            if self.epsilon is None or self.epsilon <= 0.0:
                raise LeakageLabError("exponential mechanism needs epsilon > 0")
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
        return cls(
            kind=str(payload["kind"]),
            hypotheses=tuple(tuple(h) for h in payload["hypothesisClass"]),
            epsilon=payload.get("epsilon"),
        )


def _check_seed(seed: int) -> int:
    """``seed`` if it is a 64-bit unsigned integer; shared by ``simulate`` and ``verify``."""
    seed = int(seed)
    if not 0 <= seed <= _MASK64:
        raise LeakageLabError("seed must be a 64-bit unsigned integer")
    return seed


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
        if self.d < 1:
            raise LeakageLabError(f"domain size must be >= 1, got {self.d}")
        if self.n < 1:
            raise LeakageLabError(f"sample size must be >= 1, got {self.n}")
        if not 0.0 < self.eta < 1.0:
            raise LeakageLabError(f"eta must lie in (0, 1), got {self.eta}")
        if self.trials < 1:
            raise LeakageLabError(f"trial count must be >= 1, got {self.trials}")
        if self.learner.domain_size != self.d:
            raise LeakageLabError("hypotheses do not cover the domain")
        # the weights exp(-epsilon * n * risk / 2) need a finite exponent scale
        if self.learner.kind == EXPONENTIAL_MECHANISM and not math.isfinite(
            0.5 * self.learner.epsilon * self.n
        ):
            raise LeakageLabError(
                f"epsilon * n / 2 overflows for epsilon = {self.learner.epsilon} and n = {self.n}"
            )
        if self.data_dist.alphabet != data_alphabet(self.d):
            raise LeakageLabError("data distribution must use the canonical x{i}:{b} symbols")
        _check_seed(self.seed)

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
            data_dist=DiscreteDistribution.from_json(payload["dataDistribution"]),
            learner=LearnerSpec.from_json(payload["learner"]),
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
        if self.n < 1:
            raise LeakageLabError(f"sample size must be >= 1, got {self.n}")
        if self.num_stats < 1:
            raise LeakageLabError(f"statistic count must be >= 1, got {self.num_stats}")
        if not 0.0 < self.sigma < 1.0:
            raise LeakageLabError(f"sigma must lie in (0, 1), got {self.sigma}")
        if not 0.0 < self.delta < 1.0:
            raise LeakageLabError(f"delta must lie in (0, 1), got {self.delta}")
        if self.trials < 1:
            raise LeakageLabError(f"trial count must be >= 1, got {self.trials}")
        _check_seed(self.seed)

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


# A single thresholded p-value at accuracy eta obeys
# P(E) <= exp(L - 2 eta^2); that is informative only when L < 2 eta^2,
# so it is surfaced as a note instead of a tested bound.
P_VALUE_NOTE = (
    "thresholding one p-value at accuracy eta obeys P(E) <= exp(L_nats - 2*eta^2); "
    "informative only when L_nats < 2*eta^2"
)


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


class _LearnerTables:
    """Precomputed loss tables shared by the type kernel and the trials."""

    def __init__(self, spec: LearnerSpec, d: int, n: int, data_dist: DiscreteDistribution):
        if len(data_dist.alphabet) != 2 * d:
            raise LeakageLabError("data alphabet must hold 2 d domain-label pairs")
        self.spec = spec
        self.n = n
        hypotheses = np.array(spec.hypotheses, dtype=np.int64)  # (H, d)
        symbols = len(data_dist.alphabet)                       # 2 d
        domain = np.arange(symbols, dtype=np.int64) // 2
        labels = np.arange(symbols, dtype=np.int64) % 2
        # loss01[s, h] = 1 when hypothesis h mislabels the pair behind symbol s
        self.loss01 = (hypotheses[:, domain].T != labels[:, None]).astype(np.float64)
        self.true_risk = self.loss01.T @ np.asarray(data_dist.probs)
        self.hypothesis_alphabet = Alphabet(
            "".join(str(v) for v in h) for h in spec.hypotheses
        )
        self.cum_probs = np.cumsum(np.asarray(data_dist.probs))

    def risks(self, counts: np.ndarray) -> np.ndarray:
        """(rows, H) empirical risks of the datasets with these symbol histograms.

        Integer misclassification counts over n, so a dataset's risks do
        not depend on the order of its draws.
        """
        return counts @ self.loss01 / self.n

    def _weights(self, empirical: np.ndarray) -> np.ndarray:
        """Exponential-mechanism weights exp(-epsilon * n * risk / 2), up to a row factor.

        Shifted by the row minimum so that the largest weight of every row is 1.
        """
        shifted = empirical - empirical.min(axis=1, keepdims=True)
        return np.exp(-0.5 * self.spec.epsilon * self.n * shifted)

    def type_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every histogram of n draws, with its (K, H) empirical risks and P(h | histogram).

        ERM rows are one-hot at the lowest-index minimizer; exponential-
        mechanism rows are the normalized weights.
        """
        counts = _histograms(len(self.cum_probs), self.n)
        empirical = self.risks(counts)
        if self.spec.kind == ERM:
            rows = np.zeros_like(empirical)
            rows[np.arange(len(empirical)), np.argmin(empirical, axis=1)] = 1.0
        else:
            rows = self._weights(empirical)
            rows /= rows.sum(axis=1, keepdims=True)
        return counts, empirical, rows

    def learn(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Picked hypothesis and its empirical risk for each row of uniforms.

        Columns ``:n`` of ``u`` draw the dataset's symbols; column ``n``
        drives the exponential mechanism's pick.
        """
        rows = len(u)
        symbols = len(self.cum_probs)
        drawn = np.searchsorted(self.cum_probs, u[:, : self.n], side="right")
        np.minimum(drawn, symbols - 1, out=drawn)
        empirical = self.risks(_count_symbols(drawn, symbols))
        if self.spec.kind == ERM:
            picks = np.argmin(empirical, axis=1)
        else:
            picks = _inverse_cdf_rows(np.cumsum(self._weights(empirical), axis=1), u[:, self.n])
        return picks, empirical[np.arange(rows), picks]


def _inverse_cdf_rows(cumulative: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per row i, ``searchsorted(cumulative[i], u[i] * cumulative[i, -1], side="right")``.

    Clipped to the last column, which a total rounded below u can overrun.
    """
    picks = (cumulative <= u[:, None] * cumulative[:, -1:]).sum(axis=1)
    return np.minimum(picks, cumulative.shape[1] - 1)


def _count_symbols(drawn: np.ndarray, symbols: int) -> np.ndarray:
    """(rows, symbols) histogram of each row of symbol indices; offsets ``drawn`` in place."""
    rows = len(drawn)
    # offset row i's symbols by i * symbols: one bincount counts every row
    drawn += symbols * np.arange(rows)[:, None]
    return np.bincount(drawn.ravel(), minlength=rows * symbols).reshape(rows, symbols)


def _type_count(symbols: int, n: int) -> int:
    """Number of histograms of n draws over ``symbols`` symbols: C(n + symbols - 1, symbols - 1)."""
    return math.comb(n + symbols - 1, symbols - 1)


def _histograms(symbols: int, n: int) -> np.ndarray:
    """All (K, symbols) histograms of n draws, in lexicographic order, by stars and bars.

    Each choice of ``symbols - 1`` bar positions among ``n + symbols - 1``
    slots is one histogram: the counts are the runs of stars between bars.
    Lexicographic bar positions give lexicographic counts.
    """
    slots = n + symbols - 1
    count = _type_count(symbols, n)
    bars = np.empty((count, symbols + 1), dtype=np.int64)
    bars[:, 0] = -1
    bars[:, -1] = slots
    bars[:, 1:-1] = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(slots), symbols - 1)),
        dtype=np.int64,
        count=count * (symbols - 1),
    ).reshape(count, symbols - 1)
    return np.diff(bars, axis=1) - 1


def _histogram_index(counts: np.ndarray) -> np.ndarray:
    """Row index in ``_histograms`` of each histogram row of ``counts``.

    The histograms that precede c and first differ from it at position i
    put fewer than c_i draws there. With r_i draws left before position i
    and k = symbols - 1 - i positions after it, they number
    C(r_i + k, k) - C(r_i - c_i + k, k) (the hockey-stick identity).
    """
    symbols = counts.shape[1]
    n = int(counts[0].sum())
    after = n - np.cumsum(counts, axis=1)  # r_i - c_i
    k = np.arange(symbols - 1, -1, -1)
    table = np.array(
        [[math.comb(m + j, j) for j in range(symbols)] for m in range(n + 1)], dtype=np.int64
    )
    return (table[after + counts, k] - table[after, k]).sum(axis=1)


def _dataset_table(spec, d, n, data_dist):
    """Loss tables, the dataset alphabet, each dataset's type index and the type table."""
    tables = _LearnerTables(spec, d, n, data_dist)
    product = ProductAlphabet(data_dist.alphabet, n)
    index = _histogram_index(_count_symbols(product.digit_matrix(), len(data_dist.alphabet)))
    _, empirical, rows = tables.type_table()
    return tables, product, index, empirical, rows


def learner_channel(spec: LearnerSpec, d: int, n: int, data_dist: DiscreteDistribution) -> Channel:
    """Exact dataset-to-hypothesis channel over all (2d)^n datasets.

    ERM rows are one-hot at the lowest-index empirical-risk minimizer;
    exponential-mechanism rows are proportional to
    exp(-epsilon * n * risk / 2). Each dataset's row is the row of its
    symbol histogram.
    """
    tables, product, index, _, rows = _dataset_table(spec, d, n, data_dist)
    return Channel(product, tables.hypothesis_alphabet, rows[index])


def generalization_event(
    spec: LearnerSpec,
    d: int,
    n: int,
    data_dist: DiscreteDistribution,
    eta: float,
) -> tuple[JointDistribution, EventMask]:
    """Materialize {(dataset, h): |true - empirical| > eta} with its joint."""
    tables, product, index, empirical, rows = _dataset_table(spec, d, n, data_dist)
    mask = np.abs(tables.true_risk[None, :] - empirical[index]) > eta
    channel = Channel(product, tables.hypothesis_alphabet, rows[index])
    prior = DiscreteDistribution(product, _iid_probs(data_dist.probs, n))
    return joint_from(prior, channel), EventMask(product, channel.output, mask)


def _ledger_bound(spec: LearnerSpec, n: int) -> float:
    candidates = [cardinality_bound(len(spec.hypotheses))]
    if spec.kind == EXPONENTIAL_MECHANISM:
        candidates.append(dp_to_leakage(spec.epsilon, n))
    return min(candidates)


def _exact_leakage(tables: _LearnerTables, data_dist: DiscreteDistribution) -> float:
    """Maximal leakage of the learner over the histograms of the supported datasets.

    A dataset's row depends only on its histogram, so the column maxima
    over the supported datasets are those over the supported histograms:
    the ones that use only symbols of positive probability.
    """
    counts, _, rows = tables.type_table()
    # validated like any channel's rows, without labelling the K types
    _check_channel_rows(rows)
    unsupported = np.asarray(data_dist.probs) == 0.0
    return _column_max_leakage(rows[~counts[:, unsupported].any(axis=1)])


def run_gen_error_experiment(
    config: GenErrConfig,
    trace_path: str | None = None,
    require_exact: bool = False,
) -> ExperimentReport:
    """Monte Carlo check of the generalization bound for one learner."""
    cap = enumeration_cap()
    tables = _LearnerTables(config.learner, config.d, config.n, config.data_dist)
    symbols = len(config.data_dist.alphabet)
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

    width = config.n + (config.learner.kind == EXPONENTIAL_MECHANISM)

    def block(seeds: np.ndarray):
        picks, empirical = tables.learn(_uniform_block(seeds, width))
        gaps = np.abs(tables.true_risk[picks] - empirical)
        hits = gaps > config.eta
        return (hits,), (picks, empirical, gaps, hits)

    (exceed,) = _count_trials(
        config.seed, config.trials, width, block,
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
    by the discrete binomial p-values.
    """
    width = min(n, max(8, n // t))
    starts = [(j * n) // t for j in range(t)]
    return np.array(
        [[(start + i) % n for i in range(width)] for start in starts], dtype=np.intp
    )


def binomial_tail_table(m: int) -> np.ndarray:
    """Exact one-sided p-values: table[k] = P(Bin(m, 1/2) >= k)."""
    weights = [math.comb(m, i) for i in range(m + 1)]
    suffix = 0
    table = np.empty(m + 1)
    for k in range(m, -1, -1):
        suffix += weights[k]
        table[k] = suffix / (1 << m)
    return table


def run_hyptest_experiment(
    config: HypTestConfig,
    trace_path: str | None = None,
) -> HypTestReport:
    """Monte Carlo check of the post-selection false-discovery bound."""
    windows = statistic_windows(config.n, config.num_stats)
    table = binomial_tail_table(windows.shape[1])
    selection_bound = cardinality_bound(config.num_stats)
    adjusted_sigma = adjusted_significance(config.delta, selection_bound)

    def block(seeds: np.ndarray):
        # the top bit of each draw is a fair coin
        bits = (_counter_mix(seeds, 0, config.n) >> np.uint64(63)).astype(np.intp)
        p_values = table[bits[:, windows].sum(axis=2)]
        selected = np.argmin(p_values, axis=1)
        p_min = p_values[np.arange(len(seeds)), selected]
        reject_adjusted = p_min <= adjusted_sigma
        reject_raw = p_min <= config.sigma
        return (reject_adjusted, reject_raw), (selected, p_min, reject_adjusted, reject_raw)

    hits_adjusted, hits_raw = _count_trials(
        config.seed, config.trials, max(config.n, windows.size), block,
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
