"""Independent ground truth for the benchmark's correctness checks.

Nothing here imports ``leakage_lab``. Each function recomputes, by a
different route than the program, a value the program reports:

* type-class enumeration for the generalization experiment: ERM and the
  exponential mechanism see a dataset only through its symbol histogram,
  so every quantity that the program enumerates over all (2d)^n datasets
  is a multinomially weighted sum or a max over the C(n + 2d - 1, 2d - 1)
  histograms (types);
* inclusion-exclusion over the 2^T subsets of statistic windows for the
  exact false-discovery probability of the hypothesis-testing experiment;
* a sorted cumulative scan for budgeted max-information;
* closed forms for the ``bound`` command.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

ERM = "ERM"
EXPONENTIAL_MECHANISM = "exponential-mechanism"


# ----------------------------------------------------------------------
# generalization experiment over types


def symbol_losses(hypotheses) -> np.ndarray:
    """(2d, H) integer 0/1 loss of hypothesis h on symbol s = x{s//2}:{s%2}."""
    hyp = np.asarray(hypotheses, dtype=np.int64)
    d = hyp.shape[1]
    symbols = np.arange(2 * d)
    return (hyp[:, symbols // 2].T != (symbols % 2)[:, None]).astype(np.int64)


def types(symbols: int, n: int) -> np.ndarray:
    """All histograms of n draws over ``symbols`` symbols, shape (K, symbols)."""
    rows = []
    for bars in itertools.combinations(range(n + symbols - 1), symbols - 1):
        edges = (-1, *bars, n + symbols - 1)
        rows.append([edges[i + 1] - edges[i] - 1 for i in range(symbols)])
    return np.array(rows, dtype=np.int64)


def _log_multinomial(counts: np.ndarray) -> np.ndarray:
    n = int(counts[0].sum())
    return math.lgamma(n + 1) - np.vectorize(math.lgamma)(counts + 1.0).sum(axis=1)


def learner_rows(kind: str, epsilon: float | None, errors: np.ndarray) -> np.ndarray:
    """P(h | type) from integer error counts, shape (K, H).

    ERM picks the lowest-index minimizer; the exponential mechanism
    weighs h by exp(-epsilon * errors / 2), shifted by the row minimum so
    that no weight underflows.
    """
    if kind == ERM:
        rows = np.zeros(errors.shape)
        rows[np.arange(len(errors)), np.argmin(errors, axis=1)] = 1.0
        return rows
    shifted = errors - errors.min(axis=1, keepdims=True)
    weights = np.exp(-0.5 * epsilon * shifted)
    return weights / weights.sum(axis=1, keepdims=True)


class TypeClassLearner:
    """Exact quantities of one learner on n i.i.d. draws, computed over types."""

    def __init__(self, kind, hypotheses, epsilon, probs, n):
        self.n = n
        self.probs = np.asarray(probs, dtype=np.float64)
        self.loss = symbol_losses(hypotheses)                  # (S, H)
        self.counts = types(len(self.probs), n)                # (K, S)
        self.errors = self.counts @ self.loss                  # (K, H)
        self.rows = learner_rows(kind, epsilon, self.errors)   # (K, H)
        positive = self.probs > 0.0
        # a type is in the prior's support when it only uses positive symbols
        self.in_support = np.all(positive[None, :] | (self.counts == 0), axis=1)
        log_p = np.log(np.where(positive, self.probs, 1.0))
        log_mass = _log_multinomial(self.counts) + self.counts @ log_p
        self.type_mass = np.where(self.in_support, np.exp(log_mass), 0.0)
        self.true_risk = self.loss.T.astype(np.float64) @ self.probs

    def leakage(self) -> float:
        """log sum_h max over supported types of P(h | type)."""
        return math.log(float(self.rows[self.in_support].max(axis=0).sum()))

    def event_probability(self, eta: float) -> float:
        """P(|true risk - empirical risk| > eta) of the learner's output."""
        gap = np.abs(self.true_risk[None, :] - self.errors / self.n)
        return float(self.type_mass @ (self.rows * (gap > eta)).sum(axis=1))

    def empirical_dp(self) -> float:
        """max log P(h|c) / P(h|c') over types c and neighbours c' = c - e_a + e_b."""
        index = {tuple(c): i for i, c in enumerate(self.counts.tolist())}
        symbols = self.counts.shape[1]
        with np.errstate(divide="ignore"):
            log_rows = np.log(self.rows)
        best = 0.0
        for i, c in enumerate(self.counts.tolist()):
            for a, b in itertools.permutations(range(symbols), 2):
                if c[a] == 0:
                    continue
                moved = list(c)
                moved[a] -= 1
                moved[b] += 1
                j = index[tuple(moved)]
                hot = self.rows[i] > 0.0
                if np.any(hot & (self.rows[j] == 0.0)):
                    return math.inf
                best = max(best, float((log_rows[i][hot] - log_rows[j][hot]).max()))
        return best


def gen_error_bound(n: int, eta: float, leakage: float) -> float:
    return 2.0 * math.exp(leakage - 2.0 * n * eta * eta)


# ----------------------------------------------------------------------
# per-dataset channel and joint, written as the enumeration workload's inputs


def dataset_counts(symbols: int, n: int) -> np.ndarray:
    """(symbols^n, symbols) histogram of every dataset, lexicographic order."""
    index = np.arange(symbols**n, dtype=np.int64)
    counts = np.zeros((symbols**n, symbols), dtype=np.int64)
    for pos in range(n):
        digit = (index // symbols ** (n - 1 - pos)) % symbols
        counts[np.arange(symbols**n), digit] += 1
    return counts


# ----------------------------------------------------------------------
# post-selection hypothesis testing


def windows(n: int, t: int) -> list[list[int]]:
    """Evenly spaced, wrapping coordinate windows at least 8 wide."""
    width = min(n, max(8, n // t))
    return [[((j * n) // t + i) % n for i in range(width)] for j in range(t)]


def rejection_threshold(width: int, level: float) -> int:
    """Smallest count k with P(Bin(width, 1/2) >= k) <= level (width + 1 if none)."""
    tail = Fraction(0)
    threshold = width + 1
    for k in range(width, -1, -1):
        tail += Fraction(math.comb(width, k), 2**width)
        if tail > Fraction(level):
            break
        threshold = k
    return threshold


def _binomial_sf_table(m: int) -> np.ndarray:
    """table[r] = P(Bin(m, 1/2) >= r) for r = 0..m+1."""
    table = np.zeros(m + 2)
    for r in range(m + 1):
        table[r] = sum(math.comb(m, i) for i in range(r, m + 1)) / 2**m
    return table


def _window_hit_given_shared(n: int, t: int, level: float) -> np.ndarray:
    """Q[a, j] = P(window j rejects | bits on shared coordinates = assignment a)."""
    wins = windows(n, t)
    cover = np.zeros(n, dtype=np.int64)
    for w in wins:
        cover[list(set(w))] += 1
    shared = [c for c in range(n) if cover[c] >= 2]
    bits = (np.arange(2 ** len(shared))[:, None] >> np.arange(len(shared))) & 1
    q = np.empty((len(bits), t))
    for j, w in enumerate(wins):
        members = set(w)
        inside = [k for k, c in enumerate(shared) if c in members]
        private = len(members) - len(inside)
        need = rejection_threshold(len(w), level) - bits[:, inside].sum(axis=1)
        table = _binomial_sf_table(private)
        q[:, j] = table[np.clip(need, 0, private + 1)]
    return q


def false_discovery_probability(n: int, t: int, level: float) -> float:
    """P(min window p-value <= level) under fair coins, by inclusion-exclusion."""
    q = _window_hit_given_shared(n, t, level)
    total = 0.0

    def visit(start: int, product: np.ndarray, size: int):
        nonlocal total
        for j in range(start, t):
            term = product * q[:, j]
            total += (1.0 if size % 2 == 0 else -1.0) * float(term.mean())
            visit(j + 1, term, size + 1)

    visit(0, np.ones(len(q)), 0)
    return total


def false_discovery_probability_by_complement(n: int, t: int, level: float) -> float:
    """Second route: 1 - E[prod_j (1 - Q_j)] over the shared assignments."""
    q = _window_hit_given_shared(n, t, level)
    return float(1.0 - np.prod(1.0 - q, axis=1).mean())


# ----------------------------------------------------------------------
# measures on explicit matrices


def maximal_leakage(rows: np.ndarray) -> float:
    return math.log(float(np.max(rows, axis=0).sum()))


def mutual_information(mass: np.ndarray) -> float:
    px = mass.sum(axis=1)
    py = mass.sum(axis=0)
    total = 0.0
    for i, j in zip(*np.nonzero(mass)):
        total += mass[i, j] * math.log(mass[i, j] / (px[i] * py[j]))
    return max(total, 0.0)


def max_information(mass: np.ndarray) -> float:
    px = mass.sum(axis=1)
    py = mass.sum(axis=0)
    best = max(
        math.log(mass[i, j] / (px[i] * py[j])) for i, j in zip(*np.nonzero(mass))
    )
    return max(best, 0.0)


def approx_max_information(mass: np.ndarray, beta: float) -> float:
    """log max over ratio-sorted prefixes O with p(O) > beta of (p(O) - beta) / q(O)."""
    p = mass.reshape(-1)
    q = np.outer(mass.sum(axis=1), mass.sum(axis=0)).reshape(-1)
    keep = p > 0.0
    p, q = p[keep], q[keep]
    order = np.lexsort((np.arange(p.size), -(p / q)))
    cum_p = np.cumsum(p[order])
    cum_q = np.cumsum(q[order])
    feasible = cum_p > beta
    return math.log(float(((cum_p[feasible] - beta) / cum_q[feasible]).max()))


# ----------------------------------------------------------------------
# closed-form bounds, keyed by the ``bound --theorem`` name


def bound_value(theorem: str, a: dict) -> float:
    if theorem == "adapt":
        return math.exp(a["leakage"]) * a["max_fiber_prob"]
    if theorem == "generr":
        return gen_error_bound(a["n"], a["eta"], a["leakage"])
    if theorem == "generr-c":
        return 2.0 * math.exp(a["leakage"] - 2.0 * a["eta"] ** 2 / (a["sensitivity"] ** 2 * a["n"]))
    if theorem == "hyptest":
        return math.exp(a["leakage"]) * a["sigma"]
    if theorem == "dwork":
        return 3.0 * math.sqrt(a["beta"])
    if theorem == "mi":
        return (a["mutual_info"] + math.log(2.0)) / (2.0 * a["n"] * a["eta"] ** 2 - math.log(2.0))
    if theorem == "sample-complexity":
        if a["mode"] == "leakage":
            return (a["value"] + math.log(1.0 / a["delta"])) / a["eta"] ** 2
        return a["value"] / (a["eta"] ** 2 * a["delta"])
    raise ValueError(f"unknown theorem {theorem!r}")
