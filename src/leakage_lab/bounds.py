"""Tail and error bounds driven by leakage, DP, or mutual information.

Each bound returns a :class:`BoundReport` carrying the computed value,
the named inputs, and a ``trivial`` flag set when a probability bound is
>= 1 (the value is reported as computed, never clamped). The core
inequalities:

* adaptive event bound      P(E) <= exp(L) * max_y P_X(E_y);
* one-sided McDiarmid tail  exp(-2 t^2 / (n c^2)) for c-sensitive maps;
* generalization error      P(|true - empirical| > eta)
                              <= 2 exp(L - 2 n eta^2)        (c = 1/n)
                              <= 2 exp(L - 2 eta^2 / (c^2 n)) (general c);
* post-selection testing    P(false discovery) <= exp(L) * sigma, with
  the significance adjustment sigma = delta * exp(-L);
* a DP-only reference bound 3 sqrt(beta), valid while
  epsilon <= sqrt(ln(1/beta) / (2 n));
* a mutual-information bound (I + log 2) / (2 n eta^2 - log 2);
* sample-complexity estimates for both leakage and MI accounting.

Comparison helpers report both sides and the algebraic crossover
condition; they never declare a universal winner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from . import _EXPORTS
from .errors import (
    AlphabetMismatch,
    DenominatorNonPositive,
    Infeasible,
    LeakageLabError,
    NegativeEpsilon,
    NonPositiveSensitivity,
    _count,
    _within,
)

if TYPE_CHECKING:
    from .core import EventMask, JointDistribution

__all__ = _EXPORTS["bounds"]


@dataclass(frozen=True)
class BoundReport:
    """A named bound value with its inputs; probability bounds >= 1 are trivial."""

    name: str
    value: float
    inputs: Mapping[str, float]
    trivial: bool
    flags: Mapping[str, object] | None = None

    def __post_init__(self):
        if not self.value >= 0.0:
            raise LeakageLabError(f"bound {self.name!r} computed {self.value}, not a nonnegative number")
        if math.isinf(self.value):
            raise Infeasible(f"bound {self.name!r} is too large to represent")
        object.__setattr__(self, "inputs", dict(self.inputs))
        if self.flags is not None:
            object.__setattr__(self, "flags", dict(self.flags))

    def to_json(self) -> dict:
        payload = {
            "name": self.name,
            "value": self.value,
            "inputs": dict(self.inputs),
            "trivial": self.trivial,
        }
        if self.flags is not None:
            payload["flags"] = dict(self.flags)
        return payload


def _probability_report(name, value, inputs, flags=None) -> BoundReport:
    return BoundReport(name, value, inputs, trivial=value >= 1.0, flags=flags)


def _check_sensitivity(c: float, n: int) -> float:
    """``c`` if it is positive and the denominator c^2 n is not zero."""
    _within(c, "sensitivity", "(0, inf)", NonPositiveSensitivity)
    if c * c * n == 0.0:
        raise DenominatorNonPositive(f"c^2 n underflows to zero at c = {c}, n = {n}")
    return float(c)


def _exp_report(name: str, coefficient: float, exponent: float, inputs) -> BoundReport:
    """Probability bound ``name`` of value coefficient * exp(exponent).

    Where exp(exponent) overflows, a zero coefficient still gives 0 and a
    positive one gives exp(exponent + log(coefficient)). A value that
    overflows even so is infinite, which :class:`BoundReport` refuses by name.
    """
    try:
        value = coefficient * math.exp(exponent)
    except OverflowError:
        try:
            value = math.exp(exponent + math.log(coefficient)) if coefficient else 0.0
        except OverflowError:
            value = math.inf
    return _probability_report(name, value, inputs)


def adaptive_event_bound(max_fiber_prob: float, leakage_nats: float) -> BoundReport:
    """P(E) <= exp(L) * max_y P_X(E_y) for adaptively chosen events."""
    _within(max_fiber_prob, "fiber probability", "[0, 1]")
    leakage_nats = float(_within(leakage_nats, "leakage", "[0, inf)"))
    return _exp_report(
        "adaptive-event",
        max_fiber_prob,
        leakage_nats,
        {"max_fiber_prob": float(max_fiber_prob), "L_nats": leakage_nats},
    )


def exact_event_probability(joint: JointDistribution, event: EventMask) -> float:
    """Brute-force P(E): total joint mass inside the mask."""
    if joint.input != event.input or joint.output != event.output:
        raise AlphabetMismatch("event mask is indexed by different alphabets")
    from .core import _event_mass

    return float(_event_mass(joint.mass[None], event.mask[None])[0])


def mcdiarmid_tail(n: int, t: float, c: float) -> float:
    """One-sided bounded-differences tail exp(-2 t^2 / (n c^2))."""
    n = _count(n, "sample size")
    _within(t, "deviation", "[0, inf)")
    c = _check_sensitivity(c, n)
    return math.exp(-2.0 * t * t / (n * c * c))


def gen_error_bound(n: int, eta: float, leakage_nats: float) -> BoundReport:
    """Two-sided generalization bound 2 exp(L - 2 n eta^2) for 1/n-sensitive risks."""
    n = _count(n, "sample size")
    eta = float(_within(eta, "accuracy eta", "(0, 1)"))
    leakage_nats = float(_within(leakage_nats, "leakage", "[0, inf)"))
    return _exp_report(
        "generalization-error",
        2.0,
        leakage_nats - 2.0 * n * eta * eta,
        {"n": n, "eta": eta, "L_nats": leakage_nats},
    )


def gen_error_bound_sensitivity(n: int, eta: float, c: float, leakage_nats: float) -> BoundReport:
    """Generalization bound 2 exp(L - 2 eta^2 / (c^2 n)) for c-sensitive risks."""
    n = _count(n, "sample size")
    # risks with general sensitivity c are not confined to [0, 1]
    eta = float(_within(eta, "accuracy eta", "(0, inf)"))
    c = _check_sensitivity(c, n)
    leakage_nats = float(_within(leakage_nats, "leakage", "[0, inf)"))
    return _exp_report(
        "generalization-error-sensitivity",
        2.0,
        leakage_nats - 2.0 * eta * eta / (c * c * n),
        {"n": n, "eta": eta, "c": c, "L_nats": leakage_nats},
    )


def dp_sensitivity_reference_bound(n: int, eta: float, c: float) -> float:
    """DP-literature tail 3 exp(-eta^2 / (c^2 n)) used for comparisons."""
    n = _count(n, "sample size")
    eta = float(_within(eta, "accuracy eta", "(0, inf)"))
    c = _check_sensitivity(c, n)
    return 3.0 * math.exp(-eta * eta / (c * c * n))


def compare_sensitivity_bounds(n: int, eta: float, c: float, leakage_nats: float) -> dict:
    """Evaluate both c-sensitive tails; reports numbers, not a verdict."""
    ours = gen_error_bound_sensitivity(n, eta, c, leakage_nats)
    reference = dp_sensitivity_reference_bound(n, eta, c)
    return {
        "leakage_bound": ours.value,
        "dp_reference_bound": reference,
        "leakage_bound_smaller": bool(ours.value < reference),
    }


# A single thresholded p-value at accuracy eta obeys
# P(E) <= exp(L - 2 eta^2); that is informative only when L < 2 eta^2,
# so it is surfaced as a note instead of a tested bound.
P_VALUE_NOTE = (
    "thresholding one p-value at accuracy eta obeys P(E) <= exp(L_nats - 2*eta^2); "
    "informative only when L_nats < 2*eta^2"
)


def adjusted_significance(delta: float, leakage_nats: float) -> float:
    """Per-test significance delta * exp(-L) that survives selection."""
    _within(delta, "target significance", "(0, 1]")
    leakage_nats = float(_within(leakage_nats, "leakage", "[0, inf)"))
    return delta * math.exp(-leakage_nats)


def fdr_bound(sigma: float, leakage_nats: float) -> BoundReport:
    """P(false discovery) <= exp(L) * sigma after adaptive selection."""
    _within(sigma, "significance", "[0, 1]")
    leakage_nats = float(_within(leakage_nats, "leakage", "[0, inf)"))
    return _exp_report(
        "false-discovery",
        sigma,
        leakage_nats,
        {"sigma": float(sigma), "L_nats": leakage_nats},
    )


def dwork_dp_bound(beta: float, epsilon: float, n: int) -> BoundReport:
    """DP-only generalization bound 3 sqrt(beta).

    The flag records whether epsilon <= sqrt(ln(1/beta) / (2 n)), the
    regime in which the bound is stated, and the inputs carry the
    crossover epsilon log(3 / sqrt(beta)) / n below which this bound can
    beat an exp(-n (2 eta^2 - epsilon)) style leakage bound.
    """
    _within(beta, "beta", "(0, 1)")
    _within(epsilon, "epsilon", "[0, inf)", NegativeEpsilon)
    n = _count(n, "sample size")
    value = 3.0 * math.sqrt(beta)
    epsilon_ceiling = math.sqrt(-math.log(beta) / (2.0 * n))
    crossover = math.log(3.0 / math.sqrt(beta)) / n
    return _probability_report(
        "dp-generalization",
        value,
        {
            "beta": float(beta),
            "epsilon": float(epsilon),
            "n": n,
            "epsilon_validity_ceiling": epsilon_ceiling,
            "crossover_epsilon": crossover,
        },
        flags={"epsilon_within_validity": bool(epsilon <= epsilon_ceiling)},
    )


def mi_gen_bound(mi_nats: float, n: int, eta: float) -> BoundReport:
    """Mutual-information tail (I + log 2) / (2 n eta^2 - log 2)."""
    _within(mi_nats, "mutual information", "[0, inf)")
    n = _count(n, "sample size")
    eta = float(_within(eta, "accuracy eta", "(0, 1)"))
    denominator = 2.0 * n * eta * eta - math.log(2.0)
    if denominator <= 0.0:
        raise DenominatorNonPositive(
            f"2 n eta^2 = {2.0 * n * eta * eta} must exceed log 2"
        )
    value = (mi_nats + math.log(2.0)) / denominator
    return _probability_report(
        "mutual-information-generalization",
        value,
        {"I_nats": float(mi_nats), "n": n, "eta": eta},
    )


def sample_complexity(value_nats: float, eta: float, delta: float, mode: str) -> float:
    """Samples sufficient for accuracy eta at confidence 1 - delta.

    ``mode="leakage"`` uses (L + ln(1/delta)) / eta^2;
    ``mode="mutual-info"`` uses I / (eta^2 * delta).
    """
    _within(value_nats, "information value", "[0, inf)")
    eta = float(_within(eta, "accuracy eta", "(0, 1)"))
    _within(delta, "failure probability", "(0, 1)")
    if mode == "leakage":
        numerator, denominator = value_nats - math.log(delta), eta * eta
    elif mode == "mutual-info":
        numerator, denominator = value_nats, eta * eta * delta
    else:
        raise LeakageLabError(f"unknown sample-complexity mode {mode!r}")
    if denominator == 0.0:
        raise DenominatorNonPositive(
            f"sample-complexity denominator underflows to zero at eta = {eta}, delta = {delta}"
        )
    samples = numerator / denominator
    if math.isinf(samples):
        raise Infeasible(f"sample complexity at eta = {eta} overflows")
    return samples
