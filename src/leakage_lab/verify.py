"""Randomized property sweeps behind the ``verify`` command.

Three suites, each over independently seeded instances:

* ``soundness``: exact event probabilities of random (prior, channel,
  event) triples never exceed exp(L) * max_y P_X(E_y), and the
  identity-channel diagonal-event family attains equality;
* ``composition``: post-processing cannot increase leakage; two-step
  and three-step adaptive chains (see :func:`adaptive_channel`) respect
  the sums of their per-step certificates, and the three-step chain also
  respects the sum of conditional leakages along the prefix. Both sums
  bill each later step by the conditional maximal leakage of its stage
  channel, over all (x, prefix) pairs or over those the prior reaches;
* ``maxinfo``: budgeted max-information never exceeds leakage plus
  log(1/beta), is nonincreasing in the budget, dominates leakage at zero
  budget, and the threshold scan agrees with exhaustive enumeration.

Instance i draws its generator from the same counter-mixed seed scheme
as the simulator, so a sweep's result depends only on its seed.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .bounds import adaptive_event_bound, exact_event_probability
from .core import (
    Alphabet,
    Channel,
    DiscreteDistribution,
    EventMask,
    JointDistribution,
    compose_channels,
    fiber_max_prob,
    joint_from,
)
from .errors import LeakageLabError
from .measures import (
    approx_max_information,
    approx_max_information_by_enumeration,
    conditional_maximal_leakage,
    max_information,
    maximal_leakage,
    maximal_leakage_of_joint,
)
from .simulate import _check_seed, derive_trial_seed

__all__ = [
    "SOUNDNESS_TOL",
    "COMPOSITION_TOL",
    "MAXINFO_TOL",
    "ENUMERATION_TOL",
    "random_distribution",
    "random_channel",
    "random_joint",
    "random_event",
    "adaptive_channel",
    "diagonal_equality_gap",
    "sweep_soundness",
    "sweep_composition",
    "sweep_maxinfo",
    "run_suites",
    "SUITES",
]

SOUNDNESS_TOL = 1e-10
COMPOSITION_TOL = 1e-10
MAXINFO_TOL = 1e-10
ENUMERATION_TOL = 1e-12

_BETA_GRID = (0.01, 0.05, 0.1, 0.3)
_MAX_FAILURES_KEPT = 5


def _instance_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(derive_trial_seed(seed, index))


def _named_alphabet(prefix: str, size: int) -> Alphabet:
    return Alphabet(f"{prefix}{i}" for i in range(size))


def random_distribution(rng: np.random.Generator, size: int,
                        allow_zeros: bool = False) -> DiscreteDistribution:
    weights = rng.random(size) + 1e-3
    if allow_zeros and size > 1 and rng.random() < 0.5:
        kill = rng.random(size) < 0.35
        if kill.all():
            kill[int(rng.integers(size))] = False
        weights[kill] = 0.0
    return DiscreteDistribution(_named_alphabet("x", size), weights / weights.sum())


def _random_rows(rng: np.random.Generator, inputs: int, outputs: int):
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
        input_alphabet if input_alphabet is not None else _named_alphabet("x", inputs),
        output_alphabet if output_alphabet is not None else _named_alphabet("y", outputs),
        _random_rows(rng, inputs, outputs),
    )


def random_joint(rng: np.random.Generator, inputs: int, outputs: int) -> JointDistribution:
    mass = rng.random((inputs, outputs))
    kill = rng.random((inputs, outputs)) < 0.3
    kill.flat[int(rng.integers(mass.size))] = False
    mass[kill] = 0.0
    if mass.sum() == 0.0:
        mass.flat[0] = 1.0
    return JointDistribution(
        _named_alphabet("x", inputs), _named_alphabet("y", outputs), mass / mass.sum()
    )


def random_event(rng: np.random.Generator, inputs: int, outputs: int,
                 input_alphabet: Alphabet, output_alphabet: Alphabet) -> EventMask:
    return EventMask(input_alphabet, output_alphabet, rng.random((inputs, outputs)) < 0.5)


def _by_input(stage_rows: np.ndarray, inputs: int) -> np.ndarray:
    """Prefix-major stage rows as an (input, prefix, output) array."""
    return stage_rows.reshape(-1, inputs, stage_rows.shape[1]).transpose(1, 0, 2)


def adaptive_channel(first: Channel, *stages: Channel) -> Channel:
    """Joint channel x -> (y_1, ..., y_k) of an adaptive chain.

    Stage k >= 2 is a channel from the (x, prefix) pairs, where a prefix
    is an output of the chain so far, to y_k. Its rows are stored
    prefix-major: row p * |X| + i is P(y_k | x_i, prefix p), with the
    prefixes in the joint's output order. The joint output (prefix, y_k)
    is labelled ``prefix&y_k`` and carries P(prefix | x) P(y_k | x, prefix).
    """
    inputs = len(first.input)
    rows, labels = first.rows, first.output.labels
    for stage in stages:
        if len(stage.input) != len(labels) * inputs:
            raise LeakageLabError(f"an adaptive stage needs {len(labels) * inputs} (x, prefix) "
                                  f"rows, got {len(stage.input)}")
        rows = (rows[:, :, None] * _by_input(stage.rows, inputs)).reshape(inputs, -1)
        labels = [f"{p}&{z}" for p in labels for z in stage.output.labels]
    return Channel(first.input, Alphabet(labels), rows)


def diagonal_equality_gap() -> float:
    """Worst |bound - exact| over the uniform identity/diagonal family of sizes 2..8."""
    worst = 0.0
    for size in range(2, 9):
        alphabet = _named_alphabet("x", size)
        prior = DiscreteDistribution(alphabet, np.full(size, 1.0 / size))
        channel = Channel.identity(alphabet)
        event = EventMask.diagonal(alphabet)
        exact = exact_event_probability(joint_from(prior, channel), event)
        leakage = maximal_leakage(channel, prior.support())
        bound = adaptive_event_bound(fiber_max_prob(event, prior), leakage.nats)
        worst = max(worst, abs(bound.value - exact))
    return worst


class _Check:
    """Violation counter with the worst margin and a few kept failures."""

    def __init__(self, tolerance: float):
        self.tolerance = tolerance
        self.count = 0
        self.violations = 0
        self.worst_margin = -math.inf
        self.failures: list[dict] = []

    def record(self, margin: float, payload: Callable[[], dict]) -> None:
        self.count += 1
        if margin > self.worst_margin:
            self.worst_margin = margin
        if margin > self.tolerance:
            self.violations += 1
            if len(self.failures) < _MAX_FAILURES_KEPT:
                self.failures.append(payload())

    def to_json(self) -> dict:
        return {
            "count": self.count,
            "violations": self.violations,
            "worst_margin": self.worst_margin,
            "tolerance": self.tolerance,
        }


def _run_sweep(
    suite: str,
    instances: int,
    tolerances: dict[str, float],
    run_instance: Callable[[int, dict[str, _Check]], None],
) -> dict:
    """Run instances 0 .. instances-1 into one check per named tolerance."""
    if instances < 1:
        raise LeakageLabError(f"instance count must be >= 1, got {instances}")
    checks = {name: _Check(tolerance) for name, tolerance in tolerances.items()}
    for index in range(instances):
        run_instance(index, checks)

    failures = [f for check in checks.values() for f in check.failures][:_MAX_FAILURES_KEPT]
    return {
        "suite": suite,
        "instances": instances,
        "checks": {name: check.to_json() for name, check in checks.items()},
        "failures": failures,
        "pass": all(check.violations == 0 for check in checks.values()),
    }


def sweep_soundness(instances: int, seed: int) -> dict:
    """Adaptive event bound vs exact probability on random instances."""

    def run_instance(index, checks):
        rng = _instance_rng(seed, index)
        nx = int(rng.integers(2, 9))
        ny = int(rng.integers(2, 9))
        prior = random_distribution(rng, nx, allow_zeros=True)
        channel = random_channel(rng, nx, ny, input_alphabet=prior.alphabet)
        event = random_event(rng, nx, ny, prior.alphabet, channel.output)
        exact = exact_event_probability(joint_from(prior, channel), event)
        leakage = maximal_leakage(channel, prior.support())
        bound = adaptive_event_bound(fiber_max_prob(event, prior), leakage.nats)
        checks["event_bound"].record(
            exact - bound.value,
            lambda: {
                "instance": index,
                "exact": exact,
                "bound": bound.value,
                "prior": prior.to_json(),
                "channel": channel.to_json(),
                "event": event.to_json(),
            },
        )

    result = _run_sweep("soundness", instances, {"event_bound": SOUNDNESS_TOL}, run_instance)
    result["diagonal_equality_gap"] = diagonal_equality_gap()
    return result


def _random_stages(rng: np.random.Generator, steps: int) -> list[Channel]:
    """First channel x -> y and the stage channels of a random adaptive chain.

    Stage k >= 2 holds one random block of rows per prefix, drawn in the
    joint's output order (see :func:`adaptive_channel`); its inputs are
    labelled ``x|p`` for prefix index p.
    """
    nx = int(rng.integers(2, 5))
    sizes = [int(rng.integers(2, 4)) for _ in range(steps)]
    chain = [random_channel(rng, nx, sizes[0])]
    prefixes = sizes[0]
    for size, name in zip(sizes[1:], "zw"):
        rows = np.vstack([_random_rows(rng, nx, size) for _ in range(prefixes)])
        pairs = Alphabet(f"{x}|{p}" for p in range(prefixes) for x in chain[0].input.labels)
        chain.append(Channel(pairs, _named_alphabet(name, size), rows))
        prefixes *= size
    return chain


def _stage_pairs(stage: Channel, first: Channel) -> list[tuple[str, int]]:
    """(x, prefix index) of each row of a prefix-major stage of the chain that ``first`` starts."""
    xs = first.input.labels
    return [(x, p) for p in range(len(stage.input) // len(xs)) for x in xs]


def _certificate_total(first: Channel, stages: list[Channel]) -> float:
    """Sum, in step order, of per-step certificates: step k's worst leakage over every prefix."""
    steps = (conditional_maximal_leakage(s, _stage_pairs(s, first)).nats for s in stages)
    return sum(steps, maximal_leakage(first).nats)


def _conditional_chain_total(
    prior: DiscreteDistribution, first: Channel, stages: list[Channel]
) -> float:
    """Sum of per-step conditional leakages along the chain prefix.

    Step k conditions on its prefix and sees only the (x, prefix) pairs
    that the prior and the earlier steps reach with positive probability.
    """
    nx = len(first.input)
    total = maximal_leakage(first, prior.support_labels()).nats
    reached = (prior.probs > 0.0)[:, None] & (first.rows > 0.0)  # (x, prefix)
    for stage in stages:
        pairs = _stage_pairs(stage, first)
        support = [pair for pair, on in zip(pairs, reached.T.ravel()) if on]
        total += conditional_maximal_leakage(stage, pairs, support).nats
        step = _by_input(stage.rows, nx) > 0.0  # (x, prefix, output)
        reached = (reached[:, :, None] & step).reshape(nx, -1)
    return total


def sweep_composition(instances: int, seed: int) -> dict:
    """Post-processing and adaptive-composition inequalities."""

    def run_instance(index, checks):
        rng = _instance_rng(seed, index)

        # post-processing: a cascade never leaks more than its first stage
        nx, ny, nz = (int(rng.integers(2, 7)) for _ in range(3))
        a = random_channel(rng, nx, ny)
        b = random_channel(rng, ny, nz, input_alphabet=a.output)
        cascade = compose_channels(a, b)
        la = maximal_leakage(a).nats
        lc = maximal_leakage(cascade).nats
        checks["post_processing"].record(
            lc - la,
            lambda: {"instance": index, "first": la, "cascade": lc, "a": a.to_json(), "b": b.to_json()},
        )

        # two- and three-step chains vs the sums of their per-step
        # certificates; the three-step chain also vs its conditional leakages
        for name, steps in (("two_step", 2), ("three_step", 3)):
            first, *stages = _random_stages(rng, steps)
            joint = maximal_leakage(adaptive_channel(first, *stages)).nats
            budget = _certificate_total(first, stages)
            checks[name].record(
                joint - budget,
                lambda: {"instance": index, "joint": joint, "budget": budget},
            )

        prior = random_distribution(rng, len(first.input), allow_zeros=False)
        cond_total = _conditional_chain_total(prior, first, stages)
        checks["conditional_chain"].record(
            joint - cond_total,
            lambda: {"instance": index, "joint": joint, "conditional_sum": cond_total},
        )

    names = ("post_processing", "two_step", "three_step", "conditional_chain")
    return _run_sweep(
        "composition", instances, dict.fromkeys(names, COMPOSITION_TOL), run_instance
    )


_JOINT_SHAPES = ((2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3))


def sweep_maxinfo(instances: int, seed: int) -> dict:
    """Budgeted max-information inequalities and the enumeration cross-check."""

    def run_instance(index, checks):
        rng = _instance_rng(seed, index)
        nx, ny = _JOINT_SHAPES[int(rng.integers(len(_JOINT_SHAPES)))]
        joint = random_joint(rng, nx, ny)
        leakage = maximal_leakage_of_joint(joint).nats
        exact_info = max_information(joint)
        checks["dominates_leakage"].record(
            leakage - exact_info,
            lambda: {"instance": index, "leakage": leakage, "max_information": exact_info},
        )
        previous = None
        for beta in _BETA_GRID:
            value = approx_max_information(joint, beta)
            enumerated = approx_max_information_by_enumeration(joint, beta)
            if math.isinf(value) or math.isinf(enumerated):
                gap = 0.0 if value == enumerated else math.inf
            else:
                gap = abs(value - enumerated)
            checks["enumeration_match"].record(
                gap,
                lambda: {
                    "instance": index,
                    "beta": beta,
                    "scan": repr(value),
                    "enumeration": repr(enumerated),
                    "joint": joint.to_json(),
                },
            )
            if not math.isinf(value):
                checks["leakage_budget"].record(
                    value - (leakage + math.log(1.0 / beta)),
                    lambda: {
                        "instance": index,
                        "beta": beta,
                        "approx_max_information": value,
                        "budget": leakage + math.log(1.0 / beta),
                        "joint": joint.to_json(),
                    },
                )
            if previous is not None and not math.isinf(previous):
                checks["beta_monotone"].record(
                    value - previous,
                    lambda: {"instance": index, "beta": beta, "previous": previous, "value": value},
                )
            previous = value

    tolerances = {
        "leakage_budget": MAXINFO_TOL,
        "enumeration_match": ENUMERATION_TOL,
        "beta_monotone": ENUMERATION_TOL,
        "dominates_leakage": MAXINFO_TOL,
    }
    return _run_sweep("maxinfo", instances, tolerances, run_instance)


SUITES = {
    "soundness": sweep_soundness,
    "composition": sweep_composition,
    "maxinfo": sweep_maxinfo,
}


def run_suites(names, instances: int, seed: int) -> dict:
    """Run the requested suites and bundle their results."""
    _check_seed(seed)
    results = [SUITES[name](instances, seed) for name in names]
    return {"suites": results, "pass": all(r["pass"] for r in results)}
