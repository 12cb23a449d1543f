"""Randomized property sweeps behind the ``verify`` command.

Three suites, each over independently seeded instances:

* ``soundness``: exact event probabilities of random (prior, channel,
  event) triples never exceed exp(L) * max_y P_X(E_y), and the
  identity-channel diagonal-event family attains equality;
* ``composition``: post-processing cannot increase leakage; two-step
  and three-step adaptively composed channels respect the sums of their
  per-step certificates, and the three-step chain also respects the sum
  of conditional leakages along the prefix;
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
from .simulate import derive_trial_seed

__all__ = [
    "SOUNDNESS_TOL",
    "COMPOSITION_TOL",
    "MAXINFO_TOL",
    "ENUMERATION_TOL",
    "random_distribution",
    "random_channel",
    "random_joint",
    "random_event",
    "two_step_channel",
    "three_step_channel",
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


def random_distribution(
    rng: np.random.Generator, size: int, allow_zeros: bool = False, prefix: str = "x"
) -> DiscreteDistribution:
    weights = rng.random(size) + 1e-3
    if allow_zeros and size > 1 and rng.random() < 0.5:
        kill = rng.random(size) < 0.35
        if kill.all():
            kill[int(rng.integers(size))] = False
        weights[kill] = 0.0
    return DiscreteDistribution(_named_alphabet(prefix, size), weights / weights.sum())


def random_channel(
    rng: np.random.Generator,
    inputs: int,
    outputs: int,
    allow_zeros: bool = True,
    input_alphabet: Alphabet | None = None,
    output_alphabet: Alphabet | None = None,
) -> Channel:
    rows = rng.random((inputs, outputs)) + 1e-3
    if allow_zeros:
        kill = rng.random((inputs, outputs)) < 0.3
        keep = rows.argmax(axis=1)
        kill[np.arange(inputs), keep] = False
        rows[kill] = 0.0
    rows /= rows.sum(axis=1, keepdims=True)
    return Channel(
        input_alphabet if input_alphabet is not None else _named_alphabet("x", inputs),
        output_alphabet if output_alphabet is not None else _named_alphabet("y", outputs),
        rows,
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


def two_step_channel(
    first: Channel, second_by_y: dict[str, Channel]
) -> Channel:
    """Joint channel x -> (y, z) of an adaptive pair.

    ``second_by_y[y]`` is the channel used when the first step returned
    y; the pair output carries P(y, z | x) = P(y|x) P(z|x, y).
    """
    inner = next(iter(second_by_y.values()))
    pair_alphabet = Alphabet(
        f"{y}&{z}" for y in first.output.labels for z in inner.output.labels
    )
    rows = np.empty((len(first.input), len(pair_alphabet)))
    width = len(inner.output)
    for j, y in enumerate(first.output.labels):
        block = second_by_y[y]
        if block.input != first.input or block.output != inner.output:
            raise LeakageLabError("adaptive second-step channels must share alphabets")
        rows[:, j * width : (j + 1) * width] = first.rows[:, j : j + 1] * block.rows
    return Channel(first.input, pair_alphabet, rows)


def three_step_channel(
    first: Channel,
    second_by_y: dict[str, Channel],
    third_by_yz: dict[tuple[str, str], Channel],
) -> Channel:
    """Joint channel x -> (y, z, w) of a three-step adaptive chain."""
    pair = two_step_channel(first, second_by_y)
    inner = next(iter(third_by_yz.values()))
    out_alphabet = Alphabet(
        f"{pair_label}&{w}" for pair_label in pair.output.labels for w in inner.output.labels
    )
    rows = np.empty((len(first.input), len(out_alphabet)))
    width = len(inner.output)
    for j, pair_label in enumerate(pair.output.labels):
        y, z = pair_label.split("&")
        block = third_by_yz[(y, z)]
        rows[:, j * width : (j + 1) * width] = pair.rows[:, j : j + 1] * block.rows
    return Channel(first.input, out_alphabet, rows)


def diagonal_equality_gap(max_size: int = 8) -> float:
    """Worst |bound - exact| over the uniform identity/diagonal family."""
    worst = 0.0
    for size in range(2, max_size + 1):
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
    extra: dict | None = None,
) -> dict:
    """Run instances 0 .. instances-1 into one check per named tolerance."""
    if instances < 1:
        raise LeakageLabError(f"instance count must be >= 1, got {instances}")
    checks = {name: _Check(tolerance) for name, tolerance in tolerances.items()}
    for index in range(instances):
        run_instance(index, checks)

    failures = [f for check in checks.values() for f in check.failures][:_MAX_FAILURES_KEPT]
    result = {
        "suite": suite,
        "instances": instances,
        "checks": {name: check.to_json() for name, check in checks.items()},
        "failures": failures,
        "pass": all(check.violations == 0 for check in checks.values()),
    }
    if extra:
        result.update(extra)
    return result


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

    return _run_sweep(
        "soundness",
        instances,
        {"event_bound": SOUNDNESS_TOL},
        run_instance,
        extra={"diagonal_equality_gap": diagonal_equality_gap()},
    )


def _random_adaptive_chain(rng: np.random.Generator, steps: int):
    nx = int(rng.integers(2, 5))
    x_alphabet = _named_alphabet("x", nx)
    sizes = [int(rng.integers(2, 4)) for _ in range(steps)]
    first = random_channel(rng, nx, sizes[0], input_alphabet=x_alphabet,
                           output_alphabet=_named_alphabet("y", sizes[0]))
    second_out = _named_alphabet("z", sizes[1]) if steps > 1 else None
    second = {
        y: random_channel(rng, nx, sizes[1], input_alphabet=x_alphabet,
                          output_alphabet=second_out)
        for y in first.output.labels
    } if steps > 1 else {}
    third = {}
    if steps > 2:
        third_out = _named_alphabet("w", sizes[2])
        for y in first.output.labels:
            for z in second_out.labels:
                third[(y, z)] = random_channel(
                    rng, nx, sizes[2], input_alphabet=x_alphabet, output_alphabet=third_out
                )
    return x_alphabet, first, second, third


def _max_step_leakage(channels) -> float:
    return max(maximal_leakage(ch).nats for ch in channels)


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

        # two-step adaptive pair vs per-step certificates
        _, first, second, _ = _random_adaptive_chain(rng, 2)
        pair = two_step_channel(first, second)
        k1 = maximal_leakage(first).nats
        k2 = _max_step_leakage(second.values())
        pair_leak = maximal_leakage(pair).nats
        checks["two_step"].record(
            pair_leak - (k1 + k2),
            lambda: {"instance": index, "joint": pair_leak, "budget": k1 + k2},
        )

        # three-step chain vs certificates and vs conditional leakages
        x_alphabet, first3, second3, third3 = _random_adaptive_chain(rng, 3)
        chain = three_step_channel(first3, second3, third3)
        b1 = maximal_leakage(first3).nats
        b2 = _max_step_leakage(second3.values())
        b3 = _max_step_leakage(third3.values())
        chain_leak = maximal_leakage(chain).nats
        checks["three_step"].record(
            chain_leak - (b1 + b2 + b3),
            lambda: {"instance": index, "joint": chain_leak, "budget": b1 + b2 + b3},
        )

        prior = random_distribution(rng, len(x_alphabet), allow_zeros=False)
        cond_total = _conditional_chain_total(prior, first3, second3, third3)
        checks["conditional_chain"].record(
            chain_leak - cond_total,
            lambda: {"instance": index, "joint": chain_leak, "conditional_sum": cond_total},
        )

    names = ("post_processing", "two_step", "three_step", "conditional_chain")
    return _run_sweep(
        "composition", instances, dict.fromkeys(names, COMPOSITION_TOL), run_instance
    )


def _conditional_chain_total(
    prior: DiscreteDistribution,
    first: Channel,
    second_by_y: dict[str, Channel],
    third_by_yz: dict[tuple[str, str], Channel],
) -> float:
    """Sum of per-step conditional leakages along the chain prefix."""
    xs = list(first.input.labels)
    total = maximal_leakage(first, prior.support_labels()).nats

    # step two conditions on y
    pair_labels = [(x, y) for y in first.output.labels for x in xs]
    pair_alphabet = Alphabet(f"{x}|{y}" for x, y in pair_labels)
    rows = np.vstack([second_by_y[y].rows for y in first.output.labels])
    stage_two = Channel(pair_alphabet, next(iter(second_by_y.values())).output, rows)
    support_xy = {
        (x, y)
        for i, x in enumerate(xs)
        for j, y in enumerate(first.output.labels)
        if prior.probs[i] > 0.0 and first.rows[i, j] > 0.0
    }
    total += conditional_maximal_leakage(stage_two, pair_labels, support_xy).nats

    # step three conditions on (y, z); its support also needs P(z | x, y) > 0
    triple_labels = [
        (x, f"{y}&{z}")
        for y in first.output.labels
        for z in next(iter(second_by_y.values())).output.labels
        for x in xs
    ]
    triple_alphabet = Alphabet(f"{x}|{yz}" for x, yz in triple_labels)
    blocks = []
    support_xyz = set()
    for y in first.output.labels:
        for z_index, z in enumerate(next(iter(second_by_y.values())).output.labels):
            blocks.append(third_by_yz[(y, z)].rows)
            for i, x in enumerate(xs):
                if (x, y) in support_xy and second_by_y[y].rows[i, z_index] > 0.0:
                    support_xyz.add((x, f"{y}&{z}"))
    stage_three = Channel(
        triple_alphabet, next(iter(third_by_yz.values())).output, np.vstack(blocks)
    )
    total += conditional_maximal_leakage(stage_three, triple_labels, support_xyz).nats
    return total


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
    results = [SUITES[name](instances, seed) for name in names]
    return {"suites": results, "pass": all(r["pass"] for r in results)}
