"""Randomized property sweeps behind the ``verify`` command.

Three suites, each over independently drawn instances:

* ``soundness``: exact event probabilities of random (prior, channel,
  event) triples never exceed exp(L) * max_y P_X(E_y), and each one's
  twin, with the same channel, the uniform prior on the prior's support
  S and at each live output y the cell of the largest P(y|x) over S
  (ties to the lowest x), attains it within ``SOUNDNESS_TOL``; the
  ``diagonal_equality_gap`` is the worst |bound - exact| over every twin;
* ``composition``: post-processing cannot increase leakage; two- and
  three-step adaptive chains (see ``core.adaptive_channel``) respect the
  sums of their per-step certificates, each later step billed by the
  conditional leakage of its stage over all (x, prefix) pairs, and the
  three-step chain the sum over the pairs that the prior reaches;
* ``maxinfo``: budgeted max-information never exceeds leakage plus
  log(1/beta), is nonincreasing in the budget, dominates leakage at zero
  budget, and the threshold scan agrees with exhaustive enumeration.

Instance i of a sweep with seed s draws column i of the counter stream
``_uniform_block(_trial_seeds(s, 0, instances), width)`` (see
``_stream``), read only through ``_Draws``, so its draws depend only on
(s, i). Instances are drawn a slice at once, padded with zero rows and
columns to the suite's largest shape, and checked on the stacked arrays
through the kernels that the single-object measures call with a batch of
one; no check depends on which other instances share its slice. Failure payloads are
Channel, JointDistribution and EventMask JSON, built only when kept.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import _EXPORTS
from ._stream import _check_seed, _Draws, _trial_seeds, _uniform_block, map_chunked
from .core import (
    Alphabet,
    Channel,
    DiscreteDistribution,
    EventMask,
    JointDistribution,
    _chain_rows,
    _check_channel_rows,
    _event_mass,
    _fiber_max,
)
from .errors import _count
from .measures import (
    _approx_max_div_enumerated,
    _approx_max_div_scan,
    _joint_leakage,
    _joint_product_vectors,
    _max_information,
    _section_leakage,
)

__all__ = _EXPORTS["verify"]

SOUNDNESS_TOL = 1e-10
COMPOSITION_TOL = 1e-10
MAXINFO_TOL = 1e-10
ENUMERATION_TOL = 1e-12

_BETA_GRID = (0.01, 0.05, 0.1, 0.3)
_MAX_FAILURES_KEPT = 5


def _named_alphabet(prefix: str, size: int) -> Alphabet:
    return Alphabet(f"{prefix}{i}" for i in range(size))


def _live(sizes: np.ndarray, width: int) -> np.ndarray:
    """(instances, width) mask of the first ``sizes[i]`` positions."""
    return np.arange(width) < sizes[:, None]


def _distribution(draws: _Draws, live: np.ndarray, allow_zeros: bool) -> np.ndarray:
    """A probability row on the live positions of each row of ``live``, zero elsewhere.

    With ``allow_zeros``, half of the rows lose about 35% of their entries, but one stays.
    """
    weights = np.where(live, draws.uniform(live.shape[1]) + 1e-3, 0.0)
    if allow_zeros:
        kill = (draws.uniform(1) < 0.5) & (draws.uniform(live.shape[1]) < 0.35)
        kill[np.arange(len(live)), draws.integers(live.sum(axis=1))] = False
        weights[kill] = 0.0
    probs = weights / weights.sum(axis=1, keepdims=True)
    _check_channel_rows(probs)
    return probs


def _stochastic_rows(draws: _Draws, live_rows: np.ndarray, live_cols: np.ndarray) -> np.ndarray:
    """Row-stochastic rows on the live (instances, ..., rows) x (instances, columns) rectangles.

    About 30% of the entries are zero, but every live row keeps its largest.
    """
    shape = live_rows.shape[1:] + live_cols.shape[1:]
    cols = live_cols.reshape(len(live_cols), *(1,) * (live_rows.ndim - 1), -1)
    rows = np.where(live_rows[..., None] & cols, draws.uniform(*shape) + 1e-3, 0.0)
    kill = draws.uniform(*shape) < 0.3
    np.put_along_axis(kill, rows.argmax(axis=-1)[..., None], False, axis=-1)
    rows[kill] = 0.0
    sums = rows.sum(axis=-1, keepdims=True)
    rows = np.divide(rows, sums, out=rows, where=sums > 0.0)
    _check_channel_rows(rows, live_rows)
    return rows


def _leakage(rows: np.ndarray, support: np.ndarray | None = None) -> np.ndarray:
    """Maximal leakage of each stacked channel over ``support``, or over all rows (padding is 0)."""
    return _section_leakage(rows[:, None], None if support is None else support[:, None])


def _event_bounds(prior: np.ndarray, rows: np.ndarray, event: np.ndarray):
    """Exact P(E) and the bound exp(L) * max_y P_X(E_y) of stacked channels under k priors and events.

    (k, B, X), (B, X, Y), (k, B, X, Y) -> (k, B), (k, B); L is over the inputs any prior reaches.
    """
    k, b, nx = prior.shape
    exact = _event_mass((prior[..., None] * rows).reshape(k * b, nx, -1), event.reshape(k * b, nx, -1))
    fibers = _fiber_max(event.reshape(k * b, nx, -1), prior.reshape(k * b, nx)).reshape(k, b)
    return exact.reshape(k, b), np.exp(_leakage(rows, (prior > 0.0).any(axis=0))) * fibers


class _Check:
    """Violation counter with the worst margin and a few kept failures."""

    def __init__(self, tolerance: float):
        self.tolerance = tolerance
        self.count = 0
        self.violations = 0
        self.worst_margin = -math.inf
        self.failures: list[dict] = []

    def record(self, margins: np.ndarray, payload: Callable[[int, int], dict],
               where: np.ndarray | None = None) -> None:
        """Record a slice's (instances, k) margins, in instance order, where ``where`` holds.

        ``payload(i, j)`` builds the failure of entry (i, j), only if it is kept.
        """
        margins = margins.reshape(len(margins), -1)
        on = np.ones(margins.shape, dtype=bool) if where is None else where
        values = margins[on]
        self.count += values.size
        if values.size:
            self.worst_margin = max(self.worst_margin, float(values.max()))
        bad = np.argwhere(on & (margins > self.tolerance))
        self.violations += len(bad)
        for i, j in bad[: _MAX_FAILURES_KEPT - len(self.failures)].tolist():
            self.failures.append(payload(i, j))

    def to_json(self) -> dict:
        return {"count": self.count, "violations": self.violations,
                "worst_margin": self.worst_margin, "tolerance": self.tolerance}


def _payload(lo: int, **fields) -> Callable[[int, int], dict]:
    """Failure payload of entry (i, j) of a slice that starts at instance ``lo``.

    A field is a (B,) array per instance, a (B, k) array per entry, or a function of (i, j).
    """
    def build(i: int, j: int) -> dict:
        return {"instance": lo + i, **{
            key: value(i, j) if callable(value) else float(value[(i, j)[: value.ndim]])
            for key, value in fields.items()
        }}

    return build


def _rectangle(cls, matrix: np.ndarray, rows: np.ndarray, cols: np.ndarray, names: str = "xy"):
    """Payload field: JSON of instance i's unpadded ``matrix`` as a ``cls`` rectangle."""
    return lambda i, _: cls(_named_alphabet(names[0], rows[i]), _named_alphabet(names[1], cols[i]),
                            matrix[i, : rows[i], : cols[i]]).to_json()


def _run_sweep(suite: str, instances: int, seed: int, width: int,
               tolerances: dict[str, float], evaluate: Callable) -> dict:
    """Run instances 0 .. instances-1 into one check per named tolerance.

    ``evaluate(u, lo)`` maps the (width, instances) uniform block of a
    slice that starts at instance ``lo`` to ``{check: (margins, payload
    [, where])}``, the arguments of :meth:`_Check.record`.
    """
    seed, instances = _check_seed(seed), _count(instances, "instance count")
    checks = {name: _Check(tolerance) for name, tolerance in tolerances.items()}

    def run(lo: int, hi: int) -> None:
        for name, recorded in evaluate(_uniform_block(_trial_seeds(seed, lo, hi), width), lo).items():
            checks[name].record(*recorded)

    map_chunked(run, instances, width)
    failures = [f for check in checks.values() for f in check.failures][:_MAX_FAILURES_KEPT]
    return {
        "suite": suite,
        "instances": instances,
        "checks": {name: check.to_json() for name, check in checks.items()},
        "failures": failures,
        "pass": all(check.violations == 0 for check in checks.values()),
    }


# sizes 2..8, a prior with zeros allowed, a channel, an event
_SOUNDNESS_WIDTH = 2 + 18 + 2 * 64 + 64


def _soundness_draws(u: np.ndarray):
    """Sizes, priors (B, 8), channel rows (B, 8, 8) and event masks (B, 8, 8)."""
    draws = _Draws(u)
    nx, ny = 2 + draws.integers(7), 2 + draws.integers(7)
    live_x, live_y = _live(nx, 8), _live(ny, 8)
    prior = _distribution(draws, live_x, allow_zeros=True)
    rows = _stochastic_rows(draws, live_x, live_y)
    event = (draws.uniform(8, 8) < 0.5) & live_x[:, :, None] & live_y[:, None, :]
    return nx, ny, prior, rows, event


def _soundness_checks(u: np.ndarray, lo: int) -> dict:
    nx, ny, prior, rows, event = _soundness_draws(u)
    support = prior > 0.0
    cells = np.where(support[:, :, None], rows, -1.0).argmax(axis=1)
    twin = (np.arange(8)[:, None] == cells[:, None, :]) & _live(ny, 8)[:, None, :]
    (exact, twin_exact), (bound, twin_bound) = _event_bounds(
        np.stack([prior, support / support.sum(axis=1, keepdims=True)]), rows, np.stack([event, twin]))
    gap = np.abs(twin_bound - twin_exact)

    payload = _payload(
        lo, exact=exact, bound=bound, twin_gap=gap,
        prior=lambda i, _: DiscreteDistribution(_named_alphabet("x", nx[i]),
                                                prior[i, : nx[i]]).to_json(),
        channel=_rectangle(Channel, rows, nx, ny), event=_rectangle(EventMask, event, nx, ny),
    )
    return {"event_bound": (exact - bound, payload), "twin": (gap, payload)}


def sweep_soundness(instances: int, seed: int) -> dict:
    """Event bound vs exact probability; ``diagonal_equality_gap`` is the twins' worst |bound - exact|."""
    result = _run_sweep("soundness", instances, seed, _SOUNDNESS_WIDTH,
                        {"event_bound": SOUNDNESS_TOL, "twin": SOUNDNESS_TOL}, _soundness_checks)
    result["diagonal_equality_gap"] = result["checks"].pop("twin")["worst_margin"]
    return result


def _chain_draws(draws: _Draws, steps: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Sizes (inputs, then each step's outputs) and rows of random adaptive chains.

    Inputs number 2..4 and each step has 2..3 outputs. The first rows
    are (B, 4, 3) and stage k >= 2 is (B, P, 4, 3); its prefixes are the
    padded joint outputs, so it holds a block of rows for every prefix,
    in the joint's output order (see :func:`_chain_rows`).
    """
    sizes = [2 + draws.integers(3)] + [2 + draws.integers(2) for _ in range(steps)]
    live_x, live_prefix = _live(sizes[0], 4), _live(sizes[1], 3)
    chain = [_stochastic_rows(draws, live_x, live_prefix)]
    for size in sizes[2:]:
        live_out = _live(size, 3)
        chain.append(_stochastic_rows(draws, live_prefix[:, :, None] & live_x[:, None, :], live_out))
        live_prefix = (live_prefix[:, :, None] & live_out[:, None, :]).reshape(len(size), -1)
    return sizes, chain


def _certificate_total(first: np.ndarray, stages: list[np.ndarray]) -> np.ndarray:
    """Sum, in step order, of per-step certificates: step k's worst leakage over every prefix."""
    total = _leakage(first)
    for stage in stages:
        total = total + _section_leakage(stage, None)
    return total


def _conditional_chain_total(prior: np.ndarray, first: np.ndarray,
                             stages: list[np.ndarray]) -> np.ndarray:
    """Sum of per-step conditional leakages along the chain prefix.

    Step k conditions on its prefix and sees only the (x, prefix) pairs
    that the prior and the earlier steps reach with positive probability.
    """
    total = _leakage(first, prior > 0.0)
    reached = (prior > 0.0)[:, :, None] & (first > 0.0)  # (B, x, prefix)
    for stage in stages:
        total = total + _section_leakage(stage, reached.transpose(0, 2, 1))
        reached = _chain_rows(reached, stage > 0.0)
    return total


# three sizes 2..6 and two channels, a two-step and a three-step chain, a prior
_COMPOSITION_WIDTH = 3 + 2 * 72 + (3 + 24 + 72) + (4 + 24 + 72 + 216) + 4


def _composition_draws(u: np.ndarray):
    """Sizes and rows of a two-channel cascade, of a two-step and a three-step chain, and a prior."""
    draws = _Draws(u)
    nx, ny, nz = (2 + draws.integers(5) for _ in range(3))
    live_x, live_y, live_z = _live(nx, 6), _live(ny, 6), _live(nz, 6)
    a = _stochastic_rows(draws, live_x, live_y)
    b = _stochastic_rows(draws, live_y, live_z)
    chains = [_chain_draws(draws, steps) for steps in (2, 3)]
    prior = _distribution(draws, _live(chains[1][0][0], 4), allow_zeros=False)
    return (nx, ny, nz), a, b, chains, prior


def _composition_checks(u: np.ndarray, lo: int) -> dict:
    (nx, ny, nz), a, b, chains, prior = _composition_draws(u)

    # post-processing: a cascade never leaks more than its first stage
    cascade = a @ b
    _check_channel_rows(cascade, a.any(axis=2))
    la, lc = _leakage(a), _leakage(cascade)

    checks = {"post_processing": (lc - la, _payload(
        lo, first=la, cascade=lc,
        a=_rectangle(Channel, a, nx, ny), b=_rectangle(Channel, b, ny, nz, "yz"),
    ))}

    # two- and three-step chains vs the sums of their per-step
    # certificates; the three-step chain also vs its conditional leakages
    for name, (_, (first, *stages)) in zip(("two_step", "three_step"), chains):
        joint_rows = _chain_rows(first, *stages)
        _check_channel_rows(joint_rows, first.any(axis=2))
        joint, budget = _leakage(joint_rows), _certificate_total(first, stages)
        checks[name] = (joint - budget, _payload(lo, joint=joint, budget=budget))

    conditional = _conditional_chain_total(prior, first, stages)
    checks["conditional_chain"] = (
        joint - conditional, _payload(lo, joint=joint, conditional_sum=conditional)
    )
    return checks


def sweep_composition(instances: int, seed: int) -> dict:
    """Post-processing and adaptive-composition inequalities."""
    names = ("post_processing", "two_step", "three_step", "conditional_chain")
    return _run_sweep("composition", instances, seed, _COMPOSITION_WIDTH,
                      dict.fromkeys(names, COMPOSITION_TOL), _composition_checks)


_JOINT_SHAPES = ((2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3))
# a shape, masses, zeros, and one cell that stays
_MAXINFO_WIDTH = 1 + 2 * 24 + 1


def _joint_draws(u: np.ndarray):
    """Shapes and joint masses (B, 4, 6): about 30% zeros among the live cells, never one random cell."""
    draws = _Draws(u)
    nx, ny = np.array(_JOINT_SHAPES)[draws.integers(len(_JOINT_SHAPES))].T
    live = _live(nx, 4)[:, :, None] & _live(ny, 6)[:, None, :]
    mass = np.where(live, draws.uniform(4, 6) + 1e-3, 0.0)
    kill = draws.uniform(4, 6) < 0.3
    keep = draws.integers(nx * ny)
    kill[np.arange(draws.items), keep // ny, keep % ny] = False
    mass[kill] = 0.0
    mass /= mass.sum(axis=(1, 2), keepdims=True)
    _check_channel_rows(mass.reshape(draws.items, -1))
    return nx, ny, mass


def _maxinfo_checks(u: np.ndarray, lo: int) -> dict:
    """Budgeted max-information of random joints against its bound and the enumeration oracle.

    The oracle takes the padded (B, 24) cell rows in one call: it
    enumerates only each row's cells with positive mass, so neither the
    zero padding nor the zero cells of the joint cost a subset.
    """
    nx, ny, mass = _joint_draws(u)
    leakage = _joint_leakage(mass)
    pv, qv = _joint_product_vectors(mass)
    exact_info = _max_information(pv, qv)
    scan = _approx_max_div_scan(pv, qv, _BETA_GRID)
    enumerated = _approx_max_div_enumerated(pv, qv, _BETA_GRID)

    with np.errstate(invalid="ignore"):  # inf - inf where both sides are infinite
        gap = np.abs(scan - enumerated)
        monotone = scan[:, 1:] - scan[:, :-1]
    gap[scan == enumerated] = 0.0
    budget = leakage[:, None] + np.array([math.log(1.0 / beta) for beta in _BETA_GRID])
    betas, joint = np.broadcast_to(_BETA_GRID, scan.shape), _rectangle(JointDistribution, mass, nx, ny)
    finite = np.isfinite(scan)
    return {
        "leakage_budget": (scan - budget, _payload(
            lo, beta=betas, approx_max_information=scan, budget=budget, joint=joint), finite),
        "enumeration_match": (gap, _payload(
            lo, beta=betas, scan=lambda i, j: repr(float(scan[i, j])),
            enumeration=lambda i, j: repr(float(enumerated[i, j])), joint=joint)),
        "beta_monotone": (monotone, _payload(
            lo, beta=betas[:, 1:], previous=scan[:, :-1], value=scan[:, 1:]), finite[:, :-1]),
        "dominates_leakage": (
            leakage - exact_info, _payload(lo, leakage=leakage, max_information=exact_info)),
    }


def sweep_maxinfo(instances: int, seed: int) -> dict:
    """Budgeted max-information inequalities and the enumeration cross-check."""
    tolerances = {"leakage_budget": MAXINFO_TOL, "enumeration_match": ENUMERATION_TOL,
                  "beta_monotone": ENUMERATION_TOL, "dominates_leakage": MAXINFO_TOL}
    return _run_sweep("maxinfo", instances, seed, _MAXINFO_WIDTH, tolerances, _maxinfo_checks)


SUITES = {"soundness": sweep_soundness, "composition": sweep_composition, "maxinfo": sweep_maxinfo}


def run_suites(names, instances: int, seed: int) -> dict:
    """Run the requested suites and bundle their results."""
    results = [SUITES[name](instances, seed) for name in names]
    return {"suites": results, "pass": all(r["pass"] for r in results)}
