"""Counter-based random streams shared by ``simulate`` and ``verify``.

Work item t of master seed s has the seed ``derive_trial_seed(s, t)``,
and its draw j is the SplitMix64 mix of seed_t + (j + 1) * GOLDEN. The
draws of a whole block of items come out of one numpy uint64 computation
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011),
so an item's draws depend only on (s, t, j), never on the slice that
computed them. ``map_chunked`` cuts an item range into such slices.

A block comes in one of two layouts with the same values. Item-major
(items, width) rows suit ``verify``, whose instances read their draws a
few columns at a time, and ``simulate hyptest``, whose trials gather
their packed coins by word index and reduce over their T windows with
one max over packed keys. Draw-major (width, items) rows suit the
``simulate generr`` trials: draw j of every trial in the slice is one
contiguous row, so each step of a trial reduces over the short axis
(draws, symbols or hypotheses) by adding or comparing whole rows
instead of running one tiny numpy reduction per trial.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import LeakageLabError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# Most values one slice holds in any array: an item counts the values of
# its widest array (its draws, or more), so that the working set stays
# bounded whatever the width is. Results do not depend on it.
_BLOCK_DRAWS = 1 << 16


def _check_seed(seed: int) -> int:
    """``seed`` if it is a 64-bit unsigned integer."""
    seed = int(seed)
    if not 0 <= seed <= _MASK64:
        raise LeakageLabError("seed must be a 64-bit unsigned integer")
    return seed


def derive_trial_seed(master_seed: int, index: int) -> int:
    """Counter-mixed per-trial seed (a SplitMix64 step).

    ``master_seed`` must be a 64-bit unsigned integer, as configs and
    ``verify`` require. For a fixed master seed the map index -> seed is
    injective, so no two trials ever share a stream.
    """
    if index < 0:
        raise LeakageLabError(f"trial index must be nonnegative, got {index}")
    return int(_trial_seeds(_check_seed(master_seed), index, index + 1)[0])


def _counter_mix(base: np.ndarray, first: int, count: int,
                 draw_major: bool = False) -> np.ndarray:
    """SplitMix64 outputs ``mix(base + (first + j + 1) * GOLDEN)`` for j < count.

    The result has shape ``base.shape + (count,)``, or ``(count,) +
    base.shape`` when ``draw_major``; uint64 arithmetic wraps modulo 2**64.
    """
    steps = np.arange(first + 1, first + count + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    base = np.asarray(base, dtype=np.uint64)
    if draw_major:
        z = steps.reshape((count,) + (1,) * base.ndim) + base
    else:
        z = base[..., None] + steps
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def _trial_seeds(master_seed: int, lo: int, hi: int) -> np.ndarray:
    """``derive_trial_seed(master_seed, t)`` for t in ``range(lo, hi)``, as uint64."""
    return _counter_mix(np.uint64(master_seed), lo, hi - lo)


def _uniform_block(seeds: np.ndarray, width: int, draw_major: bool = False) -> np.ndarray:
    """Doubles in [0, 1): the top 53 bits of draws 0..width-1 of each seed.

    Item-major (rows, width), or draw-major (width, rows) with the same values.
    """
    return (_counter_mix(seeds, 0, width, draw_major) >> np.uint64(11)) * 2.0 ** -53


class _Draws:
    """Consecutive column blocks of a slice's (items, width) uniform rows."""

    def __init__(self, u: np.ndarray):
        self.u = u
        self.used = 0

    def uniform(self, *shape: int) -> np.ndarray:
        count = math.prod(shape)
        block = self.u[:, self.used : self.used + count]
        self.used += count
        return block.reshape(len(self.u), *shape)

    def integers(self, high) -> np.ndarray:
        """One integer in [0, high) per item; ``high`` may differ by item."""
        return np.minimum((self.uniform() * high).astype(np.intp), np.asarray(high) - 1)


def map_chunked(worker: Callable[[int, int], object], total: int, per_trial: int = 1) -> list:
    """Results of ``worker(lo, hi)`` over consecutive slices of ``range(total)``, in order.

    ``per_trial`` is the size of an item's widest array. A slice holds at
    most _BLOCK_DRAWS such values, but never fewer than one item; the
    slice boundaries depend only on ``total`` and ``per_trial``.
    """
    step = max(1, _BLOCK_DRAWS // per_trial)
    return [worker(lo, min(lo + step, total)) for lo in range(0, total, step)]
