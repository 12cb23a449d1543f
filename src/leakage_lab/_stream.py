"""Counter-based random streams shared by ``simulate`` and ``verify``.

Work item t of master seed s has the seed ``derive_trial_seed(s, t)``,
and its draw j is the SplitMix64 mix of seed_t + (j + 1) * GOLDEN. The
draws of a whole block of items come out of one numpy uint64 computation
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011),
so an item's draws depend only on (s, t, j), never on the slice that
computed them. ``map_chunked`` cuts an item range into such slices.

A block is draw-major, (width, items): draw j of every item in the
slice is one contiguous row. The ``simulate generr`` trials reduce over
the short axes of a trial (its draws, symbols or hypotheses) by adding
or comparing whole rows instead of running one tiny numpy reduction per
trial; ``simulate hyptest`` gathers its packed coins by word index into
(T, slots, trials) rows and reduces over its T windows row by row; and
``verify`` reads its instance-first arrays through ``_Draws`` as
transposed views of consecutive rows.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import LeakageLabError, _count

_MASK64 = (1 << 64) - 1
# the 64-bit unsigned integers: seeds, and trial indices, whose counter wraps modulo 2**64
_UINT64 = "[0, 18446744073709551616)"
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# Most values one slice holds in any array: an item counts the values of
# its widest array (its draws, or more), so that the working set stays
# bounded whatever the width is. Results do not depend on it.
_BLOCK_DRAWS = 1 << 16


def _check_seed(seed: int) -> int:
    """``seed`` as an ``int`` if it is a 64-bit unsigned integer (``_count``'s rule)."""
    try:
        return _count(seed, "seed", _UINT64)
    except LeakageLabError:
        raise LeakageLabError("seed must be a 64-bit unsigned integer") from None


def derive_trial_seed(master_seed: int, index: int) -> int:
    """Counter-mixed per-trial seed (a SplitMix64 step).

    ``master_seed`` must be a 64-bit unsigned integer, as configs and
    ``verify`` require, and so must ``index``. For a fixed master seed the
    map index -> seed is injective, so no two trials ever share a stream.
    """
    index = _count(index, "trial index", _UINT64)
    return int(_trial_seeds(_check_seed(master_seed), index, index + 1)[0])


def _counter_mix(base: np.ndarray, first: int, count: int) -> np.ndarray:
    """SplitMix64 outputs ``mix(base + (first + j + 1) * GOLDEN)`` for j < count.

    The result has shape ``(count,) + base.shape``; uint64 arithmetic,
    the counter ``first + j + 1`` included, wraps modulo 2**64.
    """
    steps = np.arange(count, dtype=np.uint64) + np.uint64((first + 1) & _MASK64)
    steps *= np.uint64(_GOLDEN)
    base = np.asarray(base, dtype=np.uint64)
    z = steps.reshape((count,) + (1,) * base.ndim) + base
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
    """Doubles in [0, 1): the top 53 bits of draws 0..width-1 of each seed, as (width, seeds)."""
    return (_counter_mix(seeds, 0, width) >> np.uint64(11)) * 2.0 ** -53


class _Draws:
    """Consecutive row blocks of a slice's (width, items) uniforms, handed out instance-first."""

    def __init__(self, block: np.ndarray):
        self.block = block
        self.items = block.shape[1]
        self.used = 0

    def uniform(self, *shape: int) -> np.ndarray:
        """The next prod(shape) draws of each item as an (items, *shape) view."""
        count = math.prod(shape)
        rows = self.block[self.used : self.used + count]
        self.used += count
        # splitting the last axis of the transpose never copies
        return rows.T.reshape(self.items, *shape)

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
