"""Seeded, vectorized input generation for the benchmark workloads.

Everything here is a pure function of a ``numpy.random.Generator`` and
the reference contents, so one ``--seed`` gives one input stream.  No
step builds a Python set of the stored keys or runs ``np.unique`` over
the whole key set: keys come from a cumulative sum of random gaps, and
each op batch samples a few thousand distinct positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.core.update import Operation

#: Gaps between consecutive stored keys are drawn from ``[2, MAX_GAP)``,
#: so ``key + 1`` is never stored at load and 2^22 keys span ~2^39.
MAX_GAP = 1 << 18
#: Values stay far from ``NOT_FOUND`` (int64 min).
VALUE_SPACE = 1 << 62

INSERT, UPDATE, DELETE = 0, 1, 2
_KIND_NAME = {INSERT: "insert", UPDATE: "update", DELETE: "delete"}
#: Multiplier that scatters zipf ranks over the key positions, so hot
#: keys are spread over the key space instead of sitting at its start.
_SCATTER = 0x9E3779B97F4A7C15 & ((1 << 61) - 1)


def make_keys(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` strictly increasing int64 keys."""
    return np.cumsum(rng.integers(2, MAX_GAP, size=n, dtype=np.int64))


def make_values(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(0, VALUE_SPACE, size=n, dtype=np.int64)


def _with_misses(
    rng: np.random.Generator, targets: np.ndarray, hit_frac: float,
    space: int,
) -> np.ndarray:
    """Replace a ``1 - hit_frac`` share of ``targets`` by uniform keys of
    the key space (almost all absent; the oracle decides either way)."""
    miss = rng.random(targets.size) >= hit_frac
    targets[miss] = rng.integers(0, space, size=int(miss.sum()),
                                 dtype=np.int64)
    return targets


def uniform_lookups(
    rng: np.random.Generator, live: np.ndarray, n: int,
    hit_frac: float = 0.9,
) -> np.ndarray:
    targets = live[rng.integers(0, live.size, size=n)]
    return _with_misses(rng, targets, hit_frac, int(live[-1]) + 2)


def zipf_lookups(
    rng: np.random.Generator, live: np.ndarray, n: int,
    alpha: float = 1.1, hit_frac: float = 0.9,
) -> np.ndarray:
    ranks = np.minimum(rng.zipf(alpha, size=n) - 1, live.size - 1)
    pos = (ranks.astype(np.uint64) * np.uint64(_SCATTER)) % np.uint64(
        live.size)
    targets = live[pos.astype(np.int64)]
    return _with_misses(rng, targets, hit_frac, int(live[-1]) + 2)


def range_bounds(
    rng: np.random.Generator, live: np.ndarray, n: int, rows: int,
):
    """``n`` inclusive ``[lo, hi]`` windows covering ``rows`` stored keys
    each."""
    first = rng.integers(0, live.size - rows, size=n)
    return live[first], live[first + rows - 1]


def distinct_positions(
    rng: np.random.Generator, n: int, k: int
) -> np.ndarray:
    """``k`` distinct positions of ``[0, n)`` in random order."""
    picked = np.empty(0, dtype=np.int64)
    while picked.size < k:
        draw = rng.integers(0, n, size=2 * k)
        picked = np.unique(np.concatenate([picked, draw]))
    return rng.permutation(picked)[:k]


@dataclass
class OpBatch:
    """One update batch: wire arrays plus the ``Operation`` list."""

    kinds: np.ndarray
    keys: np.ndarray
    values: np.ndarray
    ops: List[Operation]

    def count(self, kind: int) -> int:
        return int(np.count_nonzero(self.kinds == kind))


def op_batch(
    rng: np.random.Generator, live: np.ndarray, m: int,
    insert_frac: float = 0.1, delete_frac: float = 0.1,
) -> OpBatch:
    """``m`` ops on distinct keys that all succeed against ``live``:
    inserts of absent keys, updates and deletes of present ones."""
    n_ins = int(round(m * insert_frac))
    n_del = int(round(m * delete_frac))
    n_upd = m - n_ins - n_del
    present = live[distinct_positions(rng, live.size, n_upd + n_del)]
    space = int(live[-1]) + MAX_GAP
    fresh = np.empty(0, dtype=np.int64)
    while fresh.size < n_ins:
        cand = rng.integers(1, space, size=2 * n_ins, dtype=np.int64)
        pos = np.minimum(np.searchsorted(live, cand), live.size - 1)
        cand = cand[live[pos] != cand]
        fresh = np.unique(np.concatenate([fresh, cand]))
    fresh = rng.permutation(fresh)[:n_ins]
    keys = np.concatenate([fresh, present])
    kinds = np.concatenate([
        np.full(n_ins, INSERT, np.int8),
        np.full(n_upd, UPDATE, np.int8),
        np.full(n_del, DELETE, np.int8),
    ])
    order = rng.permutation(m)
    keys, kinds = keys[order], kinds[order]
    values = make_values(rng, m)
    values[kinds == DELETE] = 0
    ops = [
        Operation(_KIND_NAME[k], key, val)
        for k, key, val in zip(kinds.tolist(), keys.tolist(),
                               values.tolist())
    ]
    return OpBatch(kinds, keys, values, ops)
