"""Reference answers for every timed call, computed outside timing.

:class:`Reference` holds the visible contents as two sorted numpy
arrays and applies each update batch last-wins, so point, batch, range
and join answers of the program are compared against plain
``np.searchsorted`` / slicing over the same contents.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.constants import NOT_FOUND

from inputs import DELETE, INSERT, UPDATE, OpBatch


class Reference:
    def __init__(self, keys: np.ndarray, values: np.ndarray) -> None:
        self.keys = np.array(keys, dtype=np.int64)
        self.values = np.array(values, dtype=np.int64)

    def __len__(self) -> int:
        return int(self.keys.size)

    def lookup(self, queries: np.ndarray) -> np.ndarray:
        # Sorted probes keep the reference cheap on trees beyond the L3.
        order = np.argsort(queries, kind="stable")
        sq = queries[order]
        pos = np.minimum(np.searchsorted(self.keys, sq), self.keys.size - 1)
        out = np.empty(queries.size, dtype=np.int64)
        out[order] = np.where(self.keys[pos] == sq, self.values[pos],
                              NOT_FOUND)
        return out

    def point(self, key: int) -> Optional[int]:
        pos = int(np.searchsorted(self.keys, key))
        if pos < self.keys.size and int(self.keys[pos]) == key:
            return int(self.values[pos])
        return None

    def scan(self, lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray]:
        a = int(np.searchsorted(self.keys, lo, side="left"))
        b = int(np.searchsorted(self.keys, hi, side="right"))
        return self.keys[a:b], self.values[a:b]

    def apply(self, batch: OpBatch) -> None:
        """Apply one batch of distinct-key ops (each known to succeed)."""
        k, v, kinds = batch.keys, batch.values, batch.kinds
        upd = kinds == UPDATE
        self.values[np.searchsorted(self.keys, k[upd])] = v[upd]
        keep = np.ones(self.keys.size, dtype=bool)
        keep[np.searchsorted(self.keys, k[kinds == DELETE])] = False
        keys, values = self.keys[keep], self.values[keep]
        ins = kinds == INSERT
        order = np.argsort(k[ins])
        ik, iv = k[ins][order], v[ins][order]
        at = np.searchsorted(keys, ik)
        self.keys = np.insert(keys, at, ik)
        self.values = np.insert(values, at, iv)


def count_wrong_lookups(got: np.ndarray, ref: Reference,
                        queries: np.ndarray) -> int:
    return int(np.count_nonzero(got != ref.lookup(queries)))


def count_wrong_scans(
    got: Sequence[Tuple[np.ndarray, np.ndarray]], ref: Reference,
    los: np.ndarray, his: np.ndarray,
) -> int:
    wrong = 0
    for (gk, gv), lo, hi in zip(got, los.tolist(), his.tolist()):
        ek, ev = ref.scan(lo, hi)
        if not (np.array_equal(gk, ek) and np.array_equal(gv, ev)):
            wrong += 1
    return wrong + abs(len(got) - los.size)


def count_wrong_batch_result(result, batch: OpBatch) -> int:
    """Ops whose outcome the returned accounting does not match."""
    expected = (batch.count(INSERT), batch.count(UPDATE),
                batch.count(DELETE), 0)
    got = (result.inserted, result.updated, result.deleted, result.failed)
    return sum(abs(g - e) for g, e in zip(got, expected))


def count_wrong_join(result, probe: Reference, build: Reference) -> int:
    """Probes whose inner-join outcome differs from the reference."""
    pos = np.minimum(np.searchsorted(build.keys, probe.keys),
                     build.keys.size - 1)
    ia = np.flatnonzero(build.keys[pos] == probe.keys)
    ib = pos[ia]
    common = probe.keys[ia]
    if not (np.array_equal(result.keys, common)
            and np.array_equal(result.values_a, probe.values[ia])
            and np.array_equal(result.values_b, build.values[ib])
            and result.n_probes == probe.keys.size):
        return max(1, abs(int(result.keys.size) - int(common.size)))
    return 0
