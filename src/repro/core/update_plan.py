"""Vectorized batch-update pipeline (paper §3.2.2, batched host path).

:class:`~repro.core.update.BatchUpdater` applies one
:class:`~repro.core.update.Operation` at a time: a scalar root-to-leaf
traversal, one Algorithm 1 lock round-trip and a Python closure per op,
then a leaf-by-leaf movement rebuild.  This module replaces that loop with
a three-stage pipeline over the whole batch:

1. **plan** (:func:`plan_batch`) — route every op to its leaf with one
   vectorized :func:`~repro.core.search.locate_leaves_batch` traversal
   (internal separators are immutable during a batch, so the whole batch
   shares one snapshot walk), group ops per leaf with a *stable* argsort
   (stability preserves arrival order within a leaf — structural
   decisions depend on the leaf's occupancy at op time), and classify
   each group: update-only groups can never split or merge.
2. **apply** (:meth:`VectorizedBatchUpdater._apply`) — update-only groups
   are executed fully vectorized: one row gather + rowwise searchsorted
   resolves every (existence, slot) at once, and a last-wins scatter plan
   of the surviving value writes replaces per-op locking.  Groups with
   inserts/deletes replay per leaf on an
   :class:`~repro.core.update.AuxiliaryNode`, reproducing the scalar
   path's structural state machine exactly (in-place until the leaf would
   split/merge, then staged on the aux node).  Per-op locks are gone by
   construction: grouping serializes same-leaf ops, distinct leaves are
   independent, so Algorithm 1's coarse/fine discipline holds at group
   granularity; independent leaf groups shard across threads.
3. **movement** (:meth:`VectorizedBatchUpdater._movement`) — the
   post-batch leaf plan (keeps, splits, merges) is computed up front as
   keep-*ranges* plus rebuilt runs, clean rows move with block
   fancy-gather copies, rebuilt/modified rows land via one flat
   ``(row, col)`` scatter, and the internal levels + prefix-sum child
   array are rebuilt by the shared vectorized assembler
   (:func:`~repro.core.update._assemble_layout`).

The pipeline never mutates its input layout: staged value writes are
carried as a scatter plan and applied to the *new* arrays, which is what
lets :class:`~repro.core.epoch.EpochManager` skip its copy-on-write step —
readers keep serving from the old snapshot until the swap.

**Gapped mode** (:class:`GappedBatchUpdater`, ``UpdateConfig(mode=
"gapped")``) goes one step further: every batch still pays stage 3 above
(even a single absorbed insert rebuilds both regions), so on mixed
workloads the movement rebuild dominates.  The gapped executor instead
works on leaf rows with pre-allocated slack (sentinel-padded tails, per-
leaf fill counts — see the gapped-leaves note in
:mod:`repro.core.layout`): updates and gap-absorbable inserts/deletes
collapse to fully-vectorized in-place scatters against a private working
copy, deletes leave gaps behind instead of re-chunking, and the movement
rebuild runs only as a rare *compaction epoch* once overflowed leaves, the
underflow/full watermark, or global occupancy demand it.  Routing uses the
cached per-leaf bounds (:func:`~repro.core.search.locate_leaves_bounds`) —
valid across absorption because the internal region is immutable between
epochs — and oversized batches stream through the planner in fixed
``plan_window`` chunks.  The contract is *result* equivalence with the
scalar reference (identical accounting, query results and key/value
content; the physical layout differs by design), hypothesis-pinned in
``tests/test_core_gapped.py``.

Equivalence contract (hypothesis-pinned in
``tests/test_core_update_plan.py``): for any batch, the resulting layout
is byte-identical to the scalar path's (``UpdateConfig(mode="scalar")``,
``n_threads=1``) and the :class:`~repro.core.update.BatchResult`
accounting matches field for field.  This works because clean-leaf rows
are canonical after in-place edits (sorted keys then ``KEY_MAX`` pads,
aligned values then ``NOT_FOUND`` pads), so rebuilding a row from its
final logical content reproduces the scalar path's incremental edits.

Stages are instrumented with the ``update.*`` family of the
:mod:`repro.obs` catalogue (spans ``update.plan/apply/movement`` plus
batch counters) — see docs/observability.md.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

import repro.obs as obs
from repro.btree.bulk import _chunk_sizes
from repro.constants import KEY_DTYPE, KEY_MAX, NOT_FOUND, VALUE_DTYPE
from repro.core.layout import HarmoniaLayout
from repro.core.search import locate_leaves_batch
from repro.core.update import (
    DELETE,
    INSERT,
    UPDATE,
    AuxiliaryNode,
    BatchResult,
    Operation,
    _assemble_layout,
)

# Integer op-kind codes for the planner's numpy arrays.
K_INSERT, K_UPDATE, K_DELETE = 0, 1, 2
_KIND_CODE = {INSERT: K_INSERT, UPDATE: K_UPDATE, DELETE: K_DELETE}


def _plan_leaf_movement(
    n_leaves: int,
    dirty_set: Set[int],
    content,
    min_leaf: int,
    slots: int,
    target: int,
) -> List[list]:
    """The §3.2.2 movement plan as directives, over any leaf store.

    ``["K", src_start, src_stop]`` — a contiguous range of clean leaf
    rows reused verbatim; ``["N", keys, vals]`` — one rebuilt leaf.
    ``content(leaf)`` supplies a dirty leaf's final logical
    ``(keys, values)`` lists.  Semantically identical to the scalar pass
    (same dirty runs, same absorb-clean-neighbour loop, same
    re-chunking), but clean stretches advance via the sorted dirty array
    instead of a per-leaf scan, so plan cost scales with the number of
    dirty leaves.  Shared by the vectorized movement stage and the
    gapped compaction epoch.
    """
    dirty = np.fromiter(
        sorted(dirty_set), dtype=np.int64, count=len(dirty_set)
    )
    n_dirty = dirty.size

    directives: List[list] = []
    i = 0
    dp = 0
    while i < n_leaves:
        while dp < n_dirty and dirty[dp] < i:
            dp += 1
        if dp == n_dirty:
            directives.append(["K", i, n_leaves])
            break
        nxt = int(dirty[dp])
        if nxt > i:
            directives.append(["K", i, nxt])
            i = nxt
        # Maximal dirty run [i, j).
        j = i
        run_keys: List[int] = []
        run_vals: List[int] = []
        while j < n_leaves and j in dirty_set:
            ks, vs = content(j)
            run_keys.extend(ks)
            run_vals.extend(vs)
            j += 1
        # Absorb clean neighbours while the run is too small to chunk
        # legally (borrow-from-sibling at movement time).
        while 0 < len(run_keys) < min_leaf and (
            j < n_leaves or directives
        ):
            if j < n_leaves:
                ks, vs = content(j)
                run_keys.extend(ks)
                run_vals.extend(vs)
                j += 1
            else:
                prev = directives[-1]
                if prev[0] == "K":
                    ks, vs = content(prev[2] - 1)
                    prev[2] -= 1
                    if prev[1] == prev[2]:
                        directives.pop()
                else:
                    directives.pop()
                    ks, vs = prev[1], prev[2]
                run_keys = ks + run_keys
                run_vals = vs + run_vals
        for size in _chunk_sizes(len(run_keys), target, min_leaf, slots):
            directives.append(["N", run_keys[:size], run_vals[:size]])
            run_keys = run_keys[size:]
            run_vals = run_vals[size:]
        i = j
    return directives


# --------------------------------------------------------------------------
# Stage 1 — plan
# --------------------------------------------------------------------------


@dataclass
class UpdatePlan:
    """The batch, routed and grouped: everything the apply stage needs.

    ``order`` is a stable per-leaf grouping permutation of the arrival
    order; group ``g`` spans ``order[group_bounds[g]:group_bounds[g+1]]``
    and targets leaf-block row ``group_leaves[g]``.  Within a group the
    indices stay in arrival order — the invariant the replay path's
    structural decisions rely on.
    """

    n_ops: int
    kinds: np.ndarray  #: (n_ops,) int8 op codes, arrival order
    keys: np.ndarray  #: (n_ops,) int64, arrival order
    values: np.ndarray  #: (n_ops,) int64, arrival order
    leaves: np.ndarray  #: (n_ops,) leaf-block index per op, arrival order
    order: np.ndarray  #: stable argsort of ``leaves``
    group_bounds: np.ndarray  #: (n_groups + 1,) slice bounds into ``order``
    group_leaves: np.ndarray  #: (n_groups,) leaf-block index per group
    group_update_only: np.ndarray  #: (n_groups,) bool — vectorizable group
    n_fast: int  #: ops in update-only groups (fully vectorized path)

    @property
    def n_groups(self) -> int:
        return int(self.group_leaves.size)

    @property
    def n_replay(self) -> int:
        return self.n_ops - self.n_fast


def plan_batch(layout: HarmoniaLayout, ops: Sequence[Operation]) -> UpdatePlan:
    """Route, sort and classify one batch against a layout snapshot."""
    n = len(ops)
    code = _KIND_CODE
    kinds = np.fromiter(
        (code[op.kind] for op in ops), dtype=np.int8, count=n
    )
    keys = np.fromiter((op.key for op in ops), dtype=KEY_DTYPE, count=n)
    values = np.fromiter(
        (op.value for op in ops), dtype=VALUE_DTYPE, count=n
    )

    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return UpdatePlan(
            n_ops=0, kinds=kinds, keys=keys, values=values, leaves=empty,
            order=empty, group_bounds=np.zeros(1, dtype=np.int64),
            group_leaves=empty, group_update_only=np.empty(0, dtype=bool),
            n_fast=0,
        )

    leaves = locate_leaves_batch(layout, keys)
    order = np.argsort(leaves, kind="stable")
    sorted_leaves = leaves[order]
    starts = np.flatnonzero(
        np.concatenate(([True], sorted_leaves[1:] != sorted_leaves[:-1]))
    )
    group_bounds = np.concatenate((starts, [n])).astype(np.int64)
    group_leaves = sorted_leaves[starts]
    group_update_only = np.logical_and.reduceat(
        kinds[order] == K_UPDATE, starts
    )
    n_fast = int(
        np.sum(
            np.diff(group_bounds)[group_update_only]
        )
    )
    return UpdatePlan(
        n_ops=n, kinds=kinds, keys=keys, values=values, leaves=leaves,
        order=order, group_bounds=group_bounds, group_leaves=group_leaves,
        group_update_only=group_update_only, n_fast=n_fast,
    )


# --------------------------------------------------------------------------
# Stages 2 + 3 — apply, movement
# --------------------------------------------------------------------------

#: One replay shard's result: counter deltas + per-leaf staged state.
_ShardOut = Tuple[
    int, int, int, int, int,
    Dict[int, AuxiliaryNode], Dict[int, AuxiliaryNode], Set[int],
]


class VectorizedBatchUpdater:
    """Applies one batch through the plan/apply/movement pipeline.

    One instance per batch, like :class:`~repro.core.update.BatchUpdater`;
    :meth:`run` leaves the post-movement snapshot in :attr:`new_layout`
    (``None`` when every key was deleted) and never mutates the input
    layout.
    """

    #: Fewer replay groups than this run serially even with
    #: ``n_threads > 1`` — pool setup would dominate.
    REPLAY_PARALLEL_MIN = 64

    def __init__(
        self,
        layout: HarmoniaLayout,
        fill: float = 1.0,
        replay_parallel_min: Optional[int] = None,
    ) -> None:
        self.layout = layout
        self.fill = fill
        if replay_parallel_min is not None:
            self.REPLAY_PARALLEL_MIN = replay_parallel_min
        self.result = BatchResult()
        self.new_layout: Optional[HarmoniaLayout] = None
        self.plan: Optional[UpdatePlan] = None
        self._slots = layout.slots
        self._min_leaf = (layout.fanout - 1 + 1) // 2
        #: Single-op insert/delete groups resolved without replay.
        self.n_single = 0
        #: Leaves staged for split/merge (leaf-block index -> full content).
        self.aux: Dict[int, AuxiliaryNode] = {}
        #: Leaves edited in place but still clean (kept rows, new content).
        self.modified: Dict[int, AuxiliaryNode] = {}
        self.underflow: Set[int] = set()
        # Last-wins value-write scatter plan for update-only groups,
        # sorted by (leaf, slot); applied to the *new* arrays at movement.
        self._ov_leaf: Optional[np.ndarray] = None
        self._ov_pos: Optional[np.ndarray] = None
        self._ov_val: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ run

    def run(self, ops: Sequence[Operation], n_threads: int = 1) -> BatchResult:
        """Execute all three stages; returns the accounting record."""
        rec = obs.active
        timer = self.result.timer
        t0 = time.perf_counter()
        with timer.phase("plan"):
            plan = self.plan = plan_batch(self.layout, ops)
        t1 = time.perf_counter()
        with timer.phase("apply"):
            self._apply(plan, n_threads)
        t2 = time.perf_counter()
        with timer.phase("movement"):
            n_dirty = self._movement()
        t3 = time.perf_counter()

        if rec.enabled:
            res = self.result
            rec.counter("update.batches")
            rec.counter("update.ops", plan.n_ops)
            rec.counter("update.inplace_ops", plan.n_fast)
            rec.counter("update.single_ops", self.n_single)
            rec.counter("update.replay_ops", plan.n_replay - self.n_single)
            rec.counter("update.split_leaves", res.split_leaves)
            rec.counter("update.dirty_leaves", n_dirty)
            rec.counter("update.moved_leaves", res.moved_clean)
            rec.counter("update.rebuilt_leaves", res.rebuilt_dirty)
            if plan.n_groups:
                rec.histogram(
                    "update.ops_per_leaf", plan.n_ops / plan.n_groups
                )
            wall = t3 - t0
            if wall > 0.0 and plan.n_ops:
                rec.gauge("update.throughput_ops", plan.n_ops / wall)
            rec.span_at("update.plan", t0, t1, cat="update", ops=plan.n_ops)
            rec.span_at("update.apply", t1, t2, cat="update",
                        fast_ops=plan.n_fast, replay_ops=plan.n_replay)
            rec.span_at("update.movement", t2, t3, cat="update",
                        dirty_leaves=n_dirty)
        return self.result

    # ---------------------------------------------------------------- apply

    def _apply(self, plan: UpdatePlan, n_threads: int) -> None:
        if plan.n_ops == 0:
            return
        self._apply_fast(plan)

        replay_groups = np.flatnonzero(~plan.group_update_only)
        if replay_groups.size == 0:
            return
        replay_groups = self._apply_singles(plan, replay_groups)
        if replay_groups.size == 0:
            return
        if (
            n_threads > 1
            and replay_groups.size >= self.REPLAY_PARALLEL_MIN
        ):
            shards = np.array_split(replay_groups, n_threads)
            with ThreadPoolExecutor(max_workers=n_threads) as pool:
                outs = list(
                    pool.map(lambda s: self._replay_shard(plan, s), shards)
                )
        else:
            outs = [self._replay_shard(plan, replay_groups)]
        res = self.result
        for ins, upd, dele, fail, split, aux, modified, underflow in outs:
            res.inserted += ins
            res.updated += upd
            res.deleted += dele
            res.failed += fail
            res.split_leaves += split
            self.aux.update(aux)
            self.modified.update(modified)
            self.underflow.update(underflow)

    def _apply_fast(self, plan: UpdatePlan) -> None:
        """Update-only leaf groups, no per-leaf state machine needed.

        Updates never change key membership, and a leaf none of whose
        batch ops insert or delete can never split or merge — so every
        op's outcome is static: one rowwise searchsorted over a gathered
        row block decides existence, and conflicting writes to the same
        slot collapse to the arrival-order winner (the scalar semantics:
        later ops overwrite earlier ones).
        """
        fast_pos = np.repeat(
            plan.group_update_only, np.diff(plan.group_bounds)
        )
        fast_idx = plan.order[fast_pos]
        if fast_idx.size == 0:
            return
        slots = self._slots
        leaf_block = self.layout.key_region[self.layout.leaf_start :]
        fleaf = plan.leaves[fast_idx]
        fkeys = plan.keys[fast_idx]
        rows = leaf_block[fleaf]
        pos = np.sum(rows < fkeys[:, None], axis=1)
        clamped = np.minimum(pos, slots - 1)
        exists = (pos < slots) & (
            rows[np.arange(fleaf.size), clamped] == fkeys
        )
        n_hit = int(np.count_nonzero(exists))
        self.result.updated += n_hit
        self.result.failed += int(fast_idx.size - n_hit)
        hit = np.flatnonzero(exists)
        if hit.size == 0:
            return
        target = fleaf[hit] * slots + pos[hit]
        arrival = fast_idx[hit]
        by_target = np.lexsort((arrival, target))
        tsorted = target[by_target]
        last = np.concatenate((tsorted[1:] != tsorted[:-1], [True]))
        winners = by_target[last]
        self._ov_leaf = fleaf[hit][winners]
        self._ov_pos = pos[hit][winners]
        self._ov_val = plan.values[arrival[winners]]

    def _apply_singles(
        self, plan: UpdatePlan, groups: np.ndarray
    ) -> np.ndarray:
        """Single-op insert/delete groups whose leaf cannot change shape.

        A one-op group inserting into a non-full leaf (or deleting from an
        above-minimum leaf) can never stage an auxiliary node: the scalar
        state machine reduces to "find the slot, shift the row by one".
        Both steps vectorize across all such groups at once — one gathered
        row block, one rowwise searchsorted, one ``np.where`` shift — so
        these groups skip the per-op Python replay loop entirely.  The
        produced staged content is exactly what the replay would have
        staged (``modified[leaf]``, successes only), so the movement stage
        and the scalar-equivalence contract are untouched.  Returns the
        groups that still need the replay path.
        """
        bounds = plan.group_bounds
        single = groups[np.diff(bounds)[groups] == 1]
        if single.size == 0:
            return groups
        layout = self.layout
        slots = self._slots
        op_idx = plan.order[bounds[single]]
        kinds = plan.kinds[op_idx]
        lids = plan.group_leaves[single]
        rows = layout.key_region[layout.leaf_start :][lids]
        counts = (rows != KEY_MAX).sum(axis=1)
        is_ins = kinds == K_INSERT
        eligible = np.where(
            is_ins, counts < slots,
            (kinds == K_DELETE) & (counts > self._min_leaf),
        )
        e = np.flatnonzero(eligible)
        if e.size == 0:
            return groups
        rows = rows[e]
        vrows = layout.leaf_values[lids[e]]
        okeys = plan.keys[op_idx[e]]
        ovals = plan.values[op_idx[e]]
        ins_e = is_ins[e]
        pos = np.sum(rows < okeys[:, None], axis=1)
        clamped = np.minimum(pos, slots - 1)
        exists = rows[np.arange(e.size), clamped] == okeys
        ok = np.where(ins_e, ~exists, exists)
        n_ins = int(np.count_nonzero(ins_e & ok))
        n_del = int(np.count_nonzero(~ins_e & ok))
        res = self.result
        res.inserted += n_ins
        res.deleted += n_del
        res.failed += int(e.size - n_ins - n_del)
        self.n_single += int(e.size)

        win = np.flatnonzero(ok)
        if win.size:
            cols = np.arange(slots)
            wrows, wvrows = rows[win], vrows[win]
            wpos = pos[win][:, None]
            wins = ins_e[win]
            # Insert: row shifted right of the slot (a non-full leaf's
            # last column is a pad, so nothing real falls off the end).
            right_k = np.concatenate([wrows[:, :1], wrows[:, :-1]], axis=1)
            right_v = np.concatenate([wvrows[:, :1], wvrows[:, :-1]], axis=1)
            ins_k = np.where(
                cols < wpos, wrows,
                np.where(cols == wpos, okeys[win][:, None], right_k),
            )
            ins_v = np.where(
                cols < wpos, wvrows,
                np.where(cols == wpos, ovals[win][:, None], right_v),
            )
            # Delete: row shifted left of the slot, pad rolling in.
            pad_k = np.full((win.size, 1), KEY_MAX, dtype=wrows.dtype)
            pad_v = np.full((win.size, 1), NOT_FOUND, dtype=wvrows.dtype)
            del_k = np.where(
                cols < wpos, wrows,
                np.concatenate([wrows[:, 1:], pad_k], axis=1),
            )
            del_v = np.where(
                cols < wpos, wvrows,
                np.concatenate([wvrows[:, 1:], pad_v], axis=1),
            )
            new_k = np.where(wins[:, None], ins_k, del_k)
            new_v = np.where(wins[:, None], ins_v, del_v)
            new_counts = counts[e][win] + np.where(wins, 1, -1)
            wleaves = lids[e][win].tolist()
            for i, leaf in enumerate(wleaves):
                c = int(new_counts[i])
                self.modified[int(leaf)] = AuxiliaryNode(
                    keys=new_k[i, :c].tolist(),
                    values=new_v[i, :c].tolist(),
                )
        return groups[~np.isin(groups, single[e])]

    def _replay_shard(
        self, plan: UpdatePlan, groups: np.ndarray
    ) -> _ShardOut:
        """Replay the groups' ops in arrival order on staged leaf content.

        The scalar path's structural state machine, verbatim: an insert
        into a full leaf or a delete from a minimum leaf upgrades the leaf
        to an auxiliary node (even when the op itself then fails — the
        scalar path stages the aux before attempting); once staged, every
        later op works the aux.  Leaves are disjoint across shards, so
        shards compose without locks.
        """
        layout = self.layout
        slots = self._slots
        min_leaf = self._min_leaf
        # Numpy scalar indexing costs a boxing per element; the replay
        # loop is pure Python, so convert the plan columns once per shard
        # and gather the shard's leaf rows in one batched fancy-index.
        kinds = plan.kinds.tolist()
        keys = plan.keys.tolist()
        values = plan.values.tolist()
        order = plan.order.tolist()
        bounds = plan.group_bounds.tolist()
        group_leaves = plan.group_leaves
        lids = group_leaves[groups]
        rows = layout.key_region[layout.leaf_start :][lids]
        vrows = layout.leaf_values[lids]
        counts = (rows != KEY_MAX).sum(axis=1).tolist()

        ins = upd = dele = fail = split = 0
        aux: Dict[int, AuxiliaryNode] = {}
        modified: Dict[int, AuxiliaryNode] = {}
        underflow: Set[int] = set()

        for gi, g in enumerate(groups.tolist()):
            leaf = int(lids[gi])
            c = counts[gi]
            node = AuxiliaryNode(
                keys=rows[gi, :c].tolist(), values=vrows[gi, :c].tolist()
            )
            is_aux = False
            effective = 0
            for oi in order[bounds[g] : bounds[g + 1]]:
                kind = kinds[oi]
                key = keys[oi]
                if kind == K_UPDATE:
                    if node.update(key, values[oi]):
                        upd += 1
                        effective += 1
                    else:
                        fail += 1
                elif kind == K_INSERT:
                    if not is_aux and len(node.keys) >= slots:
                        is_aux = True  # would split: stage on the aux
                        split += 1
                    if node.insert(key, values[oi]):
                        ins += 1
                        effective += 1
                    else:
                        fail += 1
                else:  # K_DELETE
                    if not is_aux and len(node.keys) <= min_leaf:
                        is_aux = True  # would merge: stage on the aux
                        split += 1
                    if node.delete(key):
                        dele += 1
                        effective += 1
                        if is_aux and len(node.keys) < min_leaf:
                            underflow.add(leaf)
                    else:
                        fail += 1
            if is_aux:
                aux[leaf] = node
            elif effective:
                modified[leaf] = node
        return ins, upd, dele, fail, split, aux, modified, underflow

    # ------------------------------------------------------------- movement

    def _dirty_set(self) -> Set[int]:
        """Leaves whose rows cannot move verbatim — mirrors the scalar
        :meth:`~repro.core.update.BatchUpdater.dirty_leaves`, with post-
        batch occupancy derived from the staged replay state instead of
        mutated rows."""
        dirty: Set[int] = set(self.aux)
        dirty.update(self.underflow)
        if self.layout.n_leaves > 1:
            counts = self.layout.leaf_key_counts()
            if self.modified:
                for leaf, node in self.modified.items():
                    counts[leaf] = len(node.keys)
            dirty.update(
                int(u) for u in np.flatnonzero(counts < self._min_leaf)
            )
        return dirty

    def _leaf_content(self, leaf: int) -> Tuple[List[int], List[int]]:
        """Final logical content of a leaf: staged replay content if any,
        else the original row with pending fast-path value writes folded
        in."""
        node = self.aux.get(leaf)
        if node is None:
            node = self.modified.get(leaf)
        if node is not None:
            return list(node.keys), list(node.values)
        layout = self.layout
        row = layout.key_region[layout.leaf_start + leaf]
        mask = row != KEY_MAX
        ks = row[mask].tolist()
        vs = layout.leaf_values[leaf][mask].tolist()
        ov_leaf = self._ov_leaf
        if ov_leaf is not None:
            lo = int(np.searchsorted(ov_leaf, leaf, side="left"))
            hi = int(np.searchsorted(ov_leaf, leaf, side="right"))
            for t in range(lo, hi):
                vs[int(self._ov_pos[t])] = int(self._ov_val[t])
        return ks, vs

    def _movement(self) -> int:
        """Plan and materialize the post-batch layout; returns the dirty-
        leaf count (for instrumentation)."""
        directives = self._movement_plan()
        self.new_layout = self._materialize(directives)
        return self._n_dirty

    def _movement_plan(self) -> List[list]:
        """The §3.2.2 movement plan (see :func:`_plan_leaf_movement`),
        over this batch's staged replay state."""
        layout = self.layout
        dirty_set = self._dirty_set()
        self._n_dirty = len(dirty_set)
        min_leaf = self._min_leaf
        slots = self._slots
        target = max(min_leaf, min(slots, round(self.fill * slots)))
        directives = _plan_leaf_movement(
            layout.n_leaves, dirty_set, self._leaf_content,
            min_leaf, slots, target,
        )

        res = self.result
        res.moved_clean = sum(d[2] - d[1] for d in directives if d[0] == "K")
        res.rebuilt_dirty = sum(1 for d in directives if d[0] == "N")
        res.underflow_leaves = len(self.underflow)
        return directives

    def _materialize(
        self, directives: List[list]
    ) -> Optional[HarmoniaLayout]:
        """Build the new layout from the movement plan in block operations:
        keep-ranges gather as contiguous slices, rebuilt and modified rows
        land via one flat ``(row, col)`` scatter, pending fast-path value
        writes scatter through the old→new row map."""
        if not directives:
            return None  # every key was deleted
        old = self.layout
        slots = self._slots
        if (
            len(directives) == 1
            and directives[0][0] == "K"
            and directives[0][1] == 0
            and directives[0][2] == old.n_leaves
        ):
            # No leaf moved: every row keeps its slot, so the child
            # structure (prefix sum, level starts, chunking) is unchanged
            # and a full reassembly would reproduce the old internal
            # region except where a leaf's minimum changed.  Patch those
            # separators in place instead of rebuilding — the common case
            # for in-place-dominated batches.
            return self._materialize_kept()

        keep_ranges: List[Tuple[int, int, int]] = []  # (dst, src_lo, src_hi)
        write_rows: List[Tuple[int, List[int], List[int]]] = []
        dst = 0
        for d in directives:
            if d[0] == "K":
                keep_ranges.append((dst, d[1], d[2]))
                dst += d[2] - d[1]
            else:
                write_rows.append((dst, d[1], d[2]))
                dst += 1
        new_n_leaves = dst

        leaf_keys = np.full((new_n_leaves, slots), KEY_MAX, dtype=KEY_DTYPE)
        leaf_vals = np.full(
            (new_n_leaves, slots), NOT_FOUND, dtype=VALUE_DTYPE
        )
        old_to_new = np.full(old.n_leaves, -1, dtype=np.int64)
        old_keys = old.key_region[old.leaf_start :]
        for dlo, slo, shi in keep_ranges:
            n = shi - slo
            leaf_keys[dlo : dlo + n] = old_keys[slo:shi]
            leaf_vals[dlo : dlo + n] = old.leaf_values[slo:shi]
            old_to_new[slo:shi] = np.arange(dlo, dlo + n, dtype=np.int64)

        # Kept leaves the replay modified in place: overwrite their rows
        # with the final content, padded to full canonical rows (the
        # gather above copied the stale original).
        for leaf, node in self.modified.items():
            nd = int(old_to_new[leaf])
            if nd >= 0:
                pad = slots - len(node.keys)
                write_rows.append((
                    nd,
                    node.keys + [int(KEY_MAX)] * pad,
                    node.values + [int(NOT_FOUND)] * pad,
                ))

        if write_rows:
            sizes = np.asarray(
                [len(ks) for _, ks, _ in write_rows], dtype=np.int64
            )
            total = int(sizes.sum())
            if total:
                dsts = np.asarray(
                    [d for d, _, _ in write_rows], dtype=np.int64
                )
                row_idx = np.repeat(dsts, sizes)
                starts = np.zeros(sizes.size, dtype=np.int64)
                np.cumsum(sizes[:-1], out=starts[1:])
                col_idx = (
                    np.arange(total, dtype=np.int64) - np.repeat(starts, sizes)
                )
                flat_keys = np.concatenate(
                    [np.asarray(ks, dtype=KEY_DTYPE)
                     for _, ks, _ in write_rows]
                )
                flat_vals = np.concatenate(
                    [np.asarray(vs, dtype=VALUE_DTYPE)
                     for _, _, vs in write_rows]
                )
                leaf_keys[row_idx, col_idx] = flat_keys
                leaf_vals[row_idx, col_idx] = flat_vals

        # Pending fast-path value writes into kept rows (writes into
        # absorbed rows were already folded in via _leaf_content).
        if self._ov_leaf is not None:
            kept = old_to_new[self._ov_leaf]
            live = kept >= 0
            if np.any(live):
                leaf_vals[kept[live], self._ov_pos[live]] = self._ov_val[live]

        n_keys = int(np.count_nonzero(leaf_keys != KEY_MAX))
        return _assemble_layout(
            old.fanout, leaf_keys, leaf_vals, n_keys, self.fill
        )

    def _materialize_kept(self) -> HarmoniaLayout:
        """All leaves keep their slots: copy the old arrays, overwrite
        replay-modified rows, scatter pending fast-path value writes, and
        patch the internal separators whose leaf minimum changed.

        Equivalent to a full reassembly because the assembler derives the
        child structure from the leaf count alone (unchanged here) and
        every internal key from a subtree minimum — all of which are
        already in the old region except the patched ones.
        """
        old = self.layout
        slots = self._slots
        key_region = old.key_region.copy()
        leaf_values = old.leaf_values.copy()
        leaf_keys = key_region[old.leaf_start :]
        delta = 0
        changed: List[Tuple[int, int]] = []  # (leaf index, new minimum)
        for leaf, node in self.modified.items():
            row = leaf_keys[leaf]
            old_min = int(row[0])
            delta += len(node.keys) - int(np.count_nonzero(row != KEY_MAX))
            pad = slots - len(node.keys)
            leaf_keys[leaf] = node.keys + [int(KEY_MAX)] * pad
            leaf_values[leaf] = node.values + [int(NOT_FOUND)] * pad
            if node.keys[0] != old_min:
                changed.append((leaf, node.keys[0]))
        if self._ov_leaf is not None:
            leaf_values[self._ov_leaf, self._ov_pos] = self._ov_val
        if changed:
            self._patch_separators(key_region, changed)
        return HarmoniaLayout(
            fanout=old.fanout,
            height=old.height,
            key_region=key_region,
            prefix_sum=old.prefix_sum.copy(),
            leaf_values=leaf_values,
            level_starts=old.level_starts.copy(),
            n_keys=old.n_keys + delta,
        )

    def _patch_separators(
        self, key_region: np.ndarray, changed: List[Tuple[int, int]]
    ) -> None:
        """Propagate changed leaf minima up the internal levels.

        A node's minimum appears as separator ``within - 1`` of its
        parent when it is not the first child; a first child's minimum is
        the parent's own minimum and recurses upward.  Parents come from
        the layout's own prefix-sum child region (Equation 1), so the
        patch is exact for any layout, however it was built.
        """
        old = self.layout
        prefix = old.prefix_sum
        leaf_start = old.leaf_start
        pending = [(leaf_start + leaf, new_min) for leaf, new_min in changed]
        while pending:
            nxt: List[Tuple[int, int]] = []
            for c, new_min in pending:
                if c == 0:  # the root has no parent
                    continue
                p = int(np.searchsorted(prefix, c, side="right")) - 1
                within = c - int(prefix[p])
                if within > 0:
                    key_region[p, within - 1] = new_min
                else:
                    nxt.append((p, new_min))
            pending = nxt


# --------------------------------------------------------------------------
# Gapped executor — absorb in place, compact rarely
# --------------------------------------------------------------------------


class GappedBatchUpdater:
    """Applies batches against gapped leaf rows; movement is demoted to a
    rare compaction epoch.

    One instance per batch.  The input layout is never mutated: the leaf
    arrays are copied once up front (the internal region and prefix sum
    are *shared* — absorption never touches them), updates and gap-
    absorbable inserts/deletes land as vectorized in-place scatters on
    the working copy, and only three conditions trigger a compaction
    epoch (the §3.2.2 movement plan + re-chunking at the fill target):

    * **hard** — a leaf group could overflow its row (gross inserts would
      exceed the slack), so its final content is staged on an
      :class:`~repro.core.update.AuxiliaryNode`;
    * **watermark** — the fraction of leaves pending compaction
      (underflowed past the B+tree minimum, or packed full when the fill
      target leaves slack) crosses ``config.gap_watermark``;
    * **occupancy** — global leaf-slot occupancy falls below
      ``config.occupancy_low`` (delete-heavy drift).

    Between epochs leaves may legally sit under-full or even empty: a
    leaf's content is always a subset of its routing interval, so global
    leaf-key ordering, the packed-leaf block and range scans are
    unaffected (see the gapped-leaves note in :mod:`repro.core.layout`).
    Oversized batches stream through the planner in ``config.plan_window``
    chunks in arrival order, which keeps routing/scatter scratch bounded
    and lets an epoch in one window hand fresh slack to the next.

    Equivalence contract: identical *results* to the scalar reference —
    accounting (inserted/updated/deleted/failed), query answers, and
    logical key/value content — not byte-identical arrays (gaps change
    the physical layout by design).  ``n_threads`` is accepted for
    interface parity and ignored: the absorb path is one NumPy pass and
    overflow replay is rare by construction.
    """

    def __init__(
        self,
        layout: HarmoniaLayout,
        fill: float = 0.7,
        config=None,
    ) -> None:
        from repro.core.config import UpdateConfig

        self.layout = layout
        self.fill = fill
        cfg = config or UpdateConfig(mode="gapped")
        self.watermark = cfg.gap_watermark
        self.occupancy_low = cfg.occupancy_low
        self.window = cfg.plan_window
        self.result = BatchResult()
        self.new_layout: Optional[HarmoniaLayout] = None
        self._fanout = layout.fanout
        self._slots = layout.slots
        self._min_leaf = (layout.fanout - 1 + 1) // 2
        target = max(
            self._min_leaf, min(self._slots, round(fill * self._slots))
        )
        self._target = target
        # A leaf counts as compaction-pending when packed to the brim only
        # if the fill target actually reserves slack (fill=1.0 layouts are
        # legitimately full everywhere).
        self._full_mark = self._slots if target < self._slots else self._slots + 1
        #: Overflow leaves staged for this window's epoch.
        self._aux: Dict[int, AuxiliaryNode] = {}
        # Stats surfaced via update.* metrics.
        self.absorbed_ops = 0
        self.overflow_ops = 0
        self.movement_epochs = 0
        self.windows = 0
        self.dirty_total = 0

    # ------------------------------------------------------------------ run

    def run(self, ops: Sequence[Operation], n_threads: int = 1) -> BatchResult:
        rec = obs.active
        timer = self.result.timer
        t0 = time.perf_counter()
        n = len(ops)
        code = _KIND_CODE
        kinds = np.fromiter(
            (code[op.kind] for op in ops), dtype=np.int8, count=n
        )
        keys = np.fromiter((op.key for op in ops), dtype=KEY_DTYPE, count=n)
        values = np.fromiter(
            (op.value for op in ops), dtype=VALUE_DTYPE, count=n
        )

        if n == 0:
            # Nothing to absorb and nothing moved: the snapshot stands.
            self.new_layout = self.layout
            return self.result

        self._adopt(self.layout, copy=True)
        for lo in range(0, n, self.window):
            hi = min(lo + self.window, n)
            self.windows += 1
            if self._kr is None:
                self._window_bootstrap(
                    kinds[lo:hi], keys[lo:hi], values[lo:hi]
                )
                continue
            with timer.phase("plan"):
                plan = self._window_plan(keys[lo:hi], kinds[lo:hi])
            with timer.phase("apply"):
                self._absorb(plan, kinds[lo:hi], keys[lo:hi], values[lo:hi])
                self._overflow_replay(
                    plan, kinds[lo:hi], keys[lo:hi], values[lo:hi]
                )
            with timer.phase("movement"):
                if self._epoch_due():
                    self._compaction_epoch()

        if self._kr is None or self._n_keys == 0:
            # Every key deleted: publish the one empty-tree state the
            # other executors publish, not a zero-key layout.
            self.new_layout = None
        else:
            self.new_layout = HarmoniaLayout(
                fanout=self._fanout,
                height=self._height,
                key_region=self._kr,
                prefix_sum=self._prefix,
                leaf_values=self._lv,
                level_starts=self._lstarts,
                n_keys=self._n_keys,
                leaf_counts=self._counts,
            )
        t1 = time.perf_counter()

        if rec.enabled:
            res = self.result
            rec.counter("update.batches")
            rec.counter("update.ops", n)
            rec.counter("update.inplace_ops", self.absorbed_ops)
            rec.counter("update.absorbed_ops", self.absorbed_ops)
            rec.counter("update.replay_ops", self.overflow_ops)
            rec.counter("update.windows", self.windows)
            rec.counter("update.movement_epochs", self.movement_epochs)
            rec.counter("update.split_leaves", res.split_leaves)
            rec.counter("update.dirty_leaves", self.dirty_total)
            rec.counter("update.moved_leaves", res.moved_clean)
            rec.counter("update.rebuilt_leaves", res.rebuilt_dirty)
            rec.gauge("update.gap_absorption", self.absorbed_ops / n)
            if self._kr is not None:
                counts = self._counts
                occ = self._n_keys / max(counts.size * self._slots, 1)
                rec.gauge("layout.occupancy", occ)
                rec.gauge(
                    "layout.compaction_pending",
                    int(np.count_nonzero(self._pending(counts)))
                    / max(counts.size, 1),
                )
            wall = t1 - t0
            if wall > 0.0:
                rec.gauge("update.throughput_ops", n / wall)
            # Phase durations accumulate across windows; surface them as
            # three contiguous spans so trace totals stay truthful.
            plan_s = timer.get("plan")
            apply_s = timer.get("apply")
            move_s = timer.get("movement")
            base = t1 - (plan_s + apply_s + move_s)
            rec.span_at("update.plan", base, base + plan_s, cat="update",
                        ops=n)
            rec.span_at("update.apply", base + plan_s,
                        base + plan_s + apply_s, cat="update",
                        fast_ops=self.absorbed_ops,
                        replay_ops=self.overflow_ops)
            rec.span_at("update.movement", base + plan_s + apply_s, t1,
                        cat="update", dirty_leaves=self.dirty_total,
                        epochs=self.movement_epochs)
        return self.result

    # ------------------------------------------------------- working state

    def _adopt(self, layout: HarmoniaLayout, copy: bool) -> None:
        """Load the working arrays from a layout (copying when the layout
        is the published input snapshot; epoch outputs are already ours)."""
        self._kr = layout.key_region.copy() if copy else layout.key_region
        self._lv = layout.leaf_values.copy() if copy else layout.leaf_values
        self._leaf = self._kr[layout.leaf_start :]
        self._counts = layout.leaf_key_counts()
        self._n_keys = int(layout.n_keys)
        self._bounds = layout.leaf_bounds()
        self._prefix = layout.prefix_sum
        self._lstarts = layout.level_starts
        self._height = layout.height

    # ----------------------------------------------------------------- plan

    def _window_plan(self, wkeys: np.ndarray, wkinds: np.ndarray):
        """Route one window via the cached bounds and group per leaf.

        Returns ``(order, group_bounds, group_leaves, absorbable)``:
        the stable grouping permutation plus the per-group verdict —
        a group absorbs in place iff the leaf's current fill plus the
        group's gross inserts fits the row (a conservative bound: the
        row can then never overflow mid-sequence, whatever succeeds).
        """
        leaf = np.searchsorted(self._bounds, wkeys, side="right") - 1
        order = np.argsort(leaf, kind="stable")
        sl = leaf[order]
        m = sl.size
        starts = np.flatnonzero(
            np.concatenate(([True], sl[1:] != sl[:-1]))
        )
        gb = np.concatenate((starts, [m])).astype(np.int64)
        glf = sl[starts]
        g_ins = np.add.reduceat(
            (wkinds[order] == K_INSERT).astype(np.int64), starts
        )
        absorbable = self._counts[glf] + g_ins <= self._slots
        return order, gb, glf, absorbable

    # --------------------------------------------------------------- absorb

    def _absorb(
        self,
        plan,
        wkinds: np.ndarray,
        wkeys: np.ndarray,
        wvals: np.ndarray,
    ) -> None:
        """Fold every absorbable group into the working rows, one NumPy
        pass.

        Ops are bucketed per (leaf, key) with arrival order preserved;
        single-op keys (the overwhelming majority) resolve fully
        vectorized from the key's initial presence, multi-op chains fold
        in a small Python loop over their ops.  The fold yields, per
        distinct key: its final presence, its final value (when written)
        and the per-kind success counts — *logical* semantics, identical
        to the scalar reference because an op's outcome depends only on
        its own key's membership at that point, never on row capacity
        (the absorbability bound guarantees capacity up front).  Value
        overwrites scatter flat; leaves whose membership changed have
        their rows rebuilt by one concatenate + lexsort + segment-column
        scatter, writing canonical gapped rows (sorted keys, sentinel
        tail).
        """
        order, gb, glf, absorbable = plan
        take = np.repeat(absorbable, np.diff(gb))
        idx = order[take]
        if idx.size == 0:
            return
        self.absorbed_ops += int(idx.size)
        slots = self._slots
        L = np.repeat(glf[absorbable],
                      np.diff(gb)[absorbable])  # leaf per absorbed op
        K = wkeys[idx]
        D = wkinds[idx]
        V = wvals[idx]

        # Stable (leaf, key) bucketing; arrival order survives within a
        # bucket because idx is already (leaf, arrival)-ordered.
        srt = np.lexsort((K, L))
        L, K, D, V = L[srt], K[srt], D[srt], V[srt]
        nb = np.concatenate(
            ([True], (L[1:] != L[:-1]) | (K[1:] != K[:-1]))
        )
        ustart = np.flatnonzero(nb)
        ulen = np.diff(np.concatenate((ustart, [L.size])))
        uleaf = L[ustart]
        ukey = K[ustart]
        u = ustart.size

        rows = self._leaf[uleaf]
        pos = np.sum(rows < ukey[:, None], axis=1)
        clamped = np.minimum(pos, slots - 1)
        present0 = rows[np.arange(u), clamped] == ukey

        final_present = present0.copy()
        wrote = np.zeros(u, dtype=bool)
        write_val = np.zeros(u, dtype=VALUE_DTYPE)

        res = self.result
        single = ulen == 1
        if np.any(single):
            sk = D[ustart[single]]
            sv = V[ustart[single]]
            p0 = present0[single]
            is_i = sk == K_INSERT
            is_u = sk == K_UPDATE
            is_d = sk == K_DELETE
            ok = np.where(is_i, ~p0, p0)
            res.inserted += int(np.count_nonzero(is_i & ok))
            res.updated += int(np.count_nonzero(is_u & ok))
            res.deleted += int(np.count_nonzero(is_d & ok))
            res.failed += int(np.count_nonzero(~ok))
            # Inserts end present either way (a failed insert means the
            # key was already there); deletes end absent either way.
            final_present[single] = np.where(
                is_i, True, np.where(is_d, False, p0)
            )
            wrote[single] = ok & ~is_d
            write_val[single] = np.where(ok & ~is_d, sv, 0)

        for t in np.flatnonzero(~single).tolist():
            a = int(ustart[t])
            b = a + int(ulen[t])
            p = bool(present0[t])
            w = False
            val = 0
            for j in range(a, b):
                kind = int(D[j])
                if kind == K_UPDATE:
                    if p:
                        res.updated += 1
                        val = int(V[j])
                        w = True
                    else:
                        res.failed += 1
                elif kind == K_INSERT:
                    if p:
                        res.failed += 1
                    else:
                        res.inserted += 1
                        p = True
                        val = int(V[j])
                        w = True
                else:  # K_DELETE
                    if p:
                        res.deleted += 1
                        p = False
                        w = False
                    else:
                        res.failed += 1
            final_present[t] = p
            wrote[t] = w
            write_val[t] = val

        # 1) Value overwrites on keys that stay put: one flat scatter.
        vw = present0 & final_present & wrote
        if np.any(vw):
            self._lv[uleaf[vw], pos[vw]] = write_val[vw]

        # 2) Membership changes: rebuild the touched rows wholesale.
        add = ~present0 & final_present
        rem = present0 & ~final_present
        if not (np.any(add) or np.any(rem)):
            return
        touched = np.union1d(uleaf[add], uleaf[rem])
        R = self._leaf[touched]
        Vv = self._lv[touched]
        drop = np.zeros(R.shape, dtype=bool)
        drop[np.searchsorted(touched, uleaf[rem]), pos[rem]] = True
        keep = (R != KEY_MAX) & ~drop
        kept_row, _ = np.nonzero(keep)
        flat_row = np.concatenate(
            (kept_row, np.searchsorted(touched, uleaf[add]))
        )
        flat_key = np.concatenate((R[keep], ukey[add]))
        flat_val = np.concatenate((Vv[keep], write_val[add]))
        o = np.lexsort((flat_key, flat_row))
        flat_row, flat_key, flat_val = flat_row[o], flat_key[o], flat_val[o]
        cnt = np.bincount(flat_row, minlength=touched.size).astype(np.int64)
        seg = np.zeros(touched.size, dtype=np.int64)
        np.cumsum(cnt[:-1], out=seg[1:])
        col = np.arange(flat_row.size, dtype=np.int64) - seg[flat_row]
        newR = np.full((touched.size, slots), KEY_MAX, dtype=KEY_DTYPE)
        newV = np.full((touched.size, slots), NOT_FOUND, dtype=VALUE_DTYPE)
        newR[flat_row, col] = flat_key
        newV[flat_row, col] = flat_val
        self._leaf[touched] = newR
        self._lv[touched] = newV
        self._counts[touched] = cnt
        self._n_keys += int(np.count_nonzero(add)) - int(
            np.count_nonzero(rem)
        )

    # ------------------------------------------------------------- overflow

    def _overflow_replay(
        self,
        plan,
        wkinds: np.ndarray,
        wkeys: np.ndarray,
        wvals: np.ndarray,
    ) -> None:
        """Groups whose gross inserts exceed the leaf's slack: stage the
        leaf's full content on an auxiliary node and replay in arrival
        order (logical semantics — aux capacity is unbounded, exactly as
        in the scalar path).  Staging forces a compaction epoch at the
        end of this window, which re-chunks the aux content."""
        order, gb, glf, absorbable = plan
        ovf = np.flatnonzero(~absorbable)
        if ovf.size == 0:
            return
        res = self.result
        kinds = wkinds.tolist()
        keys = wkeys.tolist()
        vals = wvals.tolist()
        order_l = order.tolist()
        gb_l = gb.tolist()
        for g in ovf.tolist():
            leaf = int(glf[g])
            node = self._aux.get(leaf)
            if node is None:
                c = int(self._counts[leaf])
                node = AuxiliaryNode(
                    keys=self._leaf[leaf, :c].tolist(),
                    values=self._lv[leaf, :c].tolist(),
                )
                self._aux[leaf] = node
                res.split_leaves += 1
            for oi in order_l[gb_l[g] : gb_l[g + 1]]:
                kind = kinds[oi]
                self.overflow_ops += 1
                if kind == K_UPDATE:
                    if node.update(keys[oi], vals[oi]):
                        res.updated += 1
                    else:
                        res.failed += 1
                elif kind == K_INSERT:
                    if node.insert(keys[oi], vals[oi]):
                        res.inserted += 1
                        self._n_keys += 1
                    else:
                        res.failed += 1
                else:
                    if node.delete(keys[oi]):
                        res.deleted += 1
                        self._n_keys -= 1
                    else:
                        res.failed += 1

    # ------------------------------------------------------------ epochs

    def _pending(self, counts: np.ndarray) -> np.ndarray:
        """Leaves enqueued in the compaction set: below the B+tree minimum
        or packed to the brim (single-leaf trees are exempt from the
        minimum, as everywhere else)."""
        pending = counts >= self._full_mark
        if counts.size > 1:
            pending = pending | (counts < self._min_leaf)
        return pending

    def _epoch_due(self) -> bool:
        if self._aux:
            return True  # hard trigger: staged overflow content
        if self._n_keys == 0:
            return True
        counts = self._counts
        n_leaves = counts.size
        frac = int(np.count_nonzero(self._pending(counts))) / n_leaves
        if frac > self.watermark:
            return True
        if n_leaves > 1:
            occ = self._n_keys / (n_leaves * self._slots)
            if occ < self.occupancy_low:
                return True
        return False

    def _compaction_epoch(self) -> None:
        """The demoted movement pass: plan dirty runs over the compaction
        set (plus staged overflow leaves), re-chunk them at the fill
        target, and rebuild the internal region with the shared
        assembler.  Adopts the new arrays as the working state — they are
        freshly allocated, so later windows absorb into them in place
        without another copy."""
        self.movement_epochs += 1
        counts = self._counts
        dirty_set: Set[int] = set(
            int(x) for x in np.flatnonzero(self._pending(counts))
        )
        dirty_set.update(self._aux)
        self.dirty_total += len(dirty_set)
        res = self.result
        if counts.size > 1:
            res.underflow_leaves += int(
                np.count_nonzero(counts < self._min_leaf)
            )

        leaf = self._leaf
        lv = self._lv
        aux = self._aux

        def content(j: int):
            node = aux.get(j)
            if node is not None:
                return list(node.keys), list(node.values)
            c = int(counts[j])
            return leaf[j, :c].tolist(), lv[j, :c].tolist()

        directives = _plan_leaf_movement(
            counts.size, dirty_set, content,
            self._min_leaf, self._slots, self._target,
        )
        res.moved_clean += sum(
            d[2] - d[1] for d in directives if d[0] == "K"
        )
        res.rebuilt_dirty += sum(1 for d in directives if d[0] == "N")
        self._aux = {}
        if not directives:
            self._kr = None  # every key deleted; later windows bootstrap
            return

        slots = self._slots
        keep_ranges: List[Tuple[int, int, int]] = []
        write_rows: List[Tuple[int, List[int], List[int]]] = []
        dst = 0
        for d in directives:
            if d[0] == "K":
                keep_ranges.append((dst, d[1], d[2]))
                dst += d[2] - d[1]
            else:
                write_rows.append((dst, d[1], d[2]))
                dst += 1
        leaf_keys = np.full((dst, slots), KEY_MAX, dtype=KEY_DTYPE)
        leaf_vals = np.full((dst, slots), NOT_FOUND, dtype=VALUE_DTYPE)
        for dlo, slo, shi in keep_ranges:
            w = shi - slo
            leaf_keys[dlo : dlo + w] = leaf[slo:shi]
            leaf_vals[dlo : dlo + w] = lv[slo:shi]
        for drow, ks, vs in write_rows:
            leaf_keys[drow, : len(ks)] = ks
            leaf_vals[drow, : len(vs)] = vs
        new = _assemble_layout(
            self._fanout, leaf_keys, leaf_vals, self._n_keys, self.fill
        )
        self._adopt(new, copy=False)

    # ------------------------------------------------------------ bootstrap

    def _window_bootstrap(
        self,
        wkinds: np.ndarray,
        wkeys: np.ndarray,
        wvals: np.ndarray,
    ) -> None:
        """A window arriving after the tree emptied mid-batch: fold it
        through a plain dict (the empty tree has no structure to absorb
        into) and bulk-build a fresh gapped layout from the survivors —
        the same semantics as :meth:`HarmoniaTree._bootstrap_batch`."""
        res = self.result
        pairs: Dict[int, int] = {}
        kinds = wkinds.tolist()
        keys = wkeys.tolist()
        vals = wvals.tolist()
        for i in range(len(keys)):
            k = keys[i]
            kind = kinds[i]
            if kind == K_INSERT:
                if k in pairs:
                    res.failed += 1
                else:
                    pairs[k] = vals[i]
                    res.inserted += 1
            elif kind == K_UPDATE:
                if k in pairs:
                    pairs[k] = vals[i]
                    res.updated += 1
                else:
                    res.failed += 1
            else:
                if pairs.pop(k, None) is not None:
                    res.deleted += 1
                else:
                    res.failed += 1
        if pairs:
            sk = np.fromiter(sorted(pairs), dtype=KEY_DTYPE, count=len(pairs))
            sv = np.asarray([pairs[int(k)] for k in sk], dtype=VALUE_DTYPE)
            new = HarmoniaLayout.from_sorted(
                sk, sv, fanout=self._fanout, fill=self.fill
            )
            self._adopt(new, copy=False)
            self._n_keys = len(pairs)


__all__ = [
    "K_INSERT",
    "K_UPDATE",
    "K_DELETE",
    "UpdatePlan",
    "plan_batch",
    "VectorizedBatchUpdater",
    "GappedBatchUpdater",
]
