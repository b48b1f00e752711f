"""Level-flat batch query engine — the host-side PSA payoff.

PSA (§4.1) exists so that *adjacent queries share traversal paths*: after
the partial sort, queries landing in the same node sit next to each other
in the batch.  On the GPU that adjacency becomes coalesced memory
transactions (Figure 12's ``gld_transactions`` drop); on the host path it
means every level's binary searches walk neighbouring memory.  The naive
:func:`repro.core.search.search_batch` ignores this and gathers one
``fanout - 1`` key row *per query* at every level.

:class:`BatchQueryEngine` flattens the descent instead.  Because the key
region is stored in BFS order (§3.1), the real separator keys of one
internal level, read left to right with the ``KEY_MAX`` pads dropped, are
globally sorted, and Equation 1 turns into one array step per level:

* ``p = searchsorted(level_keys[l], q, side="right")`` counts the level's
  keys ``<= q``.  They are the keys of every node left of the query's
  node plus the ``slot`` keys of its own node that are ``<= q``;
* every internal node has exactly ``keys + 1`` children, so the nodes
  left of it own ``keys-before + node_local`` children on the next level,
  and the child taken is ``child_local = p + node_local``.

So the whole level is ``node_local += searchsorted(level_keys[l], q)`` —
one C call and one add, whatever the batch order or tree width.  The leaf
level exploits §3.2.1's contiguous leaf block directly: all real leaf keys
form one globally sorted array, so every query resolves with one batched
binary search.

The flat arrays (:class:`LevelArrays`) are built once per
:class:`HarmoniaLayout` object and stored on it, so every engine, tree
facade, pinned epoch view, stream executor and tile scheduler over one
snapshot shares one block, and a fresh engine costs O(1).  Batch updates
replace the snapshot object (phase semantics), and the arrays die with it.

Scratch buffers (:class:`EngineScratch`) are shape-sticky: repeated
batches of the same size reuse every internal buffer.  For large batches
the engine can shard the (contiguous, locality-preserving) query range
over a thread pool — NumPy's kernels release the GIL, so chunks traverse
in parallel.

The engine reports :class:`EngineStats` with ``unique_nodes_per_level``,
the frontier run count per level, which corresponds to the simulator's
``gld_transactions`` (fewer distinct nodes touched per level ⇒ fewer
memory transactions on the device, Figure 12).  By the disjoint-children
property of Equation 1 the run count can only grow from one level to the
next, so the counter is monotonically non-decreasing down the tree.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Tuple, Union

import numpy as np

import repro.obs as obs
from repro.constants import KEY_MAX, NOT_FOUND, VALUE_DTYPE
from repro.core.layout import HarmoniaLayout
from repro.errors import ConfigError
from repro.utils.validation import ensure_key_array

_clock = time.perf_counter

#: Batches smaller than this are not worth sharding across threads.
DEFAULT_MIN_PARALLEL = 1 << 15


class LevelArrays(NamedTuple):
    """The flat per-snapshot arrays the level-flat descent reads.

    ``level_keys[l]`` holds the real separator keys of internal level
    ``l`` in BFS order (globally sorted); ``packed_keys`` /
    ``packed_values`` are the leaf block with its pads squeezed out.  All
    arrays are read-only: they are shared by every reader of the snapshot.
    """

    level_keys: Tuple[np.ndarray, ...]
    packed_keys: np.ndarray
    packed_values: np.ndarray
    nbytes: int


#: Serializes level-array builds, so concurrent first readers of one
#: snapshot (epoch readers, shard workers) build its arrays once.
_build_lock = threading.Lock()


def level_arrays(layout: HarmoniaLayout) -> LevelArrays:
    """The layout's :class:`LevelArrays`, built on first use and cached on
    the layout object itself (not in a module cache, which would keep the
    arrays of dead snapshots alive).  O(n_keys) once per snapshot."""
    arrays = layout._level_arrays
    built = False
    if arrays is None:
        with _build_lock:
            arrays = layout._level_arrays
            if arrays is None:
                arrays = layout._level_arrays = _build_level_arrays(layout)
                built = True
    rec = obs.active
    if rec.enabled:
        rec.counter("engine.level_arrays.builds" if built
                    else "engine.level_arrays.hits")
        rec.gauge("engine.level_arrays.bytes", float(arrays.nbytes))
    return arrays


def _build_level_arrays(layout: HarmoniaLayout) -> LevelArrays:
    starts = layout.level_starts.tolist()
    # Every level's rows flattened with the KEY_MAX pads dropped; the
    # last level is the leaf block.
    rows = [layout.key_region[a:b].ravel() for a, b in zip(starts, starts[1:])]
    real = [r != KEY_MAX for r in rows]
    *level_keys, packed_keys = [r[m] for r, m in zip(rows, real)]
    packed_values = layout.leaf_values.ravel()[real[-1]]
    parts = (*level_keys, packed_keys, packed_values)
    for a in parts:
        a.setflags(write=False)
    return LevelArrays(tuple(level_keys), packed_keys, packed_values,
                       sum(int(a.nbytes) for a in parts))


def _descend(level_keys, q: np.ndarray, node: np.ndarray):
    """The level-flat descent, in place on ``node`` (level-local indices,
    all 0 at the root).  Yields ``l`` once ``node`` holds each query's
    node on level ``l``."""
    for lvl, keys in enumerate(level_keys, 1):
        # keys-before-node + slot (the level keys <= q), plus one child
        # per node left of this one: Equation 1 in level-local indices.
        node += np.searchsorted(keys, q, side="right")
        yield lvl


@dataclass(frozen=True)
class EngineStats:
    """Execution record of one :meth:`BatchQueryEngine.execute` call.

    ``unique_nodes_per_level[l]`` counts the frontier *runs* at level
    ``l`` — for a PSA-grouped batch exactly the distinct nodes visited,
    the host-side analog of the simulator's ``gld_transactions`` (summed
    across shards in the threaded mode).
    """

    n_queries: int
    height: int
    unique_nodes_per_level: np.ndarray  # (height,) int64
    n_chunks: int
    issue_sorted: Optional[bool]  #: PSA metadata, None when unknown
    #: True when the batch ran through the monotone dual-walk path
    #: (:meth:`BatchQueryEngine.execute_hinted`): the frontier carries
    #: lower-bound hints instead of per-query node indices.
    hinted: bool = False
    #: Levels that fell back to a per-query broadcast compare.  The
    #: level-flat descent has no fallback, so this is always 0.
    broadcast_levels: int = 0

    @property
    def total_node_reads(self) -> int:
        """Frontier runs summed over levels: the distinct node reads a
        run-compacted traversal of the batch performs."""
        return int(self.unique_nodes_per_level.sum())

    @property
    def naive_node_reads(self) -> int:
        """Row reads the naive per-query traversal would have performed."""
        return int(self.n_queries) * int(self.height)

    @property
    def compaction_ratio(self) -> float:
        """How many times fewer node reads than the naive path (>= 1)."""
        reads = self.total_node_reads
        if reads == 0:
            return 1.0
        return self.naive_node_reads / reads

    def record_to(self, rec, start_s: Optional[float] = None,
                  end_s: Optional[float] = None) -> None:
        """Publish this execution record into an obs recorder.

        The stats object stays the per-call view; the registry is the
        shared export path (snapshots, reports, diffs).  Called once per
        batch, after all arrays are computed — nothing here touches the
        traversal loops.
        """
        rec.counter("engine.batches")
        rec.counter("engine.queries", self.n_queries)
        if self.hinted:
            rec.counter("engine.hinted_batches")
        rec.counter("engine.node_reads", self.total_node_reads)
        rec.counter("engine.chunks", self.n_chunks)
        nq = self.n_queries
        for lvl in range(self.height):
            u = int(self.unique_nodes_per_level[lvl])
            rec.counter(f"engine.unique_nodes.l{lvl}", u)
            if u > 0 and nq > 0:
                rec.histogram("engine.run_length", nq / u)
        if start_s is not None and end_s is not None:
            rec.span_at(
                "engine.execute", start_s, end_s, cat="engine",
                nq=nq, chunks=self.n_chunks,
                issue_sorted=self.issue_sorted,
            )


class EngineScratch:
    """Shape-sticky named buffer pool.

    ``array(name, shape)`` returns the cached buffer when the shape and
    dtype match the previous request under that name, else allocates a
    replacement — so repeated batches of the same shape allocate nothing.
    Each worker thread owns its own scratch; buffers are never shared.
    """

    __slots__ = ("_buffers",)

    def __init__(self) -> None:
        self._buffers: Dict[str, np.ndarray] = {}

    def array(
        self,
        name: str,
        shape: Union[int, Tuple[int, ...]],
        dtype=np.int64,
    ) -> np.ndarray:
        if isinstance(shape, int):
            shape = (shape,)
        shape = tuple(int(s) for s in shape)
        buf = self._buffers.get(name)
        if buf is None or buf.shape != shape or buf.dtype != np.dtype(dtype):
            buf = np.empty(shape, dtype=dtype)
            self._buffers[name] = buf
        return buf

    @property
    def nbytes(self) -> int:
        return sum(int(b.nbytes) for b in self._buffers.values())

    def clear(self) -> None:
        self._buffers.clear()


class BatchQueryEngine:
    """Level-flat point-lookup engine over one layout snapshot.

    Drop-in accelerated replacement for
    :func:`repro.core.search.search_batch` (bit-identical results on any
    query order); fastest when the batch went through PSA first.

    ``n_workers > 1`` shards large batches into contiguous chunks over a
    thread pool (chunking preserves the PSA adjacency inside each shard).
    """

    def __init__(
        self,
        layout: HarmoniaLayout,
        n_workers: int = 1,
        min_parallel: int = DEFAULT_MIN_PARALLEL,
    ) -> None:
        if not isinstance(layout, HarmoniaLayout):
            raise ConfigError("BatchQueryEngine needs a HarmoniaLayout")
        if n_workers < 1:
            raise ConfigError(f"n_workers must be >= 1, got {n_workers}")
        if min_parallel < 1:
            raise ConfigError(f"min_parallel must be >= 1, got {min_parallel}")
        self.layout = layout
        self.n_workers = int(n_workers)
        self.min_parallel = int(min_parallel)
        self._scratch = [EngineScratch() for _ in range(self.n_workers)]
        self.last_stats: Optional[EngineStats] = None

    @property
    def scratch_nbytes(self) -> int:
        """Bytes currently held by the shape-sticky scratch pools — the
        resident traversal footprint the tile scheduler budgets against
        (the level arrays belong to the layout snapshot, not to the
        per-batch footprint)."""
        return sum(s.nbytes for s in self._scratch)

    def _packed_leaves(self) -> Tuple[np.ndarray, np.ndarray]:
        """The snapshot's shared packed leaf block ``(keys, values)``:
        §3.2.1's contiguous leaf array with the ``KEY_MAX`` pads removed,
        globally sorted."""
        arrays = level_arrays(self.layout)
        return arrays.packed_keys, arrays.packed_values

    # ------------------------------------------------------------- execution

    def _result_buffer(self, nq: int, out: Optional[np.ndarray]) -> np.ndarray:
        if out is None:
            return np.full(nq, NOT_FOUND, dtype=VALUE_DTYPE)
        if out.shape != (nq,) or out.dtype != np.dtype(VALUE_DTYPE):
            raise ConfigError(
                f"out must be shape ({nq},) dtype {np.dtype(VALUE_DTYPE)}, "
                f"got shape {out.shape} dtype {out.dtype}"
            )
        out.fill(NOT_FOUND)
        return out

    def execute(
        self,
        queries,
        issue_sorted: Optional[bool] = None,
        out: Optional[np.ndarray] = None,
        chunk_quantum: int = 1,
        overlay=None,
    ) -> np.ndarray:
        """Batch point lookup; values aligned with ``queries`` as given
        (no PSA restore — use :meth:`execute_prepared` for that).

        ``issue_sorted`` is the PSA metadata hint recorded in the stats;
        correctness never depends on it.  ``out`` lets callers supply the
        result buffer (the streaming executor's per-slot scratch); it
        must match the batch size and is overwritten in full.
        ``chunk_quantum`` aligns thread-shard boundaries to a multiple of
        the NTG cohort (§4.2): queries the narrowed groups would serve in
        one warp stay in one chunk, so the split never severs a PSA run
        mid-cohort.  With per-level degrees the cohort is
        ``warp_size // min(ntg_degrees)``.  Results are identical for any
        quantum.  ``overlay`` is an optional ``fn(keys, values) -> values``
        post-pass applied to the finished batch in place — the
        snapshot-epoch read path passes
        :meth:`repro.core.delta.DeltaView.overlay_values` here, and since
        the overlay is elementwise by key it commutes with the PSA
        permutation.
        """
        rec = obs.active
        t_start = _clock() if rec.enabled else 0.0
        q = ensure_key_array(np.asarray(queries), "queries")
        nq = q.size
        h = self.layout.height
        values = self._result_buffer(nq, out)
        uniq = np.zeros(h, dtype=np.int64)
        n_chunks = 0
        if nq:
            arrays = level_arrays(self.layout)  # before any worker starts
            if self.n_workers > 1 and nq >= max(self.min_parallel,
                                                 self.n_workers):
                chunks = self._chunk_bounds(nq, chunk_quantum)
                with ThreadPoolExecutor(max_workers=self.n_workers) as pool:
                    futures = [
                        pool.submit(self._run_chunk, q[s:e], arrays,
                                    self._scratch[i], values[s:e])
                        for i, (s, e) in enumerate(chunks)
                    ]
                    for f in futures:
                        uniq += f.result()
                n_chunks = len(chunks)
            else:
                uniq = self._run_chunk(q, arrays, self._scratch[0], values)
                n_chunks = 1
            if overlay is not None:
                overlay(q, values)
        self.last_stats = EngineStats(nq, h, uniq, n_chunks, issue_sorted)
        if rec.enabled:
            self.last_stats.record_to(rec, t_start, _clock())
        return values

    def level_nodes(self, queries) -> np.ndarray:
        """BFS node index each query visits at every level, ``(height,
        n_queries)`` — the level-flat counterpart of
        :attr:`repro.core.search.TraversalTrace.node_idx`."""
        q = ensure_key_array(np.asarray(queries), "queries")
        starts = self.layout.level_starts
        trace = np.empty((self.layout.height, q.size), dtype=np.int64)
        trace[0] = 0  # the root
        node = np.zeros(q.size, dtype=np.int64)
        for lvl in _descend(level_arrays(self.layout).level_keys, q, node):
            np.add(node, starts[lvl], out=trace[lvl])
        return trace

    def execute_hinted(
        self,
        queries,
        out: Optional[np.ndarray] = None,
        overlay=None,
    ) -> np.ndarray:
        """Dual-walk lookup for an **ascending** batch: each level's
        ``searchsorted`` starts from the previous frontier's lower bound.

        The monotone order inverts the per-level work: the frontier is
        carried as ``(nodes, starts)`` — one entry per *distinct* node —
        and each node's key row is searchsorted into its own query slice
        to find the child cut points.  That is O(frontier · fanout ·
        log run) per level rather than O(n_queries), and children whose
        query slice is empty are pruned before they are ever visited —
        the JZ-tree dual-walk subtree skip: a whole subtree of ``tree_b``
        is never descended when no probe from ``tree_a`` lands in its key
        range.  ``KEY_MAX`` row pads cut at ``e`` and so prune their
        children automatically.

        Values are byte-identical to :meth:`execute` on the same batch —
        the contract the join layer's hypothesis suite pins — because
        both paths resolve values with the same packed-leaf binary
        search; the level walk only determines the traversal *work*
        (and the stats the dual-walk kernel model consumes).

        Raises :class:`~repro.errors.ConfigError` when the batch is not
        ascending; callers that cannot guarantee order should use
        :meth:`execute`.  Single-threaded by design: the frontier walk
        touches O(internal nodes) rows, not O(n_queries).
        """
        rec = obs.active
        t_start = _clock() if rec.enabled else 0.0
        q = ensure_key_array(np.asarray(queries), "queries")
        nq = q.size
        h = self.layout.height
        if nq > 1 and np.any(q[1:] < q[:-1]):
            raise ConfigError(
                "execute_hinted requires an ascending (sorted) batch"
            )
        values = self._result_buffer(nq, out)
        uniq = np.zeros(h, dtype=np.int64)
        if nq:
            arrays = level_arrays(self.layout)
            scratch = self._scratch[0]
            uniq = self._walk_hinted(q)
            self._leaf_finish(q, arrays, scratch, values)
            if overlay is not None:
                overlay(q, values)
        self.last_stats = EngineStats(nq, h, uniq, int(nq > 0), True,
                                      hinted=True)
        if rec.enabled:
            self.last_stats.record_to(rec, t_start, _clock())
        return values

    def _walk_hinted(self, q: np.ndarray) -> np.ndarray:
        """Frontier walk of one ascending batch; returns the per-level
        distinct-node counts (here the frontier *is* the run list)."""
        layout = self.layout
        kr = layout.key_region
        ps = layout.prefix_sum
        h = layout.height
        nq = q.size
        uniq = np.zeros(h, dtype=np.int64)
        nodes = np.zeros(1, dtype=np.int64)
        starts = np.zeros(1, dtype=np.int64)
        for lvl in range(h - 1):
            uniq[lvl] = nodes.size
            ends = np.append(starts[1:], nq)
            next_nodes = []
            next_starts = []
            for j in range(nodes.size):
                s, e = int(starts[j]), int(ends[j])
                row = kr[nodes[j]]
                # Child c (slot semantics: #keys <= q) takes the probes
                # in [row[c-1], row[c]); its cut point in the slice is
                # the first probe >= row[c-1].
                cuts = s + np.searchsorted(q[s:e], row, side="left")
                bounds = np.empty(row.size + 2, dtype=np.int64)
                bounds[0] = s
                bounds[1:-1] = cuts
                bounds[-1] = e
                nonempty = np.flatnonzero(bounds[1:] > bounds[:-1])
                next_nodes.append(ps[nodes[j]] + nonempty)  # Equation 1
                next_starts.append(bounds[nonempty])
            nodes = np.concatenate(next_nodes)
            starts = np.concatenate(next_starts)
        uniq[h - 1] = nodes.size
        return uniq

    def execute_prepared(
        self, prepared, chunk_quantum: Optional[int] = None,
        overlay=None,
    ) -> np.ndarray:
        """Run a :class:`~repro.core.tree.PreparedBatch` and restore the
        results to arrival order (the full §4.1 contract).

        Restore is a direct scatter through the PSA permutation — the
        inverse permutation is never materialized.  When ``chunk_quantum``
        is not given, the batch's level-aware NTG cohort sets it
        (:attr:`~repro.core.tree.PreparedBatch.chunk_quantum`:
        ``warp_size // min(ntg_degrees)``) — the warp cohort of the
        *narrowest* level is the adjacency unit, so thread shards cut on
        cohort boundaries at every level, not just the aggregate width.
        """
        if chunk_quantum is None:
            chunk_quantum = getattr(prepared, "chunk_quantum", None)
            if chunk_quantum is None:  # legacy prepared batches
                chunk_quantum = max(1, int(prepared.group_size))
        issue = self.execute(
            prepared.psa.queries,
            issue_sorted=prepared.psa.issue_sorted,
            chunk_quantum=chunk_quantum,
            overlay=overlay,
        )
        return prepared.psa.scatter_restore(issue)

    # -------------------------------------------------------------- internals

    def _chunk_bounds(self, nq: int, quantum: int = 1):
        step = -(-nq // self.n_workers)  # ceil
        if quantum > 1:
            step = -(-step // quantum) * quantum  # round up to the cohort
        return [(s, min(s + step, nq)) for s in range(0, nq, step)]

    def _run_chunk(
        self,
        q: np.ndarray,
        arrays: LevelArrays,
        scratch: EngineScratch,
        out: np.ndarray,
    ) -> np.ndarray:
        """Descend one contiguous query chunk level by level and finish it
        on the packed leaf block, writing values into ``out`` (a view of
        the shared result array).  Returns the per-level run counts."""
        nq = q.size
        h = self.layout.height
        node = scratch.array("node", nq)
        change = scratch.array("change", nq - 1, np.bool_)
        node[:] = 0
        uniq = np.ones(h, dtype=np.int64)  # one root run
        for lvl in _descend(arrays.level_keys, q, node):
            np.not_equal(node[1:], node[:-1], out=change)
            uniq[lvl] += np.count_nonzero(change)
        self._leaf_finish(q, arrays, scratch, out)
        return uniq

    @staticmethod
    def _leaf_finish(
        q: np.ndarray, arrays: LevelArrays, scratch: EngineScratch,
        out: np.ndarray,
    ) -> None:
        """One batched binary search over the packed contiguous leaf block
        (§3.2.1) resolves every query; misses keep the ``NOT_FOUND``
        prefill.  A snapshot without keys resolves nothing."""
        pk, pv = arrays.packed_keys, arrays.packed_values
        if pk.size == 0:
            return
        pos = scratch.array("pos", q.size)
        pos[:] = np.searchsorted(pk, q, side="left")
        np.minimum(pos, pk.size - 1, out=pos)
        found = scratch.array("found", q.size, np.bool_)
        np.equal(pk[pos], q, out=found)
        out[found] = pv[pos[found]]


__all__ = [
    "BatchQueryEngine",
    "EngineScratch",
    "EngineStats",
    "LevelArrays",
    "DEFAULT_MIN_PARALLEL",
    "level_arrays",
]
