"""Bounded-memory tile scheduler — the FPGA level-wise discipline on host.

The level-wise FPGA batch-search paper (PAPERS.md) processes a huge
query batch through a B+tree one level at a time in fixed-size tiles so
the on-chip footprint is O(tile), not O(batch).  The host analog: the
level-flat engine's scratch pools are shape-sticky
(:class:`~repro.core.engine.EngineScratch`), so driving a 2^22-query
batch through the engine in 2^16-query tiles keeps every traversal
buffer — node/tmp/slot frontiers, broadcast row windows, leaf-finish
masks — at tile size.  Only the (caller-owned) query and output arrays
are batch-sized; the resident working set is the tile ring plus the
engine scratch, and :class:`TileScheduler` *measures* that peak
(``stream.tile_peak_bytes``) instead of estimating it.

``max_resident_tiles`` bounds the staging ring the way the FPGA design
bounds its in-flight level buffers: tile ``i+1``'s issue slot can be
filled while tile ``i`` drains, but never more than the configured
number of tiles hold scratch at once.  The scheduler is shared
infrastructure: :func:`repro.join.merge_join` drives its probe stream
through it and :class:`repro.core.stream.StreamExecutor` delegates its
per-batch traversal to it when ``SearchConfig.stream_tile`` is set.

Imports are deliberately shallow (engine/constants/errors/obs only) so
``core/stream.py`` can import this module without a cycle through
``core/tree.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

import repro.obs as obs
from repro.constants import VALUE_DTYPE
from repro.core.engine import BatchQueryEngine
from repro.errors import ConfigError
from repro.utils.validation import ensure_key_array

_clock = time.perf_counter

#: Default tile: 2^16 queries ≈ 0.5 MB of int64 staging per ring slot —
#: large enough that per-tile engine dispatch amortizes, small enough
#: that a 2^22-query batch runs in 64 tiles of O(tile) scratch.
DEFAULT_TILE_SIZE = 1 << 16


@dataclass(frozen=True)
class TileConfig:
    """Shape of the bounded-memory schedule.

    ``tile_size`` is the per-tile query count (the O(tile) unit);
    ``max_resident_tiles`` caps how many tiles may hold staging buffers
    at once (the FPGA in-flight bound — 2 gives fill/drain overlap room
    without growing the footprint past two slots).
    """

    tile_size: int = DEFAULT_TILE_SIZE
    max_resident_tiles: int = 2

    def __post_init__(self) -> None:
        if self.tile_size < 1:
            raise ConfigError(
                f"tile_size must be >= 1, got {self.tile_size}"
            )
        if self.max_resident_tiles < 1:
            raise ConfigError(
                f"max_resident_tiles must be >= 1, "
                f"got {self.max_resident_tiles}"
            )


class TileScheduler:
    """Drive batches through one engine tile-by-tile with recycled scratch.

    The ring holds ``min(max_resident_tiles, n_tiles)`` pairs of
    (issue, values) staging buffers of ``tile_size``; each tile copies
    its query slice into a ring slot, runs the engine with the slot's
    value buffer as ``out=``, and scatters back — so the engine's
    shape-sticky scratch stays tile-sized across the whole batch.
    ``last_peak_bytes`` reports the measured peak resident footprint
    (ring + engine scratch) of the last :meth:`run`.
    """

    def __init__(
        self,
        engine: BatchQueryEngine,
        tile: Optional[TileConfig] = None,
    ) -> None:
        if not isinstance(engine, BatchQueryEngine):
            raise ConfigError("TileScheduler needs a BatchQueryEngine")
        self.engine = engine
        self.tile = tile or TileConfig()
        self._ring_q: list = []
        self._ring_v: list = []
        self.last_peak_bytes = 0
        self.last_tiles = 0

    def _ring(self, n_slots: int) -> None:
        ts = self.tile.tile_size
        while len(self._ring_q) < n_slots:
            self._ring_q.append(np.empty(ts, dtype=np.int64))
            self._ring_v.append(np.empty(ts, dtype=VALUE_DTYPE))

    @property
    def ring_nbytes(self) -> int:
        return sum(int(b.nbytes) for b in self._ring_q) + \
            sum(int(b.nbytes) for b in self._ring_v)

    def run(
        self,
        queries,
        out: Optional[np.ndarray] = None,
        overlay=None,
        hinted: bool = False,
    ) -> np.ndarray:
        """Resolve ``queries`` tile-by-tile; identical values to one
        whole-batch :meth:`~repro.core.engine.BatchQueryEngine.execute`
        (or ``execute_hinted`` when ``hinted=True`` — the batch must
        then be ascending, which every tile slice of an ascending batch
        is).  ``overlay`` is applied per tile: it is elementwise by key,
        so tiling commutes with it.
        """
        rec = obs.active
        t_start = _clock() if rec.enabled else 0.0
        q = ensure_key_array(np.asarray(queries), "queries")
        nq = q.size
        if out is None:
            values = np.empty(nq, dtype=VALUE_DTYPE)
        else:
            if out.shape != (nq,) or out.dtype != np.dtype(VALUE_DTYPE):
                raise ConfigError(
                    f"out must be shape ({nq},) dtype "
                    f"{np.dtype(VALUE_DTYPE)}, got shape {out.shape} "
                    f"dtype {out.dtype}"
                )
            values = out
        ts = self.tile.tile_size
        n_tiles = -(-nq // ts) if nq else 0
        self._ring(min(self.tile.max_resident_tiles, max(n_tiles, 1)))
        peak = self.ring_nbytes + self.engine.scratch_nbytes
        for i in range(n_tiles):
            s, e = i * ts, min((i + 1) * ts, nq)
            slot = i % len(self._ring_q)
            tq = self._ring_q[slot][: e - s]
            tv = self._ring_v[slot][: e - s]
            np.copyto(tq, q[s:e])
            if hinted:
                self.engine.execute_hinted(tq, out=tv, overlay=overlay)
            else:
                self.engine.execute(
                    tq, issue_sorted=None, out=tv, overlay=overlay
                )
            values[s:e] = tv
            peak = max(
                peak, self.ring_nbytes + self.engine.scratch_nbytes
            )
        self.last_peak_bytes = int(peak)
        self.last_tiles = n_tiles
        if rec.enabled:
            rec.counter("stream.tiles", n_tiles)
            rec.gauge("stream.tile_peak_bytes", float(peak))
            rec.span_at(
                "stream.tile_run", t_start, _clock(), cat="stream",
                nq=nq, tiles=n_tiles, tile_size=ts, hinted=hinted,
            )
        return values


__all__ = ["TileConfig", "TileScheduler", "DEFAULT_TILE_SIZE"]
