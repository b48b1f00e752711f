"""Per-layer probes for the traced run.

Each probe calls one module's public functions inside a named span.  A
workload calls the probes for the layers its own ops do not reach, on
companion structures built from its own keys; the spans its own ops
record under the same names count too.  :func:`layer_metrics` turns the
spans into the ``per_layer`` metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import statistics
from typing import Dict, List

import numpy as np

from repro import BatchQueryEngine, EpochManager, HarmoniaTree
from repro.gpusim import estimate_kernel_time, simulate_harmonia_search

from measure import Samples, Tracer

#: Span names every traced run must record; each becomes ``<name>_ms``.
TIMED_SPANS = (
    "psa.prepare", "engine.build", "engine.execute", "engine.execute_small",
    "search.range_batch", "delta.overlay", "delta.overlay_deep", "epoch.pin",
    "epoch.flush", "epoch.drain", "update.apply_batch", "join.walk",
    "join.total", "shard.ping", "shard.scatter",
)
#: Layers whose self time is reported as a share of the ops' span time.
SELF_LAYERS = ("op", "psa", "engine", "search", "delta", "epoch", "update",
               "join", "shard")
#: Single-key searches per round on the companion shard service.
SHARD_POINTS = 4
#: Bulk batch size given to the GPU model (the simulator is slow).
GPUSIM_BATCH = 1 << 12


def engine_lookup(tr: Tracer, tree: HarmoniaTree, q: np.ndarray,
                  small: bool, build: bool = False):
    """``search_many`` split into its public calls: PSA/NTG prepare,
    optional engine build with its packed leaf block, then execute with
    the tree's delta overlay (if any) applied inside the engine, as
    ``search_many`` does, under its own ``delta.overlay`` span."""
    sfx = "_small" if small else ""
    with tr.span("psa.prepare" + sfx):
        prepared = tree.prepare_queries(q)
    if build:
        with tr.span("engine.build" + sfx):
            eng = tree.engine()
            eng._packed_leaves()
    else:
        eng = tree.engine()
    overlay = None
    if tree.delta is not None:
        def overlay(keys, values):
            with tr.span("delta.overlay" + sfx):
                tree.delta.overlay_values(keys, values)
    with tr.span("engine.execute" + sfx):
        return eng.execute_prepared(prepared, overlay=overlay)


def epoch_lookup(tr: Tracer, mgr: EpochManager, q: np.ndarray,
                 small: bool):
    """Unpinned ``EpochManager.search_many`` split into its public calls:
    pin, then :func:`engine_lookup` on the pinned view, whose engine and
    packed leaf block are built fresh as on every unpinned call.
    Returns ``(view, values)``."""
    with tr.span("epoch.pin"):
        view = mgr.pin()
    return view, engine_lookup(tr, view, q, small, build=True)


def engine_build(tr: Tracer, tree: HarmoniaTree) -> None:
    """A fresh engine over the tree's layout, packed leaves included."""
    with tr.span("engine.build"):
        BatchQueryEngine(tree.layout)._packed_leaves()


def floor(tr: Tracer, keys: np.ndarray, q: np.ndarray) -> None:
    """Host floor: one ``np.searchsorted`` over the flat sorted keys."""
    with tr.span("floor.unsorted"):
        np.searchsorted(keys, q)
    qs = np.sort(q)
    with tr.span("floor.sorted"):
        np.searchsorted(keys, qs)


def ntg_cold(tr: Tracer, tree: HarmoniaTree, q: np.ndarray) -> None:
    """First prepare on a fresh layout (NTG profiling runs), then a warm
    one on the same layout."""
    fresh = HarmoniaTree(tree.layout.copy(), search_config=tree.search_config)
    with tr.span("ntg.cold_prepare"):
        fresh.prepare_queries(q)
    with tr.span("ntg.warm_prepare"):
        fresh.prepare_queries(q)


def epoch_layer(tr: Tracer, mgr: EpochManager, ops, q: np.ndarray,
                drain: bool, samples: Samples) -> None:
    """Flush one batch into a concurrent manager, pin, overlay the bulk
    batch, and drain when the cycle ends.  The overlay on the cycle's
    last flush, the deepest delta, is recorded as ``delta.overlay_deep``."""
    mgr.submit_many(ops)
    with tr.span("epoch.flush"):
        mgr.flush()
    with tr.span("epoch.pin"):
        view = mgr.pin()
    delta_counts(view, samples)
    if view.delta is not None:
        out = np.zeros(q.size, dtype=np.int64)
        with tr.span("delta.overlay_deep" if drain else "delta.overlay"):
            view.delta.overlay_values(q, out)
    if drain:
        with tr.span("epoch.drain"):
            mgr.drain(wait=True)


def deep_delta(tr: Tracer, mgr: EpochManager, ops, q: np.ndarray,
               last: bool) -> None:
    """Flush one batch into a companion concurrent manager; on the last
    flush of its cycle, time the first overlay of the bulk batch on that
    deepest delta (``delta.overlay_deep``), then drain."""
    mgr.submit_many(ops)
    mgr.flush()
    if last:
        view = mgr.pin()
        out = np.zeros(q.size, dtype=np.int64)
        with tr.span("delta.overlay_deep"):
            view.delta.overlay_values(q, out)
        mgr.drain(wait=True)


def delta_counts(view: HarmoniaTree, samples: Samples) -> None:
    delta = view.delta
    samples.add("delta.entries", delta.size if delta is not None else 0)
    samples.add("delta.runs", len(delta.runs) if delta is not None else 0)


def shard_layer(tr: Tracer, sharded, q: np.ndarray) -> None:
    """Transport alone (``ping``), a single-key search through router and
    worker, and the router's scatter of the bulk batch."""
    for s in range(sharded.n_shards):
        with tr.span("shard.ping"):
            sharded.ping(s)
    for k in q[:SHARD_POINTS].tolist():
        with tr.span("shard.search_point"):
            sharded.search(k)
    with tr.span("shard.scatter"):
        sharded.partitioner.scatter(q)


def shard_restarts(sharded) -> int:
    return sum(row["restarts"] for row in sharded.stats())


def gpusim_counts(tree: HarmoniaTree, q: np.ndarray) -> Dict[str, float]:
    """Simulated Harmonia kernel on one prepared batch (deterministic)."""
    q = q[:GPUSIM_BATCH]
    prepared = tree.prepare_queries(q)
    m = simulate_harmonia_search(
        tree.layout, prepared.queries, prepared.group_size,
        ntg_degrees=prepared.ntg_degrees,
    )
    model = estimate_kernel_time(m, tree.layout)
    return {
        "gld_tx_per_query": m.gld_transactions / q.size,
        "model_qps": model.throughput(q.size),
    }


def _median(values: List[float]) -> float:
    if not values:
        raise RuntimeError("traced run recorded no sample for a metric")
    return statistics.median(values)


def layer_metrics(tr: Tracer, samples: Samples, bulk_n: int,
                  gpusim: Dict[str, float], restarts: int,
                  overhead_frac: float) -> Dict[str, tuple]:
    """Every ``per_layer`` metric as ``name -> (value, unit)``."""
    out: Dict[str, tuple] = {}
    for name in TIMED_SPANS:
        out[name + "_ms"] = (_median(tr.durations(name)) * 1e3, "ms")
    cold = _median(tr.durations("ntg.cold_prepare"))
    warm = _median(tr.durations("ntg.warm_prepare"))
    out["ntg.cold_prepare_ms"] = ((cold - warm) * 1e3, "ms")
    out["search.scalar_us"] = (_median(tr.durations("search.scalar")) * 1e6,
                               "us")
    out["shard.point_us"] = (
        _median(tr.durations("shard.search_point")) * 1e6, "us")
    out["floor.unsorted_keys_per_s"] = (
        bulk_n / _median(tr.durations("floor.unsorted")), "1/s")
    out["floor.sorted_keys_per_s"] = (
        bulk_n / _median(tr.durations("floor.sorted")), "1/s")
    for name in ("engine.node_reads_per_query", "engine.broadcast_levels",
                 "delta.entries", "delta.runs"):
        out[name] = (_median(samples.values(name)), "count")
    out["shard.restarts"] = (restarts, "count")
    out["gpusim.gld_tx_per_query"] = (gpusim["gld_tx_per_query"], "count")
    out["gpusim.model_qps"] = (gpusim["model_qps"], "1/s")
    out["obs.trace_overhead_frac"] = (overhead_frac, "frac")
    self_time = tr.self_times("round")
    total = sum(self_time.values()) or 1.0
    for layer in SELF_LAYERS:
        out[f"self.{layer}_frac"] = (self_time.get(layer, 0.0) / total,
                                     "frac")
    return out


def engine_stats(tree: HarmoniaTree, samples: Samples) -> None:
    stats = tree.last_engine_stats
    samples.add("engine.node_reads_per_query",
                stats.total_node_reads / max(stats.n_queries, 1))
    samples.add("engine.broadcast_levels", stats.broadcast_levels)
