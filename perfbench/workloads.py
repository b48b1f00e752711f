"""The benchmark workloads.

Each workload is one client in a closed loop: every call blocks on its
reply before the next is issued.  A round runs every op type of the
workload once (reads, writes, scans, joins interleaved), so drift of
the machine during a run touches every metric alike.  Inputs of a round
are generated before its first timed call and each answer is checked
against :class:`oracle.Reference` after the call returns, outside its
timing.

With ``traced=True`` the same rounds run with a span around each public
call (see :mod:`layers`); end-to-end metrics come only from untraced
runs.
"""

from __future__ import annotations

import statistics
from typing import Dict, List

import numpy as np

from repro import EpochManager, HarmoniaTree, UpdateConfig
from repro.join import merge_join
from repro.shard import ShardedTree

import inputs
import layers
from measure import (
    NullTracer, Samples, Tally, Tracer, clock, cpu_count, median_setup,
    peak_rss_mb, run_rounds, timed,
)
from oracle import (
    Reference, count_wrong_batch_result, count_wrong_join,
    count_wrong_lookups, count_wrong_scans,
)

#: Per-call times are summarised by this quantile (per-call rates by
#: ``1 - SUSTAINED``): the speed the host sustains in three calls of
#: four.  The shared host runs the VM 20-40 % faster in bursts of a few
#: seconds; across runs these move the median of a call's time by up to
#: 0.36 of its value and this quartile by about 0.1 (NOTES.md).
SUSTAINED = 0.75
#: ``lookup_p90_ms`` is the median of the p90s of this many consecutive
#: slices of the run's request samples (each slice keeps >= 10 samples
#: beyond its p90 at the run length in BENCHMARK.json).
P90_SLICES = 5


def _index_bytes_per_key(layout) -> float:
    return (layout.key_region_bytes() + layout.child_region_bytes()
            + layout.values_bytes()) / layout.n_keys


class Workload:
    name = ""
    warmup = 2
    #: Fresh builds per run; ``setup_s`` is their median.
    setup_repeats = 11
    #: Timed rounds end on a multiple of this (whole drain cycles).
    cycle = 1
    bulk = 1 << 16
    request = 1 << 10
    requests_per_round = 8
    points_per_round = 32
    scans_per_round = 64
    scan_rows = 64
    ops_per_round = 1 << 12
    join_every = 4
    #: Keys of the companion shard service in the traced run.
    companion_keys = 1 << 16

    def __init__(self, seed: int, traced: bool) -> None:
        self.rng = np.random.default_rng(seed)
        self.traced = traced
        self.tr = Tracer() if traced else NullTracer()
        self.samples = Samples()
        self.tally = Tally()
        self.update_config = UpdateConfig(n_threads=min(4, cpu_count()))
        self.companions: List = []

    # ----------------------------------------------------------- checks

    def check_lookup(self, got, ref: Reference, q) -> None:
        self.tally.record(q.size, count_wrong_lookups(got, ref, q))

    def check_point(self, got, ref: Reference, key: int) -> None:
        self.tally.record(1, got != ref.point(key))

    def check_scans(self, got, ref: Reference, los, his) -> None:
        self.tally.record(los.size, count_wrong_scans(got, ref, los, his))

    def check_batch(self, result, batch) -> None:
        self.tally.record(len(batch.ops),
                          count_wrong_batch_result(result, batch))

    def check_join(self, result, probe: Reference, build: Reference) -> None:
        self.tally.record(len(probe), count_wrong_join(result, probe, build))

    # ---------------------------------------------------------- helpers

    def make_probe(self, ref: Reference, n: int):
        """A probe tree of ``n`` keys, half stored in ``ref`` and half
        absent (``key + 1`` of a stored key)."""
        pos = np.sort(inputs.distinct_positions(self.rng, len(ref), n))
        keys = ref.keys[pos]
        keys[1::2] += 1
        keys = np.unique(keys)
        values = inputs.make_values(self.rng, keys.size)
        return HarmoniaTree.from_sorted(keys, values), Reference(keys, values)

    def lookups(self, n: int) -> np.ndarray:
        """A lookup batch of the workload's key distribution."""
        return inputs.uniform_lookups(self.rng, self.ref.keys, n)

    def timed_lookup(self, fn, q, ref: Reference, sample: str) -> None:
        got, dt = timed(fn, q)
        self.samples.add(sample, dt, self.group)
        self.check_lookup(got, ref, q)

    def overhead_probe(self, r: int, plain, traced, q) -> None:
        """The same bulk batch looked up bare and through the span-wrapped
        path, on warm state, first one then the other by round parity."""
        scratch = Tracer()
        calls = [("plain_bulk", plain),
                 ("traced_bulk", lambda x: traced(scratch, x))]
        if r % 2:
            calls.reverse()
        for name, fn in calls:
            _, dt = timed(fn, q)
            self.samples.add(name, dt)

    def run(self, seconds: float) -> Dict[str, tuple]:
        try:
            self.setup()
            # A traced run covers whole 8-round probe cycles (the drain
            # and NTG probes run once per cycle).
            cycle = max(self.cycle, 8) if self.traced else self.cycle
            self.rounds = run_rounds(self.round, self.warmup, seconds,
                                     cycle, self.start_timing)
            return self.metrics()
        finally:
            self.close()

    def start_timing(self) -> None:
        """Called between warm-up and timed rounds."""
        self.samples = Samples()
        if self.traced:
            self.tr.records.clear()

    def close(self) -> None:
        for obj in self.companions:
            obj.close()
        self.companions = []

    def companion_shards(self, keys: np.ndarray) -> ShardedTree:
        sub = keys[:: max(1, keys.size // self.companion_keys)]
        st = ShardedTree.from_sorted(sub, n_shards=2,
                                     update_config=self.update_config)
        self.companions.append(st)
        return st

    # ---------------------------------------------------------- metrics

    def common_metrics(self, index_bpk: float) -> Dict[str, tuple]:
        s = self.samples
        m = {
            "setup_s": (self.setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "index_bytes_per_key": (index_bpk, "B"),
            "lookup_keys_per_s": (self.lookup_keys_per_s(), "1/s"),
            "lookup_p50_ms": (s.quantile("request", 0.5) * 1e3, "ms"),
            "lookup_p90_ms": (s.sliced_quantile("request", 0.9, P90_SLICES)
                              * 1e3, "ms"),
            "point_p75_us": (s.group_quantile("point", SUSTAINED) * 1e6,
                             "us"),
            "scan_rows_per_s": (s.group_quantile("scan_rate", 1 - SUSTAINED),
                                "1/s"),
            "join_probes_per_s": (s.group_quantile("join_rate",
                                                   1 - SUSTAINED), "1/s"),
            "update_ops_per_s": (s.quantile("update_rate", 1 - SUSTAINED),
                                 "1/s"),
        }
        t = self.tally
        m["ok_frac"] = (1.0 - t.failed / max(t.attempted, 1), "frac")
        return m

    def lookup_keys_per_s(self) -> float:
        return self.bulk / self.samples.group_quantile("bulk", SUSTAINED)

    def print_reference(self, tree: HarmoniaTree) -> None:
        """Host floor and GPU-model counts beside ``lookup_keys_per_s``."""
        q = self.lookups(self.bulk)
        tr = Tracer()
        for _ in range(5):
            layers.floor(tr, self.ref.keys, q)
        fu = statistics.median(tr.durations("floor.unsorted"))
        fs = statistics.median(tr.durations("floor.sorted"))
        line = (f"# {self.name}: lookup_keys_per_s="
                f"{self.lookup_keys_per_s():.4g} batch={q.size} "
                f"floor_unsorted={q.size / fu:.4g} "
                f"floor_sorted={q.size / fs:.4g}")
        g = layers.gpusim_counts(tree, q)
        line += (f" gpusim_gld_tx_per_query={g['gld_tx_per_query']:.4g}"
                 f" gpusim_model_qps={g['model_qps']:.4g}")
        print(line, flush=True)


class ReadBulk(Workload):
    """Plain tree larger than the L3, read-only; the update batches go
    to the join's probe tree, never to the big tree."""

    name = "read_bulk"
    n_keys = 1 << 22
    probe_keys = 1 << 20
    join_every = 2

    def setup(self) -> None:
        rng = self.rng
        keys = inputs.make_keys(rng, self.n_keys)
        self.ref = Reference(keys, inputs.make_values(rng, keys.size))
        first = self.lookups(self.bulk)

        def build():
            tree = HarmoniaTree.from_sorted(self.ref.keys, self.ref.values,
                                            fanout=64, fill=0.7)
            tree.search_many(first)
            return tree

        self.setup_s, self.tree = median_setup(build, lambda t: None,
                                               self.setup_repeats)
        self.check_lookup(self.tree.search_many(first), self.ref, first)
        self.probe, self.probe_ref = self.make_probe(self.ref,
                                                     self.probe_keys)
        if self.traced:
            self.mgr = EpochManager(
                HarmoniaTree(self.probe.layout.copy()), concurrent=True,
                update_config=self.update_config, drain_threshold=1 << 30)
            self.sharded = self.companion_shards(keys)

    def round(self, r: int) -> None:
        rng, ref, tree, tr, s = (self.rng, self.ref, self.tree, self.tr,
                                 self.samples)
        live = ref.keys
        q_bulk = self.lookups(self.bulk)
        q_req = [self.lookups(self.request)
                 for _ in range(self.requests_per_round)]
        points = self.lookups(self.points_per_round)
        los, his = inputs.range_bounds(rng, live, self.scans_per_round,
                                       self.scan_rows)
        batch = inputs.op_batch(rng, self.probe_ref.keys, self.ops_per_round)
        join = r % self.join_every == 0
        tr.set_round(r)
        self.round_index = r
        self.group = r % self.cycle
        half = self.requests_per_round // 2
        with tr.span("round"):
            self.lookup(q_bulk, "bulk", small=False)
            for q in q_req[:half]:
                self.lookup(q, "request", small=True)
            for k in points.tolist():
                with tr.span("op.point"):
                    with tr.span("search.scalar"):
                        got, dt = timed(tree.search, k)
                s.add("point", dt, self.group)
                self.check_point(got, ref, k)
            with tr.span("op.scan"):
                with tr.span("search.range_batch"):
                    got, dt = timed(tree.range_search_batch, los, his)
            s.add("scan_rate", sum(g[0].size for g in got) / dt,
                  self.group)
            self.check_scans(got, ref, los, his)
            for q in q_req[half:]:
                self.lookup(q, "request", small=True)
            with tr.span("op.update"):
                with tr.span("update.apply_batch"):
                    res, dt = timed(self.probe.apply_batch, batch.ops,
                                    self.update_config)
            s.add("update_rate", len(batch.ops) / dt)
            self.check_batch(res, batch)
            self.probe_ref.apply(batch)
            if join:
                with tr.span("op.join"):
                    with tr.span("join.total"):
                        res, dt = timed(merge_join, self.probe, tree)
                s.add("join_rate", res.n_probes / dt, self.group)
                self.check_join(res, self.probe_ref, ref)
        if self.traced:
            self.probe_layers(r, q_bulk, batch)

    def lookup(self, q, sample: str, small: bool) -> None:
        tr = self.tr
        if not self.traced:
            self.timed_lookup(self.tree.search_many, q, self.ref, sample)
            return
        with tr.span("op.lookup_" + sample):
            t0 = clock()
            got = layers.engine_lookup(tr, self.tree, q, small)
            dt = clock() - t0
        self.samples.add(sample, dt, self.group)
        self.check_lookup(got, self.ref, q)
        if not small:
            layers.engine_stats(self.tree, self.samples)
            self.overhead_probe(
                self.round_index, self.tree.search_many,
                lambda tr, x: layers.engine_lookup(tr, self.tree, x, False),
                q)

    def probe_layers(self, r: int, q_bulk, batch) -> None:
        tr = self.tr
        with tr.span("probe"):
            layers.floor(tr, self.ref.keys, q_bulk)
            layers.engine_build(tr, self.tree)
            if r % 8 == 0:
                layers.ntg_cold(tr, self.tree, q_bulk)
            layers.epoch_layer(tr, self.mgr, batch.ops, q_bulk,
                               r % 8 == 7, self.samples)
            layers.shard_layer(tr, self.sharded, q_bulk)
            if r % self.join_every == 0:
                with tr.span("join.walk"):
                    self.tree.search_sorted_many(self.probe_ref.keys)

    def metrics(self) -> Dict[str, tuple]:
        if self.traced:
            return traced_metrics(self, self.tree, self.sharded)
        m = self.common_metrics(_index_bytes_per_key(self.tree.layout))
        self.print_reference(self.tree)
        return m


class MixedEpoch(Workload):
    """Concurrent-mode epoch manager: writes, unpinned reads and drains
    interleaved; every drain is explicit, on the caller."""

    name = "mixed_epoch"
    n_keys = 1 << 20
    bulk = 1 << 14
    requests_per_round = 4
    points_per_round = 16
    scans_per_round = 256
    scan_rows = 16
    probe_keys = 1 << 16
    #: Drain every 2nd round: the delta keeps 1-2 runs, so no read pays
    #: a many-run collapse that would set the workload's time (NOTES.md).
    cycle = 2
    #: Coprime to ``cycle``, so joins see both places in the cycle.
    join_every = 3
    setup_repeats = 15

    def setup(self) -> None:
        rng = self.rng
        keys = inputs.make_keys(rng, self.n_keys)
        self.ref = Reference(keys, inputs.make_values(rng, keys.size))
        first = self.lookups(self.bulk)

        def build():
            mgr = EpochManager(
                HarmoniaTree.from_sorted(self.ref.keys, self.ref.values),
                concurrent=True, update_config=self.update_config,
                drain_threshold=1 << 30)
            mgr.search_many(first)
            return mgr

        self.setup_s, self.mgr = median_setup(build, lambda m: m.close(),
                                              self.setup_repeats)
        self.check_lookup(self.mgr.search_many(first), self.ref, first)
        self.index_bpk = _index_bytes_per_key(self.mgr.pin().layout)
        self.probe, self.probe_ref = self.make_probe(self.ref,
                                                     self.probe_keys)
        if self.traced:
            self.mirror = HarmoniaTree.from_sorted(self.ref.keys,
                                                   self.ref.values)
            # Drained every 8 flushes (the default drain threshold's
            # worth of batches) for the deep-delta overlay probe.
            self.deep = EpochManager(
                HarmoniaTree(self.mirror.layout.copy()), concurrent=True,
                update_config=self.update_config, drain_threshold=1 << 30)
            self.companions.append(self.deep)
            self.sharded = self.companion_shards(keys)

    def start_timing(self) -> None:
        super().start_timing()
        self.mgr.drain(wait=True)

    def lookups(self, n: int) -> np.ndarray:
        return inputs.zipf_lookups(self.rng, self.ref.keys, n)

    def round(self, r: int) -> None:
        rng, ref, mgr, tr, s = (self.rng, self.ref, self.mgr, self.tr,
                                self.samples)
        live = ref.keys
        batch = inputs.op_batch(rng, live, self.ops_per_round)
        q_bulk = self.lookups(self.bulk)
        q_req = [self.lookups(self.request)
                 for _ in range(self.requests_per_round)]
        points = self.lookups(self.points_per_round)
        join = r % self.join_every == 0
        drain = r >= 0 and r % self.cycle == self.cycle - 1
        tr.set_round(r)
        self.round_index = r
        self.group = r % self.cycle
        with tr.span("round"):
            with tr.span("op.write"):
                t0 = clock()
                with tr.span("epoch.submit"):
                    mgr.submit_many(batch.ops)
                with tr.span("epoch.flush"):
                    res = mgr.flush()
                s.add("write", clock() - t0)
            self.check_batch(res, batch)
            ref.apply(batch)
            # Bounds drawn after the flush so every window is live now.
            los, his = inputs.range_bounds(rng, ref.keys,
                                           self.scans_per_round,
                                           self.scan_rows)
            self.lookup(q_bulk, "bulk", small=False)
            for i, q in enumerate(q_req):
                self.lookup(q, "request", small=True)
                if i == 1:
                    self.points(points)
            with tr.span("op.scan"):
                t0 = clock()
                view = self.pin()
                with tr.span("search.range_batch"):
                    got = view.range_search_batch(los, his)
                dt = clock() - t0
            s.add("scan_rate", sum(g[0].size for g in got) / dt,
                  self.group)
            self.check_scans(got, ref, los, his)
            if join:
                with tr.span("op.join"):
                    with tr.span("join.total"):
                        res, dt = timed(merge_join, self.probe, mgr)
                s.add("join_rate", res.n_probes / dt, self.group)
                self.check_join(res, self.probe_ref, ref)
            if drain:
                with tr.span("op.drain"):
                    with tr.span("epoch.drain"):
                        _, dt = timed(mgr.drain, True)
                s.add("drain", dt)
        if self.traced:
            self.probe_layers(r, q_bulk, batch)

    def pin(self) -> HarmoniaTree:
        with self.tr.span("epoch.pin"):
            return self.mgr.pin()

    def points(self, points) -> None:
        tr, s = self.tr, self.samples
        for k in points.tolist():
            if self.traced:
                with tr.span("op.point"):
                    t0 = clock()
                    view = self.pin()
                    with tr.span("search.scalar"):
                        got = view.search(k)
                    dt = clock() - t0
            else:
                got, dt = timed(self.mgr.search, k)
            s.add("point", dt, self.group)
            self.check_point(got, self.ref, k)

    def lookup(self, q, sample: str, small: bool) -> None:
        tr = self.tr
        if not self.traced:
            self.timed_lookup(self.mgr.search_many, q, self.ref, sample)
            return
        with tr.span("op.lookup_" + sample):
            t0 = clock()
            view, got = layers.epoch_lookup(tr, self.mgr, q, small)
            dt = clock() - t0
        self.samples.add(sample, dt, self.group)
        self.check_lookup(got, self.ref, q)
        if not small:
            layers.delta_counts(view, self.samples)
            layers.engine_stats(view, self.samples)
            self.overhead_probe(
                self.round_index, self.mgr.search_many,
                lambda tr, x: layers.epoch_lookup(tr, self.mgr, x, False)[1],
                q)

    def probe_layers(self, r: int, q_bulk, batch) -> None:
        tr = self.tr
        with tr.span("probe"):
            layers.floor(tr, self.ref.keys, q_bulk)
            view = self.mgr.pin()
            if r % 8 == 0:
                layers.ntg_cold(tr, view, q_bulk)
            with tr.span("update.apply_batch"):
                self.mirror.apply_batch(batch.ops, self.update_config)
            layers.deep_delta(tr, self.deep, batch.ops, q_bulk, r % 8 == 7)
            layers.shard_layer(tr, self.sharded, q_bulk)
            if r % self.join_every == 0:
                with tr.span("join.walk"):
                    view.search_sorted_many(self.probe_ref.keys)

    def metrics(self) -> Dict[str, tuple]:
        if self.traced:
            return traced_metrics(self, self.mgr.pin(), self.sharded)
        s = self.samples
        # Writer time of one drain cycle from per-call quartiles: a flush
        # per round plus the drain that ends the cycle.
        cycle_s = (self.cycle * s.quantile("write", SUSTAINED)
                   + s.quantile("drain", SUSTAINED))
        s.add("update_rate", self.cycle * self.ops_per_round / cycle_s)
        m = self.common_metrics(self.index_bpk)
        self.print_reference(self.mgr.pin())
        return m

    def close(self) -> None:
        mgr = getattr(self, "mgr", None)
        if mgr is not None:
            mgr.close()
        super().close()


def traced_metrics(w: Workload, tree: HarmoniaTree,
                   sharded: ShardedTree) -> Dict[str, tuple]:
    s = w.samples
    overhead = s.median("traced_bulk") / s.median("plain_bulk") - 1.0
    return layers.layer_metrics(
        w.tr, s, w.bulk, layers.gpusim_counts(tree, w.lookups(w.bulk)),
        layers.shard_restarts(sharded), overhead)


WORKLOADS = {w.name: w for w in (ReadBulk, MixedEpoch)}
