"""Gapped ≡ scalar *result* equivalence for the in-place update executor.

The contract :class:`~repro.core.update_plan.GappedBatchUpdater` ships
under (docs/update.md): for any batch, ``UpdateConfig(mode="gapped")``
produces identical accounting (inserted/updated/deleted/failed), identical
query results and identical logical ``(key, value)`` content to
``UpdateConfig(mode="scalar", n_threads=1)`` — **not** byte-identical
layouts (gaps change the physical layout by design).  Hypothesis pins the
contract over random trees and op mixes, including through
:class:`~repro.core.epoch.EpochManager`; directed tests cover the movement
-epoch triggers (overflow, watermark, occupancy), windowed streaming,
emptying the tree mid-batch, and the non-mutation guarantee.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.constants import NOT_FOUND
from repro.core import EpochManager, HarmoniaTree, UpdateConfig
from repro.core.update import Operation
from repro.core.update_plan import GappedBatchUpdater


def make_tree(n_keys, fanout, fill, stride=2):
    keys = np.arange(0, n_keys * stride, stride, dtype=np.int64)
    return HarmoniaTree.from_sorted(keys, fanout=fanout, fill=fill)


def run_both(n_keys, fanout, fill, ops, config=None):
    scalar_tree = make_tree(n_keys, fanout, fill)
    gapped_tree = make_tree(n_keys, fanout, fill)
    sres = scalar_tree.apply_batch(
        ops, UpdateConfig(mode="scalar", n_threads=1)
    )
    gres = gapped_tree.apply_batch(
        ops, config or UpdateConfig(mode="gapped")
    )
    return scalar_tree, sres, gapped_tree, gres


def assert_results_equivalent(scalar_tree, sres, gapped_tree, gres,
                              probe_hi=500):
    """The gapped contract: accounting, membership and values match; the
    physical layout is free to differ."""
    for field in ("inserted", "updated", "deleted", "failed"):
        assert getattr(sres, field) == getattr(gres, field), field
    assert len(scalar_tree) == len(gapped_tree)
    assert list(scalar_tree.items()) == list(gapped_tree.items())
    probe = np.arange(probe_hi, dtype=np.int64)
    expected = scalar_tree.search_batch(probe)
    assert np.array_equal(expected, gapped_tree.search_batch(probe))
    assert np.array_equal(expected, gapped_tree.search_many(probe))
    assert np.array_equal(expected, gapped_tree.search_stream(probe))
    if gapped_tree._layout is not None:
        gapped_tree._layout.check_invariants()


op_strategy = st.tuples(
    st.sampled_from(["insert", "update", "delete"]),
    st.integers(0, 400),
)


def to_ops(raw):
    return [Operation(kind, key, key * 7 + 1) for kind, key in raw]


class TestEquivalenceProperty:
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        n_keys=st.integers(1, 200),
        fanout=st.sampled_from([4, 8, 16]),
        fill=st.sampled_from([0.6, 0.7, 1.0]),
        raw=st.lists(op_strategy, min_size=0, max_size=120),
    )
    def test_mixed_batches(self, n_keys, fanout, fill, raw):
        run = run_both(n_keys, fanout, fill, to_ops(raw))
        assert_results_equivalent(*run)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        n_keys=st.integers(1, 150),
        raw=st.lists(op_strategy, min_size=1, max_size=100),
        window=st.sampled_from([1, 3, 17]),
    )
    # Deleting the only key once left a zero-key layout behind, on which
    # every batch read path raised EmptyTreeError.
    @example(n_keys=1, raw=[("delete", 0)], window=1)
    def test_windowed_streaming(self, n_keys, raw, window):
        """Tiny plan windows (down to one op per window) stream the batch
        through many plan/apply rounds — results must not depend on the
        window size."""
        cfg = UpdateConfig(mode="gapped", plan_window=window)
        run = run_both(n_keys, 8, 0.7, to_ops(raw), config=cfg)
        assert_results_equivalent(*run)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        n_keys=st.integers(1, 150),
        raws=st.lists(
            st.lists(op_strategy, min_size=0, max_size=40),
            min_size=2, max_size=4,
        ),
    )
    def test_sequential_batches(self, n_keys, raws):
        """Gaps accumulate across batches; every batch must stay
        equivalent to the scalar path applied to the same history."""
        scalar_tree = make_tree(n_keys, 8, 0.7)
        gapped_tree = make_tree(n_keys, 8, 0.7)
        for raw in raws:
            ops = to_ops(raw)
            sres = scalar_tree.apply_batch(
                ops, UpdateConfig(mode="scalar", n_threads=1)
            )
            gres = gapped_tree.apply_batch(ops, UpdateConfig(mode="gapped"))
            assert_results_equivalent(scalar_tree, sres, gapped_tree, gres)

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        n_keys=st.integers(1, 120),
        raw=st.lists(op_strategy, min_size=1, max_size=80),
    )
    def test_through_epoch_manager(self, n_keys, raw):
        ops = to_ops(raw)
        scalar_mgr = EpochManager(
            make_tree(n_keys, 8, 0.7),
            update_config=UpdateConfig(mode="scalar", n_threads=1),
        )
        gapped_mgr = EpochManager(
            make_tree(n_keys, 8, 0.7),
            update_config=UpdateConfig(mode="gapped"),
        )
        scalar_mgr.submit_many(ops)
        gapped_mgr.submit_many(ops)
        sres = scalar_mgr.flush()
        gres = gapped_mgr.flush()
        for field in ("inserted", "updated", "deleted", "failed"):
            assert getattr(sres, field) == getattr(gres, field), field
        probe = np.arange(500, dtype=np.int64)
        assert np.array_equal(
            scalar_mgr.search_batch(probe), gapped_mgr.search_batch(probe)
        )
        assert 0.0 <= gapped_mgr.occupancy() <= 1.0
        assert 0.0 <= gapped_mgr.compaction_pending() <= 1.0


class TestMovementTriggers:
    def test_pure_updates_never_run_an_epoch(self):
        tree = make_tree(400, 8, 0.7)
        ops = [Operation("update", k, k + 1) for k in range(0, 800, 2)]
        updater = GappedBatchUpdater(tree.layout, fill=0.7)
        res = updater.run(ops)
        assert res.failed == 0 and res.updated == 400
        assert updater.movement_epochs == 0
        assert updater.absorbed_ops == 400

    def test_light_inserts_absorb_without_an_epoch(self):
        tree = make_tree(400, 8, 0.7)
        # One insert per distinct leaf region; fill 0.7 of 7 slots leaves
        # slack everywhere, so nothing overflows and the watermark holds.
        ops = [Operation("insert", k, k) for k in range(1, 40, 8)]
        updater = GappedBatchUpdater(tree.layout, fill=0.7)
        res = updater.run(ops)
        assert res.inserted == len(ops)
        assert updater.movement_epochs == 0
        assert updater.new_layout.leaf_counts is not None

    def test_overflowing_one_leaf_forces_an_epoch(self):
        tree = make_tree(400, 8, 0.7)
        # 20 inserts into one leaf's key range cannot fit in its slack.
        ops = [Operation("insert", 801 + 2 * i, i) for i in range(20)]
        updater = GappedBatchUpdater(tree.layout, fill=0.7)
        res = updater.run(ops)
        assert res.inserted == 20
        assert updater.movement_epochs >= 1
        assert updater.overflow_ops > 0
        updater.new_layout.check_invariants()

    def test_delete_heavy_drift_triggers_occupancy_epoch(self):
        tree = make_tree(512, 8, 0.7)
        # Delete ~80% of the keys: occupancy sinks far below the default
        # 0.35 watermark, so a compaction epoch must re-chunk the leaves.
        ops = [Operation("delete", k) for k in range(0, 820, 2)]
        updater = GappedBatchUpdater(tree.layout, fill=0.7)
        res = updater.run(ops)
        assert res.deleted == 410
        assert updater.movement_epochs >= 1
        new = updater.new_layout
        new.check_invariants()
        assert new.occupancy() >= 0.35

    def test_watermark_knob_controls_epoch_frequency(self):
        # With watermark 1.0 and occupancy_low 0, only hard overflow can
        # force movement — deletes just leave gaps behind.
        tree = make_tree(256, 8, 0.7)
        ops = [Operation("delete", k) for k in range(0, 200, 2)]
        lax = UpdateConfig(mode="gapped", gap_watermark=1.0,
                           occupancy_low=0.0)
        updater = GappedBatchUpdater(tree.layout, fill=0.7, config=lax)
        updater.run(ops)
        assert updater.movement_epochs == 0
        counts = updater.new_layout.leaf_key_counts()
        assert counts.min() >= 0  # gaps, even empty leaves, are legal
        assert updater.new_layout.n_keys == 256 - 100

    def test_emptying_the_tree_mid_batch_bootstraps(self):
        tree = make_tree(10, 4, 1.0)
        ops = [Operation("delete", k) for k in range(0, 20, 2)]
        ops += [Operation("insert", 5, 55), Operation("insert", 7, 77)]
        cfg = UpdateConfig(mode="gapped", plan_window=10)
        res = tree.apply_batch(ops, cfg)
        assert res.deleted == 10 and res.inserted == 2
        assert list(tree.items()) == [(5, 55), (7, 77)]

    def test_emptied_tree_through_sync_epoch_manager(self):
        mgr = EpochManager(make_tree(1, 8, 0.7),
                           update_config=UpdateConfig(mode="gapped"))
        mgr.submit(Operation("delete", 0))
        assert mgr.flush().deleted == 1
        assert mgr.pin()._layout is None  # the empty-tree state
        probe = np.arange(4, dtype=np.int64)
        for read in (mgr.search_batch, mgr.search_many, mgr.search_stream):
            assert np.all(read(probe) == NOT_FOUND)
        mgr.submit(Operation("insert", 3, 33))
        mgr.flush()
        assert list(mgr.search_many(probe)) == [NOT_FOUND] * 3 + [33]

    def test_emptying_the_tree_entirely_yields_empty(self):
        tree = make_tree(8, 4, 1.0)
        ops = [Operation("delete", k) for k in range(0, 16, 2)]
        res = tree.apply_batch(ops, UpdateConfig(mode="gapped"))
        assert res.deleted == 8
        assert len(tree) == 0
        assert tree.search(0) is None


class TestExecutorGuarantees:
    def test_input_layout_never_mutated(self):
        tree = make_tree(300, 8, 0.7)
        before_k = tree.layout.key_region.copy()
        before_v = tree.layout.leaf_values.copy()
        snapshot = tree.layout
        ops = [Operation("insert", k, k) for k in range(1, 100, 2)]
        ops += [Operation("delete", k) for k in range(0, 100, 4)]
        ops += [Operation("update", k, 0) for k in range(100, 200, 2)]
        updater = GappedBatchUpdater(snapshot, fill=0.7)
        updater.run(ops)
        assert np.array_equal(snapshot.key_region, before_k)
        assert np.array_equal(snapshot.leaf_values, before_v)

    def test_empty_batch_returns_same_snapshot(self):
        tree = make_tree(50, 8, 0.7)
        snapshot = tree.layout
        updater = GappedBatchUpdater(snapshot, fill=0.7)
        res = updater.run([])
        assert updater.new_layout is snapshot
        assert res.n_effective == 0

    def test_last_wins_within_a_key_chain(self):
        tree = make_tree(50, 8, 0.7)
        ops = [
            Operation("insert", 7, 1),
            Operation("update", 7, 2),
            Operation("delete", 7),
            Operation("insert", 7, 3),
            Operation("update", 7, 4),
        ]
        res = tree.apply_batch(ops, UpdateConfig(mode="gapped"))
        assert (res.inserted, res.updated, res.deleted, res.failed) \
            == (2, 2, 1, 0)
        assert tree.search(7) == 4

    def test_n_threads_accepted_and_ignored(self):
        tree = make_tree(100, 8, 0.7)
        ops = [Operation("update", k, 9) for k in range(0, 100, 2)]
        res = tree.apply_batch(ops, UpdateConfig(mode="gapped", n_threads=8))
        assert res.updated == 50

    def test_gap_absorption_reported(self):
        import repro.obs as obs
        from repro.obs.schema import validate_snapshot

        tree = make_tree(400, 16, 0.7)
        ops = [Operation("update", k, 1) for k in range(0, 700, 2)]
        ops += [Operation("insert", k, 1) for k in range(1, 40, 8)]
        with obs.recording() as reg:
            tree.apply_batch(ops, UpdateConfig(mode="gapped"))
        snap = reg.snapshot()
        validate_snapshot(snap)
        assert snap["gauges"]["update.gap_absorption"] == 1.0
        assert snap["counters"]["update.movement_epochs"] == 0
        assert 0.0 < snap["gauges"]["layout.occupancy"] <= 1.0


class TestShardedGapped:
    def test_sharded_tree_inherits_gapped_mode(self):
        pytest.importorskip("multiprocessing")
        from repro.shard import ShardedTree

        keys = np.arange(0, 4000, 2, dtype=np.int64)
        ops = [Operation("insert", k, k) for k in range(1, 400, 8)]
        ops += [Operation("update", k, 5) for k in range(0, 400, 2)]
        ops += [Operation("delete", k) for k in range(400, 500, 4)]

        ref = HarmoniaTree.from_sorted(keys, fanout=16, fill=0.7)
        sref = ref.apply_batch(ops, UpdateConfig(mode="scalar", n_threads=1))

        with ShardedTree.from_sorted(
            keys, n_shards=2, fanout=16, fill=0.7,
            update_config=UpdateConfig(mode="gapped"),
        ) as sharded:
            gres = sharded.apply_batch(ops)
            for field in ("inserted", "updated", "deleted", "failed"):
                assert getattr(sref, field) == getattr(gres, field), field
            probe = np.arange(600, dtype=np.int64)
            assert np.array_equal(
                ref.search_batch(probe), sharded.search_many(probe)
            )
