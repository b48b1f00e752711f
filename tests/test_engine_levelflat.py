"""Level-flat descent ≡ per-query traversal, on every tree shape.

The engine descends one level at a time with
``node_local += searchsorted(level_keys[l], q, side="right")`` over the
snapshot's flat level arrays.  That is exact only while every internal
node has ``keys + 1`` children and every node's keys lie inside its
routing interval, so the suite pins, on plain, gapped, skewed and edge
trees:

* the per-level node arrays equal :func:`traverse_batch`'s ``node_idx``;
* values equal the :func:`search_batch` oracle byte for byte, for the
  engine directly and for ``search_many`` under PSA on/off and two
  workers;
* ``unique_nodes_per_level`` equals the frontier run count of those node
  arrays and never decreases down the tree.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.constants import KEY_MAX
from repro.core import BatchQueryEngine, HarmoniaTree, SearchConfig
from repro.core.config import UpdateConfig
from repro.core.engine import level_arrays
from repro.core.layout import HarmoniaLayout
from repro.core.search import search_batch, traverse_batch
from repro.core.update import Operation
from tests.test_ntg_perlevel import make_skewed_tree

INT64_MIN = int(np.iinfo(np.int64).min)

levelflat_settings = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def runs(row: np.ndarray) -> int:
    """Maximal runs of equal entries in one frontier row."""
    return int(row.size > 0) + int(np.count_nonzero(row[1:] != row[:-1]))


def probes(layout: HarmoniaLayout, rng: np.random.Generator, n: int = 80):
    """Hits, misses, separators (equal keys route right) and both ends of
    the key space, in arrival order."""
    keys = layout.all_keys()
    seps = layout.internal_keys.ravel()
    seps = seps[seps != KEY_MAX]
    parts = [
        rng.integers(INT64_MIN, KEY_MAX, n // 2, dtype=np.int64),
        np.array([INT64_MIN, KEY_MAX - 1, -1, 0], dtype=np.int64),
        seps[:n],
    ]
    if keys.size:
        lo, hi = keys[:n], keys[-n:]
        parts += [rng.choice(keys, n), lo[lo > INT64_MIN] - 1,
                  hi[hi < KEY_MAX - 1] + 1]
    q = np.concatenate(parts).astype(np.int64)
    return q[rng.permutation(q.size)]


def assert_levelflat_exact(layout: HarmoniaLayout, q: np.ndarray) -> None:
    layout.check_invariants()
    eng = BatchQueryEngine(layout)
    nodes = eng.level_nodes(q)
    assert np.array_equal(nodes, traverse_batch(layout, q).node_idx)
    for batch in (q, np.sort(q)):
        got = eng.execute(batch)
        oracle = search_batch(layout, batch)
        assert got.tobytes() == oracle.tobytes()
        uniq = eng.last_stats.unique_nodes_per_level
        expect = [runs(row) for row in eng.level_nodes(batch)]
        assert uniq.tolist() == expect
        assert np.all(np.diff(uniq) >= 0)
        assert eng.last_stats.broadcast_levels == 0


def assert_search_many_exact(tree: HarmoniaTree, q: np.ndarray) -> None:
    for cfg in (SearchConfig(), SearchConfig(use_psa=False),
                SearchConfig(engine_workers=2, engine_min_parallel=16)):
        got = tree.search_many(q, cfg)
        assert got.tobytes() == tree.search_batch(q, cfg).tobytes()
        uniq = tree.last_engine_stats.unique_nodes_per_level
        assert np.all(np.diff(uniq) >= 0)


# ------------------------------------------------------------ plain trees


@levelflat_settings
@given(
    keys=st.sets(st.integers(INT64_MIN, KEY_MAX - 1), min_size=1,
                 max_size=600),
    fanout=st.integers(3, 64),
    fill=st.sampled_from([0.5, 0.7, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_plain_trees(keys, fanout, fill, seed):
    karr = np.array(sorted(keys), dtype=np.int64)
    tree = HarmoniaTree.from_sorted(karr, karr ^ 0x5A5A, fanout=fanout,
                                    fill=fill)
    q = probes(tree.layout, np.random.default_rng(seed))
    assert_levelflat_exact(tree.layout, q)
    assert_search_many_exact(tree, q)


@levelflat_settings
@given(
    n=st.integers(1, 300),
    fanout=st.sampled_from([3, 4, 16]),
    seed=st.integers(0, 2**32 - 1),
)
def test_keys_at_both_ends_of_the_key_space(n, fanout, seed):
    """Keys packed against ``KEY_MAX - 1`` and the negative end."""
    top = np.arange(KEY_MAX - n, KEY_MAX, dtype=np.int64)
    bottom = np.arange(INT64_MIN, INT64_MIN + n, dtype=np.int64)
    karr = np.concatenate([bottom, np.arange(-n, n, dtype=np.int64), top])
    tree = HarmoniaTree.from_sorted(karr, fanout=fanout)
    q = probes(tree.layout, np.random.default_rng(seed))
    assert_levelflat_exact(tree.layout, q)
    assert_search_many_exact(tree, q)


# ----------------------------------------------------------- gapped trees


@levelflat_settings
@given(
    n_keys=st.integers(1, 400),
    fanout=st.sampled_from([3, 4, 8, 16]),
    keep_every=st.integers(2, 50),
    inserts=st.lists(st.integers(-1000, 5000), max_size=80),
    seed=st.integers(0, 2**32 - 1),
)
def test_gapped_trees_after_churn(n_keys, fanout, keep_every, inserts, seed):
    """Deletes thin (and often fully empty) leaves in place while the
    internal region stands; inserts refill some of the slack."""
    keys = np.arange(0, 4 * n_keys, 4, dtype=np.int64)
    tree = HarmoniaTree.from_sorted(keys, fanout=fanout, fill=1.0)
    lax = UpdateConfig(mode="gapped", gap_watermark=1.0, occupancy_low=0.0)
    doomed = keys[np.arange(keys.size) % keep_every != 0]
    tree.apply_batch([Operation("delete", int(k)) for k in doomed], lax)
    tree.apply_batch([Operation("insert", k, k) for k in inserts], lax)
    if tree._layout is None:
        return
    q = probes(tree.layout, np.random.default_rng(seed))
    assert_levelflat_exact(tree.layout, q)
    assert_search_many_exact(tree, q)


def test_fully_emptied_leaves():
    keys = np.arange(0, 2048, 2, dtype=np.int64)
    tree = HarmoniaTree.from_sorted(keys, fanout=8, fill=1.0)
    lax = UpdateConfig(mode="gapped", gap_watermark=1.0, occupancy_low=0.0)
    tree.apply_batch([Operation("delete", int(k)) for k in keys[:900]], lax)
    counts = tree.layout.leaf_key_counts()
    assert np.count_nonzero(counts == 0) > 10  # empty leaves remain
    q = probes(tree.layout, np.random.default_rng(1))
    assert_levelflat_exact(tree.layout, q)
    assert_search_many_exact(tree, q)


def test_skewed_per_level_ntg_tree():
    tree, survivors = make_skewed_tree()
    rng = np.random.default_rng(2)
    q = np.concatenate([probes(tree.layout, rng), rng.choice(survivors, 500)])
    assert_levelflat_exact(tree.layout, q)
    assert_search_many_exact(tree, q)


# ------------------------------------------------------------ edge shapes


def test_single_key_tree():
    layout = HarmoniaLayout.from_sorted(np.array([KEY_MAX - 1]))
    q = np.array([KEY_MAX - 1, KEY_MAX - 2, INT64_MIN, 0], dtype=np.int64)
    assert_levelflat_exact(layout, q)
    assert_search_many_exact(HarmoniaTree(layout), q)


def test_empty_batches():
    layout = HarmoniaLayout.from_sorted(np.arange(500), fanout=4)
    eng = BatchQueryEngine(layout)
    empty = np.array([], dtype=np.int64)
    assert eng.execute(empty).size == 0
    assert eng.last_stats.unique_nodes_per_level.tolist() == [0] * layout.height
    assert eng.level_nodes(empty).shape == (layout.height, 0)
    assert eng.execute_hinted(empty).size == 0
    assert HarmoniaTree(layout).search_many(empty).size == 0


def test_zero_key_layout_never_indexes_empty_block():
    """A zero-key layout (no executor publishes one, but the type allows
    it) must resolve every probe as a miss, not index an empty block."""
    lay = HarmoniaLayout.from_sorted(np.array([7]))
    empty = HarmoniaLayout(
        fanout=lay.fanout, height=1,
        key_region=np.full_like(lay.key_region, KEY_MAX),
        prefix_sum=lay.prefix_sum.copy(),
        leaf_values=np.full_like(lay.leaf_values, INT64_MIN),
        level_starts=lay.level_starts.copy(), n_keys=0,
    )
    q = np.array([7, 0], dtype=np.int64)
    assert_levelflat_exact(empty, q)
    assert BatchQueryEngine(empty).execute_hinted(np.sort(q)).tolist() == (
        [INT64_MIN, INT64_MIN]
    )


# ------------------------------------------------- per-snapshot level arrays


def test_level_array_cache_observability():
    """One build per snapshot, a hit per later execution, and the bytes
    gauge — recorded only while recording is on."""
    import repro.obs as obs
    from repro.obs.schema import validate_snapshot

    tree = HarmoniaTree.from_sorted(np.arange(0, 6000, 3), fanout=8)
    q = np.arange(0, 600, dtype=np.int64)
    with obs.recording() as rec:
        tree.search_many(q)
        HarmoniaTree(tree.layout).search_many(q)
    snap = rec.snapshot()
    assert not validate_snapshot(snap)
    counters = snap["counters"]
    assert counters["engine.level_arrays.builds"] == 1
    assert counters["engine.level_arrays.hits"] == 1
    arrays = level_arrays(tree.layout)
    assert snap["gauges"]["engine.level_arrays.bytes"] == arrays.nbytes
    tree.search_many(q)  # recording off: nothing to record into
    assert rec.snapshot()["counters"]["engine.level_arrays.hits"] == 1


def test_concurrent_first_readers_build_once():
    """More reader threads than cores race to first-read one snapshot; a
    shortened switch interval widens the check-then-build window.  All
    must get the one arrays object, built once."""
    import sys
    import threading

    import repro.obs as obs

    layout = HarmoniaLayout.from_sorted(np.arange(0, 1_000_000, 2),
                                        fanout=16)
    q = np.arange(0, 5000, dtype=np.int64)
    seen, errors = [], []
    barrier = threading.Barrier(8)

    def reader():
        try:
            barrier.wait(timeout=10)
            seen.append(level_arrays(layout))
            out = BatchQueryEngine(layout).execute(q)
            assert np.array_equal(out[::2], q[::2])
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with obs.recording() as rec:
            threads = [threading.Thread(target=reader) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert len(seen) == 8 and all(a is seen[0] for a in seen)
    assert rec.snapshot()["counters"]["engine.level_arrays.builds"] == 1
