"""Engine bench — naive vs the level-flat engine vs engine+threads.

Two entry points:

* pytest-benchmark tests (``pytest benchmarks/bench_engine.py
  --benchmark-only``) timing the three executors on the shared bench
  fixtures;
* a standalone emitter (``python benchmarks/bench_engine.py``) that sweeps
  batch sizes x tree sizes and writes ``BENCH_engine.json`` at the repo
  root — the repository's perf-trajectory record.  The acceptance point
  (2^16 PSA-sorted queries over a 2^20-key tree) is tagged ``acceptance``;
  the same point in arrival order (no PSA) is recorded as ``no_psa``.
  The ``compacted_*`` field names are kept from the earlier
  frontier-compaction engine so records stay comparable.
"""

from __future__ import annotations

import json
import pathlib
import time

import numpy as np

from repro.core import HarmoniaTree, SearchConfig
from repro.core.engine import BatchQueryEngine
from repro.core.psa import prepare_batch
from repro.core.search import search_batch
from repro.workloads.generators import make_key_set, uniform_queries

# --------------------------------------------------------- pytest-benchmark


def _psa_sorted(tree, queries):
    layout = tree.layout
    psa = prepare_batch(
        queries, tree_size=layout.n_keys, key_bits=layout.key_space_bits()
    )
    return psa.queries


def test_engine_naive(benchmark, bench_tree, bench_queries):
    issued = _psa_sorted(bench_tree, bench_queries)
    out = benchmark(search_batch, bench_tree.layout, issued)
    assert out.size == issued.size


def test_engine_compacted(benchmark, bench_tree, bench_queries):
    issued = _psa_sorted(bench_tree, bench_queries)
    eng = BatchQueryEngine(bench_tree.layout)
    eng.execute(issued)  # warm scratch + the snapshot's level arrays
    out = benchmark(eng.execute, issued)
    assert np.array_equal(out, search_batch(bench_tree.layout, issued))
    benchmark.extra_info["unique_nodes_per_level"] = (
        eng.last_stats.unique_nodes_per_level.tolist()
    )
    benchmark.extra_info["compaction_ratio"] = round(
        eng.last_stats.compaction_ratio, 2
    )


def test_engine_compacted_threads(benchmark, bench_tree, bench_queries):
    issued = _psa_sorted(bench_tree, bench_queries)
    eng = BatchQueryEngine(bench_tree.layout, n_workers=4, min_parallel=1 << 12)
    eng.execute(issued)
    out = benchmark(eng.execute, issued)
    assert np.array_equal(out, search_batch(bench_tree.layout, issued))
    benchmark.extra_info["n_chunks"] = eng.last_stats.n_chunks


def test_engine_full_pipeline(benchmark, bench_tree, bench_queries):
    """search_many end to end (PSA + level-flat descent + restore)."""
    cfg = SearchConfig(ntg="fanout")
    bench_tree.search_many(bench_queries, cfg)  # warm engine
    out = benchmark(bench_tree.search_many, bench_queries, cfg)
    assert np.array_equal(out, bench_tree.search_batch(bench_queries, cfg))


# ------------------------------------------------------------ JSON emitter


def _best_of(fn, reps: int = 5) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def measure(tree_log2: int, batch_log2: int, n_workers: int = 4,
            seed: int = 1234, use_psa: bool = True) -> dict:
    """One sweep point: naive vs engine vs sharded engine on a PSA-sorted
    batch (``use_psa=False``: the same batch in arrival order)."""
    keys = make_key_set(1 << tree_log2, rng=seed)
    tree = HarmoniaTree.from_sorted(keys, fanout=64, fill=0.7)
    layout = tree.layout
    queries = uniform_queries(keys, 1 << batch_log2, rng=seed + 1)
    issued = _psa_sorted(tree, queries) if use_psa else queries

    solo = BatchQueryEngine(layout)
    sharded = BatchQueryEngine(layout, n_workers=n_workers,
                               min_parallel=1 << 12)
    solo.execute(issued)
    sharded.execute(issued)
    t_naive = _best_of(lambda: search_batch(layout, issued))
    t_comp = _best_of(lambda: solo.execute(issued))
    t_shard = _best_of(lambda: sharded.execute(issued))
    stats = solo.last_stats
    return {
        "tree_log2": tree_log2,
        "batch_log2": batch_log2,
        "use_psa": use_psa,
        "height": layout.height,
        "naive_s": round(t_naive, 6),
        "compacted_s": round(t_comp, 6),
        "compacted_threads_s": round(t_shard, 6),
        "n_workers": n_workers,
        "speedup_compacted": round(t_naive / t_comp, 2),
        "speedup_threads": round(t_naive / t_shard, 2),
        "unique_nodes_per_level": stats.unique_nodes_per_level.tolist(),
        "compaction_ratio": round(stats.compaction_ratio, 2),
    }


def measure_per_level_ntg(
    tree_log2: int = 20,
    batch_log2: int = 16,
    keep_every: int = 16,
    seed: int = 1234,
) -> dict:
    """Per-level NTG vs the global single-width chooser on a skewed tree.

    The tree is bulk-built full, then thinned to one key in ``keep_every``
    per leaf via gapped deletes (compaction suppressed), so leaf occupancy
    collapses while the internal separator levels stay dense — the
    occupancy skew ``ntg_degree[depth]`` exists for.  Both paths run the
    same PSA-sorted batch through the GPU kernel simulator; the speedup
    metric is simulated *global memory transactions* (Figure 12's
    currency — the throughput proxy for a memory-bound GPU kernel), with
    warp steps alongside to show the narrowing is not paid back in extra
    serialization.
    """
    from dataclasses import replace

    from repro.core.config import UpdateConfig
    from repro.core.update import Operation
    from repro.gpusim import simulate_harmonia_search

    keys = make_key_set(1 << tree_log2, rng=seed)
    tree = HarmoniaTree.from_sorted(keys, fanout=64, fill=1.0)
    thin_cfg = UpdateConfig(
        mode="gapped", gap_watermark=1.0, occupancy_low=0.0
    )
    doomed = keys[np.arange(keys.size) % keep_every != 0]
    tree.apply_batch([Operation("delete", int(k)) for k in doomed], thin_cfg)
    survivors = keys[np.arange(keys.size) % keep_every == 0]
    queries = uniform_queries(survivors, 1 << batch_log2, rng=seed + 1)

    cfg = SearchConfig.full()
    prep_pl = tree.prepare_queries(queries, cfg)
    prep_gl = tree.prepare_queries(queries, replace(cfg, ntg_per_level=False))
    m_global = simulate_harmonia_search(
        tree.layout, prep_gl.queries, prep_gl.group_size
    )
    m_per_level = simulate_harmonia_search(
        tree.layout, prep_pl.queries, prep_pl.group_size,
        ntg_degrees=prep_pl.ntg_degrees,
    )
    return {
        "tree_log2": tree_log2,
        "batch_log2": batch_log2,
        "keep_every": keep_every,
        "height": tree.layout.height,
        "global_group_size": prep_gl.group_size,
        "ntg_degrees": list(prep_pl.ntg_degrees),
        "scan_widths": list(prep_pl.scan_widths),
        "gld_transactions_global": m_global.gld_transactions,
        "gld_transactions_per_level": m_per_level.gld_transactions,
        "warp_steps_global": m_global.total_warp_steps,
        "warp_steps_per_level": m_per_level.total_warp_steps,
        "model_speedup": round(
            m_global.gld_transactions / m_per_level.gld_transactions, 3
        ),
        "warp_step_ratio": round(
            m_global.total_warp_steps / m_per_level.total_warp_steps, 3
        ),
    }


def _capture_metrics(acceptance: dict, seed: int = 1234) -> dict:
    """One *recorded* run of the acceptance point, kept outside the timed
    loops above (recording adds per-batch bookkeeping; the timings must
    stay the disabled-path numbers).  The registry also carries the
    emitter's own timing blocks as ``bench.*`` gauges, so ``repro obs
    diff BENCH_engine.json BENCH_engine.old.json`` sees them."""
    import repro.obs as obs
    from repro.obs.schema import validate_snapshot

    tree_log2 = acceptance["tree_log2"]
    batch_log2 = acceptance["batch_log2"]
    keys = make_key_set(1 << tree_log2, rng=seed)
    tree = HarmoniaTree.from_sorted(keys, fanout=64, fill=0.7)
    queries = uniform_queries(keys, 1 << batch_log2, rng=seed + 1)
    issued = _psa_sorted(tree, queries)
    eng = BatchQueryEngine(tree.layout)
    with obs.recording() as rec:
        eng.execute(issued, issue_sorted=True)
        rec.gauge("bench.engine.naive_s", acceptance["naive_s"])
        rec.gauge("bench.engine.compacted_s", acceptance["compacted_s"])
        rec.gauge(
            "bench.engine.compacted_threads_s",
            acceptance["compacted_threads_s"],
        )
        rec.gauge(
            "bench.engine.speedup_compacted", acceptance["speedup_compacted"]
        )
        rec.gauge("bench.engine.speedup_threads", acceptance["speedup_threads"])
    snapshot = rec.snapshot()
    problems = validate_snapshot(snapshot)
    if problems:
        raise AssertionError(f"bench metrics failed validation: {problems}")
    return snapshot


def _overhead_check(acceptance: dict, previous_path: pathlib.Path,
                    limit: float = 1.03, retries: int = 4) -> dict:
    """Gate the always-on observability state against the prior record.

    The flight recorder is live from import and tracing guards sit on
    every request path, so the *default* state (flight-on, tracing-off)
    must not tax the acceptance point: ``compacted_s`` has to stay
    within ``limit`` of the committed ``BENCH_engine.json``'s — in
    absolute seconds, or after normalizing by ``naive_s``.  The naive
    executor carries no obs instrumentation, so it is a same-run proxy
    for host speed: a genuinely slower/faster machine moves both
    numbers and the normalized ratio cancels it, while a tax added only
    to the instrumented engine path moves ``compacted_s`` alone and
    fails both forms.  A breach is re-measured up to ``retries`` times
    (best-of accumulates toward the quiet-machine floor) before it
    raises, so a regression cannot ship silently inside a regenerated
    record.
    """
    criterion = (
        f"default-state compacted_s within {limit:.2f}x of the previous "
        "record, in absolute seconds or normalized by the uninstrumented "
        "naive control"
    )
    try:
        previous = json.loads(previous_path.read_text())
        prev_row = next(
            r for r in previous["rows"]
            if r["tree_log2"] == acceptance["tree_log2"]
            and r["batch_log2"] == acceptance["batch_log2"]
        )
        prev_comp = float(prev_row["compacted_s"])
        prev_naive = float(prev_row["naive_s"])
    except (OSError, json.JSONDecodeError, KeyError, StopIteration):
        return {
            "criterion": criterion,
            "ok": True,
            "note": "no previous record to gate against",
        }
    best_comp = float(acceptance["compacted_s"])
    best_naive = float(acceptance["naive_s"])

    def ok():
        abs_ok = best_comp <= prev_comp * limit
        norm_ok = (best_comp / best_naive) <= \
            (prev_comp / prev_naive) * limit
        return abs_ok or norm_ok

    attempts = 0
    while not ok() and attempts < retries:
        attempts += 1
        remeasured = measure(
            acceptance["tree_log2"], acceptance["batch_log2"]
        )
        best_comp = min(best_comp, float(remeasured["compacted_s"]))
        best_naive = min(best_naive, float(remeasured["naive_s"]))
    check = {
        "criterion": criterion,
        "previous_compacted_s": prev_comp,
        "new_compacted_s": best_comp,
        "ratio": round(best_comp / prev_comp, 4),
        "normalized_ratio": round(
            (best_comp / best_naive) / (prev_comp / prev_naive), 4
        ),
        "remeasured": attempts,
        "ok": ok(),
    }
    if not check["ok"]:
        raise AssertionError(
            "observability default-state overhead gate failed: "
            f"compacted_s {best_comp:.6f}s vs previous {prev_comp:.6f}s "
            f"(abs {check['ratio']:.2%}, normalized "
            f"{check['normalized_ratio']:.2%}, limit {limit:.0%})"
        )
    return check


def main(out_path: str = None) -> dict:
    rows = []
    for tree_log2 in (18, 20):
        for batch_log2 in (12, 14, 16):
            rows.append(measure(tree_log2, batch_log2))
    acceptance = next(
        r for r in rows if r["tree_log2"] == 20 and r["batch_log2"] == 16
    )
    path = pathlib.Path(
        out_path or pathlib.Path(__file__).parent.parent / "BENCH_engine.json"
    )
    per_level = measure_per_level_ntg()
    record = {
        "bench": "engine",
        "workload": "PSA-sorted uniform point lookups, fanout 64, fill 0.7",
        "acceptance": {
            "criterion": "compacted >= 3x naive at 2^16 queries / 2^20 keys",
            "speedup": acceptance["speedup_compacted"],
            "ok": acceptance["speedup_compacted"] >= 3.0,
        },
        "per_level_ntg": {
            "criterion": (
                "per-level NTG cuts simulated global transactions >= 1.15x "
                "vs the global single-width chooser on a skewed tree "
                "(gap-thinned leaves under dense internals)"
            ),
            "speedup": per_level["model_speedup"],
            "ok": per_level["model_speedup"] >= 1.15,
            **per_level,
        },
        "overhead_check": _overhead_check(acceptance, path),
        "rows": rows,
        "no_psa": measure(20, 16, use_psa=False),
        "metrics": _capture_metrics(acceptance),
    }
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {path}")
    print(json.dumps(record["acceptance"], indent=2))
    print(json.dumps(record["per_level_ntg"], indent=2))
    print(json.dumps(record["overhead_check"], indent=2))
    return record


if __name__ == "__main__":  # pragma: no cover
    main()
