"""Timing, span and tally helpers shared by the workloads."""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

clock = time.perf_counter


class Samples:
    """Named lists of per-call measurements."""

    def __init__(self) -> None:
        self._data: Dict[str, List[float]] = {}
        self._groups: Dict[str, List[int]] = {}

    def add(self, name: str, value: float, group: int = 0) -> None:
        self._data.setdefault(name, []).append(float(value))
        self._groups.setdefault(name, []).append(group)

    def values(self, name: str) -> List[float]:
        return self._data.get(name, [])

    def median(self, name: str) -> float:
        return statistics.median(self._data[name])

    def quantile(self, name: str, q: float) -> float:
        return float(np.quantile(np.asarray(self._data[name]), q))

    def group_quantile(self, name: str, q: float) -> float:
        """Mean over groups of each group's ``q`` quantile.  For a
        per-call time that depends on the call's place in a cycle (delta
        size before a drain), this weighs every place alike instead of
        letting the overall quantile jump between the places' clusters."""
        values = np.asarray(self._data[name])
        groups = np.asarray(self._groups[name])
        return float(np.mean([np.quantile(values[groups == g], q)
                              for g in np.unique(groups)]))

    def sliced_quantile(self, name: str, q: float, slices: int) -> float:
        """Median over ``slices`` consecutive equal parts of the samples
        of each part's ``q`` quantile: a tail percentile that one burst
        of outside load during the run cannot move alone."""
        parts = np.array_split(np.asarray(self._data[name]), slices)
        return statistics.median(float(np.quantile(p, q)) for p in parts)


class Tally:
    """Operations attempted and failed (raised or answered wrongly)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, n_ops: int, wrong: int) -> None:
        self.attempted += int(n_ops)
        self.failed += min(int(wrong), int(n_ops))


def timed(fn: Callable, *args, **kwargs):
    t0 = clock()
    out = fn(*args, **kwargs)
    return out, clock() - t0


class Tracer:
    """In-memory span recorder: one record per public call.

    A record is ``(id, name, start, end, parent, round)``; parents come
    from the open-span stack, ``round`` from :meth:`set_round`.  Nothing
    is written until :meth:`dump`.
    """

    def __init__(self) -> None:
        self.records: List[tuple] = []
        self._stack: List[int] = []
        self._round = -1

    def set_round(self, r: int) -> None:
        self._round = r

    @contextmanager
    def span(self, name: str):
        sid = len(self.records)
        parent = self._stack[-1] if self._stack else -1
        self.records.append(None)
        self._stack.append(sid)
        t0 = clock()
        try:
            yield
        finally:
            t1 = clock()
            self._stack.pop()
            self.records[sid] = (sid, name, t0, t1, parent, self._round)

    def _child_time(self) -> List[float]:
        """Per span, the summed duration of its direct children."""
        child_time = [0.0] * len(self.records)
        for _, _, t0, t1, parent, _ in self.records:
            if parent >= 0:
                child_time[parent] += t1 - t0
        return child_time

    def durations(self, name: str) -> List[float]:
        """Self time of each span named ``name``: its duration minus
        that of its direct children."""
        child_time = self._child_time()
        return [r[3] - r[2] - child_time[r[0]]
                for r in self.records if r[1] == name]

    def self_times(self, root: str) -> Dict[str, float]:
        """Self time per layer (name prefix before the first dot) over
        the subtrees of spans named ``root``; ``root`` itself excluded."""
        child_time = self._child_time()
        inside = [False] * len(self.records)
        out: Dict[str, float] = {}
        for sid, name, t0, t1, parent, _ in self.records:
            if name == root:
                inside[sid] = True
                continue
            if parent >= 0 and inside[parent]:
                inside[sid] = True
                layer = name.split(".", 1)[0]
                out[layer] = out.get(layer, 0.0) + (t1 - t0) - child_time[sid]
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("id", "name", "start", "end", "parent", "round")
        with open(path, "w") as fh:
            json.dump([dict(zip(fields, r)) for r in self.records], fh)


class NullTracer:
    def set_round(self, r: int) -> None:
        pass

    @contextmanager
    def span(self, name: str):
        yield


def peak_rss_mb() -> float:
    """Peak resident memory of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median_setup(build: Callable[[], object], close: Callable[[object], None],
                 repeats: int):
    """Run ``build`` (bulk-load to first answer) ``repeats`` times on a
    fresh structure each time; return (median seconds, last structure).
    Every structure but the last is closed and collected before the next
    build starts."""
    times = []
    obj = None
    for i in range(repeats):
        if obj is not None:
            close(obj)
            obj = None
        gc.collect()
        t0 = clock()
        obj = build()
        times.append(clock() - t0)
    return statistics.median(times), obj


def cpu_count() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)


def run_rounds(round_fn: Callable[[int], None], warmup: int, seconds: float,
               cycle: int = 1, after_warmup: Optional[Callable] = None) -> int:
    """Closed loop: ``warmup`` untimed rounds, then timed rounds until
    ``seconds`` have passed and a whole ``cycle`` of rounds is done.
    Automatic garbage collection is off; ``gc.collect()`` runs between
    rounds, never inside a timed call.  Returns the timed round count."""
    gc.collect()
    gc.disable()
    try:
        for r in range(warmup):
            round_fn(-1 - r)
            gc.collect()
        if after_warmup is not None:
            after_warmup()
            gc.collect()
        deadline = clock() + seconds
        r = 0
        while r == 0 or r % cycle or clock() < deadline:
            round_fn(r)
            gc.collect()
            r += 1
        return r
    finally:
        gc.enable()
