"""Benchmark entry point.

Run from the root of a checkout::

    python3 perfbench/run.py --workload read_bulk --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  A traced run also writes its spans to
``.bench_out/spans-<workload>-<seed>.json``.  Workloads and the reasons
behind them are described in ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, bool(args.trace))
    metrics = workload.run(args.seconds)
    if args.trace:
        workload.tr.dump(ROOT / ".bench_out"
                         / f"spans-{args.workload}-{args.seed}.json")
    tally = workload.tally
    print(f"# rounds={workload.rounds} attempted={tally.attempted} "
          f"failed={tally.failed}", flush=True)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
