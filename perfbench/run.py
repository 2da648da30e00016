"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload direct-small --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the same workload with the session's tracer on for every other request
and reports the per-layer metrics instead.  A human-readable table goes to
standard output, the full run record (host facts, per-plan exact-repeat
counts, percentile placement) to standard error, and the last line of
standard output is one JSON object::

    {"correct": true, "attempted": 812, "failed": 0, "metrics": {...}}

The package under test is imported from ``src/`` next to this directory;
without it the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package under test at {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # Single-threaded BLAS, set before numpy loads.  The simulated MMA's
    # matmuls are small: a second BLAS thread mostly spins, and on a
    # shared 2-vCPU host the busy second vCPU is what the hypervisor
    # steals, which doubled tcu-sim latencies for minutes at a time.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        os.environ[name] = "1"

    from perfbench import harness
    from perfbench.host import host_facts
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    record = harness.run(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    record["host"] = host_facts(ROOT, args.seed)
    metrics = record["per_layer"] if args.trace else record["end_to_end"]

    print(f"{args.workload}  seed={args.seed}  trace={args.trace}  "
          f"attempted={record['attempted']}  failed={record['failed']}  "
          f"errors={record['errors']}  "
          f"exact_repeat={record['exact_repeat']}")
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:>16.6g} {metric['unit']}")
    if args.trace:
        print("  per traced request, ms:")
        for layer, value in record["layer_table_ms"].items():
            print(f"    {layer:32s} {value:>16.4f}")
    print(json.dumps(record, default=str), file=sys.stderr)
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
