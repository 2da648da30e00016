"""Check a perfbench result against the modelled throughput on record.

``device_gstencil_per_s`` depends only on the seed and the compiled plans:
``perfbench`` computes it over a fixed number of stream draws, so for a
given seed it repeats exactly, whatever ``--seconds`` the run used.  The
latest ``BENCH_<sha>.json`` at the repository root records it per workload,
with the seed it was taken at.  This script compares a run against that
record with ``==``, so a change to modelled device seconds fails until a
new ``BENCH_*.json`` declares it.  Host wall-clock metrics are not checked:
they vary between machines.

Usage, from the repository root::

    python3 benchmarks/check_modelled.py seed
    python3 perfbench/run.py --workload large-tcu --seconds 3 --trace 0 \\
        --seed "$(python3 benchmarks/check_modelled.py seed)" \\
        | tail -n 1 | python3 benchmarks/check_modelled.py check large-tcu

``seed`` prints the recorded seed.  ``check WORKLOAD`` reads perfbench's
JSON result line on standard input and exits non-zero unless the run was
correct, had no failed requests, and reproduced the recorded
``device_gstencil_per_s`` exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent
METRIC = "device_gstencil_per_s"


def latest_record() -> Dict[str, Any]:
    """The ``BENCH_*.json`` with the latest ``recorded_at`` stamp."""
    records = [json.loads(path.read_text())
               for path in sorted(ROOT.glob("BENCH_*.json"))]
    if not records:
        raise FileNotFoundError(f"no BENCH_*.json under {ROOT}")
    return max(records, key=lambda record: record["recorded_at"])


def check(result: Dict[str, Any], workload: str,
          record: Dict[str, Any]) -> List[str]:
    """Every way ``result`` falls short of ``record``; empty when it passes."""
    problems = []
    if result.get("correct") is not True:
        problems.append("the run's outputs were not all correct")
    if result.get("failed") != 0:
        problems.append(f"{result.get('failed')} requests failed")
    expected = record["workloads"][workload][METRIC]
    got = result.get("metrics", {}).get(METRIC, {}).get("value")
    if got != expected:
        problems.append(f"{METRIC} is {got!r}, the record at "
                        f"{record['parent']} says {expected!r} "
                        f"(seed {record['seed']})")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("seed", help="print the recorded seed")
    checker = commands.add_parser(
        "check", help="check the perfbench result line on standard input")
    checker.add_argument("workload")
    args = parser.parse_args(argv)

    record = latest_record()
    if args.command == "seed":
        print(record["seed"])
        return 0
    if args.workload not in record["workloads"]:
        print(f"check_modelled: no record for workload {args.workload!r}",
              file=sys.stderr)
        return 2
    lines = sys.stdin.read().strip().splitlines()
    if not lines:
        print("check_modelled: no result line on standard input",
              file=sys.stderr)
        return 2
    result = json.loads(lines[-1])
    problems = check(result, args.workload, record)
    for problem in problems:
        print(f"check_modelled: {args.workload}: {problem}", file=sys.stderr)
    if not problems:
        print(f"{args.workload}: {METRIC} = "
              f"{record['workloads'][args.workload][METRIC]!r} as recorded")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
