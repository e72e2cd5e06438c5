"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload exact_build --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from its
src/.  The process re-executes itself once with PYTHONHASHSEED=0, so
every run starts as a fresh single-threaded interpreter with the same
hash seed.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; --trace 0 gives the end-to-end
metrics, --trace 1 the per-layer ones.  Exit code 2 means the library
could not be imported, so no result is printed.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import subprocess
import sys

HASH_SEED = "0"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:], env)

    import bench
    from workloads import WORKLOADS

    if args.workload == "all":
        rest = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        codes = [
            subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name] + rest).returncode
            for name in WORKLOADS
        ]
        return max(codes)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose one of {', '.join(WORKLOADS)} or all")
    try:
        record = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    except bench.LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(json.dumps(record["provenance"], sort_keys=True))
    print(f"samples: {record['samples']}, measured {record['measured_s']:.2f} s")
    for name, m in record["metrics"].items():
        print(f"  {name} = {m['value']} {m['unit']}")
    grouped = collections.Counter(
        (f["kind"], f["op"], f["input"], f["detail"].strip().splitlines()[-1]) for f in record["failures"]
    )
    for (kind, op, input_id, detail), count in sorted(grouped.items(), key=str):
        print(f"  failed x{count} {kind}: {op} [{input_id}] {detail}")
    result = {key: record[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
