"""Pin the sha256 digests the correctness gate compares against.

    python3 perfbench/pin_digests.py

Runs one pass of every workload on the builtin-seed inputs and writes
digests.json.  The digests are a contract on output bytes: re-pin only
when a change is meant to alter those bytes, and say so in its notes.
"""

from __future__ import annotations

import json

import bench
import gate
from pipeline import run_pass
from spans import NullTracer
from workloads import WORKLOADS


def main() -> None:
    pinned = {}
    for name in WORKLOADS:
        ctx, _, _ = bench.prepare(name, seed=0, trace=False)
        ctx.inputs = [inp for inp in ctx.inputs if inp.builtin]
        result = run_pass(ctx, NullTracer(), keep_outputs=True)
        errors = [f for f in result.failures if f.kind == "exception"]
        if errors:
            raise SystemExit(f"{name}: {errors[0].detail}")
        pinned[name] = gate.builtin_digests(ctx, result)
    with open(gate.DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(pinned, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
