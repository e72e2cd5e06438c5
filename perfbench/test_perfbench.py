"""Self-tests of the benchmark.

    python3 -m unittest discover -s perfbench -p "test_*.py"

Run from the root of a checkout.  The smoke tests start run.py in a
subprocess, so the whole file takes about a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import bench
import gate
from pipeline import run_pass, summarize
from spans import NullTracer, Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent


def flip_coefficient_digit(text: str) -> str:
    """Change one digit of the first curvature coefficient string."""
    m = re.search(r'"beta": "-?(\d)', text)
    digit = str((int(m.group(1)) + 1) % 10)
    return text[: m.start(1)] + digit + text[m.end(1) :]


class GateTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.ctx, _, _ = bench.prepare("chain_cli", seed=7, trace=False)
        cls.result = run_pass(cls.ctx, NullTracer(), keep_outputs=True)
        cls.pinned = gate.load_pinned()["chain_cli"]

    def corrupt(self, input_id: str):
        """A fresh pass whose JSON output for input_id has one flipped digit."""
        api = self.ctx.api
        result = run_pass(self.ctx, NullTracer(), keep_outputs=True)
        out = result.outputs[input_id]
        out.json = out.doc = flip_coefficient_digit(out.json)
        self.assertNotEqual(out.json, self.result.outputs[input_id].json)
        out.read = api.import_json(out.doc)
        out.report = api.verify_packing(out.read)
        summarize(result, self.ctx.workload)
        return result

    def test_clean_pass_has_no_gate_failures(self):
        self.assertEqual(gate.check_pass(self.ctx, self.result, self.pinned), [])
        self.assertEqual([f for f in self.result.failures if f.kind == "exception"], [])

    def test_flipped_digit_in_builtin_output_fails(self):
        failures = gate.check_pass(self.ctx, self.corrupt("window"), self.pinned)
        self.assertTrue(any(f.input_id == "window" and "pinned" in f.detail for f in failures), failures)

    def test_flipped_digit_in_seeded_output_fails(self):
        failures = gate.check_pass(self.ctx, self.corrupt("belt~7"), self.pinned)
        self.assertTrue(any(f.input_id == "belt~7" for f in failures), failures)

    def test_repeat_must_match_first_pass(self):
        self.assertEqual(gate.check_repeat(self.result, run_pass(self.ctx, NullTracer())), [])
        self.assertTrue(gate.check_repeat(self.result, self.corrupt("window")))

    def test_span_self_times(self):
        tracer = Tracer()
        run_pass(self.ctx, tracer)
        spans = tracer.spans
        own = self_times(spans)
        self.assertTrue(all(t >= 0 for t in own))
        for i, parent in enumerate(spans):
            children = [j for j, s in enumerate(spans) if s.parent == i]
            self.assertLessEqual(sum(own[j] for j in children), parent.end - parent.start)
        self.assertLessEqual({"pass", "input", "packing.generate", "cli.chain"}, {s.name for s in spans})


class SmokeTest(unittest.TestCase):
    def run_bench(self, cwd: Path, trace: int) -> subprocess.CompletedProcess:
        argv = [sys.executable, "perfbench/run.py", "--workload", "chain_cli", "--seed", "3"]
        argv += ["--seconds", "0", "--trace", str(trace)]
        return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)

    def test_tiny_run_prints_every_named_metric(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = self.run_bench(ROOT, trace)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(set(result["metrics"]), {m["name"] for m in spec[key]})
            for m in spec[key]:
                self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])

    def test_fails_without_the_library(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
            proc = self.run_bench(Path(tmp), 0)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
