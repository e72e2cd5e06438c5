"""Benchmark run: set-up, closed-loop passes, gate, metrics.

One process runs one workload with one caller: passes run back to back
(a closed loop) until the measuring time is used.  End-to-end metrics
come from untraced passes only; a traced run alternates traced and
untraced passes so that the tracing overhead is measured too.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

import gate
import micro
from pipeline import STAGES, Context, PassResult, run_pass
from spans import NullTracer, Tracer, self_time_by_call
from workloads import WORKLOADS, make_inputs

ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = Path(__file__).resolve().parent / "results"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

SETUP_REPEATS = 15
MIN_PASSES = 3

SELF_TIMES = {
    "packing.generate_s": "packing.generate",
    "packing.verify_packing_s": "packing.verify_packing",
    "packing.classify_s": "packing.classify",
    "packing.curvature_spectrum_s": "packing.curvature_spectrum",
    "jsonio.export_json_s": "jsonio.export_json",
    "jsonio.import_json_s": "jsonio.import_json",
    "render.render_svg_s": "render.render_svg",
    "cli.chain_s": "cli.chain",
    "cli.constants_s": "cli.constants",
}

LAYER_COUNTS = (
    "packing.disks",
    "packing.quadruples",
    "packing.dup_slack",
    "packing.cap_pruned",
    "packing.spectrum_groups",
    "packing.verify_rejects",
    "jsonio.json_bytes",
    "render.svg_bytes",
    "render.circles",
)


class LibraryMissing(RuntimeError):
    """The checkout has no importable apollonian source tree."""


def _purge() -> None:
    for name in [m for m in sys.modules if m == "apollonian" or m.startswith("apollonian.")]:
        del sys.modules[name]


def import_library():
    """Fresh import of apollonian from this checkout's src/ (never elsewhere)."""
    src = ROOT / "src"
    if not (src / "apollonian" / "__init__.py").is_file():
        raise LibraryMissing(f"no apollonian package under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    _purge()
    api = importlib.import_module("apollonian")
    importlib.import_module("apollonian.cli")
    if Path(api.__file__).resolve().parent != (src / "apollonian").resolve():
        raise LibraryMissing(f"apollonian imported from {api.__file__}, not from {src}")
    return api


def _bracket(api) -> Optional[list]:
    bracket = getattr(api.field, "_BRACKET", None)
    return list(bracket) if bracket is not None else None


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def provenance(workload: str, seed: int, trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def timed_setup(w, seed: int, trace: bool):
    """One set-up: fresh import of the library plus input construction.

    Returns its time, the builtin_seed time inside it, and what it built.
    """
    tracer = Tracer() if trace else NullTracer()
    gc.collect()
    t0 = perf_counter()
    api = import_library()
    bracket = _bracket(api)
    inputs = make_inputs(api, w, seed, tracer)
    elapsed = perf_counter() - t0
    return elapsed, sum(s.end - s.start for s in tracer.spans), api, bracket, inputs


def prepare(workload_name: str, seed: int, trace: bool):
    """Cold import and read documents (untimed), then one timed set-up.

    Returns the context, the set-up time and the builtin_seed time.
    """
    w = WORKLOADS[workload_name]
    api = import_library()  # cold: compiles bytecode
    read_docs = None
    if w.read_depth is not None:
        read_docs = {}
        for inp in make_inputs(api, w, seed, NullTracer()):
            config = api.PackingConfig(seed=inp.seed, max_depth=w.read_depth, mode=w.mode)
            read_docs[inp.id] = api.export_json(api.generate(config))
    setup_s, builtin_seed_s, api, bracket, inputs = timed_setup(w, seed, trace)
    return Context(api, w, seed, inputs, read_docs, bracket), setup_s, builtin_seed_s


def typical(values) -> float:
    """Upper quartile: the statistic every timing metric reports.

    The machine alternates between a fast and a slow speed for seconds
    at a time (about 2x apart), and the slow one is the common one.  The
    upper quartile follows the common mode, so it moves less from run to
    run than the median, which the share of fast passes drags about.
    """
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def per_call(passes: List[PassResult], prefix: str, attr: str = "call_s") -> float:
    """Sum over calls (stage or span, per input) of each call's typical time."""
    keys = {key for p in passes for key in getattr(p, attr) if key.startswith(prefix + "/")}
    return sum(typical([getattr(p, attr).get(key, 0.0) for p in passes]) for key in keys)


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    ctx, first_setup_s, first_builtin_s = prepare(workload_name, seed, trace)
    setup_s, builtin_seed_s = [first_setup_s], [first_builtin_s]

    def setup_sample() -> None:
        # Set-ups are spread over the run, between passes, so that a
        # short swing in machine speed cannot move all of them at once.
        elapsed, builtin, *_ = timed_setup(ctx.workload, seed, trace)
        setup_s.append(elapsed)
        builtin_seed_s.append(builtin)

    start = perf_counter()
    first = run_pass(ctx, NullTracer(), keep_outputs=True)
    # Check and harvest the first pass, then drop its outputs, so that
    # measured passes run on a heap like a fresh CLI call's.
    failures = first.failures + gate.check_pass(ctx, first, gate.load_pinned().get(workload_name, {}))
    probe_metrics: Dict[str, float] = {}
    probe_calls = 0
    if trace:
        probe_metrics, probe_failures, probe_calls = micro.run(ctx, first.outputs)
        failures += probe_failures
    first.outputs = {}
    untraced: List[PassResult] = [first]
    traced: List[PassResult] = []
    tracer = Tracer()
    while True:
        enough = len(untraced) >= MIN_PASSES and (not trace or len(traced) >= MIN_PASSES)
        if enough and perf_counter() - start + untraced[-1].pass_s / 2 >= seconds:
            break
        if trace and len(traced) < len(untraced):
            mark = len(tracer.spans)
            p = run_pass(ctx, tracer)
            p.self_s = self_time_by_call(tracer.spans, mark)
            traced.append(p)
        else:
            p = run_pass(ctx, NullTracer())
            untraced.append(p)
        failures += p.failures + gate.check_repeat(first, p)
        setup_sample()
    measured_s = perf_counter() - start
    while len(setup_s) < SETUP_REPEATS:
        setup_sample()
    attempted = sum(p.ops for p in untraced + traced) + probe_calls
    correct = not any(f.kind in ("gate", "exception") for f in failures)

    if trace:
        metrics = {name: per_call(traced, span, "self_s") for name, span in SELF_TIMES.items()}
        metrics.update({name: first.counts[name] for name in LAYER_COUNTS})
        metrics.update(probe_metrics)
        metrics["packing.builtin_seed_s"] = typical(builtin_seed_s)
        metrics["fail_ratio"] = len(failures) / attempted
        metrics["trace.overhead_ratio"] = (
            typical([p.pass_s for p in traced]) / typical([p.pass_s for p in untraced]) - 1
        )
        samples = {"traced_passes": len(traced), "untraced_passes": len(untraced)}
    else:
        metrics = {"setup_s": typical(setup_s)}
        for stage in STAGES:
            metrics[f"{stage}_s"] = per_call(untraced, stage)
        metrics["disks_per_s"] = first.disks / sum(metrics[f"{stage}_s"] for stage in STAGES)
        metrics["rows_per_s"] = first.counts["rows"] / per_call(untraced, "chain")
        metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        samples = {"passes": len(untraced), "setups": len(setup_s)}
    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")

    record = {
        "provenance": provenance(workload_name, seed, trace),
        "samples": samples,
        "measured_s": measured_s,
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "pass_samples": [
            {"pass_s": p.pass_s, "call_s": p.call_s, "traced": traced_pass}
            for passes, traced_pass in ((untraced, False), (traced, True))
            for p in passes
        ],
        "setup_samples_s": setup_s,
        "failures": [f.as_dict() for f in failures],
    }
    if trace:
        record["spans"] = [s.as_list() for s in tracer.spans]
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{workload_name}_seed{seed}_trace{int(trace)}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    return record
