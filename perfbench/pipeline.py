"""One pass of a workload: every stage on every input, then the chain tables.

Each call into the library is one operation.  An exception is caught
per operation, its traceback recorded, and the pass goes on with the
next input; stages that need the missing result are skipped.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional

STAGES = ("generate", "export", "render", "import", "verify", "spectrum")


@dataclass
class Context:
    api: object
    workload: object
    seed: int
    inputs: list
    read_docs: Optional[Dict[str, str]]
    bracket: Optional[list]

    def reset_bracket(self) -> None:
        """Restore the field's shared t-bracket to its import-time value.

        Every CLI call starts from a fresh import, so every input and every
        table pays the bracket's warm-up, as a CLI call on it would.
        """
        if self.bracket is not None:
            self.api.field._BRACKET[:] = self.bracket


@dataclass
class Failure:
    op: str
    input_id: Optional[str]
    kind: str  # exception | rejected | gate
    detail: str

    def as_dict(self) -> dict:
        return {"op": self.op, "input": self.input_id, "kind": self.kind, "detail": self.detail}


@dataclass
class Outputs:
    packing: object = None
    json: Optional[str] = None
    svg: Optional[bytes] = None
    doc: Optional[str] = None
    read: object = None
    report: Optional[dict] = None
    spectrum: Optional[list] = None


@dataclass
class PassResult:
    pass_s: float = 0.0
    ops: int = 0
    failures: List[Failure] = field(default_factory=list)
    outputs: Dict[str, Outputs] = field(default_factory=dict)
    stdout: Dict[str, str] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)
    digests: Dict[str, str] = field(default_factory=dict)
    call_s: Dict[str, float] = field(default_factory=dict)  # "stage/input" -> seconds
    self_s: Dict[str, float] = field(default_factory=dict)  # traced passes only

    @property
    def disks(self) -> int:
        return self.counts["packing.disks"] + self.counts["read_disks"]


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def chain_key(argv) -> str:
    return " ".join(argv)


COUNTS = (
    "packing.disks",
    "packing.quadruples",
    "packing.dup_slack",
    "packing.cap_pruned",
    "packing.spectrum_groups",
    "packing.verify_rejects",
    "jsonio.json_bytes",
    "render.svg_bytes",
    "render.circles",
    "read_disks",
    "rows",
)


def run_pass(ctx: Context, tracer, keep_outputs: bool = False) -> PassResult:
    """One pass; the outputs themselves are kept only if asked for."""
    api, w = ctx.api, ctx.workload
    res = PassResult(counts=dict.fromkeys(COUNTS, 0))
    options = api.RenderOptions(label_mode="curvature")

    def call(stage: str, span: str, input_id: Optional[str], fn, *args):
        res.ops += 1
        t0 = perf_counter()
        try:
            with tracer.span(span, input_id):
                return fn(*args)
        except Exception:
            res.failures.append(Failure(span, input_id, "exception", traceback.format_exc()))
            return None
        finally:
            key = f"{stage}/{input_id}"
            res.call_s[key] = res.call_s.get(key, 0.0) + perf_counter() - t0

    def fresh() -> None:
        # Each input and each table is one CLI call in real use, which
        # starts with an empty heap and a fresh field bracket.
        gc.collect()
        ctx.reset_bracket()

    start = perf_counter()
    with tracer.span("pass"):
        for inp in ctx.inputs:
            fresh()
            out = Outputs()
            with tracer.span("input", inp.id):
                config = api.PackingConfig(
                    seed=inp.seed, max_depth=w.gen_depth, max_curvature=inp.cap, mode=w.mode
                )
                out.packing = call("generate", "packing.generate", inp.id, api.generate, config)
                if out.packing is not None:
                    out.json = call("export", "jsonio.export_json", inp.id, api.export_json, out.packing)
                    out.svg = call("render", "render.render_svg", inp.id, api.render_svg, out.packing, options)
                out.doc = ctx.read_docs[inp.id] if ctx.read_docs is not None else out.json
                if out.doc is not None:
                    out.read = call("import", "jsonio.import_json", inp.id, api.import_json, out.doc)
                if out.read is not None:
                    out.report = call("verify", "packing.verify_packing", inp.id, api.verify_packing, out.read)
                    call("spectrum", "packing.classify", inp.id, api.classify, out.read)
                    out.spectrum = call("spectrum", "packing.curvature_spectrum", inp.id, api.curvature_spectrum, out.read)
            if out.report is not None and not out.report["ok"] and w.mode == "float":
                # Known defect: the absolute float tolerance rejects
                # valid deep packings.  Counted, never filtered out.
                res.failures.append(
                    Failure("packing.verify_packing", inp.id, "rejected", "float verify rejected a packing generated from a valid seed")
                )
            tally(res, w, inp.id, out)
            if keep_outputs:
                res.outputs[inp.id] = out
        for argv in w.chains:
            fresh()
            stage = "chain" if argv[0] == "chain" else "constants"
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = call(stage, f"cli.{stage}", chain_key(argv), api.cli.main, list(argv))
            res.stdout[chain_key(argv)] = buffer.getvalue()
            if code != 0:
                res.failures.append(Failure(f"cli.{stage}", chain_key(argv), "exception", f"exited with {code}"))
    res.pass_s = perf_counter() - start
    tally_stdout(res)
    return res


def tally(res: PassResult, w, input_id: str, out: Outputs) -> None:
    """Add one input's counts and output digests to the pass."""
    c = res.counts
    if out.packing is not None:
        disks, quads = len(out.packing.disks), len(out.packing.quadruples)
        c["packing.disks"] += disks
        c["packing.quadruples"] += quads
        c["packing.dup_slack"] += disks - quads - 3
        c["packing.cap_pruned"] += 2 * 3**w.gen_depth + 2 - disks
    if out.json is not None:
        c["jsonio.json_bytes"] += len(out.json.encode("utf-8"))
        res.digests[input_id + "/json"] = sha256(out.json)
    if out.svg is not None:
        c["render.svg_bytes"] += len(out.svg)
        c["render.circles"] += out.svg.count(b"<circle")
        res.digests[input_id + "/svg"] = sha256(out.svg)
    if out.read is not None:
        c["read_disks"] += len(out.read.disks)
    if out.report is not None:
        c["packing.verify_rejects"] += not out.report["ok"]
        res.digests[input_id + "/report"] = sha256(repr(sorted(out.report.items())))
    if out.spectrum is not None:
        c["packing.spectrum_groups"] += len(out.spectrum)
        res.digests[input_id + "/spectrum"] = sha256(repr(out.spectrum))


def tally_stdout(res: PassResult) -> None:
    for key, text in res.stdout.items():
        if key.startswith("chain "):
            res.counts["rows"] += max(text.count("\n") - 1, 0)
        res.digests["stdout/" + key] = sha256(text)


def summarize(res: PassResult, w) -> None:
    """Recount a pass from its kept outputs (after they were edited)."""
    res.counts = dict.fromkeys(COUNTS, 0)
    res.digests = {}
    for input_id, out in res.outputs.items():
        tally(res, w, input_id, out)
    tally_stdout(res)
