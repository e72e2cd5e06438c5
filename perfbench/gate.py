"""Output correctness gate.

Builtin-seed inputs: the exported JSON, the SVG, the imported document
and the CLI stdout must match sha256 digests pinned from the code (see
pin_digests.py).  Seeded inputs have no pinned bytes, so they must
re-export byte-identically after an import.  Every input must also
verify exactly (in exact mode) and have one new disk per quadruple
(disks = quadruples + 3), which without a cap means 4*3^(k-1) disks at
depth k; a dedup merge breaks that count.  Later passes must repeat
the first pass's outputs byte for byte.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

from pipeline import Context, Failure, PassResult, sha256

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"


def load_pinned() -> dict:
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def expected_per_depth(depth: int) -> Dict[int, int]:
    return {k: 4 if k == 0 else 4 * 3 ** (k - 1) for k in range(depth + 1)}


def structure_problems(packing, depth: int, capped: bool) -> List[str]:
    problems = []
    slack = len(packing.disks) - len(packing.quadruples) - 3
    if slack:
        problems.append(f"disks - quadruples - 3 = {slack}")
    if not capped:
        per_depth = {int(k): v for k, v in packing.stats["per_depth"].items()}
        if per_depth != expected_per_depth(depth):
            problems.append(f"per-depth disk counts {per_depth} != {expected_per_depth(depth)}")
    return problems


def roundtrip_ok(api, text: str, imported=None) -> bool:
    """export(import(text)) == text, reusing an import made by the pass."""
    packing = imported if imported is not None else api.import_json(text)
    return api.export_json(packing) == text


def builtin_digests(ctx: Context, result: PassResult) -> Dict[str, str]:
    """Digests of every pinned output of the builtin inputs."""
    out = {}
    for inp in ctx.inputs:
        if not inp.builtin:
            continue
        o = result.outputs[inp.id]
        for kind, data in (("json", o.json), ("svg", o.svg)):
            if data is not None:
                out[f"{inp.id}/{kind}"] = sha256(data)
        if ctx.read_docs is not None:
            out[f"{inp.id}/read_json"] = sha256(ctx.read_docs[inp.id])
    for key, text in result.stdout.items():
        out[f"stdout/{key}"] = sha256(text)
    return out


def check_pass(ctx: Context, result: PassResult, pinned: Dict[str, str]) -> List[Failure]:
    """Gate failures of the first pass's outputs."""
    api, w = ctx.api, ctx.workload
    failures: List[Failure] = []

    def fail(op, input_id, detail):
        failures.append(Failure(op, input_id, "gate", detail))

    for key, digest in builtin_digests(ctx, result).items():
        if key not in pinned:
            fail("pin", key.split("/")[0], f"no pinned digest for {key}")
        elif pinned[key] != digest:
            fail("pin", key.split("/")[0], f"{key} differs from its pinned digest")
    for inp in ctx.inputs:
        o = result.outputs[inp.id]
        if o.packing is not None:
            for problem in structure_problems(o.packing, w.gen_depth, inp.cap is not None):
                fail("packing.generate", inp.id, problem)
        if o.read is not None:
            depth = w.gen_depth if ctx.read_docs is None else w.read_depth
            for problem in structure_problems(o.read, depth, inp.cap is not None and ctx.read_docs is None):
                fail("jsonio.import_json", inp.id, problem)
        if not inp.builtin:
            own_import = o.read if ctx.read_docs is None else None
            if o.json is not None and not roundtrip_ok(api, o.json, own_import):
                fail("jsonio.export_json", inp.id, "re-export of the imported JSON differs")
            if ctx.read_docs is not None and o.read is not None and not roundtrip_ok(api, o.doc, o.read):
                fail("jsonio.import_json", inp.id, "re-export of the imported document differs")
        if w.mode == "exact" and o.report is not None and not o.report["ok"]:
            fail("packing.verify_packing", inp.id, "exact verify rejected the packing")
    return failures


def check_repeat(first: PassResult, later: PassResult) -> List[Failure]:
    """A later pass must reproduce the first pass's outputs."""
    return [
        Failure("repeat", key.split("/")[0], "gate", f"{key} differs from the first pass")
        for key, digest in later.digests.items()
        if first.digests.get(key) != digest
    ]
