"""Per-operation timings of the field, disks, descartes and chains layers.

Operands are harvested from the workload's own outputs: the exact disk
symbols of its packings, its input quadruples and its chain rows, so
operand size tracks the workload.  Each operation first runs once
untimed on every operand, which catches and records failures and
counts square roots missed; operands that fail are left out of the
timed repeats.  Operands come from exactly valid packings and chains,
so a float solver rejecting one is a false rejection, counted as a
failed operation.  A timing is the median over repeats of the mean time
per call, in microseconds.
"""

from __future__ import annotations

import random
import statistics
import traceback
from time import perf_counter
from typing import Dict, List, Tuple

from pipeline import Context, Failure

ELEMENTS = 200  # field operands sampled per workload
QUADS = 100  # quadruples sampled per workload
REPEATS = 3


def _chain_indices(workload, kind: str) -> List[int]:
    out: List[int] = []
    for argv in workload.chains:
        if argv[0] == "chain" and argv[argv.index("--kind") + 1] == kind:
            out.extend(range(int(argv[argv.index("--from") + 1]), int(argv[argv.index("--to") + 1]) + 1))
    return out


def harvest(ctx: Context, outputs) -> Tuple[list, list]:
    """Distinct exact field elements and exact quadruples of the workload."""
    api = ctx.api
    quads = [inp.quad for inp in ctx.inputs]
    for o in outputs.values():
        for p in (o.packing, o.read):
            if p is not None and p.mode == "exact":
                quads.extend(api.Quadruple(tuple(p.disks[i] for i in idx)) for idx, _ in p.quadruples)
    for n in _chain_indices(ctx.workload, "spiral"):
        quads.append(api.chains.spiral_quadruple(n))
    symbols = [d for q in quads for d in q.disks]
    symbols.extend(api.chains.zigzag_disk(n).symbol for n in _chain_indices(ctx.workload, "zigzag"))
    seen = {}
    for d in symbols:
        for x in d.components():
            if x:
                seen.setdefault(x.coeffs, x)
    return list(seen.values()), quads


def _time(ctx: Context, fn, args: List[tuple]) -> float:
    samples = []
    for _ in range(REPEATS):
        ctx.reset_bracket()
        t0 = perf_counter()
        for a in args:
            fn(*a)
        samples.append((perf_counter() - t0) / len(args))
    return statistics.median(samples) * 1e6


def run(ctx: Context, outputs) -> Tuple[Dict[str, float], List[Failure], int]:
    """Layer metrics, probe failures and the number of probe calls."""
    api = ctx.api
    rng = random.Random(ctx.seed)
    elements, quads = harvest(ctx, outputs)
    sample = rng.sample(elements, min(ELEMENTS, len(elements)))
    pairs = list(zip(sample, sample[1:] + sample[:1]))
    quad_sample = rng.sample(quads, min(QUADS, len(quads)))
    tangent_pairs = [(q[0], q[1]) for q in quad_sample]
    floats = [tuple(d.approx() for d in q.disks[:3]) for q in quad_sample]
    diffs = [a - b for a, b in pairs if a != b]
    texts = [x.to_string() for x in sample]
    squares = [x * x for x in sample]
    field = api.field

    probes = {
        "field.add_us": (lambda a, b: a + b, pairs),
        "field.mul_us": (lambda a, b: a * b, pairs),
        "field.sign_us": (field.FieldElement.sign, [(d,) for d in diffs]),
        "field.inverse_us": (field.FieldElement.inverse, [(x,) for x in sample]),
        "field.decimal_str_us": (lambda x: api.decimal_str(x, 12), [(x,) for x in sample]),
        "field.to_string_us": (field.FieldElement.to_string, [(x,) for x in sample]),
        "field.from_string_us": (field.FieldElement.from_string, [(t,) for t in texts]),
        "field.approx_us": (field.FieldElement.approx, [(x,) for x in sample]),
        "field.sqrt_in_field_us": (api.sqrt_in_field, [(s,) for s in squares]),
        "disks.inner_us": (api.inner, tangent_pairs),
        "disks.approx_geometry_us": (api.disks.approx_geometry, [(q[3],) for q in quad_sample]),
        "descartes.reflect_fourth_us": (api.reflect_fourth, [(q, i % 4) for i, q in enumerate(quad_sample)]),
        "descartes.extended_ok_us": (api.extended_ok, [(q,) for q in quad_sample]),
        "descartes.solve_fourth_float_us": (api.solve_fourth_float, floats),
        "chains.zigzag_disk_us": (api.chains.zigzag_disk, [(n,) for n in _chain_indices(ctx.workload, "zigzag")]),
        "chains.spiral_disk_us": (api.chains.spiral_disk, [(n,) for n in _chain_indices(ctx.workload, "spiral")]),
    }
    metrics: Dict[str, float] = {}
    failures: List[Failure] = []
    calls = 0
    misses = 0
    for name, (fn, args) in probes.items():
        good = []
        for a in args:
            calls += 1
            try:
                result = fn(*a)
            except api.NotTangentEnough:
                # Known defect: the float solver's absolute tangency
                # tolerance rejects exactly tangent disks of large size.
                failures.append(Failure(name[: -len("_us")], None, "rejected", traceback.format_exc()))
                continue
            except Exception:
                failures.append(Failure(name[: -len("_us")], None, "exception", traceback.format_exc()))
                continue
            good.append(a)
            if fn is api.sqrt_in_field and result is None:
                misses += 1
        metrics[name] = _time(ctx, fn, good) if good else 0.0
    metrics["field.sqrt_in_field_misses"] = misses
    bits = [max(max(q.numerator.bit_length(), q.denominator.bit_length()) for q in x.coeffs) for x in elements]
    metrics["field.coeff_bits_max"] = max(bits)
    metrics["field.nonintegral_share"] = sum(any(q.denominator != 1 for q in x.coeffs) for x in elements) / len(elements)
    return metrics, failures, calls
