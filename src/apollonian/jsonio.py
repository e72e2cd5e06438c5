"""Packing serialization: versioned JSON, byte-stable across runs.

Exact scalars travel as canonical coefficient strings, float scalars as
JSON numbers (repr round-trip, so no precision is lost).  Every
disk additionally carries a human-readable approx block (center,
radius) as certified decimal strings; half-planes get null there since
they have no finite center.  The `stats` block is derived from the
disks and quadruples: export writes it, import ignores it.

The bytes are `json.dumps(doc, indent=2, sort_keys=True)` plus a
newline, so equal packings serialize to identical bytes.  Export writes
that layout itself: the seed, disk and quadruple lists from fixed
templates (a seed disk is a disk without its depth line), each value
as `json` writes it, and only the small top-level values through
`json.dumps`.  With an indent, `json` runs its pure-Python
encoder, which cost about four fifths of an export's time.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii
from typing import List, Optional, Tuple, Union

from .field import FieldElement, decimal_str
from .disks import DiskSymbol, Scalar, _float_geometry, center_radius
from .descartes import Quadruple
from .packing import Packing, classify

__all__ = ["FORMAT_VERSION", "ParseError", "export_json", "import_json"]

FORMAT_VERSION = 1

APPROX_DIGITS = 12


class ParseError(ValueError):
    """Structurally invalid packing document; the message names the path."""


def _scalar_to_json(value: Scalar) -> Union[str, float]:
    if isinstance(value, FieldElement):
        return value.to_string()
    return value


def _scalar_from_json(value: object, exact: bool, where: str) -> Scalar:
    if exact:
        if not isinstance(value, str):
            raise ParseError(f"{where}: expected coefficient string, got {type(value).__name__}")
        try:
            return FieldElement.from_string(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"{where}: {exc}") from None
    return _finite_float(value, where)


def _finite_float(value: object, where: str) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number):
            return number
    raise ParseError(f"{where}: expected a finite number, got {value!r}")


def _symbol_from_json(obj: object, exact: bool, where: str) -> DiskSymbol:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected object, got {type(obj).__name__}")
    parts = []
    for key in ("xr", "yr", "beta", "gamma"):
        if key not in obj:
            raise ParseError(f"{where}: missing key {key!r}")
        parts.append(_scalar_from_json(obj[key], exact, f"{where}.{key}"))
    return DiskSymbol(*parts)


# One disk (without the depth line in `seed`), its approx block and one quadruple
# row, laid out as json.dumps(indent=2, sort_keys=True) writes them in a top-level list.
_DISK = (
    '    {\n      "approx": %s,\n      "beta": %s,\n%s'
    '      "gamma": %s,\n      "xr": %s,\n      "yr": %s\n    }'
)
_DEPTH = '      "depth": %d,\n'
_APPROX = '{\n        "cx": %s,\n        "cy": %s,\n        "r": %s\n      }'
_ROW = (
    '    {\n      "depth": %d,\n      "disks": [\n'
    '        %d,\n        %d,\n        %d,\n        %d\n      ]\n    }'
)


def _scalar_text(value: object) -> str:
    """A disk value as json.dumps writes it (allow_nan); a FieldElement as its string."""
    if isinstance(value, FieldElement):
        value = value.to_string()
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
    if type(value) is int:
        return "%d" % value
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _disk_text(d: DiskSymbol, depth: Optional[int] = None) -> str:
    """One disk of the `disks` list, or of the `seed` list when depth is None."""
    if not d.beta:
        approx = "null"
    elif d.is_exact:
        approx = _APPROX % tuple(
            _scalar_text(decimal_str(v, APPROX_DIGITS)) for v in center_radius(d)
        )
    else:
        approx = _APPROX % tuple(map(_scalar_text, _float_geometry(d)[1:]))
    return _DISK % (
        approx,
        _scalar_text(d.beta),
        "" if depth is None else _DEPTH % depth,
        _scalar_text(d.gamma),
        _scalar_text(d.xr),
        _scalar_text(d.yr),
    )


def _list_text(items: List[str]) -> str:
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def export_json(p: Packing) -> str:
    """Serialize a packing; equal packings produce identical bytes."""
    verdict = classify(p)
    stats = p.stats
    small = {
        "format_version": FORMAT_VERSION,
        "mode": p.mode,
        "seed_name": p.seed_name,
        "classification": {
            "tag": verdict.tag,
            "min_curvature": _scalar_to_json(verdict.min_curvature),
            "zero_curvature_disks": verdict.zero_curvature_disks,
            "infimum_attained": verdict.infimum_attained,
            "note": verdict.note,
        },
        "stats": {**stats, "per_depth": {str(k): v for k, v in stats["per_depth"].items()}},
        "viewport": list(p.viewport) if p.viewport is not None else None,
    }
    fields = {
        key: json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")
        for key, value in small.items()
    }
    fields["seed"] = _list_text([_disk_text(d) for d in p.seed.disks])
    fields["disks"] = _list_text(list(map(_disk_text, p.disks, p.disk_depths)))
    fields["quadruples"] = _list_text(
        [_ROW % (depth, *indices) for indices, depth in p.quadruples]
    )
    body = ",\n".join(f'  "{key}": {fields[key]}' for key in sorted(fields))
    return "{\n" + body + "\n}\n"


def import_json(text: str) -> Packing:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("top level: expected object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ParseError(f"format_version: expected {FORMAT_VERSION}, got {version!r}")
    mode = doc.get("mode")
    if mode not in ("exact", "float"):
        raise ParseError(f"mode: expected 'exact' or 'float', got {mode!r}")
    exact = mode == "exact"

    seed_raw = doc.get("seed")
    if not isinstance(seed_raw, list) or len(seed_raw) != 4:
        raise ParseError("seed: expected a list of 4 disk objects")
    seed = Quadruple(
        tuple(_symbol_from_json(obj, exact, f"seed[{i}]") for i, obj in enumerate(seed_raw))
    )
    seed_name = doc.get("seed_name")
    if seed_name is not None and not isinstance(seed_name, str):
        raise ParseError("seed_name: expected string or null")

    disks_raw = doc.get("disks")
    if not isinstance(disks_raw, list) or not disks_raw:
        raise ParseError("disks: expected a non-empty list")
    disks: List[DiskSymbol] = []
    depths: List[int] = []
    for i, obj in enumerate(disks_raw):
        disks.append(_symbol_from_json(obj, exact, f"disks[{i}]"))
        depth = obj.get("depth") if isinstance(obj, dict) else None
        if type(depth) is not int or depth < 0:
            raise ParseError(f"disks[{i}].depth: expected a non-negative integer")
        depths.append(depth)

    quads_raw = doc.get("quadruples")
    if not isinstance(quads_raw, list):
        raise ParseError("quadruples: expected a list")
    quadruples: List[Tuple[Tuple[int, int, int, int], int]] = []
    for i, obj in enumerate(quads_raw):
        if not isinstance(obj, dict):
            raise ParseError(f"quadruples[{i}]: expected object")
        indices = obj.get("disks")
        if (
            not isinstance(indices, list)
            or len(indices) != 4
            or not all(type(k) is int and 0 <= k < len(disks) for k in indices)
        ):
            raise ParseError(f"quadruples[{i}].disks: expected 4 valid disk indices")
        depth = obj.get("depth")
        if type(depth) is not int or depth < 0:
            raise ParseError(f"quadruples[{i}].depth: expected a non-negative integer")
        quadruples.append((tuple(indices), depth))

    viewport_raw = doc.get("viewport")
    viewport: Optional[Tuple[float, float, float, float]] = None
    if viewport_raw is not None:
        if not isinstance(viewport_raw, list) or len(viewport_raw) != 4:
            raise ParseError("viewport: expected [xmin, ymin, xmax, ymax] or null")
        viewport = tuple(_finite_float(v, f"viewport[{i}]") for i, v in enumerate(viewport_raw))

    return Packing(
        mode=mode,
        seed=seed,
        seed_name=seed_name,
        disks=disks,
        disk_depths=depths,
        quadruples=quadruples,
        viewport=viewport,
    )
