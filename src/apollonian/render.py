"""Deterministic SVG rendering of packings.

The output is assembled from fixed-format strings (coordinates always
printed as %.3f pixels), so rendering the same packing with the same
options yields identical bytes on every run.  World coordinates are
mapped with a uniform scale and the y axis pointing up.

Circles are drawn in curvature order (most negative first), so large
enclosing boundaries never cover smaller disks.  A positive-curvature
disk is filled, a negative-curvature one is drawn as an outline, and a
zero-curvature half-plane contributes its boundary line clipped to the
viewport.  Circles smaller than min_px pixels are dropped, and a circle
whose pixel center or radius is not finite raises ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .disks import DiskSymbol, approx_geometry
from .packing import Packing

__all__ = ["EmptyPacking", "RenderOptions", "render_svg"]


STROKE = "#1a1a2e"
FILL = "#9ecbff"
BACKGROUND = "#ffffff"
STROKE_WIDTH = 1.0


class EmptyPacking(ValueError):
    """Nothing to draw: no disk meets the viewport and size thresholds."""


@dataclass(frozen=True)
class RenderOptions:
    viewport: Optional[Tuple[float, float, float, float]] = None
    width_px: int = 800
    height_px: int = 800
    label_mode: str = "none"  # none | curvature | symbol
    decimal_digits: int = 4
    min_px: float = 0.25


def _auto_viewport(geoms: List[Tuple]) -> Tuple[float, float, float, float]:
    xs: List[float] = []
    ys: List[float] = []
    for g in geoms:
        if g[0] != "disk":
            continue
        _, cx, cy, r = g
        xs.extend((cx - r, cx + r))
        ys.extend((cy - r, cy + r))
    if not xs:
        return (-1.0, -1.0, 1.0, 1.0)
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    pad = 0.05 * max(x1 - x0, y1 - y0)
    return (x0 - pad, y0 - pad, x1 + pad, y1 + pad)


def _clip_line(
    nx: float, ny: float, s: float, box: Tuple[float, float, float, float]
) -> Optional[Tuple[float, float, float, float]]:
    """Segment of the line {p : <p, n> = s} inside the box, if any.

    The line is p(u) = s*n + u*(-ny, nx); each of the box's two slabs
    bounds u to an interval, or keeps the whole line or none of it when
    the line runs parallel to the slab.  The endpoints come sorted.
    """
    x0, y0, x1, y1 = box
    lo, hi = -math.inf, math.inf
    for base, step, a, b in ((s * nx, -ny, x0, x1), (s * ny, nx, y0, y1)):
        if step:
            ua, ub = sorted(((a - base) / step, (b - base) / step))
            lo, hi = max(lo, ua), min(hi, ub)
        elif not a <= base <= b:
            return None
    if not -math.inf < lo < hi < math.inf:
        return None
    (ax, ay), (bx, by) = sorted((s * nx - u * ny, s * ny + u * nx) for u in (lo, hi))
    return (ax, ay, bx, by)


def _curvature_label(beta, approx: float, digits: int) -> str:
    """An integer curvature in full, any other rounded to `digits` places.

    `approx` is beta's correctly rounded float, which is exact for an
    integer below 2^53; beyond that, floats are integers themselves.
    """
    nearest = round(approx) if abs(approx) < 2**53 else int(format(beta, ".0f"))
    return str(nearest) if beta == nearest else format(beta, f".{digits}f")


def _symbol_label(d: DiskSymbol, digits: int) -> str:
    return "(" + ", ".join(format(v, f".{digits}f") for v in d.components()) + ")"


def render_svg(packing: Packing, options: RenderOptions = RenderOptions()) -> bytes:
    if not packing.disks:
        raise EmptyPacking("packing has no disks")
    if options.label_mode not in ("none", "curvature", "symbol"):
        raise ValueError(f"unknown label_mode {options.label_mode!r}")
    # One float view per disk; float symbols are their own view.
    views = packing.disks
    if packing.mode == "exact":
        views = []
        try:
            for d in packing.disks:
                views.append(d.approx())
        except OverflowError:
            raise ValueError(f"disk {len(views)}: a component is too large for a float") from None
    geoms = [approx_geometry(v) for v in views]
    box = options.viewport or packing.viewport or _auto_viewport(geoms)
    x0, y0, x1, y1 = box
    width, height = options.width_px, options.height_px
    if not all(0 < e < math.inf for e in (x1 - x0, y1 - y0, width, height)):
        raise ValueError(
            f"viewport {box} on a {width}x{height} canvas: extents must be finite and positive"
        )
    scale = min(width / (x1 - x0), height / (y1 - y0))
    mid_x, mid_y = (x0 + x1) / 2, (y0 + y1) / 2
    if not (0 < scale < math.inf and math.isfinite(mid_x) and math.isfinite(mid_y)):
        raise ValueError(
            f"viewport {box} on a {width}x{height} canvas: scale and center must be finite"
        )

    def to_px(wx: float, wy: float) -> Tuple[float, float]:
        return (width / 2 + (wx - mid_x) * scale, height / 2 - (wy - mid_y) * scale)

    body: List[str] = []
    drawn = 0
    # Most negative curvature first, ties broken by disk index, so equal
    # inputs are always emitted in the same order.
    for i in sorted(range(len(views)), key=lambda i: (views[i].beta, i)):
        kind = geoms[i][0]
        if kind == "line":
            _, nx, ny, s = geoms[i]
            seg = _clip_line(nx, ny, s, box)
            if seg is None:
                continue
            ax, ay = to_px(seg[0], seg[1])
            bx, by = to_px(seg[2], seg[3])
            body.append(
                '<line x1="%.3f" y1="%.3f" x2="%.3f" y2="%.3f" '
                'stroke="%s" stroke-width="%.3f"/>' % (ax, ay, bx, by, STROKE, STROKE_WIDTH)
            )
            drawn += 1
            continue
        _, cx, cy, r = geoms[i]
        r_px = abs(r) * scale
        if r_px < options.min_px:
            continue
        if cx + abs(r) < x0 or cx - abs(r) > x1 or cy + abs(r) < y0 or cy - abs(r) > y1:
            continue
        px, py = to_px(cx, cy)
        if not all(map(math.isfinite, (px, py, r_px))):
            raise ValueError(f"disk {i}: pixel center or radius is not finite at scale {scale:.3e}")
        # A disk's float curvature is nonzero and has the exact one's sign.
        negative = views[i].beta < 0
        fill = "none" if negative else FILL
        body.append(
            '<circle cx="%.3f" cy="%.3f" r="%.3f" fill="%s" stroke="%s" '
            'stroke-width="%.3f"/>' % (px, py, r_px, fill, STROKE, STROKE_WIDTH)
        )
        drawn += 1
        if options.label_mode != "none" and r_px >= 8.0 and not negative:
            if options.label_mode == "curvature":
                text = _curvature_label(
                    packing.disks[i].beta, views[i].beta, options.decimal_digits
                )
            else:
                text = _symbol_label(packing.disks[i], options.decimal_digits)
            font = max(r_px * 1.2 / max(len(text), 1), 4.0)
            body.append(
                '<text x="%.3f" y="%.3f" font-size="%.3f" font-family="monospace" '
                'text-anchor="middle" dominant-baseline="central" fill="%s">%s</text>'
                % (px, py, font, STROKE, text)
            )
    if drawn == 0:
        raise EmptyPacking("no disk intersects the viewport at a drawable size")
    head = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (width, height, width, height),
        '<rect x="0" y="0" width="%d" height="%d" fill="%s"/>'
        % (width, height, BACKGROUND),
    ]
    return ("\n".join(head + body + ["</svg>"]) + "\n").encode("utf-8")
