"""Disk symbols and the inversive inner product.

A disk (a circle with an assigned interior, or a half-plane) is encoded
by the 4-vector symbol (xr, yr, beta, gamma):

    xr = x/r, yr = y/r    reduced center coordinates,
    beta = 1/r            curvature (negative for the unbounded
                          complement of a circle, zero for half-planes),
    gamma                 co-curvature: the curvature of the disk's
                          image under inversion in the unit circle.

Valid symbols satisfy -xr^2 - yr^2 + beta*gamma = -1, and two disks are
externally tangent exactly when their inner product is +1.  Components
are FieldElements in exact mode; the same formulas run on plain floats
for the approximate pipeline, so most functions here are generic over
the component type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

from .field import FieldElement, ONE, ZERO

Scalar = Union["FieldElement", float]

__all__ = [
    "DiskSymbol",
    "EuclideanDisk",
    "HalfPlane",
    "ZeroRadius",
    "NonUnitNormal",
    "InvalidSymbol",
    "CenterSingularity",
    "inner",
    "norm_ok",
    "tangent",
    "from_center_radius",
    "from_line",
    "center_radius",
    "to_euclidean",
    "invert_unit_circle",
    "reflect_in_disk",
    "invert_point",
]


class ZeroRadius(ValueError):
    """Disk construction with r = 0."""


class NonUnitNormal(ValueError):
    """Half-plane construction whose normal is not a unit vector."""


class InvalidSymbol(ValueError):
    """Symbol whose norm is not -1."""


class CenterSingularity(ValueError):
    """Point inversion applied to the inversion center."""


@dataclass(frozen=True)
class DiskSymbol:
    """Symbol (xr, yr, beta, gamma); exact or float depending on components."""

    xr: Scalar
    yr: Scalar
    beta: Scalar
    gamma: Scalar

    @property
    def is_exact(self) -> bool:
        return isinstance(self.xr, FieldElement)

    def components(self) -> Tuple[Scalar, Scalar, Scalar, Scalar]:
        return (self.xr, self.yr, self.beta, self.gamma)

    # Vector-space operations; intermediates need not satisfy the norm.
    def __add__(self, other: "DiskSymbol") -> "DiskSymbol":
        return DiskSymbol(
            self.xr + other.xr,
            self.yr + other.yr,
            self.beta + other.beta,
            self.gamma + other.gamma,
        )

    def __sub__(self, other: "DiskSymbol") -> "DiskSymbol":
        return DiskSymbol(
            self.xr - other.xr,
            self.yr - other.yr,
            self.beta - other.beta,
            self.gamma - other.gamma,
        )

    def scaled(self, factor: Scalar) -> "DiskSymbol":
        return DiskSymbol(
            self.xr * factor,
            self.yr * factor,
            self.beta * factor,
            self.gamma * factor,
        )

    def approx(self) -> "DiskSymbol":
        """Float view of the symbol (identity on float symbols)."""
        if not self.is_exact:
            return self
        return DiskSymbol(
            self.xr.approx(), self.yr.approx(), self.beta.approx(), self.gamma.approx()
        )


@dataclass(frozen=True)
class EuclideanDisk:
    """Center/radius form; r < 0 selects the unbounded complement."""

    cx: FieldElement
    cy: FieldElement
    r: FieldElement


@dataclass(frozen=True)
class HalfPlane:
    """Points p with p . n >= s, n the unit inward normal."""

    nx: FieldElement
    ny: FieldElement
    s: FieldElement


def inner(d1: DiskSymbol, d2: DiskSymbol) -> Scalar:
    """Lorentz-type inner product; +1 on externally tangent pairs."""
    return (
        -(d1.xr * d2.xr)
        - d1.yr * d2.yr
        + (d1.beta * d2.gamma + d1.gamma * d2.beta) / 2
    )


def norm_ok(d: DiskSymbol) -> bool:
    """Exact test <d, d> = -1."""
    return inner(d, d) == -1


def tangent(d1: DiskSymbol, d2: DiskSymbol) -> bool:
    """Exact test <d1, d2> = +1."""
    return inner(d1, d2) == 1


def from_center_radius(e: EuclideanDisk) -> DiskSymbol:
    """Symbol of the disk with center (cx, cy) and signed radius r."""
    if not e.r:
        raise ZeroRadius("disk radius must be nonzero")
    beta = ONE / e.r
    xr = e.cx * beta
    yr = e.cy * beta
    gamma = (xr * xr + yr * yr - 1) / beta
    return DiskSymbol(xr, yr, beta, gamma)


def from_line(h: HalfPlane) -> DiskSymbol:
    """Symbol of a half-plane: (nx, ny, 0, 2s)."""
    if h.nx * h.nx + h.ny * h.ny != 1:
        raise NonUnitNormal("half-plane normal must have unit length")
    return DiskSymbol(h.nx, h.ny, ZERO, 2 * h.s)


def center_radius(d: DiskSymbol) -> Tuple[FieldElement, FieldElement, FieldElement]:
    """Exact (cx, cy, r) of a symbol with nonzero curvature."""
    r = d.beta.inverse()
    return (d.xr * r, d.yr * r, r)


def to_euclidean(d: DiskSymbol) -> Union[EuclideanDisk, HalfPlane]:
    """Inverse of from_center_radius / from_line; requires a valid symbol."""
    if not norm_ok(d):
        raise InvalidSymbol(f"symbol norm is not -1: {d}")
    if not d.beta:
        return HalfPlane(d.xr, d.yr, d.gamma / 2)
    return EuclideanDisk(*center_radius(d))


def invert_unit_circle(d: DiskSymbol) -> DiskSymbol:
    """Inversion in the unit circle swaps curvature and co-curvature."""
    return DiskSymbol(d.xr, d.yr, d.gamma, d.beta)


def reflect_in_disk(d: DiskSymbol, s: DiskSymbol) -> DiskSymbol:
    """Lorentz reflection d + 2<d, s>s (inversion of d in the circle of s).

    Because <s, s> = -1 this is an involution and preserves all inner
    products, hence norms and tangencies.
    """
    return d + s.scaled(2 * inner(d, s))


def approx_geometry(d: DiskSymbol) -> Tuple[str, float, float, float]:
    """Float geometry for rendering: ("disk", cx, cy, r) or ("line", nx, ny, s).

    Works on exact and float symbols alike and does not require the
    norm to hold exactly (float symbols carry rounding drift).
    """
    return _float_geometry(d.approx())


def _float_geometry(f: DiskSymbol) -> Tuple[str, float, float, float]:
    """approx_geometry of a float symbol."""
    if f.beta == 0.0:
        return ("line", f.xr, f.yr, f.gamma / 2.0)
    return ("disk", f.xr / f.beta, f.yr / f.beta, 1.0 / f.beta)


def invert_point(
    px: FieldElement, py: FieldElement, circle: EuclideanDisk
) -> Tuple[FieldElement, FieldElement]:
    """Image of (px, py) under inversion in the circle: c + r^2 (p-c)/|p-c|^2."""
    dx = px - circle.cx
    dy = py - circle.cy
    dist2 = dx * dx + dy * dy
    if not dist2:
        raise CenterSingularity("cannot invert the center of the inversion circle")
    factor = circle.r * circle.r / dist2
    return (circle.cx + factor * dx, circle.cy + factor * dy)
