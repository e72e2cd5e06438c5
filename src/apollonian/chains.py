"""Closed-form golden-ratio disk chains.

Two unbounded Apollonian constructions with every symbol exact in the
quartic field:

* the half-plane zigzag: disks D_n = (2 F_n phi^n, 1)/(2 phi^(2n),
  2 F_n^2), all tangent to the x-axis, accumulating at (1/sqrt(5), 0)
  with curvatures growing as phi^(2n) in both directions of n;

* the whole-plane spiral: disks of radius rho^n (rho = phi + sqrt(phi))
  centered at z_n = (1 + rho)((rho w)^n - 1)/(rho w - 1), where
  w = -tau + sqrt(tau) i is a unit complex rotation.  Any four
  consecutive disks form a Descartes configuration.

The canonical spiral frame places the n=1 center on the positive real
axis.  Rotating every center by w puts the n=-1 center on the negative
real axis instead; regression decimals recorded in the tests use that
rotated view.

The module also carries the verification reports for the derived
geometry: the sextic whose roots include rho and w, the turn angle
arccos(tau), the Kepler right triangle (1, sqrt(phi), phi), and the
wedge tangent lines of the zigzag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from .field import (
    ComplexFieldElement,
    FieldElement,
    OMEGA,
    ONE,
    PHI,
    RHO,
    RHO_BAR,
    RHO_OMEGA,
    SQRT5,
    SQRT_PHI,
    SQRT_TAU,
    TAU,
    ZERO,
    fibonacci,
    golden_power,
)
from .disks import DiskSymbol, EuclideanDisk, center_radius, from_center_radius, inner
from .descartes import Quadruple

__all__ = [
    "ZigzagDisk",
    "SpiralDisk",
    "zigzag_disk",
    "zigzag_axis",
    "zigzag_seed",
    "zigzag_limit",
    "zigzag_tangency_point",
    "SEXTIC_COEFFICIENTS",
    "sextic_eval",
    "sextic_factorization_ok",
    "spiral_disk",
    "spiral_quadruple",
    "spiral_limit_point",
    "spiral_seed",
    "spiral_seed_report",
    "spiral_center_triangle_report",
    "turn_angle_checks",
    "kepler_triangle_ok",
    "zigzag_wedge_lines",
    "zigzag_wedge_tangency_ok",
    "third_cos_line_distance_parts",
    "wedge_checks",
]


# -- half-plane zigzag ------------------------------------------------------


@dataclass(frozen=True)
class ZigzagDisk:
    n: int
    symbol: DiskSymbol


def zigzag_disk(n: int) -> ZigzagDisk:
    """Chain disk (2 F_n phi^n, 1)/(2 phi^(2n), 2 F_n^2).

    Diameter phi^(-2n); tangent to the x-axis at F_n tau^n.
    """
    f = fibonacci(n)
    symbol = DiskSymbol(
        2 * f * golden_power(n),
        ONE,
        2 * golden_power(2 * n),
        FieldElement(2 * f * f),
    )
    return ZigzagDisk(n, symbol)


def zigzag_axis() -> DiskSymbol:
    """The upper half-plane, (0, -1)/(0, 0); every chain disk is tangent to it."""
    return DiskSymbol(ZERO, -ONE, ZERO, ZERO)


def zigzag_seed() -> Tuple[DiskSymbol, DiskSymbol, DiskSymbol]:
    """Three mutually tangent disks spanning the chain: axis, D_0, D_1."""
    return (zigzag_axis(), zigzag_disk(0).symbol, zigzag_disk(1).symbol)


def zigzag_limit() -> Tuple[FieldElement, FieldElement]:
    """Accumulation point (1/sqrt(5), 0) of the tangency points F_n tau^n."""
    return (SQRT5 / 5, ZERO)


def zigzag_tangency_point(n: int) -> FieldElement:
    """x-coordinate F_n tau^n where D_n touches the axis."""
    return fibonacci(n) * golden_power(-n)


# -- the sextic shared by rho and the turn number ---------------------------

# p^6 - 2p^5 - p^4 - 4p^3 - p^2 - 2p + 1, ascending order.
SEXTIC_COEFFICIENTS: Tuple[int, ...] = (1, -2, -1, -4, -1, -2, 1)


def sextic_eval(p: ComplexFieldElement) -> ComplexFieldElement:
    """Exact evaluation of the degree-6 polynomial shared by rho and w."""
    result = ComplexFieldElement(ZERO, ZERO)
    for coeff in reversed(SEXTIC_COEFFICIENTS):
        result = result * p + ComplexFieldElement(FieldElement(coeff), ZERO)
    return result


def sextic_factorization_ok() -> bool:
    """Expand (p^2 + 1)(p^2 - 2 phi p + 1)(p^2 + 2 tau p + 1) and compare."""
    factors = (
        [ONE, ZERO, ONE],
        [ONE, -2 * PHI, ONE],
        [ONE, 2 * TAU, ONE],
    )
    product: List[FieldElement] = [ONE]
    for factor in factors:
        out = [ZERO] * (len(product) + len(factor) - 1)
        for i, a in enumerate(product):
            for j, b in enumerate(factor):
                out[i + j] = out[i + j] + a * b
        product = out
    return product == [FieldElement(c) for c in SEXTIC_COEFFICIENTS]


# -- whole-plane spiral ------------------------------------------------------


@dataclass(frozen=True)
class SpiralDisk:
    n: int
    radius: FieldElement
    center: ComplexFieldElement
    symbol: DiskSymbol


def _spiral_center(n: int) -> ComplexFieldElement:
    step = RHO_OMEGA**n - ComplexFieldElement(ONE, ZERO)
    return ComplexFieldElement(ONE + RHO, ZERO) * step / (RHO_OMEGA - 1)


def spiral_disk(n: int) -> SpiralDisk:
    """Spiral disk: radius rho^n, center (1+rho)((rho w)^n - 1)/(rho w - 1)."""
    radius = RHO**n
    center = _spiral_center(n)
    symbol = from_center_radius(EuclideanDisk(center.re, center.im, radius))
    return SpiralDisk(n, radius, center, symbol)


def spiral_quadruple(n: int) -> Quadruple:
    """Four consecutive spiral disks; always a Descartes configuration."""
    return Quadruple(tuple(spiral_disk(n + k).symbol for k in range(4)))


def spiral_limit_point() -> ComplexFieldElement:
    """Accumulation point of the centers as n -> -infinity: (1+rho)/(1-rho w)."""
    return ComplexFieldElement(ONE + RHO, ZERO) / (ComplexFieldElement(ONE, ZERO) - RHO_OMEGA)


def spiral_seed() -> Tuple[DiskSymbol, DiskSymbol, DiskSymbol]:
    """Seed triple (D_1, D_0, D_-1); mutually tangent, unit disk in the middle."""
    return (spiral_disk(1).symbol, spiral_disk(0).symbol, spiral_disk(-1).symbol)


def spiral_seed_report() -> Dict[str, object]:
    """Cross-check of the derived seed symbols against their closed forms.

    The closed forms: D_1 = (1 + 1/rho, 0)/(1/rho, 1/rho + 2), D_0 the
    unit disk (0, 0)/(1, -1), and D_-1 = (tau + sqrt(tau) + 1,
    sqrt(phi) + sqrt(tau) + 1)/(rho, rho + 2).  A tempting misreading
    gives the third symbol curvature 1/rho = phi - sqrt(phi); the report
    shows that variant fails tangency with the unit disk.
    """
    derived = spiral_seed()
    expected = (
        DiskSymbol(ONE + RHO_BAR, ZERO, RHO_BAR, RHO_BAR + 2),
        DiskSymbol(ZERO, ZERO, ONE, -ONE),
        DiskSymbol(
            TAU + SQRT_TAU + 1,
            SQRT_PHI + SQRT_TAU + 1,
            RHO,
            RHO + 2,
        ),
    )
    matches = tuple(d == e for d, e in zip(derived, expected))
    wrong_curvature = DiskSymbol(
        expected[2].xr, expected[2].yr, RHO_BAR, expected[2].gamma
    )
    return {
        "derived": derived,
        "closed_forms": expected,
        "matches": matches,
        "pairwise_tangent": all(
            inner(derived[i], derived[j]) == 1
            for i in range(3)
            for j in range(i + 1, 3)
        ),
        "rho_bar_variant_tangent_to_unit_disk": inner(wrong_curvature, derived[1]) == 1,
    }


def spiral_center_triangle_report() -> Dict[str, object]:
    """Exact geometry of the triangle on the centers z_0, z_1, z_2.

    Squared sides come out as (1 + rho)^2 * (1, 2 rho, rho^2), and the
    angle at z_1 has cosine exactly tau, i.e. it equals the spiral's
    turn angle.  The sides are not in the Kepler proportion 1 :
    sqrt(phi) : phi; the report records the true ratios.
    """
    z0, z1, z2 = (_spiral_center(n) for n in range(3))
    side01 = (z1 - z0).abs2()
    side12 = (z2 - z1).abs2()
    side02 = (z2 - z0).abs2()
    unit = (ONE + RHO) ** 2
    # Law of cosines on squared quantities: cos^2 = (a^2+b^2-c^2)^2 / (4 a^2 b^2)
    # keeps everything in the field even when a*b would not be.
    numerator = side01 + side12 - side02
    cos_squared = numerator * numerator / (4 * side01 * side12)
    return {
        "squared_sides": (side01, side12, side02),
        "squared_sides_over_common": (side01 / unit, side12 / unit, side02 / unit),
        "expected_pattern": (ONE, RHO * RHO, 2 * RHO),
        "pattern_matches": (
            side01 / unit == ONE
            and side12 / unit == RHO * RHO
            and side02 / unit == 2 * RHO
        ),
        "cos_squared_at_z1": cos_squared,
        "cos_at_z1_is_tau": cos_squared == TAU * TAU and numerator.sign() > 0,
        "kepler_proportion_holds": (
            side02 / side01 == PHI and side12 / side01 == PHI * PHI
        ),
    }


# -- angle reports -----------------------------------------------------------


def turn_angle_checks() -> Dict[str, object]:
    """The rotation between consecutive spiral steps, -conj(w) = tau + sqrt(tau) i."""
    turn = -OMEGA.conjugate()
    tan_squared = (turn.im / turn.re) ** 2
    theta = math.degrees(math.acos(TAU.approx()))
    return {
        "unit_modulus": turn.abs2() == 1,
        "real_part_is_tau": turn.re == TAU,
        "tan_squared_is_phi": tan_squared == PHI,
        "theta_degrees": theta,
        "note": (
            "cos(theta) = +tau; a negative real part would put the angle "
            "near 128 degrees, inconsistent with arctan(sqrt(phi))"
        ),
    }


def kepler_triangle_ok() -> bool:
    """Right triangle with sides 1, sqrt(phi), phi in geometric progression.

    Right angle: 1 + (sqrt(phi))^2 = phi^2.  Progression: the middle
    side squared equals the product of the extremes.
    """
    return ONE + PHI == PHI * PHI and SQRT_PHI * SQRT_PHI == ONE * PHI


# -- zigzag wedge geometry ----------------------------------------------------


def zigzag_wedge_lines() -> Dict[str, object]:
    """The two tangent lines of the chain through the limit point.

    Both pass through (1/sqrt(5), 0) with unit directions
    (1/9, 4 sqrt(5)/9) and (-1/9, 4 sqrt(5)/9); the first is tangent to
    every even-index disk, the second to every odd-index one.  Each
    parity subchain therefore sits in a wedge with the axis of opening
    angle arccos(-1/9), whose bisector direction is (-+2/3, sqrt(5)/3).
    """
    ux = FieldElement(Fraction(1, 9))
    uy = SQRT5 * Fraction(4, 9)
    return {
        "apex": zigzag_limit(),
        "even_direction": (ux, uy),
        "odd_direction": (-ux, uy),
        "wedge_cos": FieldElement(Fraction(-1, 9)),
        "half_wedge_cos": FieldElement(Fraction(2, 3)),
        "even_bisector": (FieldElement(Fraction(-2, 3)), SQRT5 / 3),
        "odd_bisector": (FieldElement(Fraction(2, 3)), SQRT5 / 3),
    }


def zigzag_wedge_tangency_ok(n: int) -> bool:
    """Exact: dist(center_n, tangent line of n's parity)^2 = r_n^2."""
    lines = zigzag_wedge_lines()
    key = "even_direction" if n % 2 == 0 else "odd_direction"
    ux, uy = lines[key]
    px, _ = zigzag_limit()
    cx, cy, r = center_radius(zigzag_disk(n).symbol)
    cross = ux * cy - uy * (cx - px)
    return cross * cross == r * r


def third_cos_line_distance_parts(n: int) -> Tuple[FieldElement, FieldElement]:
    """Squared distance from center_n to the cos = 1/3 line through the apex.

    That line has direction (1/3, 2 sqrt(2)/3); sqrt(2) is outside the
    field, so the squared distance is returned as a pair (a, b) meaning
    a + b*sqrt(2).  Tangency to D_n would force b = 0 and a = r_n^2;
    b is nonzero for every n, which rules the single-line reading out.
    """
    px, _ = zigzag_limit()
    cx, cy, _ = center_radius(zigzag_disk(n).symbol)
    # cross = (1/3) cy - (2 sqrt(2)/3)(cx - px) = p + q*sqrt(2)
    p = cy / 3
    q = (px - cx) * Fraction(2, 3)
    return (p * p + 2 * q * q, 2 * p * q)


def wedge_checks() -> Dict[str, object]:
    """Triangle identities plus the tangency facts for the zigzag wedge."""
    sqrt2 = math.sqrt(2.0)
    defects = {}
    tangent = []
    for n in range(-8, 9):
        a, b = third_cos_line_distance_parts(n)
        r = center_radius(zigzag_disk(n).symbol)[2]
        tangent.append(b == 0 and a == r * r)
        if 0 <= n < 4:
            defects[n] = abs(math.sqrt(abs(a.approx() + b.approx() * sqrt2)) - r.approx())
    return {
        # 1^2 + (2 sqrt(2))^2 = 3^2 and 1^2 + (2 phi sqrt(phi))^2 = (phi^3)^2
        "triangle_1_2sqrt2_3": 1 + 8 == 9,
        "triangle_1_2phisqrtphi_phicubed": ONE + 4 * PHI**3 == PHI**6,
        "parity_tangency_ok": all(zigzag_wedge_tangency_ok(n) for n in range(-8, 9)),
        "single_third_cos_line_tangent": all(tangent),
        "third_cos_line_defects": defects,
        "lines": zigzag_wedge_lines(),
        "spiral_note": (
            "the spiral side is verified through the identity "
            "1 + 4*phi^3 = phi^6 only; its chain is not inscribed in a "
            "fixed wedge because consecutive steps rotate by a non-trivial "
            "angle"
        ),
    }
