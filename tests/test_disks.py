"""Inversive-coordinate disk symbols: norms, tangency, reflection."""

from fractions import Fraction

import pytest

from apollonian.disks import (
    DiskSymbol,
    EuclideanDisk,
    HalfPlane,
    InvalidSymbol,
    NonUnitNormal,
    ZeroRadius,
    approx_geometry,
    from_center_radius,
    from_line,
    inner,
    invert_point,
    invert_unit_circle,
    norm_ok,
    reflect_in_disk,
    tangent,
    to_euclidean,
)
from apollonian.field import FieldElement, ONE, PHI, TAU, ZERO

HALF = FieldElement(Fraction(1, 2))
TWO = FieldElement(2)

UNIT = DiskSymbol(ZERO, ZERO, ONE, -ONE)
OUTER = DiskSymbol(ZERO, ZERO, -ONE, ONE)
TOP = DiskSymbol(ZERO, TWO, FieldElement(3), ONE)  # center (0, 2/3), r = 1/3
AXIS = DiskSymbol(ZERO, -ONE, ZERO, ZERO)  # half-plane y <= 0


class TestConstruction:
    def test_unit_disk(self):
        assert from_center_radius(EuclideanDisk(ZERO, ZERO, ONE)) == UNIT

    def test_negative_radius_is_complement(self):
        assert from_center_radius(EuclideanDisk(ZERO, ZERO, -ONE)) == OUTER

    def test_gamma_from_center(self):
        d = from_center_radius(EuclideanDisk(ZERO, FieldElement(Fraction(2, 3)), FieldElement(Fraction(1, 3))))
        assert d == TOP
        # gamma * beta = xr^2 + yr^2 - 1 pins gamma given the rest
        assert d.gamma * d.beta == d.xr * d.xr + d.yr * d.yr - 1

    def test_zero_radius_rejected(self):
        with pytest.raises(ZeroRadius):
            from_center_radius(EuclideanDisk(ONE, ONE, ZERO))

    def test_line_symbol(self):
        assert from_line(HalfPlane(ZERO, -ONE, ZERO)) == AXIS
        assert from_line(HalfPlane(ONE, ZERO, ONE)) == DiskSymbol(ONE, ZERO, ZERO, TWO)

    def test_line_requires_unit_normal(self):
        with pytest.raises(NonUnitNormal):
            from_line(HalfPlane(ONE, ONE, ZERO))

    def test_float_symbols(self):
        d = DiskSymbol(0.0, 0.0, 1.0, -1.0)
        assert not d.is_exact
        assert inner(d, d) == -1.0


class TestNormAndInner:
    @pytest.mark.parametrize("d", [UNIT, OUTER, TOP, AXIS], ids=["unit", "outer", "top", "axis"])
    def test_norm(self, d):
        assert norm_ok(d)
        assert inner(d, d) == -1

    def test_external_tangency_is_plus_one(self):
        # complement of the unit disk vs. a disk inscribed against its rim
        assert tangent(OUTER, TOP)
        side = from_center_radius(EuclideanDisk(TWO, ZERO, ONE))
        assert inner(UNIT, side) == 1
        resting = from_center_radius(EuclideanDisk(ZERO, HALF, HALF))
        assert inner(resting, AXIS) == 1

    def test_internal_tangency_is_minus_one(self):
        # TOP sits inside the unit disk touching its rim at (0, 1)
        assert inner(UNIT, TOP) == -1
        assert not tangent(UNIT, TOP)

    def test_parallel_lines_tangent_at_infinity(self):
        left = from_line(HalfPlane(-ONE, ZERO, ONE))
        right = from_line(HalfPlane(ONE, ZERO, ONE))
        assert inner(left, right) == 1

    def test_disjoint_pair_not_tangent(self):
        far = from_center_radius(EuclideanDisk(FieldElement(5), ZERO, ONE))
        assert not tangent(UNIT, far)


class TestEuclideanRoundTrip:
    @pytest.mark.parametrize("d", [UNIT, OUTER, TOP], ids=["unit", "outer", "top"])
    def test_disk_round_trip(self, d):
        assert from_center_radius(to_euclidean(d)) == d

    def test_zero_curvature_round_trips_as_half_plane(self):
        plane = to_euclidean(AXIS)
        assert isinstance(plane, HalfPlane)
        assert from_line(plane) == AXIS

    def test_invalid_symbol_rejected(self):
        with pytest.raises(InvalidSymbol):
            to_euclidean(DiskSymbol(ZERO, ZERO, ONE, ONE))

    def test_approx_geometry(self):
        kind, cx, cy, r = approx_geometry(TOP)
        assert kind == "disk"
        assert abs(cx) < 1e-12 and abs(cy - 2 / 3) < 1e-12 and abs(r - 1 / 3) < 1e-12
        kind, nx, ny, s = approx_geometry(AXIS)
        assert kind == "line"
        assert (nx, ny, s) == (0.0, -1.0, 0.0)


class TestUnitCircleInversion:
    def test_swaps_radius_like_entries(self):
        image = invert_unit_circle(TOP)
        assert image == DiskSymbol(ZERO, TWO, ONE, FieldElement(3))
        geo = to_euclidean(image)
        assert (geo.cx, geo.cy, geo.r) == (ZERO, TWO, ONE)

    def test_involution(self):
        assert invert_unit_circle(invert_unit_circle(TOP)) == TOP

    def test_point_inversion(self):
        circle = EuclideanDisk(ZERO, ZERO, ONE)
        assert invert_point(TWO, ZERO, circle) == (HALF, ZERO)
        # fixed points stay on the circle
        assert invert_point(ONE, ZERO, circle) == (ONE, ZERO)


class TestReflection:
    def test_involution(self):
        image = reflect_in_disk(UNIT, TOP)
        assert reflect_in_disk(image, TOP) == UNIT
        assert norm_ok(image)

    def test_mirror_maps_to_negation(self):
        assert reflect_in_disk(TOP, TOP) == DiskSymbol(-TOP.xr, -TOP.yr, -TOP.beta, -TOP.gamma)

    def test_flips_inner_product_with_mirror(self):
        # <S(d), s> = -<d, s>: an externally tangent disk reflects to an
        # internally tangent one
        side = from_center_radius(EuclideanDisk(TWO, ZERO, ONE))
        assert inner(side, UNIT) == 1
        assert inner(reflect_in_disk(side, UNIT), UNIT) == -1

    def test_preserves_inner_product_between_images(self):
        a = from_center_radius(EuclideanDisk(HALF, ZERO, HALF))
        b = from_center_radius(EuclideanDisk(-HALF, ZERO, HALF))
        assert inner(reflect_in_disk(a, UNIT), reflect_in_disk(b, UNIT)) == inner(a, b)

    def test_golden_ratio_mirror(self):
        # reflection arithmetic stays exact over the field
        d = from_center_radius(EuclideanDisk(PHI, TAU, ONE))
        image = reflect_in_disk(d, UNIT)
        assert norm_ok(image)
        assert image.is_exact


class TestSymbolArithmetic:
    def test_add_sub_scaled(self):
        s = UNIT + TOP
        assert s.components() == (ZERO, TWO, FieldElement(4), ZERO)
        assert (s - TOP) == UNIT
        assert UNIT.scaled(TWO).beta == TWO

    def test_mixed_exactness_rejected(self):
        with pytest.raises(TypeError):
            inner(UNIT, DiskSymbol(0.0, 0.0, 1.0, -1.0))
