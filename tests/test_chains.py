"""Tangent chains: the golden zigzag on a half-plane edge and the
logarithmic spiral filling the plane."""

from fractions import Fraction

import pytest

from apollonian import chains
from apollonian.descartes import descartes_scalar_ok, extended_ok
from apollonian.disks import DiskSymbol, inner, norm_ok, invert_point, to_euclidean
from apollonian.field import (
    ComplexFieldElement,
    FieldElement,
    OMEGA,
    ONE,
    PHI,
    RHO,
    RHO_BAR,
    RHO_OMEGA,
    SQRT5,
    TAU,
    ZERO,
    fibonacci,
    golden_power,
    interval,
)

TWO = FieldElement(2)


class TestZigzagDisks:
    def test_first_symbols(self):
        assert chains.zigzag_disk(0).symbol == DiskSymbol(ZERO, ONE, TWO, ZERO)
        assert chains.zigzag_disk(1).symbol == DiskSymbol(2 * PHI, ONE, 2 * PHI**2, TWO)
        assert chains.zigzag_disk(-1).symbol == DiskSymbol(2 * TAU, ONE, 2 * TAU**2, TWO)

    def test_diameters_are_golden_powers(self):
        for n in (-3, 0, 5):
            assert 2 / chains.zigzag_disk(n).symbol.beta == golden_power(-2 * n)

    @pytest.mark.parametrize("n", range(-16, 17))
    def test_chain_contacts(self, n):
        d = chains.zigzag_disk(n).symbol
        assert norm_ok(d)
        assert inner(d, chains.zigzag_axis()) == 1
        assert inner(d, chains.zigzag_disk(n + 1).symbol) == 1
        assert inner(d, chains.zigzag_disk(n + 2).symbol) == 1

    def test_consecutive_quadruples(self):
        from apollonian.descartes import Quadruple

        for n in (-5, 0, 7):
            quad = Quadruple(
                (
                    chains.zigzag_axis(),
                    chains.zigzag_disk(n).symbol,
                    chains.zigzag_disk(n + 1).symbol,
                    chains.zigzag_disk(n + 2).symbol,
                )
            )
            assert extended_ok(quad)

    def test_seed(self):
        axis, d0, d1 = chains.zigzag_seed()
        assert axis == chains.zigzag_axis()
        assert (d0, d1) == (chains.zigzag_disk(0).symbol, chains.zigzag_disk(1).symbol)


class TestZigzagLimit:
    def test_limit_point(self):
        x, y = chains.zigzag_limit()
        assert x * SQRT5 == 1
        assert y == ZERO

    def test_tangency_points(self):
        assert chains.zigzag_tangency_point(-1) == PHI
        assert chains.zigzag_tangency_point(0) == ZERO
        assert chains.zigzag_tangency_point(2) == TAU**2

    def test_gap_formula(self):
        # |x_n - limit| = tau^{2n} / sqrt5, signs alternating
        x = chains.zigzag_limit()[0]
        for n in range(-4, 17):
            gap = chains.zigzag_tangency_point(n) - x
            gap = gap if gap.sign() > 0 else -gap
            assert gap == TAU ** (2 * n) / SQRT5

    def test_convergence_certified(self):
        gap = chains.zigzag_tangency_point(16) - chains.zigzag_limit()[0]
        gap = gap if gap.sign() > 0 else -gap
        _, hi = interval(gap, Fraction(1, 10**12))
        assert hi < Fraction(1, 10**5)

    def test_contraction_identity(self):
        # phi^{2n} (F_{n+1} - phi F_n)^2 = 1 drives the convergence proof
        for n in range(-16, 17):
            assert PHI ** (2 * n) * (FieldElement(fibonacci(n + 1)) - fibonacci(n) * PHI) ** 2 == 1


class TestSextic:
    def test_coefficients(self):
        assert chains.SEXTIC_COEFFICIENTS == (1, -2, -1, -4, -1, -2, 1)

    @pytest.mark.parametrize(
        "root",
        [
            ComplexFieldElement(RHO, ZERO),
            ComplexFieldElement(RHO_BAR, ZERO),
            OMEGA,
            OMEGA.conjugate(),
            ComplexFieldElement(ZERO, ONE),
            ComplexFieldElement(ZERO, -ONE),
        ],
        ids=["rho", "rho_bar", "omega", "omega_bar", "i", "-i"],
    )
    def test_roots(self, root):
        assert not chains.sextic_eval(root)

    def test_nonroot(self):
        value = chains.sextic_eval(ComplexFieldElement(ONE, ZERO))
        assert value == ComplexFieldElement(FieldElement(-8), ZERO)

    def test_factorization(self):
        # (p^2 + 1)(p^2 - 2 phi p + 1)(p^2 + 2 tau p + 1)
        assert chains.sextic_factorization_ok()


class TestSpiralDisks:
    def test_base_disk_is_unit(self):
        d = chains.spiral_disk(0)
        assert d.radius == 1
        assert not d.center
        assert d.symbol == DiskSymbol(ZERO, ZERO, ONE, -ONE)

    def test_radii_are_rho_powers(self):
        assert chains.spiral_disk(3).radius == RHO**3
        assert chains.spiral_disk(-2).radius == RHO**-2

    def test_center_recurrence(self):
        for n in range(-8, 9):
            step = chains.spiral_disk(n + 1).center - chains.spiral_disk(n).center
            assert step == ComplexFieldElement(ONE + RHO, ZERO) * RHO_OMEGA**n

    @pytest.mark.parametrize("n", range(-8, 9))
    def test_quadruples(self, n):
        assert extended_ok(chains.spiral_quadruple(n))

    def test_curvature_row(self):
        assert descartes_scalar_ok(ONE, RHO_BAR, RHO_BAR**2, RHO_BAR**3)

    def test_seed_closed_forms(self):
        report = chains.spiral_seed_report()
        assert all(report["matches"])
        assert report["pairwise_tangent"]
        # the variant with the conjugate in the third slot is *not*
        # tangent to the unit disk; the closed form above is the one
        # that belongs to the chain
        assert report["rho_bar_variant_tangent_to_unit_disk"] is False


class TestSpiralLimit:
    def test_closed_form(self):
        z = chains.spiral_limit_point()
        one = ComplexFieldElement(ONE, ZERO)
        assert z * (one - RHO_OMEGA) == ComplexFieldElement(ONE + RHO, ZERO)

    def test_decimals(self):
        z = chains.spiral_limit_point()
        assert format(z.re, ".4f") == "0.8386"
        assert format(z.im, ".4f") == "0.6838"

    def test_recentered_geometric_series(self):
        z = chains.spiral_limit_point()
        for n in range(-6, 7):
            gap = chains.spiral_disk(n).center - z
            assert gap == ComplexFieldElement(ONE + RHO, ZERO) * RHO_OMEGA**n / (RHO_OMEGA - 1)

    def test_backward_convergence_certified(self):
        gap = (chains.spiral_disk(-10).center - chains.spiral_limit_point()).abs2()
        _, hi = interval(gap, Fraction(1, 10**20))
        assert hi < Fraction(1, 10**8)


class TestTurnAngle:
    def test_exact_checks(self):
        report = chains.turn_angle_checks()
        assert report["unit_modulus"]
        assert report["real_part_is_tau"]
        assert report["tan_squared_is_phi"]

    def test_degrees(self):
        report = chains.turn_angle_checks()
        assert abs(report["theta_degrees"] - 51.8272923730) < 1e-9

    def test_kepler_right_triangle(self):
        assert chains.kepler_triangle_ok()


class TestCenterTriangle:
    def test_exact_shape(self):
        report = chains.spiral_center_triangle_report()
        assert report["pattern_matches"]  # squared sides ~ (1, rho^2, 2 rho)
        assert report["cos_at_z1_is_tau"]

    def test_kepler_proportion_refuted(self):
        report = chains.spiral_center_triangle_report()
        assert report["kepler_proportion_holds"] is False


class TestWedge:
    def test_lines(self):
        lines = chains.zigzag_wedge_lines()
        ninth = FieldElement(Fraction(1, 9))
        assert lines["even_direction"] == (ninth, 4 * SQRT5 / 9)
        assert lines["odd_direction"] == (-ninth, 4 * SQRT5 / 9)
        assert lines["wedge_cos"] == -ninth
        assert lines["half_wedge_cos"] == FieldElement(Fraction(2, 3))

    def test_directions_are_unit(self):
        lines = chains.zigzag_wedge_lines()
        for key in ("even_direction", "odd_direction", "even_bisector", "odd_bisector"):
            ux, uy = lines[key]
            assert ux * ux + uy * uy == 1

    @pytest.mark.parametrize("n", range(-8, 9))
    def test_parity_tangency_exact(self, n):
        assert chains.zigzag_wedge_tangency_ok(n)

    def test_single_line_refuted_exactly(self):
        # distance-minus-radius defect of the would-be common tangent
        # (slope with cos = 1/3) splits as a + b*sqrt2 with b != 0
        a0, b0 = chains.third_cos_line_distance_parts(0)
        assert a0 == FieldElement(Fraction(37, 180))
        assert b0 == SQRT5 * Fraction(2, 45)
        assert bool(b0)

    def test_defects_visible_numerically(self):
        report = chains.wedge_checks()
        defects = report["third_cos_line_defects"]
        assert set(defects) == {0, 1, 2, 3}
        assert all(v > 0.01 for v in defects.values())

    def test_triangle_identities(self):
        report = chains.wedge_checks()
        assert report["triangle_1_2sqrt2_3"]
        assert report["triangle_1_2phisqrtphi_phicubed"]


class TestHalfPlaneInversionLandmarks:
    def test_limit_point_image(self):
        x, y = chains.zigzag_limit()
        circle = to_euclidean(chains.zigzag_disk(0).symbol)
        q = invert_point(x, y, circle)
        assert q == (SQRT5 / 9, FieldElement(Fraction(2, 9)))

    def test_normalized_image(self):
        x, y = chains.zigzag_limit()
        circle = to_euclidean(chains.zigzag_disk(0).symbol)
        qx, qy = invert_point(x, y, circle)
        scaled = (2 * (qx - circle.cx), 2 * (qy - circle.cy))
        assert scaled == (2 * SQRT5 / 9, FieldElement(Fraction(-5, 9)))

    def test_inversion_factor(self):
        x, y = chains.zigzag_limit()
        circle = to_euclidean(chains.zigzag_disk(0).symbol)
        dx, dy = x - circle.cx, y - circle.cy
        assert circle.r * circle.r / (dx * dx + dy * dy) == FieldElement(Fraction(5, 9))

    def test_chain_reflects_inside_base_disk(self):
        from apollonian.disks import reflect_in_disk

        base = chains.zigzag_disk(0).symbol
        image = reflect_in_disk(chains.zigzag_disk(1).symbol, base)
        assert norm_ok(image)
        assert inner(image, base) == -1
