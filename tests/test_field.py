"""Exact arithmetic in Q[t]/(t^4 - t^2 - 1) and certified numerics."""

import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apollonian import field
from apollonian.jsonio import ParseError, export_json, import_json
from apollonian.packing import PackingConfig, generate
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
    SQRT_PHI,
    SQRT_TAU,
    T,
    TAU,
    ZERO,
    decimal_str,
    fibonacci,
    golden_power,
    interval,
    sqrt_in_field,
)

coeffs = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
elements = st.builds(FieldElement, coeffs, coeffs, coeffs, coeffs)

# The oracle encloses the real embedding by bisecting its own bracket of
# t, independent of the closed-form isqrt enclosures in field.py.
_REF_BRACKET = [Fraction(1), Fraction(3, 2)]


def reference_interval(x, eps, bracket=_REF_BRACKET):
    """Rational [lo, hi] around x with hi - lo <= eps, by bisecting t.

    The bracket only ever tightens; a fresh one makes the enclosure a
    function of x and eps alone.
    """
    teps = Fraction(1, 1 << 32)
    while True:
        tlo, thi = bracket
        while thi - tlo > teps:
            mid = (tlo + thi) / 2
            if mid * mid * (mid * mid - 1) < 1:
                tlo = mid
            else:
                thi = mid
        bracket[:] = tlo, thi
        lo = hi = Fraction(0)
        for k, coeff in enumerate(x.coeffs):
            ends = (coeff * tlo**k, coeff * thi**k)
            lo += min(ends)
            hi += max(ends)
        if hi - lo <= eps:
            return lo, hi
        teps /= 1 << 32


def reference_sign(x):
    """Sign by interval bisection: refine the enclosure until it excludes 0."""
    if not x:
        return 0
    eps = Fraction(1, 1 << 20)
    while True:
        lo, hi = reference_interval(x, eps)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        eps /= 1 << 16


# Huge coefficients with mixed denominators, and values within a hair of
# zero: an element minus the midpoint of a tight enclosure of itself.
big_coeffs = st.builds(
    Fraction,
    st.integers(min_value=-(2**200), max_value=2**200),
    st.sampled_from([1, 1, 2, 3, 7, 50, 2**64 + 13]),
)
big_elements = st.builds(FieldElement, big_coeffs, big_coeffs, big_coeffs, big_coeffs)


def _minus_midpoint(x, bits):
    # A fresh bracket, so how close to zero the result is does not grow
    # with how far earlier examples refined the shared one.
    lo, hi = reference_interval(x, Fraction(1, 2**bits), [Fraction(1), Fraction(3, 2)])
    return x - (lo + hi) / 2


near_zero = st.one_of(
    st.builds(_minus_midpoint, big_elements, st.integers(min_value=0, max_value=256)),
    st.builds(
        lambda n, e: golden_power(n + 1) - PHI * golden_power(n) + e * Fraction(1, 10**30),
        st.integers(min_value=-300, max_value=300),
        st.sampled_from([-1, 0, 1]),
    ),
    st.builds(
        lambda n, e: fibonacci(n + 1) - fibonacci(n) * PHI + e * Fraction(1, 10**30),
        st.integers(min_value=1, max_value=300),
        st.sampled_from([-1, 0, 1]),
    ),
)
hard_elements = st.one_of(elements, big_elements, near_zero)


class TestRingStructure:
    def test_defining_relation(self):
        assert T**4 == T * T + 1

    def test_reduction_of_high_powers(self):
        # t^5 = t^3 + t and t^6 = 2t^2 + 1 follow from the relation
        assert T**5 == T**3 + T
        assert T**6 == 2 * T * T + 1

    @given(elements, elements, elements)
    @settings(max_examples=60, deadline=None)
    def test_mul_distributes(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(elements, elements)
    @settings(max_examples=60, deadline=None)
    def test_mul_commutes(self, a, b):
        assert a * b == b * a

    @given(elements)
    @settings(max_examples=60, deadline=None)
    def test_inverse(self, a):
        if not a:
            with pytest.raises(ZeroDivisionError):
                a.inverse()
        else:
            assert a * a.inverse() == ONE

    @given(hard_elements)
    @settings(max_examples=150, deadline=None)
    def test_inverse_hard(self, a):
        if a:
            assert a * a.inverse() == ONE

    def test_pow_negative(self):
        assert PHI**-3 == TAU**3
        assert (T**-2) * (T * T) == ONE

    def test_mixed_rational_arithmetic(self):
        assert PHI + Fraction(1, 2) == FieldElement(Fraction(1, 2), 0, 1)
        assert 2 * TAU == FieldElement(-2, 0, 2)
        assert 1 / PHI == TAU


class TestConstants:
    def test_phi_tau_inverse_pair(self):
        assert PHI * TAU == 1
        assert PHI - TAU == 1

    def test_sqrt5(self):
        assert SQRT5 * SQRT5 == 5
        assert SQRT5 == 2 * PHI - 1

    def test_sqrt_phi_squares_to_phi(self):
        assert SQRT_PHI * SQRT_PHI == PHI

    def test_sqrt_tau_squares_to_tau(self):
        assert SQRT_TAU * SQRT_TAU == TAU

    def test_rho_quadratic(self):
        # rho and its conjugate are the roots of p^2 - 2 phi p + 1
        assert RHO * RHO == 2 * PHI * RHO - 1
        assert RHO * RHO_BAR == 1
        assert RHO + RHO_BAR == 2 * PHI

    def test_omega_unit_modulus(self):
        assert OMEGA * OMEGA.conjugate() == ComplexFieldElement(ONE, ZERO)
        assert OMEGA.re == -TAU
        assert OMEGA.im == SQRT_TAU

    def test_rho_omega_product(self):
        assert RHO_OMEGA == ComplexFieldElement(RHO, ZERO) * OMEGA
        assert RHO_OMEGA.re == -(1 + SQRT_TAU)
        assert RHO_OMEGA.im == 1 + SQRT_PHI

    def test_one_plus_rho_omega_norm(self):
        one = ComplexFieldElement(ONE, ZERO)
        assert (one + RHO_OMEGA).abs2() == 2 * RHO


# Pairs whose correctly rounded floats tie, or which have no float.
BELOW_OVERFLOW = FieldElement(2**1024 - 2**970) - golden_power(-100)
FLOAT_TIES = [
    (golden_power(80), FieldElement(fibonacci(79) + fibonacci(81))),  # phi^80 + phi^-80 = L_80
    (golden_power(80), fibonacci(79) + fibonacci(81)),
    (ONE, ONE + golden_power(-80)),
    (ONE, ONE - golden_power(-80)),
    (FieldElement(10**400), 10**400 + T),
    (FieldElement(-(10**400)), -(10**400) + T),
    (10**400, 10**400 + T),
    (BELOW_OVERFLOW, FieldElement(int(sys.float_info.max))),
]


class TestOrdering:
    def test_signs(self):
        assert PHI.sign() == 1
        assert (-SQRT_TAU).sign() == -1
        assert ZERO.sign() == 0

    def test_comparisons(self):
        assert TAU < ONE < PHI < RHO
        assert RHO_BAR > ZERO
        for compare in (
            lambda: PHI < 1.5,
            lambda: PHI <= 1.5,
            lambda: PHI > 1.5,
            lambda: 1.5 >= PHI,
        ):
            with pytest.raises(TypeError):
                compare()

    @given(hard_elements, hard_elements)
    @settings(max_examples=100, deadline=None)
    def test_comparisons_are_signs_of_differences(self, x, y):
        assert (x < 0) == (x.sign() < 0)
        assert (x > 0) == (x.sign() > 0)
        s = (x - y).sign()
        assert (x < y, x <= y, x > y, x >= y) == (s < 0, s <= 0, s > 0, s >= 0)

    @given(hard_elements)
    @settings(max_examples=150, deadline=None)
    def test_sign_matches_interval_bisection(self, a):
        assert a.sign() == reference_sign(a)

    def test_sign_of_golden_residues(self):
        # F_{n+1} - F_n phi = (-tau)^n, within phi^-300 of zero at n = 300
        for n in range(0, 301):
            assert (fibonacci(n + 1) - fibonacci(n) * PHI).sign() == (-1) ** n
            exact = golden_power(n + 1) - PHI * golden_power(n)
            assert exact.sign() == 0
            assert (exact + Fraction(1, 10**30)).sign() == 1

    def test_sign_never_touches_numeric_views(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("sign() used a numeric view")

        monkeypatch.setattr(field, "_enclosure", refuse)
        monkeypatch.setattr(field, "interval", refuse)
        tiny = fibonacci(1501) - fibonacci(1500) * PHI  # about 10^-313
        assert tiny.sign() == 1
        assert (T * tiny).sign() == 1

    @pytest.mark.parametrize("x,y", FLOAT_TIES)
    def test_float_ties_are_decided_exactly(self, x, y):
        def rounded(v):
            try:
                return float(v)
            except OverflowError:
                return None

        assert rounded(x) == rounded(y)
        for a, b in ((x, y), (y, x)):
            s = (a - b).sign()
            assert s != 0
            assert (a < b, a <= b, a > b, a >= b) == (s < 0, s <= 0, s > 0, s >= 0)

    def test_distinct_floats_never_reach_sign(self, monkeypatch):
        pairs = [
            (TAU, ONE),
            (PHI, RHO),
            (RHO_BAR, 0),
            (PHI, Fraction(8, 5)),
            (-golden_power(-700), ZERO),
            (golden_power(80), golden_power(81)),
            (BELOW_OVERFLOW, 10**308),
        ]
        expected = [((x - y).sign(), (y - x).sign()) for x, y in pairs]
        powers = [golden_power(n) for n in range(-30, 31)]
        shuffled = powers[1::2] + powers[::2]

        def refuse(self):
            raise AssertionError("a comparison took the exact sign")

        monkeypatch.setattr(FieldElement, "sign", refuse)
        for (x, y), signs in zip(pairs, expected):
            for (a, b), s in zip(((x, y), (y, x)), signs):
                assert (a < b, a <= b, a > b, a >= b) == (s < 0, s <= 0, s > 0, s >= 0)
        assert sorted(shuffled) == powers
        assert min(shuffled) == powers[0] and max(shuffled) == powers[-1]

    def test_tight_ordering(self):
        # 1 + 4 phi^3 and phi^6 coincide; nearby values must separate
        assert 1 + 4 * PHI**3 == PHI**6
        assert (1 + 4 * PHI**3 - Fraction(1, 10**12)) < PHI**6


class TestCertifiedNumerics:
    def test_interval_encloses_tightly(self):
        lo, hi = interval(SQRT5, Fraction(1, 10**30))
        assert hi - lo <= Fraction(1, 10**30)
        assert lo * lo < 5 < hi * hi

    @pytest.mark.parametrize(
        "value,digits,expected",
        [
            (PHI, 10, "1.6180339887"),
            (TAU, 10, "0.6180339887"),
            (SQRT5, 10, "2.2360679775"),
            (RHO, 9, "2.890053638"),
            (RHO, 5, "2.89005"),
            (RHO_BAR, 9, "0.346014339"),
            (SQRT_TAU, 9, "0.786151378"),
        ],
    )
    def test_decimal_digits(self, value, digits, expected):
        assert decimal_str(value, digits) == expected

    def test_decimal_rational_fast_path(self):
        assert decimal_str(FieldElement(Fraction(1, 8)), 3) == "0.125"
        assert decimal_str(FieldElement(-3), 2) == "-3.00"

    def test_format_spec(self):
        assert format(PHI, ".3f") == f"{PHI:.3f}" == "1.618"
        assert format(PHI, "") == str(PHI)
        for spec in (".f", "10", ".3e"):
            with pytest.raises(TypeError):
                format(PHI, spec)

    def test_float_conversion(self):
        assert abs(float(PHI) - 1.618033988749895) < 1e-15

    @pytest.mark.parametrize("sign", [1, -1])
    def test_approx_below_the_overflow_threshold(self, sign):
        # 2^1024 - 2^970 is the least value that rounds past the float
        # range; an enclosure end beyond it must not make approx raise.
        threshold = FieldElement(2**1024 - 2**970)
        assert (sign * (threshold - golden_power(-100))).approx() == sign * sys.float_info.max
        with pytest.raises(OverflowError):
            (sign * (threshold + golden_power(-100))).approx()

    @given(hard_elements, st.integers(min_value=0, max_value=300))
    @settings(max_examples=150, deadline=None)
    def test_interval_encloses_exactly(self, x, bits):
        eps = Fraction(1, 2**bits)
        lo, hi = interval(x, eps)
        assert hi - lo <= eps
        if x.is_rational():
            assert lo == hi == x.as_fraction()
        else:
            assert (x - lo).sign() > 0 < (hi - x).sign()

    @given(hard_elements)
    @settings(max_examples=150, deadline=None)
    def test_approx_is_correctly_rounded(self, x):
        eps = Fraction(1, 2**64)
        while True:
            lo, hi = reference_interval(x, eps)
            # Both ends on one side of 0 and one float: x rounds to it.
            if (lo >= 0 or hi <= 0) and float(lo) == float(hi):
                break
            eps *= eps
        assert x.approx().hex() == float(lo).hex()

    @given(hard_elements, st.integers(min_value=0, max_value=30))
    @settings(max_examples=150, deadline=None)
    def test_decimal_str_matches_reference_rounding(self, x, digits):
        eps = Fraction(1, 10 ** (digits + 2))
        while True:
            lo, hi = reference_interval(x, eps)
            scaled = round(lo * 10**digits)  # half-even
            if scaled == round(hi * 10**digits):
                break
            eps /= 10**8
        text = decimal_str(x, digits)
        assert format(x, f".{digits}f") == text
        assert Fraction(text) * 10**digits == scaled
        assert text.startswith("-") == (scaled < 0)
        assert len(text.partition(".")[2]) == digits

    def test_golden_residue_approx_in_fresh_process(self):
        # F_{n+1} - F_n phi = (-tau)^n: the first call in a process must
        # already be accurate, not only after earlier calls refined state.
        script = """
from apollonian.field import PHI, fibonacci
for n in range(301):
    print((fibonacci(n + 1) - fibonacci(n) * PHI).approx().hex())
"""
        src = Path(__file__).resolve().parents[1] / "src"
        result = subprocess.run(
            [sys.executable, "-c", script], cwd=src, capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        values = [float.fromhex(line) for line in result.stdout.split()]
        assert len(values) == 301
        for n, value in enumerate(values):
            lo, hi = reference_interval(fibonacci(n + 1) - fibonacci(n) * PHI, Fraction(1, 2**600))
            assert value * (-1) ** n > 0, n
            assert abs(Fraction(value) - lo) <= abs(lo) / 2**52, n

    def test_numeric_views_do_not_depend_on_call_history(self):
        xs = [fibonacci(n + 1) - fibonacci(n) * PHI for n in range(0, 301, 7)]
        xs += [RHO / 7**40, SQRT_TAU * 10**200, T - Fraction(1, 3)]
        forward = [x.approx().hex() for x in xs]
        backward = [x.approx().hex() for x in reversed(xs)][::-1]
        decimal_str(SQRT5, 2000)
        again = [x.approx().hex() for x in xs]
        assert forward == backward == again


class TestFibonacci:
    @pytest.mark.parametrize(
        "n,expected",
        [(-4, -3), (-3, 2), (-2, -1), (-1, 1), (0, 0), (1, 1), (2, 1), (6, 8), (10, 55)],
    )
    def test_bilateral_values(self, n, expected):
        assert fibonacci(n) == expected

    def test_recurrence_both_directions(self):
        for n in range(-15, 15):
            assert fibonacci(n + 1) == fibonacci(n) + fibonacci(n - 1)

    def test_golden_power_closed_form(self):
        for n in range(-20, 21):
            assert golden_power(n) == PHI**n
            assert golden_power(n) == fibonacci(n) * PHI + fibonacci(n - 1)

    def test_tau_power_closed_form(self):
        # the sign alternates; without (-1)^n the identity fails for odd n
        for n in range(0, 11):
            assert TAU**n == (-1) ** n * (FieldElement(fibonacci(n + 1)) - fibonacci(n) * PHI)
        assert TAU != FieldElement(fibonacci(2)) - fibonacci(1) * PHI


class TestSquareRoots:
    @pytest.mark.parametrize("square", ["5", "16", "phi", "tau", "4*phi^2", "2*rho"])
    def test_recovers_root(self, square):
        table = {
            "5": FieldElement(5),
            "16": FieldElement(16),
            "phi": PHI,
            "tau": TAU,
            "4*phi^2": 4 * PHI**2,
            "2*rho": 2 * RHO,
        }
        x = table[square]
        root = sqrt_in_field(x)
        assert root is not None
        assert root * root == x

    @pytest.mark.parametrize("nonsquare", [3, 2, 7])
    def test_rejects_rational_nonsquares(self, nonsquare):
        assert sqrt_in_field(FieldElement(nonsquare)) is None

    def test_recovers_root_with_large_denominator(self):
        root = FieldElement(Fraction(1, 1000003), Fraction(1, 7), 0, Fraction(2, 3))
        assert sqrt_in_field(root * root) == root

    @given(big_elements)
    @settings(max_examples=40, deadline=None)
    def test_square_then_root_big(self, a):
        if a:
            root = sqrt_in_field(a * a)
            assert root == (a if a.sign() > 0 else -a)

    def test_rejects_negative(self):
        assert sqrt_in_field(-PHI) is None

    @given(elements)
    @settings(max_examples=40, deadline=None)
    def test_square_then_root(self, a):
        if not a:
            return
        root = sqrt_in_field(a * a)
        assert root is not None
        assert root * root == a * a


# Tokens around the canonical coefficient grammar -?[0-9]+(/[0-9]+)?:
# signs, spaces, underscores, decimals, exponents, unreduced and
# zero-padded fractions, zero and signed denominators, missing parts and
# a non-ASCII digit.
COEFFICIENT_TOKENS = [
    "0", "-0", "+3", " 3 ", "1_0", "0.5", "1e2", "2/4", "-7/0014",
    "1/0", "-1/-2", "1 /2", "3/", "/3", "", "\u0663",
]


def fraction_rejects(token):
    try:
        Fraction(token)
    except (ValueError, ZeroDivisionError):
        return True
    return False


class TestSerialization:
    def test_to_string_canonical(self):
        assert PHI.to_string() == "0 + 0*t + 1*t^2 + 0*t^3"
        assert SQRT_TAU.to_string() == "0 + -1*t + 0*t^2 + 1*t^3"

    @given(elements)
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, a):
        assert FieldElement.from_string(a.to_string()) == a

    def test_from_string_fractions(self):
        parsed = FieldElement.from_string("1/2 + -2/3*t + 0*t^2 + 4*t^3")
        assert parsed == FieldElement(Fraction(1, 2), Fraction(-2, 3), 0, 4)

    def test_from_string_rejects_garbage(self):
        with pytest.raises(ValueError):
            FieldElement.from_string("1 + 2*t")
        with pytest.raises(ValueError):
            FieldElement.from_string("x + 0*t + 0*t^2 + 0*t^3")

    @pytest.mark.parametrize("position", [0, 3])
    @pytest.mark.parametrize("token", COEFFICIENT_TOKENS)
    def test_coefficient_grammar_is_fractions(self, token, position):
        """A coefficient token means what Fraction(token) means, or fails as it does."""
        terms = ["0", "0*t", "0*t^2", "0*t^3"]
        terms[position] = token + terms[position][1:]
        text = " + ".join(terms)
        try:
            expected = Fraction(token)
        except (ValueError, ZeroDivisionError) as exc:
            with pytest.raises(type(exc)):
                FieldElement.from_string(text)
        else:
            coeff = FieldElement.from_string(text).coeffs[position]
            assert type(coeff) is Fraction and coeff == expected

    @pytest.mark.parametrize("token", [t for t in COEFFICIENT_TOKENS if fraction_rejects(t)])
    def test_bad_coefficient_is_a_parse_error(self, token):
        doc = json.loads(export_json(generate(PackingConfig(seed="window", max_depth=0))))
        doc["disks"][1]["beta"] = f"{token} + 0*t + 0*t^2 + 0*t^3"
        with pytest.raises(ParseError, match=r"disks\[1\]\.beta"):
            import_json(json.dumps(doc))

    @given(
        st.integers(-10**30, 10**30),
        st.integers(1, 10**30),
        st.integers(1, 10**6),
        st.integers(0, 3),
    )
    @settings(max_examples=200, deadline=None)
    def test_unreduced_fractions(self, num, den, factor, zeros):
        token = f"{num * factor}/{'0' * zeros}{den * factor}"
        coeff = FieldElement.from_string(f"{token} + 0*t + 0*t^2 + {token}*t^3").coeffs
        assert coeff[0] == coeff[3] == Fraction(token) == Fraction(num, den)
        assert coeff[0].denominator == den // math.gcd(num, den)


class TestComplex:
    def test_inverse(self):
        z = ComplexFieldElement(PHI, -SQRT_TAU)
        w = z.inverse()
        assert z * w == ComplexFieldElement(ONE, ZERO)

    def test_powers(self):
        assert OMEGA**0 == ComplexFieldElement(ONE, ZERO)
        assert OMEGA**3 == OMEGA * OMEGA * OMEGA
        assert OMEGA**-2 == (OMEGA * OMEGA).inverse()

    def test_abs2_matches_components(self):
        z = ComplexFieldElement(RHO, SQRT5)
        assert z.abs2() == RHO * RHO + 5


def test_reimport_releases_previous_package():
    # typing caches subscripted aliases; an alias over a package class
    # would keep every previously imported copy of the package alive.
    script = """
import gc, sys, weakref
def fresh():
    for name in [m for m in sys.modules if m.split(".")[0] == "apollonian"]:
        del sys.modules[name]
    import apollonian.cli
    return sys.modules["apollonian.field"].FieldElement
first = weakref.ref(fresh())
for _ in range(5):
    fresh()
gc.collect()
assert first() is None, gc.get_referrers(first())
"""
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c", script], cwd=src, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
