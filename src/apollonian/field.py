"""Exact arithmetic in the quartic field Q(sqrt(phi)).

Every exact quantity in this package lives in K = Q[t]/(t^4 - t^2 - 1),
where t stands for the positive real root sqrt(phi) = 1.27201965...
An element is stored as four Fractions (a, b, c, d) meaning

    a + b*t + c*t^2 + d*t^3.

K contains every constant the golden-ratio constructions need: the
golden ratio phi = t^2, its reciprocal tau = t^2 - 1, sqrt(5) =
2*t^2 - 1, sqrt(tau) = t^3 - t, and the spiral ratio rho = t^2 + t.
Closure under those square roots is what keeps disk symbols exact.

Numeric views go through certified interval evaluation: the real
embedding t -> 1.27201965... is bracketed by rational endpoints that
are bisected until the question being asked (a sign, a rounded decimal)
has the same answer at both endpoints.  Equality, by contrast, is
purely structural: two elements are equal iff their coefficients are.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Optional, Tuple, Union

Rational = Union[int, Fraction]

__all__ = [
    "FieldElement",
    "ComplexFieldElement",
    "ZERO",
    "ONE",
    "T",
    "SQRT_PHI",
    "PHI",
    "TAU",
    "SQRT5",
    "SQRT_TAU",
    "RHO",
    "RHO_BAR",
    "OMEGA",
    "RHO_OMEGA",
    "fibonacci",
    "golden_power",
    "sqrt_in_field",
    "interval",
    "decimal_str",
]


def _as_coeffs(value: object) -> Optional[Tuple[Fraction, Fraction, Fraction, Fraction]]:
    if isinstance(value, FieldElement):
        return value.coeffs
    if isinstance(value, (int, Fraction)):
        return (Fraction(value), _F0, _F0, _F0)
    return None


_F0 = Fraction(0)


class FieldElement:
    """An element a + b*t + c*t^2 + d*t^3 of Q[t]/(t^4 - t^2 - 1)."""

    __slots__ = ("coeffs",)

    def __init__(self, a: Rational = 0, b: Rational = 0, c: Rational = 0, d: Rational = 0):
        self.coeffs = (Fraction(a), Fraction(b), Fraction(c), Fraction(d))

    @staticmethod
    def _raw(coeffs: Tuple[Fraction, Fraction, Fraction, Fraction]) -> "FieldElement":
        el = FieldElement.__new__(FieldElement)
        el.coeffs = coeffs
        return el

    # -- ring structure -------------------------------------------------

    def __add__(self, other: object) -> "FieldElement":
        o = _as_coeffs(other)
        if o is None:
            return NotImplemented
        s = self.coeffs
        return FieldElement._raw((s[0] + o[0], s[1] + o[1], s[2] + o[2], s[3] + o[3]))

    __radd__ = __add__

    def __sub__(self, other: object) -> "FieldElement":
        o = _as_coeffs(other)
        if o is None:
            return NotImplemented
        s = self.coeffs
        return FieldElement._raw((s[0] - o[0], s[1] - o[1], s[2] - o[2], s[3] - o[3]))

    def __rsub__(self, other: object) -> "FieldElement":
        o = _as_coeffs(other)
        if o is None:
            return NotImplemented
        s = self.coeffs
        return FieldElement._raw((o[0] - s[0], o[1] - s[1], o[2] - s[2], o[3] - s[3]))

    def __neg__(self) -> "FieldElement":
        s = self.coeffs
        return FieldElement._raw((-s[0], -s[1], -s[2], -s[3]))

    def __mul__(self, other: object) -> "FieldElement":
        o = _as_coeffs(other)
        if o is None:
            return NotImplemented
        s = self.coeffs
        # Degree-6 convolution, then reduce with t^4 = t^2 + 1,
        # t^5 = t^3 + t, t^6 = 2*t^2 + 1.
        d = [_F0] * 7
        for i in range(4):
            si = s[i]
            if si:
                for j in range(4):
                    if o[j]:
                        d[i + j] += si * o[j]
        return FieldElement._raw(
            (
                d[0] + d[4] + d[6],
                d[1] + d[5],
                d[2] + d[4] + 2 * d[6],
                d[3] + d[5],
            )
        )

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse; rationals directly, others by a 4x4 exact solve."""
        if not any(self.coeffs):
            raise ZeroDivisionError("inverse of zero field element")
        if self.is_rational():
            return FieldElement._raw((1 / self.coeffs[0], _F0, _F0, _F0))
        # Columns of M are self * t^j; solve M v = (1, 0, 0, 0).
        col = list(self.coeffs)
        rows = [[_F0] * 5 for _ in range(4)]
        rows[0][4] = Fraction(1)
        for j in range(4):
            for i in range(4):
                rows[i][j] = col[i]
            col = [col[3], col[0], col[1] + col[3], col[2]]  # multiply by t
        for p in range(4):
            pivot = next(r for r in range(p, 4) if rows[r][p])
            rows[p], rows[pivot] = rows[pivot], rows[p]
            inv = 1 / rows[p][p]
            rows[p] = [v * inv for v in rows[p]]
            for r in range(4):
                if r != p and rows[r][p]:
                    f = rows[r][p]
                    rows[r] = [v - f * pv for v, pv in zip(rows[r], rows[p])]
        return FieldElement._raw((rows[0][4], rows[1][4], rows[2][4], rows[3][4]))

    def __truediv__(self, other: object) -> "FieldElement":
        o = _as_coeffs(other)
        if o is None:
            return NotImplemented
        return self * FieldElement._raw(o).inverse()

    def __rtruediv__(self, other: object) -> "FieldElement":
        o = _as_coeffs(other)
        if o is None:
            return NotImplemented
        return FieldElement._raw(o) * self.inverse()

    def __pow__(self, n: int) -> "FieldElement":
        if n < 0:
            return self.inverse() ** (-n)
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- structural equality and ordering by real embedding -------------

    def __eq__(self, other: object) -> bool:
        o = _as_coeffs(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def sign(self) -> int:
        """Certified sign under the real embedding t -> 1.272..."""
        if not any(self.coeffs):
            return 0
        eps = Fraction(1, 1 << 20)
        while True:
            lo, hi = interval(self, eps)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            # Zero was excluded structurally, so refinement terminates.
            eps /= 1 << 16

    def __lt__(self, other: object) -> bool:
        o = _as_coeffs(other)
        if o is None:
            return NotImplemented
        return (self - FieldElement._raw(o)).sign() < 0

    def __le__(self, other: object) -> bool:
        o = _as_coeffs(other)
        if o is None:
            return NotImplemented
        return (self - FieldElement._raw(o)).sign() <= 0

    def __gt__(self, other: object) -> bool:
        o = _as_coeffs(other)
        if o is None:
            return NotImplemented
        return (self - FieldElement._raw(o)).sign() > 0

    def __ge__(self, other: object) -> bool:
        o = _as_coeffs(other)
        if o is None:
            return NotImplemented
        return (self - FieldElement._raw(o)).sign() >= 0

    # -- numeric views ---------------------------------------------------

    def approx(self) -> float:
        """Float value of the real embedding (certified to ~1e-21)."""
        lo, hi = interval(self, Fraction(1, 1 << 70))
        return float((lo + hi) / 2)

    __float__ = approx

    def decimal(self, digits: int) -> str:
        """Correctly rounded decimal string with `digits` fractional digits."""
        return decimal_str(self, digits)

    def is_rational(self) -> bool:
        return not (self.coeffs[1] or self.coeffs[2] or self.coeffs[3])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is irrational")
        return self.coeffs[0]

    # -- serialization ---------------------------------------------------

    def to_string(self) -> str:
        """Canonical form "a + b*t + c*t^2 + d*t^3" with Fraction coefficients."""
        a, b, c, d = self.coeffs
        return f"{a} + {b}*t + {c}*t^2 + {d}*t^3"

    @staticmethod
    def from_string(text: str) -> "FieldElement":
        parts = text.split(" + ")
        if len(parts) != 4:
            raise ValueError(f"not a canonical field element: {text!r}")
        expected = ("", "*t", "*t^2", "*t^3")
        coeffs = []
        for part, suffix in zip(parts, expected):
            if suffix and not part.endswith(suffix):
                raise ValueError(f"bad term {part!r} in {text!r}")
            coeffs.append(Fraction(part[: len(part) - len(suffix)] if suffix else part))
        return FieldElement(*coeffs)

    def __repr__(self) -> str:
        return f"FieldElement({self.to_string()!r})"


ZERO = FieldElement()
ONE = FieldElement(1)
T = FieldElement(0, 1)
SQRT_PHI = T
PHI = FieldElement(0, 0, 1)
TAU = FieldElement(-1, 0, 1)
SQRT5 = FieldElement(-1, 0, 2)
SQRT_TAU = FieldElement(0, -1, 0, 1)
RHO = FieldElement(0, 1, 1)
RHO_BAR = FieldElement(0, -1, 1)


# -- certified interval machinery ----------------------------------------

# Shrinking bracket around the positive real root of t^4 - t^2 - 1.
# p(1) = -1 < 0 < 29/16 = p(3/2) and p is increasing on [1, 3/2], so
# sign-based bisection is valid.  The bracket only ever tightens, so a
# module-level cache is safe to share.
_BRACKET = [Fraction(1), Fraction(3, 2)]


def _t_bracket(eps: Fraction) -> Tuple[Fraction, Fraction]:
    lo, hi = _BRACKET
    while hi - lo > eps:
        mid = (lo + hi) / 2
        if mid * mid * (mid * mid - 1) < 1:
            lo = mid
        else:
            hi = mid
    _BRACKET[0], _BRACKET[1] = lo, hi
    return lo, hi


def interval(x: FieldElement, eps: Rational) -> Tuple[Fraction, Fraction]:
    """Rational enclosure [lo, hi] of the real embedding, hi - lo <= eps."""
    eps = Fraction(eps)
    teps = Fraction(1, 1 << 32)
    while True:
        tlo, thi = _t_bracket(teps)
        lo = hi = _F0
        plo = phi_pow = Fraction(1)
        for coeff in x.coeffs:
            if coeff > 0:
                lo += coeff * plo
                hi += coeff * phi_pow
            elif coeff < 0:
                lo += coeff * phi_pow
                hi += coeff * plo
            plo *= tlo
            phi_pow *= thi
        if hi - lo <= eps:
            return lo, hi
        teps /= 1 << 32


def _round_fraction(q: Fraction, digits: int) -> str:
    scaled = round(q * 10**digits)  # exact round-half-even on Fractions
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled), 10**digits)
    if digits == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:0{digits}d}"


def decimal_str(x: FieldElement, digits: int) -> str:
    """Decimal string, certified: both interval endpoints round identically.

    Rounding is half-even.  Rational elements are rounded exactly;
    irrational ones can never sit on a tie, so refinement terminates.
    """
    if digits < 0:
        raise ValueError("digits must be >= 0")
    if x.is_rational():
        return _round_fraction(x.coeffs[0], digits)
    eps = Fraction(1, 10 ** (digits + 4))
    while True:
        lo, hi = interval(x, eps)
        slo = _round_fraction(lo, digits)
        if slo == _round_fraction(hi, digits):
            return slo
        eps /= 10**4


# -- complex extension -----------------------------------------------------


class ComplexFieldElement:
    """A complex number re + im*i with both parts in the quartic field."""

    __slots__ = ("re", "im")

    def __init__(self, re: Union[FieldElement, Rational], im: Union[FieldElement, Rational] = 0):
        self.re = re if isinstance(re, FieldElement) else FieldElement(re)
        self.im = im if isinstance(im, FieldElement) else FieldElement(im)

    def __add__(self, other: "ComplexFieldElement") -> "ComplexFieldElement":
        o = _as_complex(other)
        if o is None:
            return NotImplemented
        return ComplexFieldElement(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other: "ComplexFieldElement") -> "ComplexFieldElement":
        o = _as_complex(other)
        if o is None:
            return NotImplemented
        return ComplexFieldElement(self.re - o.re, self.im - o.im)

    def __rsub__(self, other: object) -> "ComplexFieldElement":
        o = _as_complex(other)
        if o is None:
            return NotImplemented
        return ComplexFieldElement(o.re - self.re, o.im - self.im)

    def __neg__(self) -> "ComplexFieldElement":
        return ComplexFieldElement(-self.re, -self.im)

    def __mul__(self, other: object) -> "ComplexFieldElement":
        o = _as_complex(other)
        if o is None:
            return NotImplemented
        return ComplexFieldElement(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "ComplexFieldElement":
        return ComplexFieldElement(self.re, -self.im)

    def abs2(self) -> FieldElement:
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "ComplexFieldElement":
        n = self.abs2()
        if not n:
            raise ZeroDivisionError("inverse of complex zero")
        inv = n.inverse()
        return ComplexFieldElement(self.re * inv, -self.im * inv)

    def __truediv__(self, other: object) -> "ComplexFieldElement":
        o = _as_complex(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other: object) -> "ComplexFieldElement":
        o = _as_complex(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int) -> "ComplexFieldElement":
        if n < 0:
            return self.inverse() ** (-n)
        result = ComplexFieldElement(ONE, ZERO)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        o = _as_complex(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def to_complex(self) -> complex:
        return complex(self.re.approx(), self.im.approx())

    def __repr__(self) -> str:
        return f"ComplexFieldElement({self.re.to_string()!r}, {self.im.to_string()!r})"


def _as_complex(value: object) -> Optional[ComplexFieldElement]:
    if isinstance(value, ComplexFieldElement):
        return value
    coeffs = _as_coeffs(value)
    if coeffs is None:
        return None
    return ComplexFieldElement(FieldElement._raw(coeffs), ZERO)


OMEGA = ComplexFieldElement(-TAU, SQRT_TAU)
RHO_OMEGA = ComplexFieldElement(-(ONE + SQRT_TAU), ONE + SQRT_PHI)


# -- golden-ratio arithmetic -----------------------------------------------


def fibonacci(n: int) -> int:
    """Bilateral Fibonacci number: F_0 = 0, F_1 = 1, F_{-n} = (-1)^(n+1) F_n."""
    if n < 0:
        f = fibonacci(-n)
        return f if n % 2 else -f
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def golden_power(n: int) -> FieldElement:
    """phi^n = F_n * phi + F_{n-1}, valid for every integer n."""
    return FieldElement(fibonacci(n - 1), 0, fibonacci(n))


# -- square roots within the field ------------------------------------------

_T0 = math.sqrt((1 + math.sqrt(5)) / 2)
_S0 = math.sqrt((math.sqrt(5) - 1) / 2)
_PHI0 = _T0 * _T0
_DENOM_CAPS = (1, 12, 1000, 10**6)


def sqrt_in_field(x: FieldElement) -> Optional[FieldElement]:
    """A square root of x inside the field, or None if there is none.

    The candidate is recovered numerically from the four embeddings of
    the field (t -> +-1.272... and t -> +-0.786...i), rationalized with
    bounded denominators, and then verified by exact squaring, so a
    non-None result is always correct.  The search is a heuristic: a
    genuine root with coefficient denominators beyond 10^6 is missed.
    """
    if not x:
        return ZERO
    a, b, c, d = (float(q) for q in x.coeffs)
    x_plus = a + b * _T0 + c * _T0**2 + d * _T0**3
    x_minus = a - b * _T0 + c * _T0**2 - d * _T0**3
    if x_plus < -1e-12 or x_minus < -1e-12:
        return None  # negative in a real embedding, so no square anywhere
    z = complex(0.0, _S0)
    x_cplx = a + b * z + c * z**2 + d * z**3
    y_plus = math.sqrt(max(x_plus, 0.0))
    y_minus = math.sqrt(max(x_minus, 0.0))
    y_cplx = cmath.sqrt(x_cplx)
    sqrt5 = math.sqrt(5.0)
    for sign_m in (1.0, -1.0):
        # y(t0) = P + R*t0 and y(-t0) = P - R*t0 with P = a + c*phi, R = b + d*phi.
        p = (y_plus + sign_m * y_minus) / 2
        r = (y_plus - sign_m * y_minus) / (2 * _T0)
        for sign_c in (1, -1):
            yc = sign_c * y_cplx
            q = yc.real  # a - c*tau
            s = yc.imag / _S0  # b - d*tau
            cc = (p - q) / sqrt5
            dd = (r - s) / sqrt5
            guess = (p - cc * _PHI0, r - dd * _PHI0, cc, dd)
            for cap in _DENOM_CAPS:
                cand = FieldElement(*(Fraction(v).limit_denominator(cap) for v in guess))
                if cand * cand == x:
                    return cand
    return None
