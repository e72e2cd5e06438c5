"""Exact arithmetic in the quartic field Q(sqrt(phi)).

Every exact quantity in this package lives in K = Q[t]/(t^4 - t^2 - 1),
where t stands for the positive real root sqrt(phi) = 1.27201965...
An element is stored as four Fractions (a, b, c, d) meaning

    a + b*t + c*t^2 + d*t^3.

K contains every constant the golden-ratio constructions need: the
golden ratio phi = t^2, its reciprocal tau = t^2 - 1, sqrt(5) =
2*t^2 - 1, sqrt(tau) = t^3 - t, and the spiral ratio rho = t^2 + t.
Closure under those square roots is what keeps disk symbols exact.

Decisions are exact.  K is the tower Q < Q(phi) < K with t^2 = phi,
so clearing denominators writes an element as (U + V*t)/den with U, V
in Z[phi], and t -> -t is an automorphism.  Multiplying by the
conjugate U - V*t lands in Z[phi], one more conjugate (phi -> 1 - phi)
lands in Z: `inverse` and `sign` are integer norm computations down
that tower, and `sqrt_in_field` applies one quadratic-extension step at
both of its levels (H. Cohen, "A Course in Computational Algebraic
Number Theory", 4.2).  Equality is structural:
two elements are equal iff their coefficients are.  Comparisons are
decided by the correctly rounded float, which is monotone and cached
per element, and by the sign of the difference on a float tie or past
the float range (the floating-point filter of Shewchuk, "Adaptive
Precision Floating-Point Arithmetic and Fast Robust Geometric
Predicates", 1997).

The numeric views (`approx`, `interval`, `decimal_str`) are exact
integer enclosures, with no shared state.  The floors of t, phi and t^3
scaled by 2^k have closed forms in `math.isqrt`, because
floor(sqrt(floor(y))) = floor(sqrt(y)); since t, phi and t^3 are
irrational, den*x*2^k lies strictly inside an integer interval whose
width is the sum of the irrational coefficients' sizes.  `approx` is
the correctly rounded float, `decimal_str` rounds half-even, and each
answer is a function of its argument alone.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from typing import Iterator, Optional, Tuple, Union

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


def _sgn(n: int) -> int:
    return (n > 0) - (n < 0)


def _phi_sign(p: int, q: int) -> int:
    """Sign of p + q*phi = (m + q*sqrt(5))/2 with m = 2p + q, by the norm m^2 - 5 q^2."""
    m = 2 * p + q
    sm, sq = _sgn(m), _sgn(q)
    if sm * sq >= 0:
        return sm or sq
    return sm * _sgn(m * m - 5 * q * q)


def _relative_norm(u0: int, u1: int, v0: int, v1: int) -> Tuple[int, int]:
    """(p, q) with p + q*phi = (U + V*t)(U - V*t) = U^2 - phi*V^2.

    U^2 = (u0^2 + u1^2) + (2 u0 u1 + u1^2) phi and
    phi V^2 = (2 v0 v1 + v1^2) + (v0^2 + 2 v0 v1 + 2 v1^2) phi.
    """
    vv = 2 * v0 * v1 + v1 * v1
    return u0 * u0 + u1 * u1 - vv, (2 * u0 + u1) * u1 - v0 * v0 - vv - v1 * v1


_CANONICAL_COEFFICIENT = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def _coefficient(token: str) -> Fraction:
    """Fraction(token), with the canonical `-?[0-9]+(/[0-9]+)?` read by int."""
    if _CANONICAL_COEFFICIENT.fullmatch(token):
        num, _, den = token.partition("/")
        return Fraction(int(num), int(den)) if den else Fraction(int(num))
    return Fraction(token)


def _by_sign(op):
    """Rich comparison op(self, other) under the real embedding.

    Correct rounding is monotone, so fl(x) < fl(y) implies x < y: two
    different floats decide.  A float tie, or an operand past the float
    range (it has no float), is decided by op(sign(self - other), 0).
    """

    def compare(self: "FieldElement", other: object) -> bool:
        if isinstance(other, FieldElement):
            g = other._rounded()
        elif isinstance(other, (int, Fraction)):
            try:
                g = float(other)
            except OverflowError:
                g = None
        else:
            return NotImplemented
        f = self._rounded()
        if f is not None and g is not None and f != g:
            return op(f, g)
        return op(self.__sub__(other).sign(), 0)

    return compare


def _quotient(n: int, d: int) -> float:
    """n / d correctly rounded, with an infinity of n's sign past the float range."""
    try:
        return n / d
    except OverflowError:
        return math.inf if n > 0 else -math.inf


def _reduce(d):
    """The degree-6 product coefficients d reduced to the basis 1, t, t^2,
    t^3 with t^4 = t^2 + 1, t^5 = t^3 + t, t^6 = 2*t^2 + 1."""
    return (d[0] + d[4] + d[6], d[1] + d[5], d[2] + d[4] + 2 * d[6], d[3] + d[5])


def _power(base, n: int, one):
    """base**n by square and multiply; a negative n inverts base first."""
    if n < 0:
        base, n = base.inverse(), -n
    result = one
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


class FieldElement:
    """An element a + b*t + c*t^2 + d*t^3 of Q[t]/(t^4 - t^2 - 1)."""

    # _approx caches approx() for comparisons (None past the float
    # range); it stays unset until the first comparison.
    __slots__ = ("coeffs", "_approx")

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
        d = [_F0] * 7
        for i in range(4):
            si = s[i]
            if si:
                for j in range(4):
                    if o[j]:
                        d[i + j] += si * o[j]
        return FieldElement._raw(_reduce(d))

    __rmul__ = __mul__

    def _cleared(self) -> Tuple[int, int, int, int, int]:
        """Integers (u0, u1, v0, v1, den) with self = (U + V*t)/den, den > 0.

        U = u0 + u1*phi and V = v0 + v1*phi lie in Z[phi].
        """
        a, b, c, d = self.coeffs
        den = math.lcm(a.denominator, b.denominator, c.denominator, d.denominator)
        return (
            a.numerator * (den // a.denominator),
            c.numerator * (den // c.denominator),
            b.numerator * (den // b.denominator),
            d.numerator * (den // d.denominator),
            den,
        )

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse by norms: 1/x = den (U - V t)(p + q - q phi) / N.

        (p + q phi)(p + q - q phi) = p^2 + p q - q^2 = N is the rational
        norm of den*x, a nonzero integer when x is nonzero.
        """
        if not any(self.coeffs):
            raise ZeroDivisionError("inverse of zero field element")
        if self.is_rational():
            return FieldElement._raw((1 / self.coeffs[0], _F0, _F0, _F0))
        u0, u1, v0, v1, den = self._cleared()
        p, q = _relative_norm(u0, u1, v0, v1)
        n = p * p + p * q - q * q
        # (w0 + w1 phi)(p + q - q phi) = w0 (p + q) - w1 q + (w1 p - w0 q) phi
        r = p + q
        return FieldElement._raw(
            (
                Fraction(den * (u0 * r - u1 * q), n),
                Fraction(-den * (v0 * r - v1 * q), n),
                Fraction(den * (u1 * p - u0 * q), n),
                Fraction(-den * (v1 * p - v0 * q), n),
            )
        )

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
        return _power(self, n, ONE)

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
        """Exact sign under the real embedding t -> 1.272..., by norms.

        With t > 0, U + V t has the sign of U when U and V agree in
        sign; otherwise U - V t has the sign of U, so the product
        (U + V t)(U - V t) = p + q phi decides.
        """
        u0, u1, v0, v1, _ = self._cleared()
        su = _phi_sign(u0, u1)
        sv = _phi_sign(v0, v1)
        if su * sv >= 0:
            return su or sv
        return su * _phi_sign(*_relative_norm(u0, u1, v0, v1))

    def _rounded(self) -> Optional[float]:
        """approx(), computed once per element, or None past the float range."""
        try:
            return self._approx
        except AttributeError:
            pass
        try:
            self._approx = self.approx()
        except OverflowError:
            self._approx = None
        return self._approx

    __lt__ = _by_sign(operator.lt)
    __le__ = _by_sign(operator.le)
    __gt__ = _by_sign(operator.gt)
    __ge__ = _by_sign(operator.ge)

    # -- numeric views ---------------------------------------------------

    def approx(self) -> float:
        """The real embedding, correctly rounded to a float.

        An irrational x lies strictly inside its enclosure; once both
        ends have one sign and round to one float, so does x (int / int
        true division is correctly rounded).  An end past the float
        range rounds to an infinity; OverflowError is raised only when
        x itself does.
        """
        if self.is_rational():
            return float(self.coeffs[0])
        for lo, hi, d in _refinements(self):
            if lo >= 0 or hi <= 0:
                f = _quotient(lo, d)
                if f == _quotient(hi, d):
                    if math.isinf(f):
                        raise OverflowError("field element past the float range")
                    return f

    __float__ = approx

    def __format__(self, spec: str) -> str:
        """`.Nf` is decimal_str(self, N); every other spec is object's."""
        digits = spec[1:-1]
        if spec[:1] == "." and spec[-1:] == "f" and digits.isdecimal():
            return decimal_str(self, int(digits))
        return super().__format__(spec)

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
        """Inverse of `to_string`; a coefficient may be any `Fraction` string."""
        parts = text.split(" + ")
        if len(parts) != 4:
            raise ValueError(f"not a canonical field element: {text!r}")
        expected = ("", "*t", "*t^2", "*t^3")
        coeffs = []
        for part, suffix in zip(parts, expected):
            if suffix and not part.endswith(suffix):
                raise ValueError(f"bad term {part!r} in {text!r}")
            coeffs.append(_coefficient(part[: len(part) - len(suffix)] if suffix else part))
        return FieldElement._raw(tuple(coeffs))

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


def _isqrt_floors(k: int) -> Tuple[int, int, int]:
    """floor(t * 2^k), floor(phi * 2^k) and floor(t^3 * 2^k) for k >= 0.

    t^2 4^k = (4^k + sqrt(5) 4^k)/2 and t^6 4^k = 2*4^k + sqrt(5) 4^k,
    and floor(sqrt(y)) = floor(sqrt(floor(y))).
    """
    s = math.isqrt(5 << 4 * k)
    return (
        math.isqrt(((1 << 2 * k) + s) >> 1),
        ((1 << k) + math.isqrt(5 << 2 * k)) >> 1,
        math.isqrt((2 << 2 * k) + s),
    )


# floor(floor(y 2^K) / 2^m) = floor(y 2^(K-m)): coarser floors are shifts.
_FLOOR_BITS = 512
_FLOORS = _isqrt_floors(_FLOOR_BITS)


def _t_floors(k: int) -> Tuple[int, int, int]:
    """_isqrt_floors(k), by shifting the table when k <= _FLOOR_BITS."""
    if k > _FLOOR_BITS:
        return _isqrt_floors(k)
    m = _FLOOR_BITS - k
    return _FLOORS[0] >> m, _FLOORS[1] >> m, _FLOORS[2] >> m


def _enclosure(cleared: Tuple[int, int, int, int, int], k: int) -> Tuple[int, int, int]:
    """Integers (lo, spread, D) with lo < D*x < lo + spread, or D*x = lo if spread = 0.

    `cleared` is x._cleared(), so den*x = u0 + v0 t + u1 phi + v1 t^3
    and D = den * 2^k.  Each irrational term c*t^i*2^k lies strictly
    between c*floor(t^i 2^k) and c*(floor(t^i 2^k) + 1).
    """
    u0, u1, v0, v1, den = cleared
    lo = u0 << k
    spread = 0
    for c, f in zip((v0, u1, v1), _t_floors(k)):
        lo += c * f
        if c < 0:
            lo += c
        spread += abs(c)
    return lo, spread, den << k


def _refinements(x: FieldElement) -> Iterator[Tuple[int, int, int]]:
    """Enclosures (lo, hi, D) of D*x for k = 64, 128, 256, ..."""
    cleared = x._cleared()
    k = 64
    while True:
        lo, spread, d = _enclosure(cleared, k)
        yield lo, lo + spread, d
        k *= 2


def interval(x: FieldElement, eps: Rational) -> Tuple[Fraction, Fraction]:
    """Rational enclosure [lo, hi] of the real embedding, hi - lo <= eps.

    lo < x < hi for irrational x; lo = hi = x for rational x.  The width
    is spread / (den * 2^k), so k is the least one with 2^k >= n below.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be > 0")
    cleared = x._cleared()
    _, u1, v0, v1, den = cleared
    n = -(-(abs(u1) + abs(v0) + abs(v1)) * eps.denominator // (den * eps.numerator))
    lo, spread, d = _enclosure(cleared, max(n - 1, 0).bit_length())
    return Fraction(lo, d), Fraction(lo + spread, d)


def _round_half_even(n: int, d: int) -> int:
    q, r = divmod(n, d)
    if 2 * r > d or (2 * r == d and q & 1):
        q += 1
    return q


def _format_scaled(scaled: int, digits: int) -> str:
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled), 10**digits)
    if digits == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:0{digits}d}"


def decimal_str(x: FieldElement, digits: int) -> str:
    """Decimal string, certified: both enclosure endpoints round identically.

    Rounding is half-even.  Rational elements are rounded exactly;
    irrational ones can never sit on a tie, so refinement terminates.
    """
    if digits < 0:
        raise ValueError("digits must be >= 0")
    scale = 10**digits
    if x.is_rational():
        q = x.coeffs[0]
        return _format_scaled(_round_half_even(q.numerator * scale, q.denominator), digits)
    for lo, hi, d in _refinements(x):
        slo = _round_half_even(lo * scale, d)
        if slo == _round_half_even(hi * scale, d):
            return _format_scaled(slo, digits)


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
        return _power(self, n, ComplexFieldElement(ONE, ZERO))

    def __eq__(self, other: object) -> bool:
        o = _as_complex(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

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

def _rational_sqrt(q: Fraction) -> Optional[Fraction]:
    """The non-negative rational square root of q, or None."""
    if q < 0:
        return None
    n, d = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if n * n == q.numerator and d * d == q.denominator:
        return Fraction(n, d)
    return None


def _sqrt_step(u, v, c, root):
    """A square root (p, r), meaning p + r*s, of u + v*s with s^2 = c, or None.

    `root` takes square roots one level down, where u, v and c live.  A
    root needs p^2 + c r^2 = u and 2 p r = v, so p^2 is a root of
    z^2 - u z + c v^2 / 4, which needs root(u^2 - c v^2), and then
    r = v / (2 p); z = 0 forces v = 0, and then r^2 = u / c.
    """
    w = root(u * u - c * v * v)
    if w is None:
        return None
    for z in ((u + w) / 2, (u - w) / 2):
        p = root(z)
        if p is None:
            continue
        if p:
            return p, v / (2 * p)
        r = root(u / c)
        if r is not None:
            return p, r
    return None


def _phi_root(x: FieldElement) -> Optional[FieldElement]:
    """A square root of x = a + c*phi in Q(phi), or None; sqrt(5) = 2*phi - 1."""
    a, _, c, _ = x.coeffs
    pr = _sqrt_step(a + c / 2, c / 2, 5, _rational_sqrt)
    return None if pr is None else FieldElement(pr[0] - pr[1], 0, 2 * pr[1])


def sqrt_in_field(x: FieldElement) -> Optional[FieldElement]:
    """The square root of x that is >= 0 in the real embedding, or None.

    An exact decision down the tower: x = U + V*t with U, V in Q(phi)
    is one square-root step over Q(phi) (t^2 = phi), whose radicands
    take one more step over Q (sqrt(5)^2 = 5).  Every root of x is
    found, and the candidate is still checked by exact squaring.
    """
    a, b, c, d = x.coeffs
    pr = _sqrt_step(FieldElement(a, 0, c), FieldElement(b, 0, d), PHI, _phi_root)
    if pr is None:
        return None
    root = pr[0] + pr[1] * T
    if root * root != x:
        return None
    return root if root.sign() >= 0 else -root
