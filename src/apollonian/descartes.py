"""Descartes configurations: predicates, fourth-disk solutions, reflection.

A Descartes configuration is four pairwise tangent disks.  Its symbols
satisfy two identities used throughout:

* scalar: 2(a^2 + b^2 + c^2 + d^2) = (a + b + c + d)^2 on curvatures;
* Gram: M^T Q M = F, where the columns of M are the four symbols, Q is
  the matrix of the inner product of `disks` (so <a, b> = a^T Q b) and
  F is the Gram pattern F_GRAM (diagonal -1, off-diagonal +1): every
  symbol has norm -1 and every pair has inner product +1.

The Gram form is equivalent to the augmented Euclidean Descartes
theorem M F M^T = G (Lagarias-Mallows-Wilks, arXiv:math/0101066), with
G = diag(-4, -4) on the center block and an anti-diagonal 8-block on
the curvature/co-curvature pair.  Proof: G^-1 = Q/4 and F^2 = 4I, and
either side makes M invertible.  If M F M^T = G then
F^-1 = M^T G^-1 M, i.e. F/4 = M^T Q M / 4; if M^T Q M = F then
Q^-1 = M F^-1 M^T, i.e. G/4 = M F M^T / 4.  So `extended_ok` and
`verify_packing` decide the theorem from the 10 entries of M^T Q M - F,
with one scalar test per mode: exact mode asks <x, y> != t, float mode
measures |<x, y> - t| / (|x|_inf |y|_inf).

Given three of the four disks, the two completions D and D' satisfy
D + D' = 2(D1 + D2 + D3) componentwise, which makes the exact
generation step (swap one completion for the other) a plain linear
reflection with no square roots.  The float solver finds both from
cofactors, also with no square root.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence, Tuple

from .field import FieldElement, sqrt_in_field
from .disks import DiskSymbol, Scalar, inner

__all__ = [
    "Quadruple",
    "NotRepresentable",
    "NotTangentEnough",
    "InvalidQuadruple",
    "F_GRAM",
    "descartes_scalar_ok",
    "extended_ok",
    "extended_residual",
    "fourth_curvatures",
    "mirror",
    "reflect_fourth",
    "solve_fourth_float",
]


class NotRepresentable(ValueError):
    """Radicand has no square root inside the field."""


class NotTangentEnough(ValueError):
    """The float solver refuses a triple: a pair fails verify's scaled
    tangency test, the completions' error bound exceeds FLOAT_TOL, or an
    input, completion or bound lies past the float range."""


class InvalidQuadruple(ValueError):
    """Quadruple fails the Descartes-configuration identity."""


F_GRAM: Tuple[Tuple[int, ...], ...] = (
    (-1, 1, 1, 1),
    (1, -1, 1, 1),
    (1, 1, -1, 1),
    (1, 1, 1, -1),
)

# The one float tolerance: verify's scaled residual test, the float
# solver's refusals and float generation's zero-curvature test use it.
FLOAT_TOL = 1e-9

# The upper triangle of M^T Q M, norms included: its 10 distinct entries.
_ENTRIES = tuple((i, j) for i in range(4) for j in range(i, 4))


@dataclass(frozen=True)
class Quadruple:
    """Four disks intended to form a Descartes configuration."""

    disks: Tuple[DiskSymbol, DiskSymbol, DiskSymbol, DiskSymbol]

    def __iter__(self):
        return iter(self.disks)

    def __getitem__(self, index: int) -> DiskSymbol:
        return self.disks[index]

    def curvatures(self) -> Tuple[Scalar, Scalar, Scalar, Scalar]:
        return tuple(d.beta for d in self.disks)

    def validate(self) -> None:
        if not extended_ok(self):
            raise InvalidQuadruple("disks do not form a Descartes configuration")


def descartes_scalar_ok(a: Scalar, b: Scalar, c: Scalar, d: Scalar) -> bool:
    """Exact test 2(a^2 + b^2 + c^2 + d^2) = (a + b + c + d)^2."""
    total = a + b + c + d
    return 2 * (a * a + b * b + c * c + d * d) == total * total


def _scaled_residual(x: DiskSymbol, y: DiskSymbol, target: int) -> float:
    """|<x, y> - target| / (|x|_inf |y|_inf); inf when not finite.  When a
    product overflows, x, y and the target are scaled by powers of two,
    which is exact, so that the norms lie in [1/2, 1), and measured again."""
    scale = max(map(abs, x.components())) * max(map(abs, y.components()))
    scaled = abs(inner(x, y) - target) / scale if scale else math.inf
    if scaled < math.inf:
        return scaled
    norms = max(map(abs, x.components())), max(map(abs, y.components()))
    if scale >= 1 and max(norms) < math.inf:
        (mx, ex), (my, ey) = map(math.frexp, norms)
        x, y = (DiskSymbol(*(math.ldexp(v, -e) for v in d.components())) for d, e in ((x, ex), (y, ey)))
        scaled = abs(inner(x, y) - math.ldexp(target, -ex - ey)) / (mx * my)
    return scaled if scaled <= math.inf else math.inf


def extended_ok(q: Quadruple) -> bool:
    """Exact test M^T Q M = F, equivalently M F M^T = G."""
    d = q.disks
    return not any(inner(d[i], d[j]) != F_GRAM[i][j] for i, j in _ENTRIES)


def extended_residual(q: Quadruple) -> float:
    """Largest scaled residual of the entries of M^T Q M - F.

    This is the float measure verify reports as max_extended_residual
    for one row; exact symbols are measured through their float view.
    """
    d = [x.approx() for x in q.disks]
    return max(_scaled_residual(d[i], d[j], F_GRAM[i][j]) for i, j in _ENTRIES)


def fourth_curvatures(
    b1: FieldElement, b2: FieldElement, b3: FieldElement
) -> Tuple[FieldElement, FieldElement]:
    """Both curvatures completing three mutually tangent disks.

    b4 = b1 + b2 + b3 +- 2*sqrt(b1*b2 + b2*b3 + b3*b1).  Raises
    NotRepresentable when the radicand has no square root in the field;
    callers then fall back to the float pipeline or to reflection from a
    full quadruple.
    """
    radicand = b1 * b2 + b2 * b3 + b3 * b1
    root = sqrt_in_field(radicand)
    if root is None:
        raise NotRepresentable(
            f"radicand {radicand.to_string()} is not a square in the field"
        )
    total = b1 + b2 + b3
    return (total + 2 * root, total - 2 * root)


def mirror(a: Scalar, b: Scalar, c: Scalar, d: Scalar) -> Scalar:
    """One component of the other completion: 2(a + b + c) - d.

    a, b and c are the triple's components in index order and d is the
    replaced disk's; the sum is doubled by addition, which fixes the
    float operation order.
    """
    total = a + b + c
    return total + total - d


def _reflect_rows(q: Sequence[Sequence[Scalar]], i: int) -> Tuple[Scalar, ...]:
    """2(a + b + c) - d entry by entry, with a, b, c the rows of q other
    than row i and d = q[i]: symbol components, or integer coefficients."""
    a, b, c = q[:i] + q[i + 1 :]
    return tuple(map(mirror, a, b, c, q[i]))


def reflect_fourth(q: Sequence[DiskSymbol], index: int) -> DiskSymbol:
    """The other disk tangent to the three disks of q excluding `index`.

    q is any sequence of four symbols, such as a Quadruple or a tuple.
    Exact and square-root free: the two completions of a tangent triple
    sum to twice the triple's symbol sum.  Applying twice returns the
    original disk.
    """
    return DiskSymbol(*_reflect_rows([d.components() for d in q], index))


def _minors(p, q):
    """The 2x2 minors p_i q_j - p_j q_i of rows p, q, keyed by columns i < j."""
    return {(i, j): p[i] * q[j] - p[j] * q[i] for i, j in _ENTRIES if i < j}


def solve_fourth_float(
    d1: DiskSymbol, d2: DiskSymbol, d3: DiskSymbol
) -> Tuple[DiskSymbol, DiskSymbol]:
    """Both float completions of three pairwise tangent float disks.

    The completions are s +- w with s = d1 + d2 + d3 and w orthogonal to
    the triple with <w, w> = -4, so both have norm -1.  Take c_k, the
    signed 3x3 minors of the triple, with det[d1; d2; d3; v] =
    sum_k c_k v_k; c annihilates the triple, so w = Q^-1 c / 2 =
    (-c_x/2, -c_y/2, c_gamma, c_beta) is orthogonal to it.  For u = 2w,
    det[d1; d2; d3; u] = <u, u>, and the Gram determinant of d1, d2, d3,
    u gives <u, u>^2 det Q = det G3 <u, u>: <u, u> = det G3 / det Q =
    4 / (-1/4) = -16 for a tangent triple, whose Gram matrix is G3.

    Contract: if the inputs are an exactly tangent triple rounded to
    floats, each completion is within FLOAT_TOL max(1, |completion|_inf)
    of the exact one, to first order in the unit roundoff 2^-53, or
    NotTangentEnough is raised.  A triple is refused when a pair fails
    verify's test |<x, y> - 1| <= FLOAT_TOL |x|_inf |y|_inf, or when the
    error bound exceeds that for either completion: per component, the
    roundoff times sum |x| |cofactor of x| over the minor's 9 entries,
    plus 3 roundoff sum |terms| for s.
    """
    try:
        disks = (d1.approx(), d2.approx(), d3.approx())
    except OverflowError:
        raise NotTangentEnough("input disk past the float range") from None
    for i, j in ((0, 1), (0, 2), (1, 2)):
        residual = _scaled_residual(disks[i], disks[j], 1)
        if not residual <= FLOAT_TOL:
            raise NotTangentEnough(f"disks {i} and {j} have scaled tangency residual {residual:.3e}")
    # The cofactors are cubic in the inputs and cancel down to their
    # size, so they are summed exactly: each component is an integer
    # over the common power of two `den`.  A row's cofactors are the
    # 2x2 minors of the other two rows.
    ratios = [x.as_integer_ratio() for d in disks for x in d.components()]
    den = max(m for _, m in ratios)
    ints = [n * (den // m) for n, m in ratios]
    a, b, e = ints[0:4], ints[4:8], ints[8:12]
    rows = ((a, _minors(b, e)), (b, _minors(a, e)), (e, _minors(a, b)))
    minors, sensitivities = [], []
    for i, j, k in ((1, 2, 3), (0, 2, 3), (0, 1, 2), (0, 1, 3)):
        terms = [(r[i] * m[j, k], -r[j] * m[i, k], r[k] * m[i, j]) for r, m in rows]
        minors.append(sum(terms[2]))  # expanded along e
        sensitivities.append(sum(abs(t) for row in terms for t in row))
    # w = (c_123 / 2, -c_023 / 2, c_012, -c_013) / den^3, in component order
    cube = den**3
    dens = (2 * cube, -2 * cube, cube, -cube)
    roundoff = sys.float_info.epsilon / 2
    columns = zip(sensitivities, dens, zip(*(d.components() for d in disks)))
    try:
        w_disk = DiskSymbol(*(m / h for m, h in zip(minors, dens)))
        bound = max(roundoff * (c / abs(h) + 3 * sum(map(abs, col))) for c, h, col in columns)
    except OverflowError:
        raise NotTangentEnough("completion or error bound past the float range") from None
    if inner(w_disk, w_disk) >= 0:
        raise NotTangentEnough("no real completion: orthogonal direction not timelike")
    s = disks[0] + disks[1] + disks[2]
    completions = (s + w_disk, s - w_disk)
    size = min(max(map(abs, d.components())) for d in completions)
    if not bound <= FLOAT_TOL * max(1.0, size):
        raise NotTangentEnough(f"completion error bound {bound:.3e} exceeds FLOAT_TOL at size {size:.3e}")
    return tuple(sorted(completions, key=lambda d: (d.beta, d.gamma, d.xr, d.yr), reverse=True))
