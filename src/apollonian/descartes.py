"""Descartes configurations: predicates, fourth-disk solutions, reflection.

A Descartes configuration is four pairwise tangent disks.  Its symbols
satisfy two identities used throughout:

* scalar: 2(a^2 + b^2 + c^2 + d^2) = (a + b + c + d)^2 on curvatures;
* matrix: M F M^T = G, where the columns of M are the four symbols,
  F is the Gram-pattern matrix (diagonal -1, off-diagonal +1), and
  G = diag(-4, -4) on the center block with an anti-diagonal 8-block
  on the curvature/co-curvature pair.  G is the inverse of Q/4, Q the
  matrix of the inner product of `disks`, and F^2 = 4I, so
  M F M^T = G <=> M^T Q M = F (Lagarias-Mallows-Wilks, augmented
  Euclidean Descartes theorem): the matrix identity says exactly that
  every symbol has norm -1 and every pair has inner product +1.

Given three of the four disks, the two completions D and D' satisfy
D + D' = 2(D1 + D2 + D3) componentwise, which makes the exact
generation step (swap one completion for the other) a plain linear
reflection with no square roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple, Union

from .field import FieldElement, sqrt_in_field
from .disks import DiskSymbol, inner, tangency_residual

Scalar = Union["FieldElement", float]

__all__ = [
    "Quadruple",
    "NotRepresentable",
    "NotTangentEnough",
    "InvalidQuadruple",
    "F_GRAM",
    "G_TARGET",
    "descartes_scalar_ok",
    "extended_ok",
    "extended_residual",
    "fourth_curvatures",
    "reflect_fourth",
    "solve_fourth_float",
]


class NotRepresentable(ValueError):
    """Radicand has no square root inside the field."""


class NotTangentEnough(ValueError):
    """Float seed disks are not pairwise tangent within tolerance."""


class InvalidQuadruple(ValueError):
    """Quadruple fails the Descartes-configuration identity."""


F_GRAM: Tuple[Tuple[int, ...], ...] = (
    (-1, 1, 1, 1),
    (1, -1, 1, 1),
    (1, 1, -1, 1),
    (1, 1, 1, -1),
)

G_TARGET: Tuple[Tuple[int, ...], ...] = (
    (-4, 0, 0, 0),
    (0, -4, 0, 0),
    (0, 0, 0, 8),
    (0, 0, 8, 0),
)


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


def _mfmt(q: Quadruple) -> List[List[Scalar]]:
    cols = [d.components() for d in q.disks]
    # (M F M^T)_{ij} = sum_{k,l} sym_k[i] * F[k][l] * sym_l[j]
    fm = [
        [sum(F_GRAM[k][l] * cols[l][j] for l in range(4)) for j in range(4)]
        for k in range(4)
    ]
    return [
        [sum(cols[k][i] * fm[k][j] for k in range(4)) for j in range(4)]
        for i in range(4)
    ]


def extended_ok(q: Quadruple) -> bool:
    """Exact matrix identity M F M^T = G."""
    product = _mfmt(q)
    return all(
        product[i][j] == G_TARGET[i][j] for i in range(4) for j in range(4)
    )


def extended_residual(q: Quadruple) -> float:
    """Max componentwise |M F M^T - G| as a float, in either mode."""
    product = _mfmt(q)
    return max(abs(float(product[i][j] - G_TARGET[i][j])) for i in range(4) for j in range(4))


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
    if root.sign() < 0:
        root = -root
    total = b1 + b2 + b3
    return (total + 2 * root, total - 2 * root)


def reflect_fourth(q: Quadruple, index: int, check: bool = False) -> DiskSymbol:
    """The other disk tangent to the three disks of q excluding `index`.

    Exact and square-root free: the two completions of a tangent triple
    sum to twice the triple's symbol sum.  Applying twice returns the
    original disk.
    """
    if check:
        q.validate()
    others = [d for i, d in enumerate(q.disks) if i != index]
    total = others[0] + others[1] + others[2]
    return total + total - q.disks[index]


def _q_functional(d: DiskSymbol) -> Tuple[float, float, float, float]:
    # Row vector a with a . v = <d, v> for the inner product.
    return (-d.xr, -d.yr, d.gamma / 2.0, d.beta / 2.0)


_TANGENCY_TOL = 1e-9


def solve_fourth_float(
    d1: DiskSymbol, d2: DiskSymbol, d3: DiskSymbol
) -> Tuple[DiskSymbol, DiskSymbol]:
    """Both float completions of three pairwise tangent float disks.

    The completions are s +- w with s = d1 + d2 + d3 and w the (unique
    up to sign) vector orthogonal to all three disks, scaled so the
    result has norm -1.  Componentwise this reproduces the +- formulas
    for every coordinate with correlated signs.
    """
    disks = (d1.approx(), d2.approx(), d3.approx())
    for i in range(3):
        for j in range(i + 1, 3):
            if tangency_residual(disks[i], disks[j]) > _TANGENCY_TOL:
                raise NotTangentEnough(
                    f"disks {i} and {j} have tangency residual "
                    f"{tangency_residual(disks[i], disks[j]):.3e}"
                )
    rows = [list(_q_functional(d)) for d in disks]
    # Gaussian elimination to a row echelon form of the 3x4 system.
    pivot_cols: List[int] = []
    for r in range(3):
        col = max(
            (c for c in range(4) if c not in pivot_cols),
            key=lambda c: abs(rows[r][c]),
        )
        if abs(rows[r][col]) < 1e-13:
            raise NotTangentEnough("seed disks are linearly dependent")
        pivot_cols.append(col)
        rows[r] = [v / rows[r][col] for v in rows[r]]
        for rr in range(3):
            if rr != r and rows[rr][col]:
                factor = rows[rr][col]
                rows[rr] = [v - factor * pv for v, pv in zip(rows[rr], rows[r])]
    free_col = next(c for c in range(4) if c not in pivot_cols)
    w = [0.0] * 4
    w[free_col] = 1.0
    for r, col in enumerate(pivot_cols):
        w[col] = -rows[r][free_col]
    w_disk = DiskSymbol(*w)
    w_norm = inner(w_disk, w_disk)
    if w_norm >= 0:
        raise NotTangentEnough("no real completion: orthogonal direction not timelike")
    w_disk = w_disk.scaled(2.0 / (-w_norm) ** 0.5)
    s = disks[0] + disks[1] + disks[2]
    first = s + w_disk
    second = s - w_disk
    if (first.beta, first.gamma, first.xr, first.yr) < (
        second.beta,
        second.gamma,
        second.xr,
        second.yr,
    ):
        first, second = second, first
    return (first, second)
