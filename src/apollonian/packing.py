"""Packing generation by reflection, with budgets and taxonomy.

Starting from a seed Descartes configuration, every curvilinear gap is
filled by swapping one disk of a known quadruple for its mirror
completion.  The orbit is walked breadth first; each row remembers
which index was just replaced so the reflection that would re-create
the parent is skipped.  Nothing needs deduplicating: the walk
enumerates reduced words of the Apollonian group, which acts freely on
ordered Descartes quadruples (Graham, Lagarias, Mallows, Wilks, Yan,
"Apollonian circle packings: geometry and group theory I",
arXiv:math/0010298), so every quadruple is met once and each one adds
exactly one new disk.  Disks are carried by position in creation
order; at the end they are sorted by (depth, symbol) and the quadruple
rows are renumbered through that permutation, so the output does not
depend on traversal details.

The mode chooses how the walk encodes a disk.  Float mode walks the
float symbols with `descartes.reflect_fourth`.  Exact mode clears each
seed disk once to an integer row: its 16 rational coefficients times
D, the lcm of the seed's 64 coefficient denominators.  The reflection
2(a + b + c) - d is Z-linear, so every orbit disk is an integer row
over the same D and the walk adds no Fraction; the cap test builds one
element per distinct curvature, and the DiskSymbols are built once at
the end.  Exact verify clears each disk to an integer row over its own
denominator and decides the inner products on those rows.

Classification follows the curvature taxonomy: the sign of the minimal
curvature and the number of zero-curvature disks decide types A, B and
C; type D (all curvatures positive, infimum zero never attained) cannot
be read off any finite sample, so it is assigned only to the seed that
is unbounded by construction, and arbitrary seeds report "inconclusive"
instead of a guess.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from operator import attrgetter
from typing import Dict, List, Optional, Tuple, Union

from .field import FieldElement
from .disks import DiskSymbol, Scalar
from .descartes import FLOAT_TOL, Quadruple, _scaled_residual, mirror, reflect_fourth
from . import chains

__all__ = [
    "UnknownSeed",
    "InvalidSeed",
    "PackingConfig",
    "Packing",
    "PackingType",
    "BUILTIN_SEEDS",
    "builtin_seed",
    "generate",
    "classify",
    "curvature_spectrum",
    "verify_packing",
]


class UnknownSeed(ValueError):
    """Seed name not among the builtins."""


class InvalidSeed(ValueError):
    """Seed disks do not form a Descartes configuration."""


BUILTIN_SEEDS: Tuple[str, ...] = ("window", "belt", "halfplane_golden", "plane_spiral")

# Only the spiral produces a packing whose curvatures stay positive while
# their infimum (zero) is never attained; the flag is what licenses a
# type-D verdict from finite evidence.
_UNBOUNDED_BY_CONSTRUCTION = frozenset({"plane_spiral"})


@cache
def builtin_seed(name: str) -> Quadruple:
    """Named seed quadruples; all pass the exact configuration identity.

    Each seed is built once per process and the same immutable
    Quadruple is returned on every later call.
    """
    one = FieldElement(1)
    two = FieldElement(2)
    if name == "window":
        return Quadruple(
            (
                DiskSymbol(FieldElement(0), FieldElement(0), -one, one),
                DiskSymbol(one, FieldElement(0), two, FieldElement(0)),
                DiskSymbol(-one, FieldElement(0), two, FieldElement(0)),
                DiskSymbol(FieldElement(0), two, FieldElement(3), one),
            )
        )
    if name == "belt":
        return Quadruple(
            (
                DiskSymbol(one, FieldElement(0), FieldElement(0), two),
                DiskSymbol(-one, FieldElement(0), FieldElement(0), two),
                DiskSymbol(FieldElement(0), FieldElement(0), one, -one),
                DiskSymbol(FieldElement(0), two, one, FieldElement(3)),
            )
        )
    if name == "halfplane_golden":
        axis, d0, d1 = chains.zigzag_seed()
        return Quadruple((axis, d0, d1, chains.zigzag_disk(2).symbol))
    if name == "plane_spiral":
        return chains.spiral_quadruple(0)
    raise UnknownSeed(f"unknown seed {name!r}; choose one of {', '.join(BUILTIN_SEEDS)}")


@dataclass(frozen=True)
class PackingConfig:
    """Generation budget and mode.

    At least one of max_depth / max_curvature must be set.  A cap
    alone bounds the orbit only when the seed has a negative-curvature
    disk: that disk encloses the packing, whose disks then have areas
    summing to at most its own, so finitely many lie below the cap.
    Strips, half-planes and the plane hold infinitely many, so
    `generate` rejects a cap alone for them.  In exact mode
    max_curvature may be an int, Fraction or FieldElement; in float
    mode it is coerced to float.
    """

    seed: Union[Quadruple, str]
    max_depth: Optional[int] = None
    max_curvature: Optional[Union[int, Fraction, float, FieldElement]] = None
    mode: str = "exact"


@dataclass
class Packing:
    mode: str
    seed: Quadruple
    seed_name: Optional[str]
    disks: List[DiskSymbol]
    disk_depths: List[int]
    quadruples: List[Tuple[Tuple[int, int, int, int], int]]
    viewport: Optional[Tuple[float, float, float, float]] = None

    def curvatures(self) -> List[Scalar]:
        return [d.beta for d in self.disks]

    @property
    def stats(self) -> Dict[str, object]:
        """Counts derived from `disk_depths` and `quadruples`."""
        return {
            "disk_count": len(self.disk_depths),
            "quadruple_count": len(self.quadruples),
            "per_depth": dict(Counter(self.disk_depths)),
            "max_depth": max(self.disk_depths, default=0),
        }


@dataclass(frozen=True)
class PackingType:
    tag: str  # "A" | "B" | "C" | "D" | "inconclusive"
    min_curvature: Scalar
    zero_curvature_disks: int
    infimum_attained: Optional[bool]
    note: str = ""


def _exact_key(d: DiskSymbol) -> Tuple:
    return tuple(c.to_string() for c in d.components())


def _float_key(d: DiskSymbol) -> Tuple:
    return tuple(round(v * 1e8) for v in d.components())


def _zero_tolerance(mode: str, seed: Quadruple) -> float:
    """Largest |beta| that counts as a zero curvature.

    Exact mode decides zero exactly: 0.  In float mode a reflected
    curvature 2(a + b + c) - d carries absolute error of order 2^-53
    times its largest parent, so the tolerance is FLOAT_TOL times the
    largest |beta| of the seed disks, the packing's own scale; an
    absolute bound counts every disk of a large packing as a line.
    """
    if mode == "exact":
        return 0
    return FLOAT_TOL * max(abs(b) for b in seed.curvatures())


def _is_zero_curvature(beta: Scalar, tol: float) -> bool:
    return abs(beta) <= tol if tol else not beta


def _curvature_sign(beta: Scalar, tol: float) -> int:
    return 0 if _is_zero_curvature(beta, tol) else (1 if beta > 0 else -1)


class _FloatRows:
    """Float mode's disk encoding: the float DiskSymbol itself."""

    row = staticmethod(lambda d: d)
    reflect = staticmethod(reflect_fourth)
    curvature = attrgetter("beta")
    disks = staticmethod(list)


def _cleared(d: DiskSymbol) -> Tuple[int, Tuple[int, ...]]:
    """(D, row): D the lcm of d's 16 coefficient denominators, row the
    16 coefficients (xr, yr, beta, gamma, each over the basis 1, t, t^2,
    t^3) times D."""
    ratios = [c.as_integer_ratio() for v in d.components() for c in v.coeffs]
    den = math.lcm(*(m for _, m in ratios))
    return den, tuple(n * (den // m) for n, m in ratios)


def _int_inner(x: Tuple[int, ...], y: Tuple[int, ...]) -> Tuple[int, int, int, int]:
    """The coefficients of 2 D_x D_y <x, y> for rows x, y over D_x, D_y.

    -2 xr xr' - 2 yr yr' + beta gamma' + gamma beta' as a degree-6
    convolution, reduced with t^4 = t^2 + 1 as in FieldElement.__mul__.
    """
    d = [0] * 7
    for i in range(4):
        xr, yr, beta, gamma = x[i::4]
        if xr or yr or beta or gamma:
            for j in range(4):
                d[i + j] += beta * y[j + 12] + gamma * y[j + 8] - 2 * (xr * y[j] + yr * y[j + 4])
    return (d[0] + d[4] + d[6], d[1] + d[5], d[2] + d[4] + 2 * d[6], d[3] + d[5])


def _int_differs(x: Tuple[int, Tuple[int, ...]], y: Tuple[int, Tuple[int, ...]], target: int) -> bool:
    """Exact test on cleared disks (D, row): a violation (True) iff <x, y> != target."""
    (dx, rx), (dy, ry) = x, y
    return _int_inner(rx, ry) != (2 * dx * dy * target, 0, 0, 0)


class _IntRows:
    """Exact mode's disk encoding: 16 integers over the seed's denominator.

    A disk's row is its 16 rational coefficients times D, the lcm of the
    seed disks' own denominators (`_cleared`).  The reflection
    2(a + b + c) - d is Z-linear, so every orbit disk has a row over the
    same D.
    """

    def __init__(self, seed: Quadruple):
        self.den = math.lcm(*(_cleared(d)[0] for d in seed))
        self._curvatures: Dict[Tuple[int, ...], FieldElement] = {}

    def row(self, d: DiskSymbol) -> Tuple[int, ...]:
        """A seed disk's row, rescaled from its own denominator to D."""
        den, row = _cleared(d)
        scale = self.den // den
        return tuple(n * scale for n in row)

    @staticmethod
    def reflect(quad: Tuple[Tuple[int, ...], ...], i: int) -> Tuple[int, ...]:
        """reflect_fourth(quad, i) on rows: 2(a + b + c) - d entry by entry."""
        a, b, c = quad[:i] + quad[i + 1 :]
        return tuple(map(mirror, a, b, c, quad[i]))

    def _element(self, entries: Tuple[int, ...]) -> FieldElement:
        den = self.den
        return FieldElement._raw(tuple(Fraction(n, den) for n in entries))

    def curvature(self, row: Tuple[int, ...]) -> FieldElement:
        """The curvature, one element per value: a disk keeps the float its cap test cached."""
        key = row[8:12]
        beta = self._curvatures.get(key)
        if beta is None:
            beta = self._curvatures[key] = self._element(key)
        return beta

    def disks(self, rows: List[Tuple[int, ...]]) -> List[DiskSymbol]:
        element = self._element
        return [
            DiskSymbol(element(row[:4]), element(row[4:8]), self.curvature(row), element(row[12:]))
            for row in rows
        ]


def generate(config: PackingConfig) -> Packing:
    """Breadth-first orbit expansion of the seed quadruple."""
    if config.max_depth is None and config.max_curvature is None:
        raise ValueError("config must bound the orbit: set max_depth or max_curvature")
    if config.max_depth is not None and (type(config.max_depth) is not int or config.max_depth < 0):
        raise ValueError(f"max_depth must be an int >= 0, not {config.max_depth!r}")
    seed_name: Optional[str] = None
    seed = config.seed
    if isinstance(seed, str):
        seed_name = seed
        seed = builtin_seed(seed)
    if config.mode == "float":
        try:
            seed = Quadruple(tuple(d.approx() for d in seed.disks))
        except OverflowError:
            raise InvalidSeed("seed disk past the float range (float mode)") from None
    elif config.mode != "exact":
        raise ValueError(f"mode must be 'exact' or 'float', not {config.mode!r}")
    elif not all(isinstance(v, FieldElement) for d in seed for v in d.components()):
        raise InvalidSeed("exact mode needs FieldElement seed components")
    disks: List[DiskSymbol] = list(seed.disks)
    depths: List[int] = [0] * 4
    rows: List[Tuple[Tuple[int, int, int, int], int]] = [((0, 1, 2, 3), 0)]
    # The seed is the depth-0 row, checked by verify's test and tolerance.
    if not verify_packing(Packing(config.mode, seed, seed_name, disks, depths, rows))["ok"]:
        raise InvalidSeed(f"seed quadruple fails the configuration identity ({config.mode} mode)")
    zero_tol = _zero_tolerance(config.mode, seed)
    if config.max_depth is None and not any(_curvature_sign(b, zero_tol) < 0 for b in seed.curvatures()):
        raise ValueError(
            "a curvature cap alone bounds only a packing with an enclosing "
            "negative-curvature disk; set max_depth"
        )
    cap = config.max_curvature
    if cap is not None:
        if isinstance(cap, float) and not math.isfinite(cap):
            raise ValueError(f"max_curvature must be finite, not {cap}")
        if config.mode == "float":
            try:
                cap = float(cap)
            except OverflowError:
                raise ValueError("max_curvature is past the float range (float mode)") from None
        elif not isinstance(cap, FieldElement):
            cap = FieldElement(Fraction(cap))

    # `rows` is the breadth-first queue: it grows while it is walked, in
    # depth order, and skips[r] is the position row r replaced.  The
    # walk runs on the encoded disks, `vectors`, in creation order.
    encoding = _IntRows(seed) if config.mode == "exact" else _FloatRows
    vectors = [encoding.row(d) for d in seed.disks]
    skips = [-1]
    for r, (idx, depth) in enumerate(rows):
        if depth == config.max_depth:
            break
        quad = tuple(vectors[j] for j in idx)
        for i in range(4):
            if i == skips[r]:
                continue
            child = encoding.reflect(quad, i)
            if cap is not None and encoding.curvature(child) > cap:
                continue
            rows.append((idx[:i] + (len(vectors),) + idx[i + 1 :], depth + 1))
            skips.append(i)
            vectors.append(child)
            depths.append(depth + 1)
    disks += encoding.disks(vectors[4:])

    sort_key = _exact_key if config.mode == "exact" else _float_key
    order = sorted(range(len(disks)), key=lambda i: (depths[i], sort_key(disks[i])))
    rank = [0] * len(order)
    for r, i in enumerate(order):
        rank[i] = r
    return Packing(
        mode=config.mode,
        seed=seed,
        seed_name=seed_name,
        disks=[disks[i] for i in order],
        disk_depths=[depths[i] for i in order],
        quadruples=[(tuple(rank[j] for j in idx), depth) for idx, depth in rows],
    )


def classify(p: Packing) -> PackingType:
    """Curvature taxonomy verdict with the evidence that backs it."""
    betas = p.curvatures()
    zero_tol = _zero_tolerance(p.mode, p.seed)
    zero_count = sum(1 for b in betas if _is_zero_curvature(b, zero_tol))
    smallest = min(betas)
    min_sign = _curvature_sign(smallest, zero_tol)
    if min_sign < 0:
        return PackingType("A", smallest, zero_count, True, "negative-curvature disk present")
    if min_sign == 0 and zero_count == 2:
        return PackingType("B", smallest, zero_count, True, "two zero-curvature disks (strip)")
    if min_sign == 0 and zero_count == 1:
        return PackingType("C", smallest, zero_count, True, "one zero-curvature disk (half-plane)")
    if min_sign > 0 and p.seed_name in _UNBOUNDED_BY_CONSTRUCTION:
        return PackingType(
            "D",
            smallest,
            zero_count,
            False,
            "curvatures positive; infimum 0 approached but never attained",
        )
    return PackingType(
        "inconclusive",
        smallest,
        zero_count,
        None,
        "positive minimum on a finite sample does not determine the type",
    )


def curvature_spectrum(p: Packing) -> List[Tuple[Scalar, int]]:
    """Sorted (curvature, multiplicity) pairs; exact order in exact mode."""
    return sorted(Counter(p.curvatures()).items(), key=lambda pair: pair[0])


def verify_packing(p: Packing) -> Dict[str, object]:
    """Re-check every stored invariant; lists violations instead of raising.

    One Gram pass in both modes, on the form M^T Q M = F of the
    extended identity (see `descartes`).  The entries of M^T Q M are the
    inner products of the quadruple's disks, so a quadruple violates the
    extended identity iff one of its 4 disks has <d, d> != -1 or one of
    its 6 position pairs has <d_i, d_j> != +1 (a repeated index i = j is
    judged as a pair, +1, not as a norm).  Each disk norm and each index
    pair is computed once per call; a child quadruple shares 3 disks
    with its parent, so it costs about 3 new pairs.  Rows are visited in
    list order.

    The mode chooses only the scalar test of <x, y> against its target
    t.  Exact mode decides <x, y> == t on integer rows: each disk is
    cleared on its own to (D, row), D the lcm of its 16 coefficient
    denominators, and the test is 2 D_x D_y <x, y> == 2 D_x D_y t on
    the four integer coefficients (`_int_inner`), with no Fraction.  The
    denominator is per disk, not one for the document, because an
    edited document may give each disk its own large denominator: their
    common lcm would grow with the number of disks, and every product
    with it.  Float mode accepts
    |<x, y> - t| <= FLOAT_TOL |x|_inf |y|_inf and adds to the report the
    largest scaled residual |<x, y> - t| / (|x|_inf |y|_inf) of the
    norms, of the entries of M^T Q M - F and of the pairs; each is at
    most FLOAT_TOL exactly when its kind has no violation.

    The float bound is relative because a reflected child 2(a + b + c) - d
    carries absolute error of order u = 2^-53 times its largest parent,
    which may be far larger than the child.  That breaks an absolute
    bound (1e-9 rejected 6 of 8 seed packings at depth 6) and the
    running-error bound gamma_n sum |terms| of the child's own products
    (exceeded 1.5e5-fold at depth 6 and 7e8-fold at depth 10 on
    plane_spiral).  Scaled, the residuals of the builtin seeds and of
    their inversions in circles stay below 700 u through depth 10, flat
    in depth and over 10^4 times below FLOAT_TOL, while a 1e-6 relative
    change of one component of a deep disk is caught.
    """
    exact = p.mode == "exact"
    residual, tol = (_int_differs, 0) if exact else (_scaled_residual, FLOAT_TOL)
    vectors = list(map(_cleared, p.disks)) if exact else p.disks
    norms = [residual(v, v, -1) for v in vectors]
    pairs: Dict[Tuple[int, int], float] = {}
    max_extended = 0.0
    extended_violations: List[int] = []
    tangency_violations: List[Tuple[int, int, int]] = []
    for qi, (indices, _) in enumerate(p.quadruples):
        worst = max(norms[i] for i in indices)
        for a in range(4):
            for b in range(a + 1, 4):
                i, j = indices[a], indices[b]
                key = (i, j) if i <= j else (j, i)
                res = pairs.get(key)
                if res is None:
                    res = pairs[key] = residual(vectors[i], vectors[j], 1)
                if res > tol:
                    tangency_violations.append((qi, i, j))
                worst = max(worst, res)
        if worst > tol:
            extended_violations.append(qi)
        max_extended = max(max_extended, worst)
    norm_violations = [i for i, res in enumerate(norms) if res > tol]
    report: Dict[str, object] = {
        "mode": p.mode,
        "disk_count": len(p.disks),
        "quadruple_count": len(p.quadruples),
        "norm_violations": norm_violations,
        "extended_violations": extended_violations,
        "tangency_violations": tangency_violations,
        "ok": not (norm_violations or extended_violations or tangency_violations),
    }
    if not exact:
        report["max_norm_residual"] = max(norms, default=0.0)
        report["max_extended_residual"] = max_extended
        report["max_tangency_residual"] = max(pairs.values(), default=0.0)
    return report
