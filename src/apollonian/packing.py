"""Packing generation by reflection, with budgets and taxonomy.

Starting from a seed Descartes configuration, every curvilinear gap is
filled by swapping one disk of a known quadruple for its mirror
completion.  The orbit is walked breadth first; each frontier entry
remembers which index was just replaced so the reflection that would
re-create the parent is skipped.  Nothing needs deduplicating: the walk
enumerates reduced words of the Apollonian group, which acts freely on
ordered Descartes quadruples (Graham, Lagarias, Mallows, Wilks, Yan,
"Apollonian circle packings: geometry and group theory I",
arXiv:math/0010298), so every quadruple is met once and each one adds
exactly one new disk.  Disks are carried by position in creation
order; at the end they are sorted by (depth, symbol) and the quadruple
rows are renumbered through that permutation, so the output does not
depend on traversal details.

Classification follows the curvature taxonomy: the sign of the minimal
curvature and the number of zero-curvature disks decide types A, B and
C; type D (all curvatures positive, infimum zero never attained) cannot
be read off any finite sample, so it is assigned only to the seed that
is unbounded by construction, and arbitrary seeds report "inconclusive"
instead of a guess.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .field import FieldElement
from .disks import DiskSymbol, norm_ok, norm_residual, tangency_residual, tangent
from .descartes import Quadruple, extended_ok, extended_residual, reflect_fourth
from . import chains

Scalar = Union["FieldElement", float]

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

FLOAT_TOL = 1e-9


class UnknownSeed(ValueError):
    """Seed name not among the builtins."""


class InvalidSeed(ValueError):
    """Seed disks do not form a Descartes configuration."""


BUILTIN_SEEDS: Tuple[str, ...] = ("window", "belt", "halfplane_golden", "plane_spiral")

# Only the spiral produces a packing whose curvatures stay positive while
# their infimum (zero) is never attained; the flag is what licenses a
# type-D verdict from finite evidence.
_UNBOUNDED_BY_CONSTRUCTION = frozenset({"plane_spiral"})


def builtin_seed(name: str) -> Quadruple:
    """Named seed quadruples; all pass the exact configuration identity."""
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
        return Quadruple(tuple(chains.spiral_disk(n).symbol for n in range(4)))
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
    mode it is coerced to float.  The optional viewport is kept
    for output stages (rendering); it never affects expansion.
    """

    seed: Union[Quadruple, str]
    max_depth: Optional[int] = None
    max_curvature: Optional[Union[int, Fraction, float, FieldElement]] = None
    viewport: Optional[Tuple[float, float, float, float]] = None
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


def _sort_key(d: DiskSymbol) -> Tuple:
    if d.is_exact:
        return tuple(c.to_string() for c in d.components())
    return tuple(round(v * 1e8) for v in d.components())


def _is_zero_curvature(beta: Scalar) -> bool:
    if isinstance(beta, FieldElement):
        return not beta
    return abs(beta) < 1e-12


def _curvature_sign(beta: Scalar) -> int:
    if isinstance(beta, FieldElement):
        return beta.sign()
    return 0 if _is_zero_curvature(beta) else (1 if beta > 0 else -1)


def _beta_exceeds(beta: Scalar, limit: Scalar) -> bool:
    if isinstance(beta, FieldElement):
        return (beta - limit).sign() > 0
    return beta > limit


def generate(config: PackingConfig) -> Packing:
    """Breadth-first orbit expansion of the seed quadruple."""
    if config.max_depth is None and config.max_curvature is None:
        raise ValueError("config must bound the orbit: set max_depth or max_curvature")
    seed_name: Optional[str] = None
    seed = config.seed
    if isinstance(seed, str):
        seed_name = seed
        seed = builtin_seed(seed)
    if config.mode == "float":
        seed = Quadruple(tuple(d.approx() for d in seed.disks))
    elif config.mode != "exact":
        raise ValueError(f"mode must be 'exact' or 'float', not {config.mode!r}")
    if seed.is_exact:
        if not extended_ok(seed):
            raise InvalidSeed("seed quadruple fails the configuration identity")
    elif extended_residual(seed) > 1e-6:
        raise InvalidSeed("float seed residual exceeds 1e-6")
    if config.max_depth is None and not any(_curvature_sign(b) < 0 for b in seed.curvatures()):
        raise ValueError(
            "a curvature cap alone bounds only a packing with an enclosing "
            "negative-curvature disk; set max_depth"
        )
    cap = config.max_curvature
    if cap is not None:
        if not seed.is_exact:
            cap = float(cap)
        elif not isinstance(cap, FieldElement):
            cap = FieldElement(Fraction(cap))

    disks: List[DiskSymbol] = list(seed.disks)
    depths: List[int] = [0] * 4
    rows: List[Tuple[Tuple[int, int, int, int], int]] = [((0, 1, 2, 3), 0)]
    frontier = deque([(seed, (0, 1, 2, 3), -1, 0)])
    while frontier:
        quad, idx, skip, depth = frontier.popleft()
        if config.max_depth is not None and depth >= config.max_depth:
            continue
        for i in range(4):
            if i == skip:
                continue
            mirrored = reflect_fourth(quad, i)
            if cap is not None and _beta_exceeds(mirrored.beta, cap):
                continue
            child_idx = idx[:i] + (len(disks),) + idx[i + 1 :]
            disks.append(mirrored)
            depths.append(depth + 1)
            rows.append((child_idx, depth + 1))
            replaced = list(quad.disks)
            replaced[i] = mirrored
            frontier.append((Quadruple(tuple(replaced)), child_idx, i, depth + 1))

    order = sorted(range(len(disks)), key=lambda i: (depths[i], _sort_key(disks[i])))
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
        viewport=config.viewport,
    )


def _min_curvature(curvatures: Sequence[Scalar]) -> Scalar:
    smallest = curvatures[0]
    for beta in curvatures[1:]:
        if isinstance(beta, FieldElement):
            if (beta - smallest).sign() < 0:
                smallest = beta
        elif beta < smallest:
            smallest = beta
    return smallest


def classify(p: Packing) -> PackingType:
    """Curvature taxonomy verdict with the evidence that backs it."""
    betas = p.curvatures()
    zero_count = sum(1 for b in betas if _is_zero_curvature(b))
    smallest = _min_curvature(betas)
    min_sign = _curvature_sign(smallest)
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
    counts: Dict[Scalar, int] = {}
    for beta in p.curvatures():
        counts[beta] = counts.get(beta, 0) + 1
    groups = list(counts.items())
    if groups and isinstance(groups[0][0], FieldElement):
        groups.sort(key=cmp_to_key(lambda a, b: (a[0] - b[0]).sign()))
    else:
        groups.sort(key=lambda pair: pair[0])
    return groups


def verify_packing(p: Packing) -> Dict[str, object]:
    """Re-check every stored invariant; lists violations instead of raising.

    In exact mode this is one Gram pass.  Let M have the four symbols of
    a quadruple as columns, Q the matrix of the inner product (so
    <a, b> = a^T Q b) and F, G the matrices of `descartes`.  Then

        M F M^T = G  <=>  M^T Q M = F.

    Proof: G^-1 = Q/4 and F^2 = 4I, and either side makes M invertible.
    If M F M^T = G then F^-1 = M^T G^-1 M, i.e. F/4 = M^T Q M / 4; if
    M^T Q M = F then Q^-1 = M F^-1 M^T, i.e. G/4 = M F M^T / 4.

    The entries of M^T Q M are the inner products of the quadruple's
    disks, so a quadruple violates the extended identity iff one of its
    4 disks has <d, d> != -1 or one of its 6 position pairs has
    <d_i, d_j> != +1 (a repeated index i = j is judged as a pair, +1,
    not as a norm).  Each disk norm and each index pair is computed once
    per call; a child quadruple shares 3 disks with its parent, so it
    costs about 3 new pairs.

    Float mode keeps the three residual passes and their tolerance.
    """
    if p.mode != "exact":
        return _verify_float(p)
    norm_bad = [not norm_ok(d) for d in p.disks]
    pair_ok: Dict[Tuple[int, int], bool] = {}
    extended_violations: List[int] = []
    tangency_violations: List[Tuple[int, int, int]] = []
    for qi, (indices, _) in enumerate(p.quadruples):
        quad_ok = not any(norm_bad[i] for i in indices)
        for a in range(4):
            for b in range(a + 1, 4):
                i, j = indices[a], indices[b]
                key = (i, j) if i <= j else (j, i)
                ok = pair_ok.get(key)
                if ok is None:
                    ok = pair_ok[key] = tangent(p.disks[i], p.disks[j])
                if not ok:
                    quad_ok = False
                    tangency_violations.append((qi, i, j))
        if not quad_ok:
            extended_violations.append(qi)
    return _report(
        p, [i for i, bad in enumerate(norm_bad) if bad], extended_violations, tangency_violations
    )


def _report(
    p: Packing,
    norm_violations: List[int],
    extended_violations: List[int],
    tangency_violations: List[Tuple[int, int, int]],
) -> Dict[str, object]:
    return {
        "mode": p.mode,
        "disk_count": len(p.disks),
        "quadruple_count": len(p.quadruples),
        "norm_violations": norm_violations,
        "extended_violations": extended_violations,
        "tangency_violations": tangency_violations,
        "ok": not (norm_violations or extended_violations or tangency_violations),
    }


def _verify_float(p: Packing) -> Dict[str, object]:
    """Residual checks of the norm, the extended identity and tangency."""
    norm_violations: List[int] = []
    max_norm = 0.0
    for i, d in enumerate(p.disks):
        res = norm_residual(d)
        max_norm = max(max_norm, res)
        if res > FLOAT_TOL:
            norm_violations.append(i)
    extended_violations: List[int] = []
    tangency_violations: List[Tuple[int, int, int]] = []
    max_extended = 0.0
    max_tangency = 0.0
    for qi, (indices, _) in enumerate(p.quadruples):
        quad = Quadruple(tuple(p.disks[i] for i in indices))
        res = extended_residual(quad)
        max_extended = max(max_extended, res)
        if res > FLOAT_TOL:
            extended_violations.append(qi)
        for a in range(4):
            for b in range(a + 1, 4):
                res = tangency_residual(quad[a], quad[b])
                max_tangency = max(max_tangency, res)
                if res > FLOAT_TOL:
                    tangency_violations.append((qi, indices[a], indices[b]))
    report = _report(p, norm_violations, extended_violations, tangency_violations)
    report["max_norm_residual"] = max_norm
    report["max_extended_residual"] = max_extended
    report["max_tangency_residual"] = max_tangency
    return report
