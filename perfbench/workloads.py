"""Workload definitions and seeded input construction.

Every workload runs the same batch a CLI user runs on each input:
generate, export, render, then import, verify, classify/spectrum on a
packing document, plus `chain`/`constants` tables.  Workloads differ
in mode, depths and chain ranges, which moves the cost to different
layers.  README.md records why each workload was chosen.

The library receives only `Quadruple`s: the four builtin seeds, and one
inversion of each builtin seed in a random rational circle drawn from
the workload seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

# Curvature cap of a capped workload, as a multiple of the largest
# |curvature| among the input's seed disks.  A multiple of the input's
# own scale prunes a similar share of every input (60 to 70 of the 164
# disks of depth 4), where an absolute cap would prune inverted seeds
# erratically.
CAP_FACTOR = 30

SMALL_CHAINS: Tuple[Tuple[str, ...], ...] = (
    ("chain", "--kind", "zigzag", "--from", "-20", "--to", "20", "--digits", "16"),
    ("chain", "--kind", "spiral", "--from", "-20", "--to", "20", "--digits", "16"),
    ("constants",),
)


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    gen_depth: int
    capped: bool
    # Depth of the documents the read path imports.  None: the pass
    # imports the document it just exported.  Otherwise documents at this
    # depth are written before set-up and imported in every pass.
    read_depth: Optional[int]
    chains: Tuple[Tuple[str, ...], ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("exact_build", "exact", 4, True, 1, SMALL_CHAINS),
        Workload("exact_check", "exact", 1, False, 3, SMALL_CHAINS),
        Workload("float_bulk", "float", 6, False, None, SMALL_CHAINS),
        Workload(
            "chain_cli",
            "exact",
            1,
            False,
            None,
            (
                ("chain", "--kind", "zigzag", "--from", "-40", "--to", "40", "--digits", "20"),
                ("chain", "--kind", "spiral", "--from", "-40", "--to", "40", "--digits", "20"),
                ("constants",),
            ),
        ),
    )
}


@dataclass(frozen=True)
class Input:
    id: str
    builtin: bool
    # Builtin inputs are passed to `generate` by name, as the CLI does;
    # seeded inputs as the inverted Quadruple.
    seed: object
    quad: object
    cap: object


def _abs(x):
    return -x if x.sign() < 0 else x


# Inversion circles: center (a, b)/7 with a^2 + b^2 = 25, radius 18/7.
# One denominator, one center distance and one radius keep the
# coefficient sizes, hence the cost, of every seed's inputs alike (the
# total coefficient bit count varies by about 5% between seeds, where
# centers and radii drawn from boxes gave 10-14%).
INVERSION_CENTERS = tuple((a, b) for a in range(-5, 6) for b in range(-5, 6) if a * a + b * b == 25)
INVERSION_DENOMINATOR = 7
INVERSION_RADIUS = 18


def inversion_circle(api, rng: random.Random):
    """Symbol of a circle with center and radius in Z/7, drawn from rng."""
    a, b = rng.choice(INVERSION_CENTERS)
    F = api.FieldElement
    den = INVERSION_DENOMINATOR
    return api.from_center_radius(
        api.EuclideanDisk(F(Fraction(a, den)), F(Fraction(b, den)), F(Fraction(INVERSION_RADIUS, den)))
    )


def make_inputs(api, workload: Workload, seed: int, tracer) -> List[Input]:
    """The 4 builtin seeds, then each inverted in a seeded random circle."""
    rng = random.Random(seed)
    builtins = []
    for name in api.BUILTIN_SEEDS:
        with tracer.span("packing.builtin_seed", name):
            builtins.append(api.builtin_seed(name))
    inputs = [(name, True, name, quad) for name, quad in zip(api.BUILTIN_SEEDS, builtins)]
    for name, quad in zip(api.BUILTIN_SEEDS, builtins):
        circle = inversion_circle(api, rng)
        inverted = api.Quadruple(tuple(api.reflect_in_disk(d, circle) for d in quad.disks))
        inputs.append((f"{name}~{seed}", False, inverted, inverted))
    out = []
    for input_id, builtin, gen_seed, quad in inputs:
        cap = None
        if workload.capped:
            cap = CAP_FACTOR * max(_abs(d.beta) for d in quad.disks)
        out.append(Input(input_id, builtin, gen_seed, quad, cap))
    return out
