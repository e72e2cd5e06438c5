"""Number-theory oracles for the integral `window` packing.

The window seed is the root quadruple (-1, 2, 2, 3), so the literature
fixes facts about its orbit that the code did not produce (Graham,
Lagarias, Mallows, Wilks, Yan, "Apollonian circle packings: number
theory", J. Number Theory 2003): every curvature is an integer, the
curvatures fill exactly 8 residue classes mod 24, and every Descartes
quadruple of the packing reduces to the root by the descent of their
section 3.  The packing is checked to depth 6, and random reduced words
of the Apollonian group to length 40.  These tests read no golden
digest, so a re-pin cannot hide a broken reflection.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apollonian.descartes import reflect_fourth
from apollonian.packing import FLOAT_TOL, PackingConfig, builtin_seed, generate

ROOT = (-1, 2, 2, 3)
RESIDUES_MOD_24 = {2, 3, 6, 11, 14, 15, 18, 23}


@pytest.fixture(scope="module", params=["exact", "float"])
def window(request):
    return generate(PackingConfig(seed="window", max_depth=6, mode=request.param))


def integer(beta):
    """The integer a curvature equals: exactly, or within FLOAT_TOL relative for a float."""
    if isinstance(beta, float):
        n = round(beta)
        assert abs(beta - n) <= FLOAT_TOL * abs(beta), beta
        return n
    value = beta.as_fraction() if beta.is_rational() else None
    assert value is not None and value.denominator == 1, beta
    return value.numerator


def descend(quad, limit):
    """The root reached in at most `limit` steps of the descent, or None.

    A step replaces the largest entry d by 2(a + b + c) - d while that
    lowers it; the quadruple where no step lowers it is the root.
    """
    quad = sorted(quad)
    for _ in range(limit + 1):
        *abc, d = quad
        lower = 2 * sum(abc) - d
        if lower >= d:
            return tuple(quad)
        quad = sorted(abc + [lower])
    return None


def test_depth_six_size(window):
    assert len(window.disks) == 1460 and len(window.quadruples) == 1457


def test_every_curvature_is_an_integer(window):
    for beta in window.curvatures():
        integer(beta)


def test_curvatures_fill_the_eight_classes_mod_24(window):
    assert {integer(beta) % 24 for beta in window.curvatures()} == RESIDUES_MOD_24


def test_every_row_descends_to_the_root(window):
    # A row of depth k is k reflections from the seed, so k steps suffice.
    curvatures = [integer(beta) for beta in window.curvatures()]
    for indices, depth in window.quadruples:
        assert descend([curvatures[i] for i in indices], depth) == ROOT, (indices, depth)


def reduced_word(steps):
    """Positions 0..3 with no letter twice in a row: each step moves by 1..3 mod 4."""
    word = steps[:1]
    for step in steps[1:]:
        word.append((word[-1] + 1 + step % 3) % 4)
    return word


@given(st.lists(st.integers(0, 3), max_size=40).map(reduced_word))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_reduced_words_keep_the_residues_and_descend_to_the_root(word):
    # After k letters the quadruple is k reflections from the root, so
    # k descent steps suffice; a repeated letter would undo a step.
    quad = list(builtin_seed("window"))
    for k, i in enumerate(word, 1):
        quad[i] = reflect_fourth(quad, i)
        curvatures = [integer(d.beta) for d in quad]
        assert curvatures[i] % 24 in RESIDUES_MOD_24, (word[:k], curvatures)
        assert descend(curvatures, k) == ROOT, (word[:k], curvatures)
