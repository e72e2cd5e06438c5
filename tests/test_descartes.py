"""Descartes quadruples: the validated matrix identity, fourth-disk
solutions, and reflection."""

import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apollonian import chains
from apollonian.descartes import (
    F_GRAM,
    InvalidQuadruple,
    NotRepresentable,
    NotTangentEnough,
    Quadruple,
    descartes_scalar_ok,
    extended_ok,
    extended_residual,
    fourth_curvatures,
    reflect_fourth,
    solve_fourth_float,
)
from apollonian.disks import DiskSymbol, invert_unit_circle, norm_ok
from apollonian.field import FieldElement, ONE, PHI, TAU, ZERO
from apollonian.packing import BUILTIN_SEEDS, Packing, builtin_seed, verify_packing
from test_packing import inverted_seed

TWO = FieldElement(2)
HALF = FieldElement(Fraction(1, 2))

WINDOW = Quadruple(
    (
        DiskSymbol(ZERO, ZERO, -ONE, ONE),
        DiskSymbol(ONE, ZERO, TWO, ZERO),
        DiskSymbol(-ONE, ZERO, TWO, ZERO),
        DiskSymbol(ZERO, TWO, FieldElement(3), ONE),
    )
)


def float_quadruple(q: Quadruple) -> Quadruple:
    return Quadruple(tuple(d.approx() for d in q.disks))


def walk(q: Quadruple, word) -> Quadruple:
    """The quadruple reached from q by reflecting the positions in `word`."""
    for i in word:
        child = list(q.disks)
        child[i] = reflect_fourth(q, i)
        q = Quadruple(tuple(child))
    return q


G = ((-4, 0, 0, 0), (0, -4, 0, 0), (0, 0, 0, 8), (0, 0, 8, 0))


def mfmt_is_g(q: Quadruple) -> bool:
    """Reference: the augmented Euclidean Descartes theorem M F M^T = G,
    as a literal matrix product over the columns of M."""
    cols = [d.components() for d in q.disks]
    return all(
        sum(cols[k][i] * F_GRAM[k][l] * cols[l][j] for k in range(4) for l in range(4)) == G[i][j]
        for i in range(4)
        for j in range(4)
    )


small_deltas = st.builds(
    FieldElement, *[st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))] * 4
).filter(bool)


def perturb(q, data):
    i = data.draw(st.integers(0, 3))
    name = data.draw(st.sampled_from(("xr", "yr", "beta", "gamma")))
    child = list(q.disks)
    child[i] = dataclasses.replace(child[i], **{name: getattr(child[i], name) + data.draw(small_deltas)})
    return Quadruple(tuple(child))


def invert_one(q, data):
    # keeps the norm; only pair products can break
    i = data.draw(st.integers(0, 3))
    child = list(q.disks)
    child[i] = invert_unit_circle(child[i])
    return Quadruple(tuple(child))


def double_one(q, data):
    # keeps every pair a multiple of its target: norm -4, pairs +2
    i = data.draw(st.integers(0, 3))
    child = list(q.disks)
    child[i] = child[i].scaled(TWO)
    return Quadruple(tuple(child))


def repeat_one(q, data):
    a, b = data.draw(st.permutations(range(4)))[:2]
    child = list(q.disks)
    child[b] = child[a]
    return Quadruple(tuple(child))


class TestScalarRelation:
    @pytest.mark.parametrize(
        "curvatures,ok",
        [
            ((-1, 2, 2, 3), True),
            ((0, 0, 1, 1), True),
            ((2, 2, 3, 15), True),
            ((1, 1, 1, 1), False),
            ((0, 1, 1, 4), True),
        ],
    )
    def test_integer_rows(self, curvatures, ok):
        values = tuple(FieldElement(c) for c in curvatures)
        assert descartes_scalar_ok(*values) is ok

    def test_golden_row(self):
        # consecutive powers of 1/rho solve the relation
        rho_bar = (PHI + FieldElement(0, 1)).inverse()
        assert descartes_scalar_ok(ONE, rho_bar, rho_bar**2, rho_bar**3)


class TestExtendedIdentity:
    def test_window(self):
        assert extended_ok(WINDOW)

    def test_fails_off_configuration(self):
        # moving one disk breaks the identity
        moved = list(WINDOW.disks)
        moved[3] = DiskSymbol(ONE, TWO, FieldElement(3), TWO)
        assert not extended_ok(Quadruple(tuple(moved)))

    def test_float_residual(self):
        assert extended_residual(float_quadruple(WINDOW)) < 1e-12

    @given(
        name=st.sampled_from(BUILTIN_SEEDS),
        word=st.lists(st.integers(0, 3), max_size=5),
        corrupt=st.sampled_from([None, perturb, invert_one, double_one, repeat_one]),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_gram_test_matches_matrix_identity(self, name, word, corrupt, data):
        q = walk(builtin_seed(name), word)
        if corrupt is None:
            assert extended_ok(q)
        else:
            q = corrupt(q, data)
        assert extended_ok(q) is mfmt_is_g(q)

    @pytest.mark.parametrize("name", BUILTIN_SEEDS)
    @pytest.mark.parametrize("word", [(), (0, 1, 2, 3, 0, 1, 2, 3)])
    @pytest.mark.parametrize("moved", [False, True])
    def test_residual_is_verify_measure(self, name, word, moved):
        q = float_quadruple(walk(builtin_seed(name), word))
        if moved:
            child = list(q.disks)
            size = max(map(abs, child[2].components()))
            child[2] = dataclasses.replace(child[2], xr=child[2].xr + 1e-3 * size)
            q = Quadruple(tuple(child))
        p = Packing("float", q, None, list(q.disks), [0] * 4, [((0, 1, 2, 3), 0)])
        assert extended_residual(q) == verify_packing(p)["max_extended_residual"]
        assert (extended_residual(q) > 1e-9) is moved

    def test_validate_raises_with_context(self):
        moved = list(WINDOW.disks)
        moved[0] = DiskSymbol(ZERO, ZERO, -ONE, TWO)
        with pytest.raises(InvalidQuadruple):
            Quadruple(tuple(moved)).validate()


class TestFourthCurvatures:
    @pytest.mark.parametrize(
        "triple,expected",
        [
            ((-1, 2, 2), (3, 3)),
            ((0, 0, 1), (1, 1)),
            ((2, 2, 3), (15, -1)),
            ((0, 1, 1), (4, 0)),
        ],
    )
    def test_integer_triples(self, triple, expected):
        values = tuple(FieldElement(c) for c in triple)
        want = tuple(FieldElement(c) for c in expected)
        assert fourth_curvatures(*values) == want

    def test_golden_triple(self):
        both = fourth_curvatures(ZERO, TWO, 2 * PHI**2)
        assert set(both) == {2 * PHI**4, 2 * TAU**2}

    def test_radical_outside_field(self):
        # b1 b2 + b2 b3 + b3 b1 = 3 has no square root in the field
        with pytest.raises(NotRepresentable):
            fourth_curvatures(ONE, ONE, ONE)

    def test_solutions_satisfy_scalar_relation(self):
        for triple in ((-1, 2, 2), (2, 2, 3), (3, 6, 7)):
            values = tuple(FieldElement(c) for c in triple)
            for fourth in fourth_curvatures(*values):
                assert descartes_scalar_ok(*values, fourth)


class TestReflectFourth:
    def test_window_outer_disk(self):
        mirrored = reflect_fourth(WINDOW, 0)
        assert mirrored.beta == 15
        assert norm_ok(mirrored)

    def test_involution(self):
        for i in range(4):
            mirrored = reflect_fourth(WINDOW, i)
            child = list(WINDOW.disks)
            child[i] = mirrored
            assert reflect_fourth(Quadruple(tuple(child)), i) == WINDOW.disks[i]

    def test_child_is_valid_quadruple(self):
        for i in range(4):
            child = list(WINDOW.disks)
            child[i] = reflect_fourth(WINDOW, i)
            assert extended_ok(Quadruple(tuple(child)))

    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize("name", BUILTIN_SEEDS)
    def test_a_tuple_reflects_like_its_quadruple(self, name, exact):
        q = builtin_seed(name) if exact else float_quadruple(builtin_seed(name))
        for i in range(4):
            assert reflect_fourth(tuple(q), i) == reflect_fourth(q, i)

    def test_component_sum_identity(self):
        # original and mirror add to twice the sum of the fixed three
        for i in range(4):
            mirrored = reflect_fourth(WINDOW, i)
            others = [d for j, d in enumerate(WINDOW.disks) if j != i]
            total = others[0] + others[1] + others[2]
            assert mirrored + WINDOW.disks[i] == total.scaled(TWO)


def random_float_quadruples(count: int, rng: random.Random):
    """Deterministic stream of valid float quadruples: random exact
    reflection walks from the window configuration, then rounded."""
    for _ in range(count):
        quad = WINDOW
        last = -1
        for _ in range(rng.randrange(1, 9)):
            i = rng.randrange(4)
            if i == last:
                continue
            child = list(quad.disks)
            child[i] = reflect_fourth(quad, i)
            quad = Quadruple(tuple(child))
            last = i
        yield float_quadruple(quad)


class TestSolveFourthFloat:
    def test_three_unit_disks(self):
        s3 = math.sqrt(3.0)
        a = DiskSymbol(0.0, 0.0, 1.0, -1.0)
        b = DiskSymbol(2.0, 0.0, 1.0, 3.0)
        c = DiskSymbol(1.0, s3, 1.0, 3.0)
        hi, lo = solve_fourth_float(a, b, c)
        assert abs(hi.beta - (3 + 2 * s3)) < 1e-9
        assert abs(lo.beta - (3 - 2 * s3)) < 1e-9

    def test_window_triple(self):
        outer, left, right, _ = float_quadruple(WINDOW).disks
        hi, lo = solve_fourth_float(outer, left, right)
        assert abs(hi.beta - 3) < 1e-9 and abs(lo.beta - 3) < 1e-9
        assert abs(hi.yr - 2) < 1e-9 and abs(lo.yr + 2) < 1e-9

    def test_not_tangent_raises(self):
        a = DiskSymbol(0.0, 0.0, 1.0, -1.0)
        b = DiskSymbol(5.0, 0.0, 1.0, 24.0)
        c = DiskSymbol(-5.0, 0.0, 1.0, 24.0)
        with pytest.raises(NotTangentEnough):
            solve_fourth_float(a, b, c)
        # a tangent triple with one component moved by a relative 1e-6
        s3 = math.sqrt(3.0)
        b = DiskSymbol(2.0, 0.0, 1.0, 3.0)
        c = DiskSymbol(1.0 + 1e-6, s3, 1.0, 3.0)
        solve_fourth_float(a, b, DiskSymbol(1.0, s3, 1.0, 3.0))  # unmoved: completes
        with pytest.raises(NotTangentEnough, match="tangency"):
            solve_fourth_float(a, b, c)

    def test_random_triples_recover_dropped_disk(self):
        rng = random.Random(424242)
        for quad in random_float_quadruples(40, rng):
            d1, d2, d3, d4 = quad.disks
            solutions = solve_fourth_float(d1, d2, d3)
            scale = max(1.0, *(abs(v) for d in quad.disks for v in d.components()))
            gaps = [
                max(abs(a - b) for a, b in zip(s.components(), d4.components()))
                for s in solutions
            ]
            assert min(gaps) / scale < 1e-9
            total = d1 + d2 + d3
            for a, b, c in zip(
                solutions[0].components(), solutions[1].components(), total.components()
            ):
                assert abs(a + b - 2 * c) < 1e-8

    def test_non_finite_input_is_rejected(self):
        a = DiskSymbol(math.nan, 0.0, 1.0, -1.0)
        b = DiskSymbol(2.0, 0.0, 1.0, 3.0)
        c = DiskSymbol(1.0, math.sqrt(3.0), 1.0, 3.0)
        with pytest.raises(NotTangentEnough):
            solve_fourth_float(a, b, c)
        # a tangent triple whose completions lie past the float range
        huge = [d.approx() for d in inverted_seed("belt", Fraction(1, 10**60))]
        with pytest.raises(NotTangentEnough, match="float range"):
            solve_fourth_float(*huge[:3])

    def test_exact_input_past_the_float_range_is_refused(self):
        huge = inverted_seed("window", Fraction(1, 10**160))
        with pytest.raises(NotTangentEnough, match="float range"):
            solve_fourth_float(*huge.disks[:3])


def solver_cases(source):
    """Exact quadruples whose triples the accuracy test completes."""
    if source in ("window", "belt"):
        rng = random.Random(2024)
        return [
            walk(builtin_seed(source), [rng.randrange(4) for _ in range(rng.randrange(1, 12))])
            for _ in range(60)
        ]
    if source == "zigzag":
        axis = chains.zigzag_axis()
        disks = [chains.zigzag_disk(n).symbol for n in range(-20, 22)]
        return [Quadruple((axis,) + tuple(disks[n : n + 3])) for n in range(40)]
    return [chains.spiral_quadruple(n) for n in range(-20, 21)]


def float_triple_and_completions(q: Quadruple, k: int):
    """The float triple without disk k, and its two exact completions (the
    dropped disk and its reflection) as floats, in the solver's order."""
    triple = [d.approx() for j, d in enumerate(q.disks) if j != k]
    exact = sorted(
        (d.approx() for d in (q.disks[k], reflect_fourth(q, k))),
        key=lambda d: (d.beta, d.gamma, d.xr, d.yr),
        reverse=True,
    )
    return triple, exact


@pytest.mark.parametrize("source", ["window", "belt", "zigzag", "spiral"])
def test_solver_matches_exact_completions(source):
    # Both completions of each triple are known exactly: the dropped disk
    # and its reflection.  The error is relative to max(1, |exact|_inf).
    solved = 0
    for q in solver_cases(source):
        for k in range(4):
            triple, exact = float_triple_and_completions(q, k)
            try:
                got = solve_fourth_float(*triple)
            except NotTangentEnough:
                continue
            solved += 1
            scale = max(1.0, *(abs(v) for d in exact for v in d.components()))
            error = max(
                abs(a - b)
                for g, e in zip(got, exact)
                for a, b in zip(g.components(), e.components())
            )
            assert error <= 1e-6 * scale, (source, k, error / scale)
    assert solved >= 100


def test_solver_refuses_or_completes_every_chain_triple():
    # The solver's contract, judged per completion: a triple is refused
    # with NotTangentEnough, or each completion is within 1e-6 of the
    # exact one relative to max(1, |that completion|_inf).  The floors
    # on completions fail a solver that refuses too much.
    axis = chains.zigzag_axis()
    zigzag = [chains.zigzag_disk(n).symbol for n in range(-40, 43)]
    chain = [Quadruple((axis,) + tuple(zigzag[i : i + 3])) for i in range(81)]
    chain += [chains.spiral_quadruple(n) for n in range(-40, 41)]
    groups = [(chain, 380)] + [
        ([inverted_seed(name, radius) for name in BUILTIN_SEEDS], floor)
        for radius, floor in ((Fraction(18, 7), 16), (Fraction(1, 10), 16), (Fraction(1, 1000), 8))
    ]
    for quads, floor in groups:
        completed = 0
        for q in quads:
            for k in range(4):
                triple, exact = float_triple_and_completions(q, k)
                try:
                    got = solve_fourth_float(*triple)
                except NotTangentEnough:
                    continue
                completed += 1
                for g, e in zip(got, exact):
                    error = max(abs(a - b) for a, b in zip(g.components(), e.components()))
                    assert error <= 1e-6 * max(1.0, *map(abs, e.components())), (k, error)
        assert completed >= floor, (len(quads), completed)
