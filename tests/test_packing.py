"""Orbit generation, classification, spectrum and verify checks.

Generation keeps no dedup: skip-parent BFS meets every disk and every
quadruple of the orbit once, so the tests pin disks = quadruples + 3,
one new disk per quadruple row and 4·3^(k-1) disks at depth k.
"""

import bisect
import dataclasses
import math
import random
from fractions import Fraction
from functools import cmp_to_key, lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apollonian import chains, descartes
from apollonian.descartes import Quadruple, extended_ok, reflect_fourth
from apollonian.disks import (
    DiskSymbol,
    EuclideanDisk,
    from_center_radius,
    inner,
    invert_unit_circle,
    norm_ok,
    reflect_in_disk,
    tangent,
)
from apollonian.field import PHI, TAU, ZERO, FieldElement
from apollonian.jsonio import export_json
from apollonian.packing import (
    BUILTIN_SEEDS,
    FLOAT_TOL,
    InvalidSeed,
    Packing,
    PackingConfig,
    UnknownSeed,
    _cleared,
    _int_inner,
    builtin_seed,
    classify,
    curvature_spectrum,
    generate,
    verify_packing,
)


def spectrum_as_ints(packing):
    out = {}
    for value, count in curvature_spectrum(packing):
        assert value.is_rational()
        q = value.as_fraction()
        assert q.denominator == 1
        out[q.numerator] = count
    return out


def inverted_seed(name, radius):
    """A builtin seed inverted in the circle of centre (3/7, 2/7) and the given radius."""
    circle = from_center_radius(
        EuclideanDisk(
            FieldElement(Fraction(3, 7)), FieldElement(Fraction(2, 7)), FieldElement(Fraction(radius))
        )
    )
    return Quadruple(tuple(reflect_in_disk(d, circle) for d in builtin_seed(name)))


def up_to_depth(p, depth):
    """The packing `generate` gives at a smaller depth: disks are sorted by depth."""
    n = bisect.bisect_right(p.disk_depths, depth)
    rows = [row for row in p.quadruples if row[1] <= depth]
    return dataclasses.replace(p, disks=p.disks[:n], disk_depths=p.disk_depths[:n], quadruples=rows)


def exact_curvatures(name, depth):
    """Exact packing of a builtin seed whose disks carry curvatures alone.

    The reflection acts on the curvature coordinate by itself,
    beta' = 2(b1 + b2 + b3) - beta, and `classify` reads only the
    curvatures, the mode and the seed; this skips the other coordinates,
    which cost most of an exact `generate` at depth 8.
    """
    seed = builtin_seed(name)
    betas, depths = list(seed.curvatures()), [0] * 4
    frontier = [(tuple(betas), -1)]
    for level in range(1, depth + 1):
        children = []
        for quad, skip in frontier:
            for i in range(4):
                if i != skip:
                    kept = sum(quad[:i] + quad[i + 1 :], ZERO)
                    beta = kept + kept - quad[i]
                    betas.append(beta)
                    depths.append(level)
                    children.append((quad[:i] + (beta,) + quad[i + 1 :], i))
        frontier = children
    disks = [DiskSymbol(ZERO, ZERO, beta, ZERO) for beta in betas]
    return Packing("exact", seed, name, disks, depths, [])


class TestSeeds:
    @pytest.mark.parametrize("name", BUILTIN_SEEDS)
    def test_builtin_seeds_are_valid(self, name):
        assert extended_ok(builtin_seed(name))

    def test_unknown_name(self):
        with pytest.raises(UnknownSeed):
            builtin_seed("does-not-exist")

    def test_each_seed_is_built_once(self, monkeypatch):
        calls = []
        build = chains.spiral_quadruple
        monkeypatch.setattr(chains, "spiral_quadruple", lambda n: calls.append(n) or build(n))
        builtin_seed.cache_clear()
        for _ in range(2):
            generate(PackingConfig(seed="plane_spiral", max_depth=0))
        assert len(calls) <= 1

    def test_seed_curvature_signs(self):
        signs = {
            "window": -1,
            "belt": 0,
            "halfplane_golden": 0,
            "plane_spiral": 1,
        }
        for name, expected in signs.items():
            smallest = min(builtin_seed(name).curvatures(), key=lambda b: b.approx())
            assert smallest.sign() == expected


class TestGenerate:
    def test_requires_a_bound(self):
        with pytest.raises(ValueError):
            generate(PackingConfig(seed="window"))

    @pytest.mark.parametrize("depth", [-1, -3])
    def test_negative_depth_is_an_input_error(self, depth):
        with pytest.raises(ValueError, match="max_depth"):
            generate(PackingConfig(seed="window", max_depth=depth))

    @pytest.mark.parametrize("depth", [2.5, math.nan, Fraction(5, 2), True, "3"])
    def test_depth_that_is_not_an_int_is_an_input_error(self, depth):
        # The cap keeps a depth the walk never meets from running forever.
        with pytest.raises(ValueError, match="max_depth"):
            generate(PackingConfig(seed="window", max_depth=depth, max_curvature=50))

    def test_rejects_invalid_seed(self):
        from apollonian.descartes import Quadruple
        from apollonian.disks import DiskSymbol
        from apollonian.field import ONE, ZERO

        broken = Quadruple(
            (
                DiskSymbol(ZERO, ZERO, ONE, -ONE),
                DiskSymbol(ZERO, ZERO, ONE, -ONE),
                DiskSymbol(ZERO, ZERO, ONE, -ONE),
                DiskSymbol(ZERO, ZERO, ONE, -ONE),
            )
        )
        with pytest.raises(InvalidSeed):
            generate(PackingConfig(seed=broken, max_depth=1))

    @pytest.mark.parametrize("radius", [Fraction(1, 10), Fraction(1, 1000)])
    @pytest.mark.parametrize("name", BUILTIN_SEEDS)
    def test_float_seed_check_is_scale_relative(self, name, radius):
        # Inverting in a small circle makes components near 1/radius^2;
        # the seed is judged by verify's relative test, not an absolute one.
        seed = inverted_seed(name, radius)
        p = generate(PackingConfig(seed=seed, max_depth=5, mode="float"))
        assert verify_packing(p)["ok"]

    def test_float_mode_rejects_a_seed_past_the_float_range(self):
        seed = inverted_seed("window", Fraction(1, 10**160))
        with pytest.raises(InvalidSeed, match="float range"):
            generate(PackingConfig(seed=seed, max_depth=1, mode="float"))

    @pytest.mark.parametrize(
        "cap", [Fraction(10**400), 10**400, PHI**2000], ids=["fraction", "int", "field"]
    )
    def test_float_cap_past_the_float_range_is_rejected(self, cap):
        with pytest.raises(ValueError, match="float range"):
            generate(PackingConfig(seed="window", max_depth=2, max_curvature=cap, mode="float"))

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("cap", [math.inf, math.nan])
    def test_non_finite_cap_is_rejected(self, cap, mode):
        # A cap alone that prunes nothing would expand the window forever.
        with pytest.raises(ValueError, match="finite"):
            generate(PackingConfig(seed="window", max_curvature=cap, mode=mode))

    def test_unknown_mode_is_rejected(self):
        with pytest.raises(ValueError, match="mode must be 'exact' or 'float', not 'quad'"):
            generate(PackingConfig(seed="window", max_depth=1, mode="quad"))

    def test_exact_mode_rejects_a_float_seed(self):
        seed = Quadruple(tuple(d.approx() for d in builtin_seed("window")))
        with pytest.raises(InvalidSeed, match="FieldElement"):
            generate(PackingConfig(seed=seed, max_depth=1))

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("name", ["belt", "halfplane_golden", "plane_spiral"])
    def test_cap_alone_needs_negative_curvature(self, name, mode):
        with pytest.raises(ValueError, match="negative-curvature"):
            generate(PackingConfig(seed=name, max_curvature=10, mode=mode))

    @given(
        name=st.sampled_from(BUILTIN_SEEDS),
        mode=st.sampled_from(["exact", "float"]),
        depth=st.integers(0, 5),
        cap=st.none() | st.integers(1, 60),
    )
    @settings(max_examples=40, deadline=None)
    def test_one_new_disk_per_quadruple(self, name, mode, depth, cap):
        p = generate(PackingConfig(seed=name, max_depth=depth, max_curvature=cap, mode=mode))
        assert len(p.disks) == len(p.quadruples) + 3
        assert sorted(p.quadruples[0][0]) == [0, 1, 2, 3] and p.quadruples[0][1] == 0
        introduced = []
        for indices, k in p.quadruples[1:]:
            depths = [p.disk_depths[i] for i in indices]
            assert depths.count(k) == 1 and max(depths) == k
            introduced.append(indices[depths.index(k)])
        assert sorted(introduced) == list(range(4, len(p.disks)))
        if cap is None:
            expected = {k: 4 if k == 0 else 4 * 3 ** (k - 1) for k in range(depth + 1)}
            assert p.stats["per_depth"] == expected

    def test_window_counts(self):
        p = generate(PackingConfig(seed="window", max_depth=4))
        assert p.stats["disk_count"] == 164
        assert p.stats["quadruple_count"] == 161
        assert p.stats["per_depth"] == {0: 4, 1: 4, 2: 12, 3: 36, 4: 108}

    def test_depth_zero_is_just_the_seed(self):
        p = generate(PackingConfig(seed="window", max_depth=0))
        assert p.stats["disk_count"] == 4
        assert p.stats["quadruple_count"] == 1

    def test_disk_order_is_by_depth(self):
        p = generate(PackingConfig(seed="window", max_depth=3))
        assert p.disk_depths == sorted(p.disk_depths)

    def test_deterministic_output(self):
        a = generate(PackingConfig(seed="belt", max_depth=3))
        b = generate(PackingConfig(seed="belt", max_depth=3))
        assert a.disks == b.disks
        assert a.quadruples == b.quadruples

    def test_dedup_no_repeats(self):
        p = generate(PackingConfig(seed="window", max_depth=4))
        seen = set()
        for d in p.disks:
            key = tuple(v.coeffs for v in d.components())
            assert key not in seen
            seen.add(key)

    def test_curvature_cap(self):
        p = generate(PackingConfig(seed="window", max_curvature=Fraction(30)))
        assert p.stats["disk_count"] == 39
        assert max(b.as_fraction() for b in p.curvatures()) == 30

    def test_curvature_cap_exact_bound(self):
        cap = 2 * PHI**4
        p = generate(PackingConfig(seed="halfplane_golden", max_curvature=cap, max_depth=3))
        for beta in p.curvatures():
            assert (beta - cap).sign() <= 0

    def test_float_mode(self):
        p = generate(PackingConfig(seed="window", max_depth=3, mode="float"))
        assert p.mode == "float"
        assert all(isinstance(d.beta, float) for d in p.disks)
        exact = generate(PackingConfig(seed="window", max_depth=3))
        assert p.stats["disk_count"] == exact.stats["disk_count"]

    def test_all_quadruples_valid(self):
        p = generate(PackingConfig(seed="plane_spiral", max_depth=3))
        from apollonian.descartes import Quadruple

        for indices, _ in p.quadruples:
            assert extended_ok(Quadruple(tuple(p.disks[i] for i in indices)))


def reference_generate(seed, max_depth, cap=None):
    """The exact orbit walked on DiskSymbols: reflect_fourth, the FieldElement
    cap test beta > cap, then the (depth, coefficient strings) order."""
    disks, depths = list(seed.disks), [0] * 4
    rows, skips = [((0, 1, 2, 3), 0)], [-1]
    for r, (idx, depth) in enumerate(rows):
        if depth == max_depth:
            break
        quad = Quadruple(tuple(disks[j] for j in idx))
        for i in range(4):
            if i == skips[r]:
                continue
            child = reflect_fourth(quad, i)
            if cap is not None and child.beta > cap:
                continue
            rows.append((idx[:i] + (len(disks),) + idx[i + 1 :], depth + 1))
            skips.append(i)
            disks.append(child)
            depths.append(depth + 1)
    key = lambda k: (depths[k], tuple(v.to_string() for v in disks[k].components()))
    order = sorted(range(len(disks)), key=key)
    rank = {k: r for r, k in enumerate(order)}
    renumbered = [(tuple(rank[j] for j in idx), depth) for idx, depth in rows]
    return Packing("exact", seed, None, [disks[k] for k in order], [depths[k] for k in order], renumbered)


def seed_denominator(seed):
    return math.lcm(*(c.denominator for d in seed for v in d.components() for c in v.coeffs))


# Rational coefficients with mixed denominators, zeros and negatives.
coefficients = st.one_of(
    st.just(0),
    st.integers(-(10**6), 10**6),
    st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**12)),
)
exact_symbols = st.builds(DiskSymbol, *[st.builds(FieldElement, *[coefficients] * 4)] * 4)


class TestIntRows:
    """Exact generate on integer rows over the seed's denominator D, and
    exact verify on integer rows over each disk's own denominator."""

    @given(x=exact_symbols, y=exact_symbols)
    @settings(max_examples=200, deadline=None)
    def test_int_inner_matches_the_field_inner_product(self, x, y):
        (dx, rx), (dy, ry) = _cleared(x), _cleared(y)
        assert _int_inner(rx, ry) == tuple(2 * dx * dy * c for c in descartes.inner(x, y).coeffs)

    @pytest.mark.parametrize("name", BUILTIN_SEEDS)
    def test_int_norms_of_packing_disks(self, name):
        for d in generate(PackingConfig(seed=name, max_depth=2)).disks:
            den, row = _cleared(d)
            assert _int_inner(row, row) == (-2 * den * den, 0, 0, 0)

    def test_distinct_large_denominators(self):
        # Each of the 56 disks gets its own 1,501-digit denominator: one
        # denominator for the whole document would have about 84,000
        # digits, and every product of verify with it.
        p = fresh_copy("window", 3)
        p.disks[:] = [
            dataclasses.replace(d, xr=d.xr + Fraction(1, 10**1500 + 2 * k + 1)) for k, d in enumerate(p.disks)
        ]
        report = verify_packing(p)
        assert report == oracle_verify(p)
        assert report["norm_violations"] == list(range(56))

    @pytest.mark.parametrize("capped", [False, True])
    @pytest.mark.parametrize("name", ["window", "plane_spiral"])
    def test_generate_matches_the_symbol_walk(self, name, capped):
        seed = inverted_seed(name, Fraction(18, 7))
        assert seed_denominator(seed) > 1
        cap = None
        if capped:
            # A depth-3 curvature: the capped walk keeps children equal to the cap.
            betas = reference_generate(seed, 3).curvatures()
            cap = sorted(betas)[len(betas) // 2]
        expected = reference_generate(seed, 3, cap)
        p = generate(PackingConfig(seed=seed, max_depth=3, max_curvature=cap))
        assert 4 < len(p.disks) == len(expected.disks) <= 4 + 4 + 12 + 36
        assert p.disks == expected.disks
        assert p.disk_depths == expected.disk_depths
        assert p.quadruples == expected.quadruples
        assert export_json(p) == export_json(expected)

    @pytest.mark.parametrize("name", BUILTIN_SEEDS)
    def test_cap_equal_to_a_curvature_keeps_that_child(self, name):
        children = generate(PackingConfig(seed=name, max_depth=1)).curvatures()[4:]
        for cap in children:
            p = generate(PackingConfig(seed=name, max_depth=1, max_curvature=cap))
            kept = p.curvatures()[4:]
            assert cap in kept
            assert len(kept) == sum(1 for b in children if b <= cap)

    @staticmethod
    def _edited(p, i, delta, seed=None):
        copy = dataclasses.replace(p, seed=seed or p.seed, disks=list(p.disks), quadruples=list(p.quadruples))
        copy.disks[i] = dataclasses.replace(copy.disks[i], xr=copy.disks[i].xr + delta)
        return copy

    @pytest.mark.parametrize("order", ["generate", "reversed", "shuffled"])
    @pytest.mark.parametrize(
        "document, norms, extended, tangency",
        [
            # The deepest disk leaves Z, the window's D = 1: only its
            # own row is violated.
            ("outside", [19], [13], [(13, 3, 19), (13, 7, 19)]),
            # A depth-1 disk moves inside Z: its row and its three
            # children's rows, which hold it, are violated.
            (
                "inside",
                [5],
                [4, 14, 15, 16],
                [(4, 3, 5), (4, 0, 5), (14, 3, 5), (14, 0, 5)]
                + [(15, 8, 5), (15, 0, 5), (16, 3, 5), (16, 15, 5)],
            ),
            # The window inverted at radius 18/7 (D = 3969) under the
            # builtin window's seed list (D = 1): verify does not read
            # the seed list.
            ("foreign_seed", [19], [13], [(13, 2, 19), (13, 3, 19), (13, 7, 19)]),
        ],
    )
    def test_verify_reports(self, document, norms, extended, tangency, order):
        if document == "foreign_seed":
            inverted = generate(PackingConfig(seed=inverted_seed("window", Fraction(18, 7)), max_depth=2))
            p = self._edited(inverted, 19, 1, seed=builtin_seed("window"))
            assert verify_packing(dataclasses.replace(inverted, seed=p.seed))["ok"]
        else:
            window = generate(PackingConfig(seed="window", max_depth=2))
            edit = (19, Fraction(1, 3)) if document == "outside" else (5, 1)
            p = self._edited(window, *edit)
        positions = list(range(len(p.quadruples)))
        if order == "reversed":
            positions.reverse()
        elif order == "shuffled":
            random.Random(3).shuffle(positions)
        # positions[new] is the generate-order row now listed at `new`.
        p.quadruples[:] = [p.quadruples[old] for old in positions]
        moved = {old: new for new, old in enumerate(positions)}
        report = verify_packing(p)
        assert report["norm_violations"] == norms
        assert report["extended_violations"] == sorted(moved[qi] for qi in extended)
        assert report["tangency_violations"] == sorted(
            ((moved[qi], i, j) for qi, i, j in tangency), key=lambda v: v[0]
        )
        assert report == oracle_verify(p)


class TestClassification:
    @pytest.mark.parametrize(
        "name,tag",
        [
            ("window", "A"),
            ("belt", "B"),
            ("halfplane_golden", "C"),
            ("plane_spiral", "D"),
        ],
    )
    def test_builtin_tags(self, name, tag):
        p = generate(PackingConfig(seed=name, max_depth=3))
        verdict = classify(p)
        assert verdict.tag == tag

    def test_evidence_window(self):
        p = generate(PackingConfig(seed="window", max_depth=3))
        verdict = classify(p)
        assert verdict.min_curvature == -1
        assert verdict.zero_curvature_disks == 0
        assert verdict.infimum_attained is True

    def test_evidence_belt(self):
        verdict = classify(generate(PackingConfig(seed="belt", max_depth=3)))
        assert verdict.zero_curvature_disks == 2
        assert not verdict.min_curvature

    def test_evidence_spiral(self):
        verdict = classify(generate(PackingConfig(seed="plane_spiral", max_depth=3)))
        assert verdict.min_curvature.sign() > 0
        assert verdict.infimum_attained is False

    def test_positive_minimum_without_flag_is_inconclusive(self):
        # same disks, but handed over as a bare quadruple: no grounds for D
        p = generate(PackingConfig(seed=builtin_seed("plane_spiral"), max_depth=2))
        assert classify(p).tag == "inconclusive"

    def test_float_zero_test_is_scale_relative(self):
        # Inverting in a huge circle makes every curvature about 1e-14, so
        # an absolute zero test called 20 disks lines and lost the type A.
        seed = inverted_seed("window", 10**7)
        verdicts = [
            classify(generate(PackingConfig(seed=seed, max_depth=2, mode=mode)))
            for mode in ("exact", "float")
        ]
        assert [(v.tag, v.zero_curvature_disks) for v in verdicts] == [("A", 0)] * 2
        # The cap-alone check sees the enclosing disk in both modes too.
        cap = 30 * max(abs(float(b)) for b in seed.curvatures())
        counts = [
            len(generate(PackingConfig(seed=seed, max_curvature=Fraction(cap), mode=mode)).disks)
            for mode in ("exact", "float")
        ]
        assert counts[0] == counts[1] > 4

    @pytest.mark.parametrize("name", BUILTIN_SEEDS)
    def test_float_agrees_with_exact_through_depth_eight(self, name):
        floats, exact = _float_depth_eight(name), exact_curvatures(name, 8)
        for depth in range(9):
            f = classify(up_to_depth(floats, depth))
            e = classify(up_to_depth(exact, depth))
            assert (f.tag, f.zero_curvature_disks) == (e.tag, e.zero_curvature_disks), depth

    def test_zero_count_stable_after_depth_one(self):
        for name in BUILTIN_SEEDS:
            zeros_by_depth = {}
            for depth in (1, 2, 3):
                p = generate(PackingConfig(seed=name, max_depth=depth))
                zeros_by_depth[depth] = classify(p).zero_curvature_disks
            assert zeros_by_depth[1] == zeros_by_depth[2] == zeros_by_depth[3]


class TestSpectrum:
    def test_window_depth_four(self):
        p = generate(PackingConfig(seed="window", max_depth=4))
        spectrum = spectrum_as_ints(p)
        assert spectrum[-1] == 1
        assert spectrum[2] == 2
        assert spectrum[3] == 2
        assert spectrum[6] == 4
        assert spectrum[11] == 4
        assert spectrum[14] == 4
        assert spectrum[15] >= 1

    def test_belt_depth_two(self):
        p = generate(PackingConfig(seed="belt", max_depth=2))
        spectrum = spectrum_as_ints(p)
        assert spectrum[0] == 2
        assert spectrum[1] >= 2
        assert spectrum[4] >= 1
        assert spectrum[9] >= 1

    def test_spectrum_sorted_and_counts_match(self):
        p = generate(PackingConfig(seed="window", max_depth=3))
        spectrum = curvature_spectrum(p)
        values = [v for v, _ in spectrum]
        for a, b in zip(values, values[1:]):
            assert (b - a).sign() > 0
        assert sum(c for _, c in spectrum) == p.stats["disk_count"]

    def test_zigzag_spectrum_is_golden(self):
        p = generate(PackingConfig(seed="halfplane_golden", max_depth=1))
        values = [v for v, _ in curvature_spectrum(p)]
        assert values[0] == 0
        assert values[1] == 2 * TAU**2  # reflection extends the chain downward


class TestVerify:
    @pytest.mark.parametrize("name", BUILTIN_SEEDS)
    def test_exact_packings_verify(self, name):
        p = generate(PackingConfig(seed=name, max_depth=3))
        report = verify_packing(p)
        assert report["ok"]
        assert report["norm_violations"] == []
        assert report["extended_violations"] == []
        assert report["tangency_violations"] == []

    @pytest.mark.parametrize("name", BUILTIN_SEEDS)
    def test_float_packings_verify(self, name):
        report = verify_packing(_float_depth_eight(name))
        assert report["ok"]
        assert report["max_extended_residual"] <= FLOAT_TOL
        assert list(report)[-3:] == [
            "max_norm_residual",
            "max_extended_residual",
            "max_tangency_residual",
        ]

    @pytest.mark.parametrize("name", BUILTIN_SEEDS)
    def test_float_tolerance_is_scale_relative(self, name):
        # Shifting the largest component of a deepest disk by 1e-6 of its
        # size is a violation; a 2-ulp shift is rounding and passes.
        p = _float_depth_eight(name)
        i = len(p.disks) - 1
        d = p.disks[i]
        key = max(COMPONENTS, key=lambda c: abs(getattr(d, c)))
        value = getattr(d, key)
        moved = math.nextafter(math.nextafter(value, math.inf), math.inf)
        for shifted, ok in ((value + 1e-6 * abs(value), False), (moved, True)):
            copy = dataclasses.replace(p, disks=list(p.disks))
            copy.disks[i] = dataclasses.replace(d, **{key: shifted})
            report = verify_packing(copy)
            assert report["ok"] is ok
            flagged = i in report["norm_violations"] or any(
                i in v[1:] for v in report["tangency_violations"]
            )
            assert flagged is not ok
            assert (report["max_extended_residual"] <= FLOAT_TOL) is ok

    def test_float_overflow_is_a_violation(self):
        # <d, d> overflows to -inf and the scale to inf: inf/inf is NaN,
        # which must count as a violation and report as inf.
        p = generate(PackingConfig(seed="window", max_depth=1, mode="float"))
        p.disks[5] = dataclasses.replace(p.disks[5], xr=1e200)
        report = verify_packing(p)
        assert not report["ok"]
        assert report["norm_violations"] == [5]
        assert report["max_norm_residual"] == math.inf

    def test_violations_reported(self):
        p = generate(PackingConfig(seed="window", max_depth=1))
        from apollonian.disks import DiskSymbol
        from apollonian.field import ONE, ZERO

        p.disks[0] = DiskSymbol(ZERO, ZERO, ONE, ONE)  # norm broken
        report = verify_packing(p)
        assert not report["ok"]
        assert 0 in report["norm_violations"]

    @pytest.mark.parametrize("name", BUILTIN_SEEDS + ("inverted",))
    def test_deep_disk_change_is_caught(self, name):
        # A deep disk changed by 1 in xr breaks its own norm and the
        # identity of the deepest row that holds it.
        p = fresh_copy(name, 3)
        qi = len(p.quadruples) - 1
        indices, depth = p.quadruples[qi]
        i = next(i for i in indices if p.disk_depths[i] == depth)
        p.disks[i] = dataclasses.replace(p.disks[i], xr=p.disks[i].xr + 1)
        report = verify_packing(p)
        assert report == oracle_verify(p)
        assert qi in report["extended_violations"]
        assert i in report["norm_violations"]

    @pytest.mark.parametrize("name", BUILTIN_SEEDS)
    def test_rejected_rows_certify_nothing(self, name):
        # Doubling every symbol keeps each row the reflection of its
        # parent but makes every norm -4 and every pair +4: a check that
        # trusted the reflection step would pass all rows below depth 0.
        p = fresh_copy(name, 2)
        p.disks[:] = [d.scaled(FieldElement(2)) for d in p.disks]
        report = verify_packing(p)
        assert report == oracle_verify(p)
        assert report["extended_violations"] == list(range(len(p.quadruples)))
        assert report["norm_violations"] == list(range(len(p.disks)))

    @pytest.mark.parametrize("order", ["reversed", "shuffled"])
    @pytest.mark.parametrize("name", BUILTIN_SEEDS + ("inverted",))
    def test_row_order_changes_neither_report_nor_work(self, name, order, monkeypatch):
        # Every row is checked on integer rows in list order, so the
        # order changes nothing, and exact verify does no field
        # arithmetic: no FieldElement inner product in either order.
        p = fresh_copy(name, 3)
        calls = []

        def counting_inner(x, y):
            calls.append(None)
            return inner(x, y)

        monkeypatch.setattr(descartes, "inner", counting_inner)
        expected = verify_packing(p)
        in_order = len(calls)
        if order == "reversed":
            p.quadruples.reverse()
        else:
            random.Random(7).shuffle(p.quadruples)
        del calls[:]
        report = verify_packing(p)
        assert len(calls) == in_order == 0
        assert report == expected

    def test_report_key_order(self):
        report = verify_packing(generate(PackingConfig(seed="window", max_depth=1)))
        assert list(report) == [
            "mode",
            "disk_count",
            "quadruple_count",
            "norm_violations",
            "extended_violations",
            "tangency_violations",
            "ok",
        ]


def oracle_verify(p):
    """Reference exact verifier: norms, the matrix identity and the 6 tangencies
    of every quadruple, each checked on its own."""
    norm_violations = [i for i, d in enumerate(p.disks) if not norm_ok(d)]
    extended_violations = []
    tangency_violations = []
    for qi, (indices, _) in enumerate(p.quadruples):
        quad = Quadruple(tuple(p.disks[i] for i in indices))
        if not extended_ok(quad):
            extended_violations.append(qi)
        for a in range(4):
            for b in range(a + 1, 4):
                if not tangent(quad[a], quad[b]):
                    tangency_violations.append((qi, indices[a], indices[b]))
    return {
        "mode": p.mode,
        "disk_count": len(p.disks),
        "quadruple_count": len(p.quadruples),
        "norm_violations": norm_violations,
        "extended_violations": extended_violations,
        "tangency_violations": tangency_violations,
        "ok": not (norm_violations or extended_violations or tangency_violations),
    }


@lru_cache(maxsize=None)
def _float_depth_eight(name):
    return generate(PackingConfig(seed=name, max_depth=8, mode="float"))


@lru_cache(maxsize=None)
def _exact_packing(name, depth):
    seed = inverted_seed("window", Fraction(18, 7)) if name == "inverted" else name
    return generate(PackingConfig(seed=seed, max_depth=depth))


def fresh_copy(name, depth=1):
    """A mutable copy of an exact packing; name "inverted" is an inverted window."""
    p = _exact_packing(name, depth)
    return dataclasses.replace(p, disks=list(p.disks), quadruples=list(p.quadruples))


COMPONENTS = ("xr", "yr", "beta", "gamma")
small_rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
nonzero_deltas = st.builds(FieldElement, *[small_rationals] * 4).filter(bool)


def perturb_component(p, data):
    i = data.draw(st.integers(0, len(p.disks) - 1))
    name = data.draw(st.sampled_from(COMPONENTS))
    d = p.disks[i]
    p.disks[i] = dataclasses.replace(d, **{name: getattr(d, name) + data.draw(nonzero_deltas)})


def swap_index(p, data):
    qi = data.draw(st.integers(0, len(p.quadruples) - 1))
    a = data.draw(st.integers(0, 3))
    indices, depth = p.quadruples[qi]
    replaced = list(indices)
    replaced[a] = data.draw(st.integers(0, len(p.disks) - 1).filter(lambda j: j != indices[a]))
    p.quadruples[qi] = (tuple(replaced), depth)


def repeat_index(p, data):
    qi = data.draw(st.integers(0, len(p.quadruples) - 1))
    a, b = data.draw(st.permutations(range(4)))[:2]
    indices, depth = p.quadruples[qi]
    replaced = list(indices)
    replaced[b] = indices[a]
    p.quadruples[qi] = (tuple(replaced), depth)
    return qi


def break_identity(p, data):
    # Inversion in the unit circle keeps the norm, so the quadruples that
    # hold the new disk fail only through their pair products.
    movable = [j for j, d in enumerate(p.disks) if d.beta != d.gamma]
    i = data.draw(st.sampled_from(movable))
    p.disks[i] = invert_unit_circle(p.disks[i])


def slide_to_mirror(p, data):
    # d + s(d' - d), d' the mirror of d in a quadruple: the three
    # tangencies of that quadruple hold, so it fails only through the norm.
    qi = data.draw(st.integers(0, len(p.quadruples) - 1))
    a = data.draw(st.integers(0, 3))
    s = data.draw(small_rationals.filter(lambda s: s not in (0, 1)))
    indices, _ = p.quadruples[qi]
    d = p.disks[indices[a]]
    mirror = reflect_fourth(Quadruple(tuple(p.disks[i] for i in indices)), a)
    p.disks[indices[a]] = d + (mirror - d).scaled(FieldElement(s))
    return qi


def shuffle_rows(p, data):
    # Children may come before their parents; maybe a disk is also moved.
    p.quadruples[:] = data.draw(st.permutations(p.quadruples))
    if data.draw(st.booleans()):
        perturb_component(p, data)


def duplicate_row(p, data):
    # A repeated row shares all four disks with an accepted row.
    row = data.draw(st.sampled_from(p.quadruples))
    p.quadruples.insert(data.draw(st.integers(0, len(p.quadruples))), row)
    if data.draw(st.booleans()):
        perturb_component(p, data)


CORRUPTIONS = [
    perturb_component,
    swap_index,
    repeat_index,
    break_identity,
    slide_to_mirror,
    shuffle_rows,
    duplicate_row,
]


def check_against_oracle(p, corrupt, data):
    qi = corrupt(p, data)
    report = verify_packing(p)
    assert report == oracle_verify(p)
    if corrupt is repeat_index:
        # (i, i) is judged as a pair, +1, not as a norm.
        assert report["norm_violations"] == []
        assert qi in report["extended_violations"]
        assert any(v[0] == qi and v[1] == v[2] for v in report["tangency_violations"])
    if corrupt is break_identity:
        assert report["norm_violations"] == []
    if corrupt is slide_to_mirror:
        assert qi in report["extended_violations"]
        assert not any(v[0] == qi for v in report["tangency_violations"])


class TestVerifyOracle:
    @pytest.mark.parametrize("corrupt", CORRUPTIONS)
    @given(name=st.sampled_from(BUILTIN_SEEDS), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_three_pass_oracle(self, corrupt, name, data):
        check_against_oracle(fresh_copy(name), corrupt, data)

    # Depth 3 has rows three reflections from the seed, whose
    # coefficients have grown; the oracle costs about 0.3 s there, hence
    # fewer examples.
    @pytest.mark.parametrize("corrupt", CORRUPTIONS)
    @given(name=st.sampled_from(BUILTIN_SEEDS + ("inverted",)), data=st.data())
    @settings(max_examples=5, deadline=None)
    def test_matches_oracle_at_depth_three(self, corrupt, name, data):
        check_against_oracle(fresh_copy(name, 3), corrupt, data)


def spectrum_by_scan(p):
    """Reference spectrum: one list scan per disk, then the same sort."""
    groups = []
    for beta in p.curvatures():
        for idx, (value, count) in enumerate(groups):
            if value == beta:
                groups[idx] = (value, count + 1)
                break
        else:
            groups.append((beta, 1))
    if p.mode == "exact":
        groups.sort(key=cmp_to_key(lambda a, b: (a[0] - b[0]).sign()))
    else:
        groups.sort(key=lambda pair: pair[0])
    return groups


@pytest.mark.parametrize("exponent", [154, 160])
def test_spectrum_and_classification_past_the_float_range(exponent):
    # Inverted at radius 10^-154, 40 of the 45 curvatures of depth 3 have
    # no float; at 10^-160 none has: comparisons fall back to exact signs.
    seed = inverted_seed("window", Fraction(1, 10**exponent))
    p = generate(PackingConfig(seed=seed, max_depth=3))
    assert curvature_spectrum(p) == spectrum_by_scan(p)
    smallest = min(p.curvatures(), key=cmp_to_key(lambda a, b: (a - b).sign()))
    verdict = classify(p)
    assert verdict.min_curvature == smallest
    assert (verdict.tag, verdict.zero_curvature_disks) == ("A", 0)


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("name", BUILTIN_SEEDS)
def test_spectrum_matches_list_scan(name, mode):
    p = generate(PackingConfig(seed=name, max_depth=3, mode=mode))
    expected = spectrum_by_scan(p)
    got = curvature_spectrum(p)
    assert got == expected
    # same first-seen key objects, not merely equal values
    assert all(g[0] is e[0] for g, e in zip(got, expected))
