import hashlib
import random
import warnings
from collections import Counter

import pytest

from k3motive.builders import (
    Census,
    KummerParams,
    ProfileError,
    build_kummer,
    build_type1_smooth,
    build_type2_chain,
    build_type3,
    icosahedron,
    kummer_r2_abelian,
    octahedron,
    refine_sphere,
    tetrahedron,
    torus_grid,
    torus_negation,
    KUMMER_GENERIC_CLASS,
    KUMMER_SPECIAL_CLASS,
)
from k3motive.deltaset import (
    DeltaSet,
    Involution,
    Shape,
    cycle_pairing,
    euler_characteristic,
    homology,
    recognize,
    top_cycle_generator,
)
from k3motive.fibers import (Component, DegenerationFiber, DoubleCurve,
                             Rational, TriplePoint, degeneration_type,
                             validate)
from k3motive.integrals import (
    RamifiedParams,
    acampo_chi,
    integral_from_neron,
    integral_kulikov,
    serre_hodge_check,
    closed_form_integral,
    verify_fiber,
)
from k3motive.motives import EllipticCurveAtom, MotiveClass
from k3motive.weightss import monodromy_gram, type2_h1_row
from test_deltaset import nested_faces

L = MotiveClass.lefschetz


class TestBuiltinSpheres:
    def test_counts(self):
        assert tetrahedron().counts == (4, 6, 4)
        assert octahedron().counts == (6, 12, 8)
        assert icosahedron().counts == (12, 30, 20)

    def test_all_spheres(self):
        for tri in (tetrahedron(), octahedron(), icosahedron()):
            assert recognize(tri) == Shape.SPHERE2


class TestType2Builder:
    def test_default_m2(self):
        f = build_type2_chain(2)
        assert len(f.components) == 3
        assert len(f.double_curves) == 2
        assert all(d.genus == 1 for d in f.double_curves)
        assert degeneration_type(f) == 2

    def test_m1(self):
        f = build_type2_chain(1)
        assert len(f.components) == 2
        assert degeneration_type(f) == 2

    def test_custom_profile(self):
        f = build_type2_chain(4, (5, 2, 3, 4, 6))
        rep = verify_fiber(f)
        assert rep.match is True
        assert rep.r == 16

    def test_bad_profile_sum(self):
        with pytest.raises(ProfileError):
            build_type2_chain(2, (10, 10, 10))

    @pytest.mark.parametrize("m", [True, 2.0], ids=["bool", "float"])
    def test_non_int_length_refused(self, m):
        with pytest.raises(ValueError,
                           match="^chain length %s is not an integer$" % m):
            build_type2_chain(m)

    def test_m1_json_round_trip(self):
        from k3motive.serialize import fiber_from_json, fiber_to_json
        f = build_type2_chain(1)
        assert fiber_from_json(fiber_to_json(f)) == f

    def test_closed_form_equality(self):
        atom = EllipticCurveAtom("E")
        for m in range(1, 8):
            f = build_type2_chain(m)
            _, _, _, r1 = type2_h1_row(m)
            assert r1 == m * m
            expected = closed_form_integral(
                RamifiedParams(e=1, s=2, r=r1, elliptic_atom=atom))
            assert integral_kulikov(f) == expected


class TestType3Builder:
    def test_tetrahedron(self):
        f = build_type3("tetrahedron")
        assert validate(f) == []
        assert degeneration_type(f) == 3
        assert (len(f.components), len(f.double_curves),
                len(f.triple_points)) == (4, 6, 4)

    def test_octahedron_default_profile(self):
        f = build_type3("octahedron")
        assert sum(c.kind.a for c in f.components) == 36

    def test_icosahedron_middle_coefficient(self):
        f = build_type3("icosahedron")
        integral = integral_kulikov(f)
        from k3motive.motives import POINT
        assert integral.coefficient(POINT, 1) == 0

    def test_closed_forms(self):
        for name, r2 in (("tetrahedron", 4), ("octahedron", 8),
                         ("icosahedron", 20)):
            f = build_type3(name)
            expected = closed_form_integral(RamifiedParams(e=1, s=3, r=r2))
            assert integral_kulikov(f) == expected
            assert monodromy_gram(f).r_d == r2

    def test_non_sphere_rejected(self):
        with pytest.raises(ValueError):
            build_type3(torus_grid(3, 3))

    def test_euler_count_identity(self):
        for name in ("tetrahedron", "octahedron", "icosahedron"):
            f = build_type3(name)
            v, e, faces = (len(f.components), len(f.double_curves),
                           len(f.triple_points))
            assert v - e + faces == 2
            assert 3 * faces == 2 * e
            assert v == faces // 2 + 2

    def test_bad_profile(self):
        with pytest.raises(ProfileError):
            build_type3("tetrahedron", (1, 1, 1, 1))

    @pytest.mark.parametrize("build, profile, bad", [
        (lambda p: build_type2_chain(1, p), [10.5, 10.0], "10.5"),
        (lambda p: build_type2_chain(1, p), ["10", 10], "'10'"),
        (lambda p: build_type2_chain(1, p), [True, 19], "True"),
        (lambda p: build_type3("tetrahedron", p), [7.9, 7, 7, 7], "7.9"),
        (lambda p: build_type3("tetrahedron", p), [7, 7, 7, 7.0], "7.0"),
    ], ids=["float", "string", "bool", "type3-float", "type3-whole-float"])
    def test_non_int_profile_refused(self, build, profile, bad):
        # entries are refused, not truncated or parsed
        with pytest.raises(ProfileError,
                           match="profile entry %s is not an integer" % bad):
            build(profile)


class TestRefineSphere:
    def test_barycentric_counts(self):
        assert refine_sphere(tetrahedron(), 1).n(2) == 24
        assert refine_sphere(octahedron(), 1).n(2) == 48

    def test_zero_steps_identity(self):
        tri = octahedron()
        assert refine_sphere(tri, 0) == tri

    def test_edge_split(self):
        assert refine_sphere(tetrahedron(), 2, style="edge_split").n(2) == 64

    def test_generator_after_refinement(self):
        tri = refine_sphere(octahedron(), 1)
        gen = top_cycle_generator(tri, 2)
        assert all(abs(c) == 1 for c in gen.coefficients)
        assert cycle_pairing(gen, gen) == 48

    def test_rejects_non_sphere(self):
        with pytest.raises(ValueError):
            refine_sphere(torus_grid(2, 2), 1)

    def test_negative_steps_refused(self):
        with pytest.raises(ValueError,
                           match="^steps -1 is not a non-negative integer$"):
            refine_sphere(octahedron(), -1)

    def test_unknown_style_refused(self):
        with pytest.raises(ValueError,
                           match="^unknown refinement style 'nope'$"):
            refine_sphere(octahedron(), 1, style="nope")


def nerve_fiber_reference(label, comps, nerve):
    """The nerve fiber as ``builders`` built it before its C-level passes:
    one double curve per edge and one triple point per triangle, in a
    loop."""
    curves = [DoubleCurve(e, nerve.faces(1, e)[::-1], 0)
              for e in nerve.simplices(1)]
    triples = [TriplePoint(t, nerve.faces(2, t)) for t in nerve.simplices(2)]
    return DegenerationFiber.of(label, comps, curves, triples)


def constructed_components(fiber):
    """The fiber's rational components, each record built by its
    constructor."""
    return [Component(c.id, Rational(c.kind.a)) for c in fiber.components]


class TestNerveFiber:
    def test_matches_per_simplex_reference(self):
        # the library builds these records from rows; record equality
        # checks the class, so each must match a constructor-built one
        ladder = [tetrahedron(), icosahedron(),
                  refine_sphere(icosahedron(), 1, "barycentric")]
        ladder += [refine_sphere(octahedron(), k, "edge_split")
                   for k in range(4)]
        for tri in ladder:
            f = build_type3(tri)
            assert f == nerve_fiber_reference(
                f.label, constructed_components(f), tri)
        for m1, m2 in ((2, 2), (4, 6), (8, 18), (30, 30)):
            rep = build_kummer(KummerParams(m1, m2))
            assert rep.fiber == nerve_fiber_reference(
                rep.fiber.label, constructed_components(rep.fiber),
                rep.nerve)


class TestTorusGrid:
    def test_homology(self):
        ds = torus_grid(4, 2)
        assert homology(ds, 0) == (1, ())
        assert homology(ds, 1) == (2, ())
        assert homology(ds, 2) == (1, ())

    def test_negation_is_free(self):
        for m1, m2 in ((2, 2), (2, 4), (6, 4)):
            _, sigma = torus_negation(m1, m2)
            assert sigma.is_free_on_positive()
            assert len(sigma.fixed_vertices()) == 4


def _reference_tables(m1, m2):
    # the dict-keyed grid builder that arithmetic ids replaced, verbatim
    if m1 < 1 or m2 < 1:
        raise ValueError("grid sides must be positive")
    vid = lambda i, j: (i % m1) * m2 + (j % m2)
    edges = []
    eid = {}
    for i in range(m1):
        for j in range(m2):
            for kind, (a, b) in (("h", ((i, j), (i + 1, j))),
                                 ("v", ((i, j), (i, j + 1))),
                                 ("d", ((i, j), (i + 1, j + 1)))):
                eid[(kind, i, j)] = len(edges)
                edges.append((vid(*b), vid(*a)))
    tris = []
    tid = {}
    for i in range(m1):
        for j in range(m2):
            tid[("L", i, j)] = len(tris)
            tris.append((eid[("v", (i + 1) % m1, j)], eid[("d", i, j)],
                         eid[("h", i, j)]))
            tid[("U", i, j)] = len(tris)
            tris.append((eid[("h", i, (j + 1) % m2)], eid[("d", i, j)],
                         eid[("v", i, j)]))
    return DeltaSet(m1 * m2, [edges, tris]), vid, eid, tid


def grid_reference(m1, m2):
    """The dict-keyed grid torus and its negation maps, verbatim but for
    the last line: the raw maps, so that odd sides give maps too."""
    ds, vid, eid, tid = _reference_tables(m1, m2)
    vmap = [0] * (m1 * m2)
    emap = [0] * ds.n(1)
    tmap = [0] * ds.n(2)
    for i in range(m1):
        for j in range(m2):
            vmap[vid(i, j)] = vid(-i, -j)
            emap[eid[("h", i, j)]] = eid[("h", (-i - 1) % m1, (-j) % m2)]
            emap[eid[("v", i, j)]] = eid[("v", (-i) % m1, (-j - 1) % m2)]
            emap[eid[("d", i, j)]] = eid[("d", (-i - 1) % m1, (-j - 1) % m2)]
            tmap[tid[("L", i, j)]] = tid[("U", (-i - 1) % m1, (-j - 1) % m2)]
            tmap[tid[("U", i, j)]] = tid[("L", (-i - 1) % m1, (-j - 1) % m2)]
    return ds, [vmap, emap, tmap]


# the first stabilized edge the dict-keyed builder's negation reported, by
# grid; every other grid with sides in 1..8 gives an involution
ODD_SIDE_EDGE = {
    (1, 3): 4, (1, 5): 7, (1, 7): 10, (2, 3): 4, (2, 5): 7, (2, 7): 10,
    (3, 1): 3, (3, 2): 6, (3, 3): 4, (3, 4): 12, (3, 5): 7, (3, 6): 18,
    (3, 7): 10, (3, 8): 24, (4, 3): 4, (4, 5): 7, (4, 7): 10, (5, 1): 6,
    (5, 2): 12, (5, 3): 4, (5, 4): 24, (5, 5): 7, (5, 6): 36, (5, 7): 10,
    (5, 8): 48, (6, 3): 4, (6, 5): 7, (6, 7): 10, (7, 1): 9, (7, 2): 18,
    (7, 3): 4, (7, 4): 36, (7, 5): 7, (7, 6): 54, (7, 7): 10, (7, 8): 72,
    (8, 3): 4, (8, 5): 7, (8, 7): 10,
}

# sha256 of repr(nested_faces(nerve)): 4 x 6, 18 x 18 and 30 x 30 from the
# dict-keyed builder, the rest (every shape the kummer-nerve benchmark draws
# at areas 64 to 256) from the per-simplex construction checks
NERVE_DIGESTS = {
    (4, 6): "db19624ccd950a7f99ec82e880ccb74cf416d4eb5ed157c5785b28e0e89188ca",
    (4, 16):
        "23836b501fea5a3ae5661221ee0514ff59c5910df743ecc72221af1c997f02e5",
    (8, 8): "af725c5ba11e6b8a3e89f23ff4282582487db967de976ea44d94c8eee21f1b1a",
    (16, 4):
        "90ddb41345d07ca27eacacadfea0aa8c59a7785c28e9912f3e5ebbe14c030ed7",
    (6, 24):
        "f72c6a6d2cfb90428ca1e13eb9a57a34655e68d43ba2b3af59131224f9841d7c",
    (8, 18):
        "cab37edbd014f06c9c5602a99ab93c1d6916f0885442358e1271c357ab830d9c",
    (12, 12):
        "07a685708a047b1a80d0052f6ef376fd259f8ef9dac960101da4a01335c73d17",
    (18, 8):
        "94f315ec86691e0671852f07c52f31c821817a7e0e225792a7f4c2cf61a9520e",
    (24, 6):
        "2aa3a964532ec575e5f2fb01246e7fd92eac94d1bfdcd888456d2c6ec4d0e87e",
    (8, 32):
        "2be3b7049da81729ac30e1a23818822710607b788791fbe44f1ff126dea2f7bd",
    (16, 16):
        "e7efdfb6c67532a676cdd890994ec88b9340cc8771ecbb2a8d8eadd3d0d27416",
    (32, 8):
        "f07d49e78cf68ed80775f9b06f6972609331f23f387972ba412c86cdc98a4741",
    (18, 18):
        "b7335280b937ab2e00bd5d181d73849e22a75d18d67689a21f236fee240985b5",
    (30, 30):
        "0b9db5b030d95d9dc1a082f515cefbe33c7a3c420d4992d3800cd5ff0590b40b",
}


class TestGridReference:
    def _same(self, m1, m2):
        ref, maps = grid_reference(m1, m2)
        assert torus_grid(m1, m2) == ref
        try:
            ds, sigma = torus_negation(m1, m2)
        except ValueError as exc:
            return str(exc)
        assert ds == ref
        assert sigma.maps == tuple(tuple(level) for level in maps)
        return None

    def test_small_grids(self):
        for m1 in range(1, 9):
            for m2 in range(1, 9):
                got = self._same(m1, m2)
                if (m1, m2) in ODD_SIDE_EDGE:
                    text = ("1-simplex %d is stabilized but not fixed "
                            "pointwise; refine first" % ODD_SIDE_EDGE[m1, m2])
                    assert got == text
                    ref, maps = grid_reference(m1, m2)
                    with pytest.raises(ValueError) as exc:
                        Involution(ref, maps)
                    assert str(exc.value) == text
                else:
                    assert got is None

    def test_even_squares(self):
        for m in range(2, 33, 2):
            assert self._same(m, m) is None

    def test_bad_sides(self):
        for m1, m2 in ((0, 2), (2, 0), (-1, 4)):
            for build in (torus_grid, torus_negation, _reference_tables):
                with pytest.raises(ValueError,
                                   match="^grid sides must be positive$"):
                    build(m1, m2)

    def test_nerve_digests(self):
        for (m1, m2), digest in NERVE_DIGESTS.items():
            nerve = build_kummer(KummerParams(m1, m2)).nerve
            got = hashlib.sha256(
                repr(nested_faces(nerve)).encode()).hexdigest()
            assert got == digest


def negation_loop_reference(m1, m2):
    """``torus_negation`` as it was before its maps were written by
    formula: one pass over the vertices, verbatim but for its name."""
    ds = torus_grid(m1, m2)
    vmap, emap, tmap = [], [], []
    for i in range(m1):
        neg, neg1 = (-i) % m1 * m2, (-i - 1) % m1 * m2
        for j in range(m2):
            nj, nj1 = (-j) % m2, (-j - 1) % m2
            vmap.append(neg + nj)
            emap += (3 * (neg1 + nj), 3 * (neg + nj1) + 1,
                     3 * (neg1 + nj1) + 2)
            w = 2 * (neg1 + nj1)
            tmap += (w + 1, w)
    return ds, Involution(ds, [vmap, emap, tmap])


class TestNegationLoopReference:
    @staticmethod
    def _outcome(build, m1, m2):
        try:
            ds, sigma = build(m1, m2)
        except ValueError as exc:
            return type(exc), str(exc)
        return ds, sigma.maps

    def test_every_small_grid_and_two_large_ones(self):
        grids = [(m1, m2) for m1 in range(1, 13) for m2 in range(1, 13)]
        for m1, m2 in grids + [(30, 30), (18, 50)]:
            assert self._outcome(torus_negation, m1, m2) == \
                self._outcome(negation_loop_reference, m1, m2), (m1, m2)
        assert self._outcome(torus_negation, 3, 5) == (
            ValueError, "1-simplex 7 is stabilized but not fixed pointwise; "
            "refine first")


class TestKummer:
    def test_2x2(self):
        rep = build_kummer(KummerParams(2, 2))
        assert rep.component_census == Census(generic=0, special=4)
        assert rep.integral == 4 * MotiveClass.one() + L(1, 16) + L(2, 4)
        assert rep.integral == closed_form_integral(
            RamifiedParams(e=1, s=3, r=4))

    def test_2x4(self):
        rep = build_kummer(KummerParams(2, 4))
        assert rep.component_census == Census(generic=2, special=4)
        assert rep.integral == 6 * MotiveClass.one() + L(1, 12) + L(2, 6)

    def test_4x4(self):
        rep = build_kummer(KummerParams(4, 4))
        assert euler_characteristic(rep.nerve) == 2
        assert recognize(rep.nerve) == Shape.SPHERE2
        assert rep.r2_kummer == 16

    def test_census_formula(self):
        for m1, m2 in ((2, 2), (2, 4), (4, 4), (2, 6)):
            rep = build_kummer(KummerParams(m1, m2))
            assert rep.component_census.total == m1 * m2 // 2 + 2
            assert rep.component_census.special == 4

    def test_lattice_r2(self):
        assert kummer_r2_abelian(KummerParams(2, 2)) == (8, 4)
        assert kummer_r2_abelian(KummerParams(2, 4)) == (16, 8)

    def test_r2_above_20_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kummer_r2_abelian(KummerParams(6, 6)) == (72, 36)

    @pytest.mark.parametrize("m1, m2", [(2.0, 4), (4, 2.0), (True, 4),
                                        (4, "6")],
                             ids=["float m1", "float m2", "bool m1", "str m2"])
    def test_inexact_valuations_rejected(self, m1, m2):
        bad = m1 if type(m1) is not int else m2
        with pytest.raises(ValueError,
                           match="valuation %r is not an integer" % bad):
            KummerParams(m1, m2)

    def test_chi_24(self):
        for m1, m2 in ((2, 2), (4, 2), (4, 4)):
            rep = build_kummer(KummerParams(m1, m2))
            assert rep.integral.euler_characteristic() == 24

    def test_grid_quotient_pairing(self):
        for m1, m2 in ((2, 2), (2, 4), (4, 4)):
            rep = build_kummer(KummerParams(m1, m2))
            assert rep.nerve.n(2) == m1 * m2
            gen = top_cycle_generator(rep.nerve, 2)
            assert all(abs(c) == 1 for c in gen.coefficients)
            assert cycle_pairing(gen, gen) == m1 * m2 == rep.r2_kummer

    def test_32x32_at_default_recursion_limit(self):
        # 1024 orbit triangles: past the default recursion limit, which a
        # search recursing once per triangle could not get through
        import sys
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            rep = build_kummer(KummerParams(32, 32))
        finally:
            sys.setrecursionlimit(old)
        assert recognize(rep.nerve) == Shape.SPHERE2
        assert rep.nerve.counts == (514, 1536, 1024)
        assert rep.component_census == Census(generic=510, special=4)

    def test_40x40(self):
        # the checks of the benchmark's kummer-nerve workload
        rep = build_kummer(KummerParams(40, 40))
        assert rep.nerve.n(0) - rep.nerve.n(1) + rep.nerve.n(2) == 2
        assert rep.nerve.n(2) == 1600
        assert rep.component_census.total == 1600 // 2 + 2
        assert (rep.r2_abelian, rep.r2_kummer) == (3200, 1600)
        assert integral_from_neron(rep.neron_data()) == rep.integral

    def test_neron_route(self):
        rep = build_kummer(KummerParams(2, 4))
        assert integral_from_neron(rep.neron_data()) == rep.integral

    def test_fiber_is_type3_kulikov(self):
        for m1, m2 in ((2, 2), (2, 4), (4, 6), (6, 4), (8, 8)):
            rep = build_kummer(KummerParams(m1, m2))
            f = rep.fiber
            assert validate(f) == []
            assert degeneration_type(f) == 3
            kinds = [c.kind for c in f.components]
            assert kinds.count(Rational(7)) == 4
            assert kinds.count(Rational(4)) == len(kinds) - 4 \
                == m1 * m2 // 2 - 2
            assert rep.r2_kummer == len(f.triple_points) == m1 * m2
            rep_v = verify_fiber(f)
            assert rep_v.match and rep_v.chi == 24 and rep_v.r == m1 * m2
            assert rep_v.integral == rep.integral

    def test_profile_from_the_anticanonical_cycle(self):
        # each component carries its double curves as an anticanonical
        # cycle of (-1, -1) curves, so a = 10 - (number of double curves
        # on it): read off the fiber's incidences, with no orbit numbering
        for m1 in range(2, 31, 2):
            for m2 in range(2, 31, 2):
                f = build_kummer(KummerParams(m1, m2)).fiber
                assert all(len(set(d.on)) == 2 for d in f.double_curves)
                valence = Counter(c for d in f.double_curves for c in d.on)
                assert [c.kind.a for c in f.components] == \
                    [10 - valence[c.id] for c in f.components], (m1, m2)

    def test_odd_params_rejected(self):
        with pytest.raises(ValueError):
            KummerParams(3, 2)
        with pytest.raises(ValueError):
            KummerParams(2, 0)

    def test_class_constants(self):
        assert KUMMER_GENERIC_CLASS.euler_characteristic() == 0
        assert KUMMER_SPECIAL_CLASS.euler_characteristic() == 6


class TestType1:
    def test_smooth(self):
        f = build_type1_smooth()
        assert degeneration_type(f) == 1
        assert acampo_chi(f) == 24


class TestAllBuildersInvariants:
    def test_chi_and_serre(self):
        fibers = [build_type1_smooth()]
        fibers += [build_type2_chain(m) for m in (1, 2, 3, 5)]
        fibers += [build_type3(n) for n in ("tetrahedron", "octahedron",
                                            "icosahedron")]
        for f in fibers:
            assert acampo_chi(f) == 24
            assert serre_hodge_check(f) is True


# Euler characteristics by kind, from the Betti numbers: a rational surface
# with b2 = a, an elliptic ruled surface with b1 = b3 = 2 and b2 = a + 2, a
# K3 surface, and a rational or elliptic double curve
CHI_OF_KIND = {"Rational": lambda k: 2 + k.a, "RuledElliptic": lambda k: k.a,
               "K3Smooth": lambda k: 24}
CHI_OF_GENUS = {0: 2, 1: 0}


def oracle_chi(f):
    """The Euler characteristic of a semistable degeneration's general
    fiber, sum chi(V) - 2 sum chi(C) + 3 T, from the table above alone."""
    return (sum(CHI_OF_KIND[type(c.kind).__name__](c.kind)
                for c in f.components)
            - 2 * sum(CHI_OF_GENUS[d.genus] for d in f.double_curves)
            + 3 * len(f.triple_points))


def seeded_profile(rng, parts, total):
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


class TestEulerOracle:
    """Every builder's output gives chi = 24 by the table, and the library's
    chi agrees."""

    def fibers(self):
        rng = random.Random(1724)
        yield build_type1_smooth()
        for m in range(1, 7):
            yield build_type2_chain(m)
            for _ in range(3):
                yield build_type2_chain(m, seeded_profile(rng, m + 1, 20))
        for base in (tetrahedron, octahedron, icosahedron):
            for steps, style in ((0, "barycentric"), (1, "barycentric"),
                                 (2, "edge_split")):
                tri = refine_sphere(base(), steps, style)
                yield build_type3(tri)
                yield build_type3(tri, seeded_profile(
                    rng, tri.n(0), 20 + 2 * tri.n(2)))
        for m1 in (2, 4, 6, 8):
            for m2 in (2, 4, 6, 8):
                yield build_kummer(KummerParams(m1, m2)).fiber

    def test_chi_is_24(self):
        seen = 0
        for f in self.fibers():
            assert oracle_chi(f) == 24, f.label
            assert acampo_chi(f) == 24, f.label
            seen += 1
        assert seen == 1 + 6 * 4 + 3 * 3 * 2 + 16
