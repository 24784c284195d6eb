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
    Shape,
    cycle_pairing,
    euler_characteristic,
    homology,
    recognize,
    top_cycle_generator,
)
from k3motive.fibers import NonKulikovError, degeneration_type, validate
from k3motive.integrals import (
    GeometricRealizabilityWarning,
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

    def test_r2_above_20_warns(self):
        with pytest.warns(GeometricRealizabilityWarning):
            assert kummer_r2_abelian(KummerParams(6, 6)) == (72, 36)

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
            with pytest.warns(GeometricRealizabilityWarning):
                rep = build_kummer(KummerParams(32, 32))
        finally:
            sys.setrecursionlimit(old)
        assert recognize(rep.nerve) == Shape.SPHERE2
        assert rep.nerve.counts == (514, 1536, 1024)
        assert rep.component_census == Census(generic=510, special=4)

    def test_neron_route(self):
        rep = build_kummer(KummerParams(2, 4))
        assert integral_from_neron(rep.neron_data()) == rep.integral

    def test_fiber_is_honest_but_not_kulikov(self):
        rep = build_kummer(KummerParams(2, 4))
        assert validate(rep.fiber) == []
        with pytest.raises(NonKulikovError):
            degeneration_type(rep.fiber)

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
