import random

import pytest

from k3motive.deltaset import (
    CycleVector,
    DeltaSet,
    Involution,
    QuotientError,
    Shape,
    cohomology,
    cycle_pairing,
    euler_characteristic,
    homology,
    quotient_by_involution,
    recognize,
    refine_barycentric,
    refine_edge_split,
    relabel,
    top_cycle_generator,
)
from k3motive.intlinalg import IntMatrix


# -- fixture complexes -------------------------------------------------------

def complex_from_facets(num_vertices, facets):
    """Delta-set of a 2-dimensional simplicial complex given by its facets
    (sorted vertex triples); edges are induced."""
    edges = sorted({(t[i], t[j]) for t in facets
                    for i in range(3) for j in range(i + 1, 3)})
    eid = {e: i for i, e in enumerate(edges)}
    edge_faces = [(b, a) for a, b in edges]  # d0 = head, d1 = tail
    tri_faces = []
    for a, b, c in facets:
        tri_faces.append((eid[(b, c)], eid[(a, c)], eid[(a, b)]))
    return DeltaSet(num_vertices, [edge_faces, tri_faces])


def tetra():
    return complex_from_facets(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


def octa():
    facets = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 1, 4),
              (1, 2, 5), (2, 3, 5), (3, 4, 5), (1, 4, 5)]
    return complex_from_facets(6, [tuple(sorted(f)) for f in facets])


def circle(m):
    """m-gon; for m = 1 a loop, for m = 2 a pair of parallel edges."""
    return DeltaSet(m, [[((i + 1) % m, i) for i in range(m)]])


def chain(m):
    return DeltaSet(m + 1, [[(i + 1, i) for i in range(m)]])


def rp2():
    # two vertices v=0, w=1; edges a, b from v to w and a loop c at v;
    # boundary of the triangles is (b - a + c) and (a - b + c)
    edges = [(1, 0), (1, 0), (0, 0)]
    tris = [(1, 0, 2), (0, 1, 2)]
    return DeltaSet(2, [edges, tris])


def torus_3x3():
    """3x3 grid torus with the uniform main-diagonal split."""
    m1 = m2 = 3
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
    for i in range(m1):
        for j in range(m2):
            tris.append((eid[("v", (i + 1) % m1, j)], eid[("d", i, j)],
                         eid[("h", i, j)]))
            tris.append((eid[("h", i, (j + 1) % m2)], eid[("d", i, j)],
                         eid[("v", i, j)]))
    return DeltaSet(m1 * m2, [edges, tris])


def torus_grid_with_negation(m1, m2):
    """The m1 x m2 torus grid plus the simultaneous-negation involution."""
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
    ds = DeltaSet(m1 * m2, [edges, tris])
    vmap = [0] * (m1 * m2)
    for i in range(m1):
        for j in range(m2):
            vmap[vid(i, j)] = vid(-i, -j)
    emap = [0] * len(edges)
    for i in range(m1):
        for j in range(m2):
            emap[eid[("h", i, j)]] = eid[("h", (-i - 1) % m1, (-j) % m2)]
            emap[eid[("v", i, j)]] = eid[("v", (-i) % m1, (-j - 1) % m2)]
            emap[eid[("d", i, j)]] = eid[("d", (-i - 1) % m1, (-j - 1) % m2)]
    tmap = [0] * len(tris)
    for i in range(m1):
        for j in range(m2):
            tmap[tid[("L", i, j)]] = tid[("U", (-i - 1) % m1, (-j - 1) % m2)]
            tmap[tid[("U", i, j)]] = tid[("L", (-i - 1) % m1, (-j - 1) % m2)]
    return ds, Involution(ds, [vmap, emap, tmap])


# -- construction ------------------------------------------------------------

class TestConstruction:
    def test_simplicial_identities_enforced(self):
        # triangle whose faces cannot belong to a common vertex ordering
        edges = [(1, 0), (0, 1), (1, 1)]
        with pytest.raises(ValueError):
            DeltaSet(2, [edges, [(0, 1, 2)]])

    def test_face_range_checked(self):
        with pytest.raises(ValueError):
            DeltaSet(2, [[(0, 5)]])

    def test_boundary_squared_is_zero(self):
        for ds in [tetra(), octa(), rp2(), torus_3x3(), circle(4)]:
            for q in range(1, ds.dim + 1):
                prod = ds.boundary_matrix(q) @ ds.boundary_matrix(q + 1)
                assert prod.is_zero()

    def test_vertex_tuple(self):
        ds = tetra()
        for t in ds.simplices(2):
            vts = ds.vertex_tuple(2, t)
            assert len(set(vts)) == 3

    def test_loop_boundary(self):
        ds = circle(1)
        assert ds.boundary_matrix(1).is_zero()


# -- homology ----------------------------------------------------------------

class TestHomology:
    def test_tetrahedron_sphere(self):
        ds = tetra()
        assert homology(ds, 0) == (1, ())
        assert homology(ds, 1) == (0, ())
        assert homology(ds, 2) == (1, ())

    def test_circles(self):
        for m in (1, 2, 5):
            ds = circle(m)
            assert homology(ds, 0) == (1, ())
            assert homology(ds, 1) == (1, ())

    def test_chain_is_contractible(self):
        ds = chain(4)
        assert homology(ds, 0) == (1, ())
        assert homology(ds, 1) == (0, ())

    def test_rp2(self):
        ds = rp2()
        assert homology(ds, 0) == (1, ())
        assert homology(ds, 1) == (0, (2,))
        assert homology(ds, 2) == (0, ())

    def test_torus(self):
        ds = torus_3x3()
        assert homology(ds, 0) == (1, ())
        assert homology(ds, 1) == (2, ())
        assert homology(ds, 2) == (1, ())

    def test_out_of_range(self):
        assert homology(tetra(), 5) == (0, ())
        assert homology(tetra(), -1) == (0, ())

    def test_alternating_sums_match(self):
        for ds in [tetra(), octa(), rp2(), torus_3x3(), circle(3), chain(2)]:
            chi_cells = euler_characteristic(ds)
            chi_betti = sum((-1) ** q * homology(ds, q)[0]
                            for q in range(ds.dim + 1))
            assert chi_cells == chi_betti


class TestCohomology:
    def test_tetrahedron(self):
        ds = tetra()
        assert cohomology(ds, 0) == (1, ())
        assert cohomology(ds, 1) == (0, ())
        assert cohomology(ds, 2) == (1, ())

    def test_interval(self):
        ds = chain(3)
        assert cohomology(ds, 0) == (1, ())
        assert cohomology(ds, 1) == (0, ())

    def test_rp2_torsion_shifts_up(self):
        ds = rp2()
        assert cohomology(ds, 1) == (0, ())
        assert cohomology(ds, 2) == (0, (2,))

    @pytest.mark.filterwarnings(
        "ignore::k3motive.integrals.GeometricRealizabilityWarning")
    def test_matches_transposed_boundaries(self):
        from k3motive.builders import KummerParams, build_kummer, icosahedron
        from k3motive.intlinalg import invariant_factors, rank

        def transposed_route(ds, q):
            up = ds.boundary_matrix(q + 1).transpose()
            down = ds.boundary_matrix(q).transpose()
            betti = ds.n(q) - rank(up) - rank(down)
            return (betti, tuple(d for d in invariant_factors(down) if d > 1))

        for ds in (rp2(), torus_3x3(), refine_barycentric(icosahedron()),
                   build_kummer(KummerParams(4, 6)).nerve):
            for q in range(-1, ds.dim + 2):
                expected = transposed_route(ds, q) if 0 <= q <= ds.dim \
                    else (0, ())
                assert cohomology(ds, q) == expected, (ds, q)


# -- sparse boundaries --------------------------------------------------------

class TestSparseBoundaries:
    """The cached sparse elimination, fed straight from the face lists,
    against the public dense route."""

    @staticmethod
    def complexes():
        from k3motive.builders import KummerParams, build_kummer, icosahedron
        return [rp2(), circle(2), torus_3x3(), tetra(),
                refine_barycentric(icosahedron()), chain(5),
                build_kummer(KummerParams(4, 6)).nerve]

    @staticmethod
    def dense_from_faces(ds, q):
        data = [[0] * ds.n(q) for _ in range(ds.n(q - 1))]
        for s in ds.simplices(q):
            for j, f in enumerate(ds.faces(q, s)):
                data[f][s] += (-1) ** j
        return IntMatrix(data, cols=ds.n(q))

    @pytest.mark.filterwarnings(
        "ignore::k3motive.integrals.GeometricRealizabilityWarning")
    def test_cached_reduction_matches_dense_route(self):
        from k3motive.deltaset import _boundary_reduction
        from k3motive.intlinalg import kernel_basis, rank_and_invariants

        _boundary_reduction.cache_clear()
        for ds in self.complexes():
            assert ds.boundary_matrix(0) == IntMatrix.zeros(0, ds.n(0))
            assert ds.boundary_matrix(ds.dim + 1) == \
                IntMatrix.zeros(ds.n(ds.dim), 0)
            for q in range(1, ds.dim + 1):
                dense = self.dense_from_faces(ds, q)
                assert ds.boundary_matrix(q) == dense, (ds, q)
                assert _boundary_reduction(ds, q)[:2] == \
                    rank_and_invariants(dense), (ds, q)
            for q in (0, ds.dim + 1):
                assert _boundary_reduction(ds, q)[:2] == (0, ())
            top = ds.boundary_matrix(ds.dim)
            kernel = kernel_basis(top)
            assert _boundary_reduction(ds, ds.dim)[2] == \
                tuple(kernel.col(k) for k in range(kernel.cols)), ds

    def test_point_top_cycle(self):
        assert top_cycle_generator(DeltaSet(1), 0) == CycleVector(0, (1,))


# -- top cycles --------------------------------------------------------------

class TestTopCycle:
    def test_tetrahedron_generator(self):
        ds = tetra()
        gen = top_cycle_generator(ds, 2)
        assert sorted(abs(c) for c in gen.coefficients) == [1, 1, 1, 1]
        assert gen.coefficients[0] > 0
        assert cycle_pairing(gen, gen) == 4

    def test_octahedron_generator(self):
        ds = octa()
        gen = top_cycle_generator(ds, 2)
        assert all(abs(c) == 1 for c in gen.coefficients)
        assert cycle_pairing(gen, gen) == 8

    def test_circle_generator(self):
        gen = top_cycle_generator(circle(4), 1)
        assert all(abs(c) == 1 for c in gen.coefficients)

    def test_interval_rejected(self):
        with pytest.raises(ValueError):
            top_cycle_generator(chain(3), 1)

    def test_torus_rank2_rejected(self):
        with pytest.raises(ValueError):
            top_cycle_generator(torus_3x3(), 1)

    def test_generator_with_boundaries_present(self):
        # H_1 of the refined circle: kernel of d1 is bigger than H_1, so
        # the boundary-quotient path is exercised
        ds = refine_edge_split(circle(3))
        assert homology(ds, 1) == (1, ())
        gen = top_cycle_generator(ds, 1)
        bm = ds.boundary_matrix(1)
        assert (bm @ IntMatrix.column(gen.coefficients)).is_zero()

    def test_free_part_generator_with_torsion_present(self):
        # disjoint union of a circle and the projective plane: H_1 is
        # Z (+) Z/2, so the generator of the free part is found in the
        # presence of both boundaries and torsion
        rp = rp2()
        edges = [(1, 0), (2, 1), (0, 2)]
        edges += [tuple(v + 3 for v in rp.faces(1, e))
                  for e in rp.simplices(1)]
        tris = [tuple(e + 3 for e in rp.faces(2, t))
                for t in rp.simplices(2)]
        ds = DeltaSet(5, [edges, tris])
        assert homology(ds, 1) == (1, (2,))
        gen = top_cycle_generator(ds, 1)
        assert sorted(abs(c) for c in gen.coefficients[:3]) == [1, 1, 1]
        bm = ds.boundary_matrix(1)
        assert (bm @ IntMatrix.column(gen.coefficients)).is_zero()

    def test_generator_is_primitive(self):
        from math import gcd
        for ds, d in [(tetra(), 2), (octa(), 2), (circle(4), 1),
                      (refine_edge_split(circle(3)), 1)]:
            gen = top_cycle_generator(ds, d)
            g = 0
            for c in gen.coefficients:
                g = gcd(g, c)
            assert g == 1

    def test_pairing_with_zero(self):
        gen = top_cycle_generator(tetra(), 2)
        zero = CycleVector(2, (0,) * 4)
        assert cycle_pairing(gen, zero) == 0

    def test_pairing_mismatch(self):
        gen = top_cycle_generator(tetra(), 2)
        with pytest.raises(ValueError):
            cycle_pairing(gen, CycleVector(1, (1, 0)))


class TestHighDimTopCycle:
    def test_quotient_of_kernel(self):
        # torus H_2: no 3-simplices, kernel rank 1
        gen = top_cycle_generator(torus_3x3(), 2)
        assert all(abs(c) == 1 for c in gen.coefficients)
        assert cycle_pairing(gen, gen) == 18


# -- recognition -------------------------------------------------------------

class TestRecognize:
    def test_point(self):
        assert recognize(DeltaSet(1)) == Shape.POINT

    def test_two_points_other(self):
        assert recognize(DeltaSet(2)) == Shape.OTHER

    def test_interval(self):
        assert recognize(chain(3)) == Shape.INTERVAL
        assert recognize(chain(1)) == Shape.INTERVAL

    def test_circle_not_interval(self):
        assert recognize(circle(3)) == Shape.OTHER

    def test_spheres(self):
        assert recognize(tetra()) == Shape.SPHERE2
        assert recognize(octa()) == Shape.SPHERE2

    def test_torus_other(self):
        assert recognize(torus_3x3()) == Shape.OTHER

    def test_rp2_other(self):
        assert recognize(rp2()) == Shape.OTHER

    def test_relabel_invariance(self):
        rng = random.Random(41)
        for ds in [tetra(), octa(), chain(3), circle(4), torus_3x3()]:
            shape = recognize(ds)
            for _ in range(3):
                perms = []
                for q in range(ds.dim + 1):
                    p = list(range(ds.n(q)))
                    rng.shuffle(p)
                    perms.append(p)
                shuffled = relabel(ds, perms)
                assert recognize(shuffled) == shape
                for q in range(ds.dim + 1):
                    assert homology(shuffled, q) == homology(ds, q)


# -- refinement --------------------------------------------------------------

class TestBarycentric:
    def test_tetra_counts(self):
        sd = refine_barycentric(tetra())
        assert sd.counts == (14, 36, 24)
        assert euler_characteristic(sd) == 2
        assert recognize(sd) == Shape.SPHERE2

    def test_homology_invariance(self):
        for ds in [tetra(), octa(), rp2(), circle(3), chain(2), torus_3x3()]:
            sd = refine_barycentric(ds)
            for q in range(ds.dim + 1):
                assert homology(sd, q) == homology(ds, q)

    def test_interval_refines_to_interval(self):
        assert recognize(refine_barycentric(chain(2))) == Shape.INTERVAL


class TestEdgeSplit:
    def test_tetra_counts(self):
        sd = refine_edge_split(tetra())
        assert sd.counts == (4 + 6, 2 * 6 + 3 * 4, 16)
        assert recognize(sd) == Shape.SPHERE2

    def test_homology_invariance(self):
        for ds in [tetra(), octa(), rp2(), circle(3), torus_3x3()]:
            sd = refine_edge_split(ds)
            for q in range(ds.dim + 1):
                assert homology(sd, q) == homology(ds, q)

    def test_interval(self):
        sd = refine_edge_split(chain(2))
        assert recognize(sd) == Shape.INTERVAL
        assert sd.counts == (5, 4)


# -- quotients ---------------------------------------------------------------

class TestQuotient:
    def test_torus_2x2_negation(self):
        ds, sigma = torus_grid_with_negation(2, 2)
        assert sigma.is_free_on_positive()
        assert len(sigma.fixed_vertices()) == 4
        q = quotient_by_involution(ds, sigma)
        assert q.counts == (4, 6, 4)
        assert euler_characteristic(q) == 2
        assert recognize(q) == Shape.SPHERE2

    def test_torus_4x4_negation(self):
        ds, sigma = torus_grid_with_negation(4, 4)
        q = quotient_by_involution(ds, sigma)
        assert q.counts == (10, 24, 16)
        assert recognize(q) == Shape.SPHERE2
        gen = top_cycle_generator(q, 2)
        assert all(abs(c) == 1 for c in gen.coefficients)

    def test_quotient_by_identity(self):
        ds = tetra()
        ident = Involution(ds, [list(range(ds.n(q)))
                                for q in range(ds.dim + 1)])
        q = quotient_by_involution(ds, ident)
        assert q.counts == ds.counts
        assert recognize(q) == Shape.SPHERE2
        assert homology(q, 2) == homology(ds, 2)

    def test_stabilized_edge_rejected(self):
        # swapping the two vertices of the 2-gon maps each edge to itself
        # reversed: stabilized but not pointwise fixed
        ds = circle(2)
        with pytest.raises(ValueError):
            Involution(ds, [[1, 0], [0, 1]])

    def test_antipodal_circle(self):
        # free rotation of the 4-gon by two steps: quotient is a circle
        ds = circle(4)
        sigma = Involution(ds, [[2, 3, 0, 1], [2, 3, 0, 1]])
        q = quotient_by_involution(ds, sigma)
        assert q.counts == (2, 2)
        assert homology(q, 1) == (1, ())

    def test_reflection_of_circle_gives_interval(self):
        # reflection of the 4-gon across a diagonal: two fixed vertices,
        # edges swapped in pairs; quotient is an interval
        ds = circle(4)
        sigma = Involution(ds, [[0, 3, 2, 1], [3, 2, 1, 0]])
        q = quotient_by_involution(ds, sigma)
        assert q.counts == (3, 2)
        assert recognize(q) == Shape.INTERVAL

    def test_not_an_automorphism_rejected(self):
        ds = circle(4)
        with pytest.raises(ValueError):
            Involution(ds, [[1, 0, 2, 3], [0, 1, 2, 3]])

    def test_quotient_survives_relabelling(self):
        # transport the negation involution through random relabelings and
        # check the quotient is the same sphere each time
        rng = random.Random(97)
        for m1, m2 in ((2, 2), (2, 4), (4, 4), (2, 6), (6, 6)):
            ds, sigma = torus_grid_with_negation(m1, m2)
            base = quotient_by_involution(ds, sigma)
            for _ in range(2):
                perms = []
                for q in range(ds.dim + 1):
                    p = list(range(ds.n(q)))
                    rng.shuffle(p)
                    perms.append(p)
                shuffled = relabel(ds, perms)
                maps = []
                for q in range(ds.dim + 1):
                    mp = [0] * ds.n(q)
                    for s in ds.simplices(q):
                        mp[perms[q][s]] = perms[q][sigma.maps[q][s]]
                    maps.append(mp)
                q_ds = quotient_by_involution(shuffled,
                                              Involution(shuffled, maps))
                assert q_ds.counts == base.counts
                assert recognize(q_ds) == Shape.SPHERE2
                gen = top_cycle_generator(q_ds, 2)
                assert all(abs(c) == 1 for c in gen.coefficients)

    def test_dimension_three_unsupported(self):
        # solid tetrahedron: the 2-sphere plus one 3-cell
        base = tetra()
        tris = [base.faces(2, t) for t in base.simplices(2)]
        solid = DeltaSet(4, [[base.faces(1, e) for e in base.simplices(1)],
                             tris, [(3, 2, 1, 0)]])
        ident = Involution(solid, [list(range(solid.n(q)))
                                   for q in range(solid.dim + 1)])
        with pytest.raises(QuotientError):
            quotient_by_involution(solid, ident)
