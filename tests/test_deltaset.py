import functools
import hashlib
import random
import sys
from itertools import count, permutations

import pytest
from hypothesis import given, settings, strategies as st

from k3motive.builders import (
    KummerParams,
    _nerve_fiber,
    build_kummer,
    icosahedron,
    octahedron,
    tetrahedron,
    torus_grid,
    torus_negation,
)
from k3motive.deltaset import (
    CycleVector,
    DeltaSet,
    Involution,
    QuotientError,
    Shape,
    _take,
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
from k3motive import intlinalg
from k3motive.intlinalg import IntMatrix
from k3motive.fibers import Rational, clemens_polytope, validate
from k3motive.serialize import delta_from_json, delta_to_json, dumps


# -- fixture complexes -------------------------------------------------------

def nested_faces(ds):
    """Every level as a tuple of face tuples, read through ``faces``."""
    return tuple(tuple(ds.faces(q, s) for s in ds.simplices(q))
                 for q in range(1, ds.dim + 1))


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


def circle_plus_rp2():
    """Disjoint union of a triangle circle and RP^2: H_1 = Z (+) Z/2."""
    rp = rp2()
    edges = [(1, 0), (2, 1), (0, 2)]
    edges += [tuple(v + 3 for v in rp.faces(1, e)) for e in rp.simplices(1)]
    tris = [tuple(e + 3 for e in rp.faces(2, t)) for t in rp.simplices(2)]
    return DeltaSet(5, [edges, tris])


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


def top_kernel(ds):
    """A kernel basis of the top boundary map as coefficient tuples, from
    the elimination engine with its kernel tracked."""
    from k3motive.deltaset import _boundary_rows

    kernel = intlinalg._sparse_reduce(_boundary_rows(ds, ds.dim),
                                      ds.n(ds.dim), True)[1]
    return tuple(tuple(col.get(s, 0) for s in ds.simplices(ds.dim))
                 for col in kernel)


def shuffled(ds, rng):
    """ds under a seeded permutation of the simplex ids in each dimension."""
    perms = []
    for q in range(ds.dim + 1):
        p = list(range(ds.n(q)))
        rng.shuffle(p)
        perms.append(p)
    return relabel(ds, perms)


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

    def test_negative_vertex_count_refused(self):
        with pytest.raises(ValueError, match="vertex count -2 is negative"):
            DeltaSet(-2)

    @pytest.mark.parametrize("num_vertices, faces, text", [
        (2.9, (), "vertex count 2.9 is not an integer"),
        (True, (), "vertex count True is not an integer"),
        (2, [[(1.7, 0)]], "face id 1.7 is not an integer"),
        (2, [[(1, 0), (1, False)]], "face id False is not an integer"),
        (3, [[(1, 0), (2, 1), (2, 0)], [(0, 2.0, 1)]],
         "face id 2.0 is not an integer"),
    ], ids=["float-count", "bool-count", "float-face", "bool-face",
            "float-triangle-face"])
    def test_non_int_refused(self, num_vertices, faces, text):
        # refused, not truncated: DeltaSet(2, [[(1.7, 0)]]) is no edge (1, 0)
        with pytest.raises(ValueError) as exc:
            DeltaSet(num_vertices, faces)
        assert str(exc.value) == text

    @pytest.mark.parametrize("maps, text", [
        ([[0, 3, 2, 1], [3.0, 2, 1, 0]],
         "simplex image 3.0 is not an integer"),
        ([[0, 3, 2, 1], [3, 2, True, 0]],
         "simplex image True is not an integer"),
    ], ids=["float", "bool"])
    def test_non_int_involution_refused(self, maps, text):
        with pytest.raises(ValueError) as exc:
            Involution(circle(4), maps)
        assert str(exc.value) == text

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


class TestValidationOrder:
    """Each check reports the first failing simplex, with the text of the
    per-simplex checks."""

    EDGES = [(1, 0), (2, 1), (2, 0)]

    def _raises(self, text, build, *args):
        with pytest.raises(ValueError) as exc:
            build(*args)
        assert str(exc.value) == text

    def test_delta_set(self):
        cases = [
            # an out-of-range id before a simplex with a wrong face count
            ("face id 7 out of range in dimension 1",
             [[(1, 0), (7, 0), (2, 1), (1,)]]),
            ("face id -2 out of range in dimension 1",
             [[(1, 0), (0, -2), (2, 1)]]),
            ("simplex 1 of dimension 1 has 3 faces, expected 2",
             [[(1, 0), (1, 0, 2), (9, 0)]]),
            # an empty middle level leaves no face to point at
            ("face id 0 out of range in dimension 2", [[], [(0, 0, 0)]]),
            ("simplex 1 of dimension 2 has 2 faces, expected 3",
             [self.EDGES, [(0, 1, 2), (0, 1)]]),
            ("face id 3 out of range in dimension 2",
             [self.EDGES, [(0, 2, 1), (0, 3, 1)]]),
            ("simplicial identity fails at 2-simplex 1 (i=0, j=2)",
             [self.EDGES, [(1, 2, 0), (0, 0, 0)]]),
            ("simplicial identity fails at 2-simplex 1 (i=1, j=2)",
             [self.EDGES, [(1, 2, 0), (1, 1, 0)]]),
        ]
        for text, faces in cases:
            self._raises(text, DeltaSet, 3, faces)

    def test_involution(self):
        square = circle(4)
        flip = [0, 3, 2, 1]  # the reflection fixing vertices 0 and 2
        Involution(square, [flip, [3, 2, 1, 0]])  # each case breaks one map
        cases = [
            ("map in dimension 1 is not a bijection",
             square, [flip, [3, 3, 1, 0]]),
            ("map is not an involution at (1, 1)",
             square, [flip, [0, 2, 3, 1]]),
            ("not an automorphism: faces of 1-simplex 1 do not match faces "
             "of its image", square, [flip, [3, 1, 2, 0]]),
            # a loop fixed with its vertex, then an edge flipped in place
            ("1-simplex 1 is stabilized but not fixed pointwise; refine "
             "first", DeltaSet(3, [[(2, 2), (1, 0), (0, 1)]]),
             [[1, 0, 2], [0, 1, 2]]),
        ]
        for text, ds, maps in cases:
            self._raises(text, Involution, ds, maps)


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

    def test_cached_reduction_matches_dense_route(self):
        from k3motive.deltaset import _boundary_reduction
        from k3motive.intlinalg import kernel_basis, rank_and_invariants

        for ds in self.complexes():
            assert ds.boundary_matrix(0) == IntMatrix.zeros(0, ds.n(0))
            assert ds.boundary_matrix(ds.dim + 1) == \
                IntMatrix.zeros(ds.n(ds.dim), 0)
            for q in range(1, ds.dim + 1):
                dense = self.dense_from_faces(ds, q)
                assert ds.boundary_matrix(q) == dense, (ds, q)
                assert _boundary_reduction(ds, q) == \
                    rank_and_invariants(dense), (ds, q)
            for q in (0, ds.dim + 1):
                assert _boundary_reduction(ds, q) == (0, ())
            top = ds.boundary_matrix(ds.dim)
            kernel = kernel_basis(top)
            assert top_kernel(ds) == \
                tuple(tuple(r[k] for r in kernel.iter_rows())
                      for k in range(kernel.cols)), ds

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
        with pytest.raises(ValueError,
                           match="^H_1 is below the top degree 2$"):
            top_cycle_generator(torus_3x3(), 1)
        # the wedge of two spheres: H_2 = Z^2 at the top degree
        with pytest.raises(ValueError,
                           match="^H_2 has free rank 2, expected 1$"):
            top_cycle_generator(small_complexes()["wedge"], 2)

    def test_above_top_degree_is_rank_zero(self):
        with pytest.raises(ValueError,
                           match="^H_3 has free rank 0, expected 1$"):
            top_cycle_generator(tetra(), 3)

    def test_generator_with_boundaries_present(self):
        # H_1 of the refined circle: a 1-dimensional complex, so d == dim
        # and the generator comes from the kernel alone
        ds = refine_edge_split(circle(3))
        assert homology(ds, 1) == (1, ())
        gen = top_cycle_generator(ds, 1)
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
                other = shuffled(ds, rng)
                assert recognize(other) == shape
                for q in range(ds.dim + 1):
                    assert homology(other, q) == homology(ds, q)


def relabel_reference(ds, perms):
    """``relabel`` as it was before its slot-column pass: one simplex at a
    time."""
    levels = []
    for q in range(1, ds.dim + 1):
        level = [None] * ds.n(q)
        for s in ds.simplices(q):
            level[perms[q][s]] = tuple(perms[q - 1][f] for f in ds.faces(q, s))
        levels.append(level)
    return DeltaSet(ds.n(0), levels)


class TestRelabel:
    def test_matches_per_simplex_reference(self):
        rng = random.Random(29)
        cases = [DeltaSet(3), solid_tetra(), octa(), torus_3x3(),
                 refine_edge_split(refine_edge_split(refine_edge_split(
                     octahedron()))),
                 *small_complexes().values(), *one_complexes().values()]
        for ds in cases:
            for _ in range(3):
                perms = [rng.sample(range(ds.n(q)), ds.n(q))
                         for q in range(ds.dim + 1)]
                assert relabel(ds, perms) == relabel_reference(ds, perms)
                perms = tuple(map(tuple, perms))
                assert relabel(ds, perms) == relabel_reference(ds, perms)

    def test_refusals(self):
        with pytest.raises(ValueError, match="one permutation per dimension"):
            relabel(octa(), [[0]])
        with pytest.raises(ValueError, match="dimension 1"):
            relabel(chain(2), [[0, 1, 2], [0, 0]])
        # a float or a boolean entry is refused as a permutation entry,
        # not read as the integer it equals
        edges = list(range(6))
        for perms, bad in (
                ([[0, 1, 2, 3], edges, [0.0, 1.0, 2.0, 3.0]], "0.0"),
                ([[0, 1, 2, 3], edges, [True, False, 2, 3]], "True"),
                ([[0, 1, 2, 3], [0, 1.0, 2, 3, 4, 5], [0, 1, 2, 3]], "1.0")):
            with pytest.raises(ValueError, match=r"^permutation entry %s is "
                               r"not an integer$" % bad):
                relabel(tetrahedron(), perms)


def closed(ds):
    """Is every edge on exactly two triangle sides?"""
    edge_use = [0] * ds.n(1)
    for t in ds.simplices(2):
        for e in ds.faces(2, t):
            edge_use[e] += 1
    return all(u == 2 for u in edge_use)


def recognize_by_homology(ds):
    """The interval and 2-sphere rules by elimination.  An interval has
    the integral homology of a point, no valence above 2 and exactly two
    vertices of valence 1.  A 2-sphere has every edge on two triangle
    sides, every vertex on an edge, and the integral homology of S^2."""
    if ds.dim == 1:
        valence = [0] * ds.n(0)
        for e in ds.simplices(1):
            for v in ds.faces(1, e):
                valence[v] += 1
        if [homology(ds, q) for q in range(2)] != [(1, ()), (0, ())] \
                or max(valence) > 2 or valence.count(1) != 2:
            return Shape.OTHER
        return Shape.INTERVAL
    used = {v for e in ds.simplices(1) for v in ds.faces(1, e)}
    if not closed(ds) or len(used) != ds.n(0):
        return Shape.OTHER
    if [homology(ds, q) for q in range(3)] != [(1, ()), (0, ()), (1, ())]:
        return Shape.OTHER
    return Shape.SPHERE2


def glue(a, b, shared):
    """The disjoint union of two 2-dimensional Delta-sets, with vertex v of
    b identified with vertex shared[v] of a where given."""
    vid, fresh = [], a.n(0)
    for v in b.simplices(0):
        if v in shared:
            vid.append(shared[v])
        else:
            vid.append(fresh)
            fresh += 1
    edges = [a.faces(1, e) for e in a.simplices(1)]
    edges += [tuple(vid[v] for v in b.faces(1, e)) for e in b.simplices(1)]
    tris = [a.faces(2, t) for t in a.simplices(2)]
    tris += [tuple(e + a.n(1) for e in b.faces(2, t))
             for t in b.simplices(2)]
    return DeltaSet(fresh, [edges, tris])


def small_complexes():
    """Closed and nearly closed 2-dimensional Delta-sets, by name."""
    t = tetra()
    return {
        "rp2": rp2(),
        # one vertex, three loops, two triangles
        "klein": DeltaSet(1, [[(0, 0)] * 3, [(1, 0, 2), (0, 2, 1)]]),
        # the suspension of the 2-gon: equator a -> b twice, apexes c, d
        "two_gon": DeltaSet(
            4, [[(1, 0), (1, 0), (2, 0), (2, 1), (3, 0), (3, 1)],
                [(3, 2, 0), (3, 2, 1), (5, 4, 0), (5, 4, 1)]]),
        # the tetrahedron with vertex 3 identified with vertex 0
        "pinched": DeltaSet(3, [[tuple(v % 3 for v in t.faces(1, e))
                                 for e in t.simplices(1)],
                                [t.faces(2, s) for s in t.simplices(2)]]),
        # a triangle on one edge twice (d0 = d1) is a cone; two cones on
        # a loop make a sphere, a lone one is a disk
        "cones": DeltaSet(3, [[(1, 0), (2, 0), (0, 0)],
                              [(0, 0, 2), (1, 1, 2)]]),
        "disk": DeltaSet(2, [[(1, 0), (0, 0)], [(0, 0, 1)]]),
        # d0 = d2 on a loop is a Moebius band; two make a Klein bottle
        "bands": DeltaSet(1, [[(0, 0)] * 3, [(0, 2, 0), (1, 2, 1)]]),
        "disjoint": glue(tetra(), octa(), {}),
        "wedge": glue(tetra(), octa(), {0: 0}),
        "twice_wedged": glue(tetra(), octa(), {0: 0, 1: 1}),
        "with_torus": glue(tetra(), torus_3x3(), {}),
    }


def one_complexes():
    """1-dimensional Delta-sets around the interval rule, by name."""
    return {
        "edge": chain(1),
        "path": chain(5),
        "refined_path": refine_barycentric(refine_edge_split(chain(2))),
        "loop": circle(1),
        "two_gon": circle(2),
        "triangle": circle(3),
        "hexagon": circle(6),
        # a loop at an end of a path, and one in its middle (valence 4)
        "loop_at_end": DeltaSet(3, [[(1, 0), (2, 1), (2, 2)]]),
        "loop_inside": DeltaSet(3, [[(1, 0), (2, 1), (1, 1)]]),
        # the 2-gon with a tail: valences 2, 3, 1
        "two_gon_tail": DeltaSet(3, [[(1, 0), (1, 0), (2, 1)]]),
        "star": DeltaSet(4, [[(1, 0), (2, 0), (3, 0)]]),
        "disjoint_paths": DeltaSet(4, [[(1, 0), (3, 2)]]),
        # valences 1, 1, 2, 2, 2 in two pieces: only connectivity tells
        "path_and_cycle": DeltaSet(5, [[(1, 0), (3, 2), (4, 3), (2, 4)]]),
        "path_and_loop": DeltaSet(4, [[(1, 0), (2, 1), (3, 3)]]),
        "path_and_vertex": DeltaSet(4, [[(1, 0), (2, 1)]]),
        "edge_and_vertices": DeltaSet(4, [[(2, 1)]]),
    }


def recognition_corpus():
    rng = random.Random(808)
    spheres = []
    ds = octahedron()
    for _ in range(4):
        spheres.append(ds)
        ds = refine_edge_split(ds)
    ds = icosahedron()
    for _ in range(3):
        spheres.append(ds)
        ds = refine_barycentric(ds)
    corpus = spheres + [shuffled(ds, rng) for ds in spheres]
    corpus += [torus_grid(a, b) for a in range(1, 7) for b in range(1, 7)]
    for m1, m2 in ((2, 2), (4, 6), (12, 12)):
        torus, sigma = torus_negation(m1, m2)
        corpus += [torus, quotient_by_involution(torus, sigma)]
    return corpus + list(small_complexes().values())


class TestRecognizeOracle:
    def test_agrees_with_homology(self):
        corpus = recognition_corpus()
        shapes = [recognize(ds) for ds in corpus]
        assert shapes == [recognize_by_homology(ds) for ds in corpus]
        assert shapes.count(Shape.SPHERE2) == 19

    def test_one_complexes_agree_with_homology(self):
        rng = random.Random(909)
        base = list(one_complexes().values())
        corpus = base + [shuffled(ds, rng) for ds in base]
        shapes = [recognize(ds) for ds in corpus]
        assert shapes == [recognize_by_homology(ds) for ds in corpus]
        intervals = {name for name, ds in one_complexes().items()
                     if recognize(ds) == Shape.INTERVAL}
        assert intervals == {"edge", "path", "refined_path"}

    def test_random_one_complexes_agree_with_homology(self):
        # random multigraphs with loops, and random paths under relabeling
        rng = random.Random(2024)
        corpus = []
        for _ in range(300):
            n0 = rng.randint(1, 7)
            edges = [(rng.randrange(n0), rng.randrange(n0))
                     for _ in range(rng.randint(1, 8))]
            corpus.append(DeltaSet(n0, [edges]))
            corpus.append(shuffled(chain(rng.randint(1, 9)), rng))
        shapes = [recognize(ds) for ds in corpus]
        assert shapes == [recognize_by_homology(ds) for ds in corpus]
        assert 300 < shapes.count(Shape.INTERVAL) < 600

    def test_non_spheres(self):
        c = small_complexes()
        assert homology(c["pinched"], 1) == (1, ())
        assert homology(c["wedge"], 2) == (2, ())
        assert homology(c["disjoint"], 0) == (2, ())
        assert homology(c["klein"], 1) == homology(c["bands"], 1) \
            == (1, (2,))
        # chi = 2 with the triangles in two pieces
        assert euler_characteristic(c["twice_wedged"]) == 2
        assert homology(c["twice_wedged"], 1) == (1, ())
        assert euler_characteristic(c["with_torus"]) == 2
        assert homology(c["with_torus"], 0) == (2, ())
        spheres = {name for name, ds in c.items()
                   if recognize(ds) == Shape.SPHERE2}
        assert spheres == {"two_gon", "cones"}


class TestMemo:
    """Facts about a complex live on the complex: its memo holds the
    orientation and the reduction of each degree, and nothing outside it
    keeps a reference to the complex."""

    # sha256 of the homology in every degree and the top cohomology of the
    # recognition corpus, computed at the commit before the memo moved onto
    # the complex
    DIGEST = "9a3f3f3e0434508a4ca64a2d09db2d436d07be59fd9c51574b3b1b067b887f48"

    def test_memo_keeps_no_outside_reference(self, monkeypatch):
        from k3motive import deltaset

        calls = []
        monkeypatch.setattr(deltaset, "_sparse_reduce",
                            lambda *a, **k: calls.append(1)
                            or intlinalg._sparse_reduce(*a, **k))
        facts = []
        for ds in recognition_corpus():
            refs = sys.getrefcount(ds)
            found = ([homology(ds, q) for q in range(ds.dim + 1)],
                     cohomology(ds, ds.dim))
            assert sys.getrefcount(ds) == refs, ds
            # asked again, the complex answers from its memo
            del calls[:]
            assert ([homology(ds, q) for q in range(ds.dim + 1)],
                    cohomology(ds, ds.dim)) == found and not calls, ds
            facts.append(found)
        assert hashlib.sha256(repr(facts).encode()).hexdigest() == \
            self.DIGEST

    def test_reductions_keep_no_kernel(self):
        # each degree's entry is (rank, invariant factors), top degree too
        for ds in recognition_corpus():
            for q in range(ds.dim + 2):
                homology(ds, q)
            degrees = [k for k in ds._memo if type(k) is int]
            assert sorted(degrees) == list(range(ds.dim + 2)), ds
            for q in degrees:
                rank, factors = ds._memo[q]
                assert type(rank) is int and type(factors) is tuple, (ds, q)


class TestTopCyclesOracle:
    """The orientation route to the top cycles against the elimination."""

    def test_orientation_matches_elimination(self, monkeypatch):
        from k3motive import deltaset
        from k3motive.deltaset import _top_cycles

        calls = []
        monkeypatch.setattr(deltaset, "_sparse_reduce",
                            lambda *a, **k: calls.append(1)
                            or intlinalg._sparse_reduce(*a, **k))
        oriented = 0
        for ds in recognition_corpus():
            del calls[:]
            got = [c.coefficients for c in _top_cycles(ds)]
            took_orientation = not calls
            kernel = list(top_kernel(ds))
            if len(kernel) == 1 and next(c for c in kernel[0] if c) < 0:
                kernel = [tuple(-c for c in kernel[0])]
            assert got == kernel, ds
            # the pass applies exactly where every edge has two triangle
            # sides and the kernel is one vector with no zero coefficient
            assert took_orientation == (
                closed(ds) and len(kernel) == 1 and 0 not in kernel[0]), ds
            oriented += took_orientation
        assert oriented == 59


def orientation_reference(ds):
    """``_orientation`` with a list of (triangle, slot) sides per edge and
    the sign check inside the breadth-first pass, kept verbatim."""
    tris = nested_faces(ds)[1]
    sides = [[] for _ in ds.simplices(1)]
    for t, fs in enumerate(tris):
        for j, e in enumerate(fs):
            sides[e].append((t, j))
    if any(len(two) != 2 for two in sides):
        return None
    sign = [1] + [0] * (ds.n(2) - 1)
    queue = [0]
    for t in queue:
        for j, e in enumerate(tris[t]):
            (o, k), other = sides[e]
            if (o, k) == (t, j):
                o, k = other
            need = sign[t] if (j + k) % 2 else -sign[t]
            if not sign[o]:
                sign[o] = need
                queue.append(o)
            elif sign[o] != need:
                return None
    return tuple(sign) if len(queue) == ds.n(2) else None


def side_count_cases():
    """2-complexes whose edges sit on 0, 1 or 3 triangle sides, and
    triangles that repeat an edge, by name."""
    t, two_gon = tetra(), small_complexes()["two_gon"]
    edges = [t.faces(1, e) for e in t.simplices(1)]
    tris = [t.faces(2, s) for s in t.simplices(2)]
    gon_edges = [two_gon.faces(1, e) for e in two_gon.simplices(1)]
    return {
        # the tetrahedron with a seventh edge that no triangle uses
        "edge on no side": DeltaSet(4, [edges + [(1, 0)], tris]),
        "lone triangle": DeltaSet(3, [[(1, 0), (2, 0), (2, 1)], [(2, 1, 0)]]),
        "open tetrahedron": DeltaSet(4, [edges, tris[1:]]),
        # three pages on edge 0, each other edge on one side
        "book": DeltaSet(5, [[(1, 0), (2, 0), (2, 1), (3, 0), (3, 1),
                              (4, 0), (4, 1)],
                             [(2, 1, 0), (4, 3, 0), (6, 5, 0)]]),
        # the suspended 2-gon with one triangle moved from one equator edge
        # to the parallel one: sides 3 and 1, or 1 and 3, twice the edge
        # count in all
        "three and one": DeltaSet(4, [gon_edges,
                                      [(3, 2, 0), (3, 2, 0), (5, 4, 0),
                                       (5, 4, 1)]]),
        "one and three": DeltaSet(4, [gon_edges,
                                      [(3, 2, 1), (3, 2, 1), (5, 4, 0),
                                       (5, 4, 1)]]),
        # d0 = d1 twice on one loop: a sphere; d0 = d2: Moebius bands
        "cones": small_complexes()["cones"],
        "bands": small_complexes()["bands"],
        "one band": DeltaSet(1, [[(0, 0)] * 2, [(0, 1, 0)]]),
    }


class TestOrientationReference:
    """The flat side list gives the signs of the per-edge (triangle, slot)
    lists, or None, on every 2-complex."""

    def test_signs_equal_reference(self):
        from k3motive.deltaset import _orientation

        complexes = recognition_corpus() + list(side_count_cases().values())
        for m1, m2 in ((2, 2), (4, 6)):
            complexes.append(build_kummer(KummerParams(m1, m2)).nerve)
        found = {"signs": 0, "none": 0}
        for ds in complexes:
            if ds.dim == 2:
                expected = orientation_reference(ds)
                assert _orientation(ds) == expected, ds
                found["none" if expected is None else "signs"] += 1
        assert found == {"signs": 62, "none": 16}

    def test_each_side_count_is_refused(self):
        from k3motive.deltaset import _orientation

        signs = {name: _orientation(ds)
                 for name, ds in side_count_cases().items()}
        assert signs == {name: orientation_reference(ds)
                         for name, ds in side_count_cases().items()}
        assert [name for name, sign in signs.items() if sign] == ["cones"]

    def test_relabelled_signs_equal_reference(self):
        # three seeded relabellings of every 2-complex above and of the
        # 30 x 30 nerve; whether signs exist does not depend on the labels
        from k3motive.deltaset import _orientation

        gon_edges = nested_faces(small_complexes()["two_gon"])[0]
        crowded = [  # some edge on more than two sides
            # edge 0 on four sides and edge 1 on none: twice the edge count
            # in all, as on a closed 2-pseudomanifold
            DeltaSet(4, [gon_edges, [(3, 2, 0), (3, 2, 0), (5, 4, 0),
                                     (5, 4, 0)]]),
            # two tetrahedra on one edge: every other edge on two sides
            complex_from_facets(6, [(0, 1, 2), (0, 1, 3), (0, 2, 3),
                                    (1, 2, 3), (0, 1, 4), (0, 1, 5),
                                    (0, 4, 5), (1, 4, 5)]),
            # loops 0 and 2 on three sides, with signs that cancel on the
            # first two sides of each edge: only the third side refuses
            DeltaSet(1, [[(0, 0)] * 5, [(0, 1, 1), (4, 2, 3), (0, 3, 2),
                                        (2, 4, 0)]]),
        ]
        for ds in crowded:
            assert _orientation(ds) is orientation_reference(ds) is None
        complexes = recognition_corpus() + list(side_count_cases().values())
        for m1, m2 in ((2, 2), (4, 6), (30, 30)):
            complexes.append(build_kummer(KummerParams(m1, m2)).nerve)
        rng = random.Random(3737)
        found = {"signs": 0, "none": 0}
        for ds in complexes + crowded:
            if ds.dim != 2:
                continue
            oriented = _orientation(ds) is not None
            for _ in range(3):
                other = shuffled(ds, rng)
                expected = orientation_reference(other)
                assert _orientation(other) == expected, other
                assert (expected is not None) == oriented, other
                found["none" if expected is None else "signs"] += 1
        assert found == {"signs": 3 * 63, "none": 3 * 19}


class TestCycleCheck:
    def test_one_pass_boundary_matches_dense(self):
        # the cycle check against the dense boundary matrix in every degree,
        # on random chains and on each top cycle, plain and perturbed
        from k3motive.deltaset import _is_cycle, _top_cycles

        rng = random.Random(4711)
        corpus = [tetra(), octa(), rp2(), torus_3x3(), circle_plus_rp2()]
        corpus += list(small_complexes().values())
        corpus += list(one_complexes().values())
        verdicts = []
        for ds in corpus:
            for q in range(ds.dim + 1):
                chains = [[rng.randint(-2, 2) for _ in ds.simplices(q)]
                          for _ in range(10)]
                if q == ds.dim:
                    for cycle in _top_cycles(ds):
                        c = list(cycle.coefficients)
                        chains.append(c)
                        c = c[:]
                        c[rng.randrange(len(c))] += 1
                        chains.append(c)
                bnd = ds.boundary_matrix(q)
                for c in chains:
                    dense = bnd @ IntMatrix([[x] for x in c], cols=1)
                    verdicts.append(_is_cycle(ds, q, c))
                    assert verdicts[-1] == dense.is_zero(), (ds, q, c)
        assert verdicts.count(True) > 150 and verdicts.count(False) > 250


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

    # the simplex numbering is fixed: the sha256 of each refinement's
    # canonical JSON is pinned, loop edges and repeated faces included
    @pytest.mark.parametrize("build, digest", [
        pytest.param(
            tetra,
            "c145427e420a987e998d6bd3d498398459c27990737e5a994caf4ff04d61ee15",
            id="tetra"),
        pytest.param(
            octa,
            "425f2561f749028dd9f4305dd8074190111bff142d382b844cadc4122658f5bd",
            id="octa"),
        pytest.param(
            icosahedron,
            "34562006932356f9a25b137f0ff5026478b5af916ac35a003bee4a34945db63c",
            id="icosahedron"),
        pytest.param(
            lambda: refine_barycentric(icosahedron()),
            "48fc320b891b6926f82c3329417010b0d24e46841d4a7d22bc335faba8ac995f",
            id="icosahedron-bary1"),
        pytest.param(
            lambda: torus_grid(2, 2),
            "cd0ae98d93dab35d538d84150071ec58b0e2453f43d8f639a6ac488814dc7732",
            id="torus-2x2"),
        pytest.param(
            lambda: torus_grid(3, 3),
            "a1e0f38d6be7ce9e5680f2ee00ed0558d7d11800217864c70320ddc29bf31a19",
            id="torus-3x3"),
        pytest.param(
            lambda: quotient_by_involution(*torus_negation(4, 6)),
            "9545e0882e2d12544cd4d8e79fa5d01e5c30fa5a8253ab195297f1afde0ec924",
            id="kummer-4x6"),
        pytest.param(
            rp2,
            "87276e80144d4cb6525b8afbcda534c0e1454cb6b8a58048a6bf2af063e1ee86",
            id="rp2"),
        pytest.param(
            lambda: circle(1),
            "4cdfca103e272d48c37e9ddaeb50c99bb7eeab664855557df30c78e2b3390a81",
            id="loop"),
        pytest.param(
            lambda: circle(2),
            "a4b2c53f7a410dabd768dd1e18d8a74aa488f0ef9fa22030fd6a25cf84f2eb56",
            id="2-gon"),
        pytest.param(
            lambda: chain(5),
            "ed46f9c4c44d274d94a1cdb3021048aa9dab3a3cdbb83a21c743ccf7a36189ff",
            id="chain-5"),
        pytest.param(
            lambda: DeltaSet(1),
            "76dafa1f55618958b8f91376c2de8794677769d6f6dfe99b1bd4c29ce35d5cd8",
            id="one-point"),
        pytest.param(
            lambda: DeltaSet(3),
            "440741f9c45318b2bfbc7d5fc9ce9057aa1363e837576b8c049642bb10f77bfe",
            id="three-points"),
        pytest.param(
            lambda: refine_edge_split(
                refine_edge_split(octahedron())),
            "017fede96d031de4ae781badcb8fea960528108b9b485dd751d3a72f84fa73f6",
            id="octahedron-split2"),
    ])
    def test_numbering_pinned(self, build, digest):
        text = dumps(delta_to_json(refine_barycentric(build())))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_dimension_three_refused(self):
        base = tetra()
        solid = DeltaSet(4, [[base.faces(1, e) for e in base.simplices(1)],
                             [base.faces(2, t) for t in base.simplices(2)],
                             [(3, 2, 1, 0)]])
        with pytest.raises(ValueError, match="limited to dimension <= 2"):
            refine_barycentric(solid)


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

    def test_quotient_of_points(self):
        # two swapped pairs of points give two orbits
        ds = DeltaSet(4)
        q = quotient_by_involution(ds, Involution(ds, [[1, 0, 3, 2]]))
        assert q.counts == (2,)

    def test_quotient_by_identity(self):
        ds = tetra()
        ident = Involution(ds, [list(range(ds.n(q)))
                                for q in range(ds.dim + 1)])
        assert not ident.is_free_on_positive()
        assert ident.fixed_vertices() == [0, 1, 2, 3]
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
        assert sigma.is_free_on_positive()
        assert sigma.fixed_vertices() == [0, 2]
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


# -- the quotient against its per-triangle output --------------------------

def quotient_reference(ds, sigma, backs):
    """``quotient_by_involution`` as it was before its output levels were
    written by slices, verbatim but for its name, this import (the module's
    own ``chain`` is a fixture) and ``backs``, which gets the number of
    placed triangles at each step back of the search."""
    from itertools import chain
    if sigma.ds is not ds and sigma.ds != ds:
        raise ValueError("involution was built for a different Delta-set")
    if ds.dim > 2:
        raise QuotientError("quotients are supported up to dimension 2")

    reps, orbit_of = sigma.reps, sigma.orbit_of
    if ds.dim == 0:
        return DeltaSet(len(reps[0]))

    # quotient (tail, head) of each edge orbit, in the representative's
    # order, and its flip: None while free, False for a fixed edge
    vorb = orbit_of[0]
    heads, tails = (_take(vorb, ds._levels[0][j::2]) for j in (0, 1))
    e_ends = list(zip(_take(tails, reps[1]), _take(heads, reps[1])))
    flips: list[bool | None] = [
        False if img == e else None
        for e, img in zip(reps[1], _take(sigma.maps[1], reps[1]))]

    new_tris = []
    if ds.dim == 2:
        all_orders = list(permutations(range(3)))
        slots = [_take(ds._levels[1][j::3], reps[2]) for j in (0, 1, 2)]
        # per orbit triangle: its index, the edge orbits of its faces, the
        # vertex orbits of its slots (as in vertex_tuple) and its orderings
        tris = list(zip(
            count(), zip(*(_take(orbit_of[1], x) for x in slots)),
            zip(_take(tails, slots[2]), _take(heads, slots[2]),
                _take(heads, slots[0])),
            [[(0, 1, 2)] if img == t else all_orders
             for t, img in zip(reps[2], _take(sigma.maps[2], reps[2]))]))

        # process triangles in breadth-first order over shared edge orbits,
        # so each one usually meets an already-oriented edge and the
        # backtracking stays local
        by_edge: list[list[int]] = [[] for _ in reps[1]]
        for idx, (_, e_orbs, _, _) in enumerate(tris):
            for eo in e_orbs:
                by_edge[eo].append(idx)
        order = []  # doubles as the queue; order[head:] is still to visit
        seen = [False] * len(tris)
        head = 0
        for start in range(len(tris)):
            if not seen[start]:
                seen[start] = True
                order.append(start)
            while head < len(order):
                for eo in tris[order[head]][1]:
                    for nb in by_edge[eo]:
                        if not seen[nb]:
                            seen[nb] = True
                            order.append(nb)
                head += 1
        tris = _take(tris, order)

        def orient(tri, tau) -> list[int] | None:
            # fix the edge flips ordering tau needs and return the edge
            # orbits newly fixed, or fix nothing and return None on a clash
            _, e_orbs, w, _ = tri
            assigned = []
            for i, a, b in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
                eo = e_orbs[tau[i]]
                u, v = e_ends[eo]
                if u == v:
                    continue  # loop edge: orientation-free
                x, y = w[tau[a]], w[tau[b]]
                if (x != u or y != v) and (x != v or y != u):
                    raise AssertionError("edge orbit endpoints disagree")
                need = x != u
                if flips[eo] == need:
                    continue
                if flips[eo] is not None:
                    for done in assigned:
                        flips[done] = None
                    return None
                flips[eo] = need
                assigned.append(eo)
            return assigned

        # depth-first search; the stack holds (ordering index, edge orbits
        # newly fixed) per placed triangle, orderings go in permutation order
        placed: list[tuple[int, list[int]]] = []
        k = 0
        while len(placed) < len(tris):
            tri = tris[len(placed)]
            for k in range(k, len(tri[3])):
                assigned = orient(tri, tri[3][k])
                if assigned is not None:
                    placed.append((k, assigned))
                    k = 0
                    break
            else:  # no ordering fits: step back to the previous triangle
                if not placed:
                    raise QuotientError(
                        "orbit cells admit no consistent ordering; apply a "
                        "barycentric refinement before taking the quotient")
                backs.append(len(placed))
                k, assigned = placed.pop()
                for eo in assigned:
                    flips[eo] = None
                k += 1
        new_tris = [0] * (3 * len(tris))
        for (i, e_orbs, _, taus), (k, _) in zip(tris, placed):
            a, b, c = taus[k]
            new_tris[3 * i:3 * i + 3] = e_orbs[a], e_orbs[b], e_orbs[c]

    # (head, tail) of each edge orbit: the representative's, or flipped
    new_edges = list(chain.from_iterable(
        ends if flip else ends[::-1] for ends, flip in zip(e_ends, flips)))
    return DeltaSet._flat(len(reps[0]), [new_edges, new_tris])


def step_back_corpus():
    """Named (Delta-set, involution maps) pairs: seeded relabellings of the
    antipodal octahedron, about a third of which make the search step back,
    the two circle(4) involutions and the identity on the tetrahedron."""
    octa_ds = octahedron()  # 0, 1, 2 opposite 5, 3, 4
    antipodal = induced_maps(octa_ds, [5, 3, 4, 1, 2, 0])
    cases = {"octahedron %d" % seed: relabelled(octa_ds, antipodal, seed)
             for seed in range(200)}
    cases["circle(4) rotation"] = circle(4), [[2, 3, 0, 1], [2, 3, 0, 1]]
    cases["circle(4) reflection"] = circle(4), [[0, 3, 2, 1], [3, 2, 1, 0]]
    cases["tetrahedron identity"] = tetra(), identity_maps(tetra())
    return cases


class TestQuotientReference:
    def test_step_backs_give_the_reference_nerve(self):
        stepped = []
        for name, (ds, maps) in step_back_corpus().items():
            sigma = Involution(ds, maps)
            backs = []
            assert quotient_by_involution(ds, sigma) == \
                quotient_reference(ds, sigma, backs), name
            if backs:
                stepped.append(name)
        assert len(stepped) >= 20, stepped

    def test_kummer_grids_give_the_reference_nerve(self):
        from test_builders import NERVE_DIGESTS
        for m1, m2 in NERVE_DIGESTS:
            ds, sigma = torus_negation(m1, m2)
            assert quotient_by_involution(ds, sigma) == \
                quotient_reference(ds, sigma, []), (m1, m2)


# -- flat construction checks against a per-simplex scan --------------------

def scan_delta_error(num_vertices, faces):
    """The first failure of the per-simplex checks, in the constructor's
    order: face counts and ranges level by level, then the identities
    d_i d_j = d_{j-1} d_i; None when every check holds."""
    levels = [list(level) for level in faces]
    while levels and not levels[-1]:
        levels.pop()
    counts = [num_vertices]
    for q, level in enumerate(levels, start=1):
        counts.append(len(level))
        for s, fs in enumerate(level):
            if len(fs) != q + 1:
                return ("simplex %d of dimension %d has %d faces, expected %d"
                        % (s, q, len(fs), q + 1))
            bad = [f for f in fs if not 0 <= f < counts[q - 1]]
            if bad:
                return "face id %d out of range in dimension %d" % (bad[0], q)
    for q in range(2, len(levels) + 1):
        lower = levels[q - 2]
        for s, fs in enumerate(levels[q - 1]):
            for j in range(q + 1):
                for i in range(j):
                    if lower[fs[j]][i] != lower[fs[i]][j - 1]:
                        return ("simplicial identity fails at %d-simplex %d "
                                "(i=%d, j=%d)" % (q, s, i, j))
    return None


def scan_involution_error(ds, maps):
    """The first failure of the per-simplex involution checks, in the
    constructor's order; None when every check holds."""
    for q, level in enumerate(maps):
        if sorted(level) != list(range(ds.n(q))):
            return "map in dimension %d is not a bijection" % q
        for s, img in enumerate(level):
            if level[img] != s:
                return "map is not an involution at (%d, %d)" % (q, s)
    for q in range(1, ds.dim + 1):
        for s in ds.simplices(q):
            img, fs = maps[q][s], ds.faces(q, s)
            if sorted(maps[q - 1][f] for f in fs) != sorted(ds.faces(q, img)):
                return ("not an automorphism: faces of %d-simplex %d do not "
                        "match faces of its image" % (q, s))
            if img == s and any(maps[q - 1][f] != f for f in fs):
                return ("%d-simplex %d is stabilized but not fixed pointwise; "
                        "refine first" % (q, s))
    return None


def induced_maps(ds, vmap):
    """The maps a vertex permutation induces on a simplicial complex, whose
    simplices are fixed by their vertex sets."""
    maps = [list(vmap)]
    for q in range(1, ds.dim + 1):
        index = {frozenset(ds.vertex_tuple(q, s)): s for s in ds.simplices(q)}
        maps.append([index[frozenset(vmap[v] for v in ds.vertex_tuple(q, s))]
                     for s in ds.simplices(q)])
    return maps


def relabelled(ds, maps, seed):
    """ds and an involution's maps under a seeded relabelling."""
    rng = random.Random(seed)
    perms = [rng.sample(range(ds.n(q)), ds.n(q)) for q in range(ds.dim + 1)]
    out = [[0] * ds.n(q) for q in range(ds.dim + 1)]
    for q, level in enumerate(maps):
        for s, img in enumerate(level):
            out[q][perms[q][s]] = perms[q][img]
    return relabel(ds, perms), out


def identity_maps(ds):
    return [list(ds.simplices(q)) for q in range(ds.dim + 1)]


def solid_tetra():
    base = tetra()
    return DeltaSet(4, [*nested_faces(base), [(3, 2, 1, 0)]])


def swapped_triangles():
    """Two disjoint triangles, the second stored with its first two
    vertices exchanged, and the vertex map 0 <-> 3, 1 <-> 4, 2 <-> 5.  The
    induced map carries the triangles' face slots by (1, 0, 2), the same
    permutation on both; on the edges it keeps the slots of two edges and
    exchanges those of the third."""
    ds = DeltaSet(6, [[(1, 0), (2, 0), (2, 1), (3, 4), (5, 4), (5, 3)],
                      [(2, 1, 0), (5, 4, 3)]])
    return ds, induced_maps(ds, [3, 4, 5, 0, 1, 2])


FLAT_BASES = ("torus 2x2", "torus 4x6", "torus 6x4", "kummer 2x4",
              "kummer 4x4", "octahedron antipodal", "icosahedron",
              "rp2", "solid tetrahedron", "square reflection",
              "2-gon rotation", "swapped triangles")


@functools.cache
def flat_base(name):
    """A valid complex and an involution of it, by name; the spheres and
    RP^2 relabelled."""
    kind, _, size = name.partition(" ")
    if kind == "torus":
        ds, sigma = torus_negation(*map(int, size.split("x")))
        return ds, sigma.maps
    if kind == "kummer":
        nerve = build_kummer(KummerParams(*map(int, size.split("x")))).nerve
        return nerve, identity_maps(nerve)
    if kind == "octahedron":
        ds = octahedron()  # 0, 1, 2 opposite 5, 3, 4
        return relabelled(ds, induced_maps(ds, [5, 3, 4, 1, 2, 0]), 11)
    if kind == "icosahedron":
        return relabelled(icosahedron(), identity_maps(icosahedron()), 12)
    if kind == "rp2":
        return relabelled(rp2(), identity_maps(rp2()), 13)
    if kind == "solid":
        return solid_tetra(), identity_maps(solid_tetra())
    if kind == "square":
        return circle(4), [[0, 3, 2, 1], [3, 2, 1, 0]]
    if kind == "swapped":
        return relabelled(*swapped_triangles(), 14)
    return circle(2), [[1, 0], [1, 0]]


class TestFlatChecks:
    """The flat passes of the constructors accept exactly what the
    per-simplex scan accepts, and a failure names the scan's first one."""

    SETTINGS = settings(derandomize=True, max_examples=300, deadline=None,
                        database=None)

    def test_valid_inputs_are_kept(self):
        for name in FLAT_BASES:
            ds, maps = flat_base(name)
            faces = nested_faces(ds)
            assert scan_delta_error(ds.n(0), faces) is None, name
            assert scan_involution_error(ds, maps) is None, name
            copy = DeltaSet(ds.n(0), [list(level) for level in faces])
            assert copy._counts == ds._counts and nested_faces(copy) == faces
            assert Involution(copy, maps).maps == tuple(map(tuple, maps))

    def test_equal_face_sums_are_not_enough(self):
        # edges 1 and 3 of the square swapped over fixed vertices: each
        # edge's faces sum to what its image's faces sum to, and still the
        # faces of edge 1, {1, 2}, are not those of edge 3, {0, 3}
        maps = [[0, 1, 2, 3], [0, 3, 2, 1]]
        text = ("not an automorphism: faces of 1-simplex 1 do not match "
                "faces of its image")
        assert scan_involution_error(circle(4), maps) == text
        with pytest.raises(ValueError) as exc:
            Involution(circle(4), maps)
        assert str(exc.value) == text

    def test_negative_image_is_no_bijection(self):
        # -1 indexes the last simplex and -9 indexes nothing: both are
        # refused as out of range, never read as an index
        for image in (-1, -9):
            with pytest.raises(ValueError) as exc:
                Involution(circle(4), [[0, 3, 2, image], [3, 2, 1, 0]])
            assert str(exc.value) == "map in dimension 0 is not a bijection"

    def test_level_of_wrong_length_is_no_bijection(self):
        # a short level whose images stay below its length, or reach past
        # its end, and a long one: each is refused before any image is read
        # as an index
        for level in ([1, 0, 2], [1, 0, 3], [1, 0, 3, 2, 4]):
            with pytest.raises(ValueError) as exc:
                Involution(circle(4), [level, [3, 2, 1, 0]])
            assert str(exc.value) == "map in dimension 0 is not a bijection"

    def test_shared_slot_permutations(self):
        # the swapped triangles' level 2 permutes the face slots by
        # (1, 0, 2) on both triangles, neither the identity nor the reversal
        ds, maps = swapped_triangles()
        tris = nested_faces(ds)[1]
        images = [[maps[1][f] for f in fs] for fs in tris]
        assert images == [[tris[t][i] for i in (1, 0, 2)]
                          for t in maps[2]]
        assert Involution(ds, maps).maps == tuple(map(tuple, maps))

    @SETTINGS
    @given(data=st.data())
    def test_delta_set(self, data):
        ds, _ = flat_base(data.draw(st.sampled_from(FLAT_BASES)))
        faces = [list(level) for level in nested_faces(ds)]
        q = data.draw(st.integers(1, ds.dim))
        s = data.draw(st.integers(0, ds.n(q) - 1))
        fs = list(faces[q - 1][s])
        i, j = data.draw(st.integers(0, q)), data.draw(st.integers(0, q))
        if data.draw(st.booleans()):  # one face id, in range or not
            fs[j] = data.draw(st.integers(-2, ds.n(q - 1) + 1))
        else:  # two slots swapped: every id stays in range
            fs[i], fs[j] = fs[j], fs[i]
        faces[q - 1][s] = tuple(fs)
        expected = scan_delta_error(ds.n(0), faces)
        if expected is None:
            got = DeltaSet(ds.n(0), faces)
            assert got._counts == ds._counts
            assert nested_faces(got) == tuple(map(tuple, faces))
        else:
            with pytest.raises(ValueError) as exc:
                DeltaSet(ds.n(0), faces)
            assert str(exc.value) == expected

    @SETTINGS
    @given(data=st.data())
    def test_involution(self, data):
        ds, maps = flat_base(data.draw(st.sampled_from(FLAT_BASES)))
        maps = [list(level) for level in maps]
        q = data.draw(st.integers(0, ds.dim))
        n = ds.n(q)
        s = data.draw(st.integers(0, n - 1))
        t = data.draw(st.integers(0, n - 1))
        swap = list(range(n))
        swap[s], swap[t] = t, s
        kind = data.draw(st.integers(0, 3))
        if kind == 0:  # one image, in range or not
            maps[q][s] = data.draw(st.integers(-1, n))
        elif kind == 1:  # conjugated by the transposition (s t)
            maps[q] = [swap[maps[q][swap[x]]] for x in range(n)]
        elif kind == 2:  # the orbit of s fixed: still an involution
            maps[q][maps[q][s]], maps[q][s] = maps[q][s], s
        else:  # composed with (s t): still a bijection
            maps[q] = [swap[img] for img in maps[q]]
        expected = scan_involution_error(ds, maps)
        if expected is None:
            assert Involution(ds, maps).maps == tuple(map(tuple, maps))
        else:
            with pytest.raises(ValueError) as exc:
                Involution(ds, maps)
            assert str(exc.value) == expected


def library_delta_sets():
    """Delta-sets built by every library route that stores flat levels, by
    name: grids, both refinements, relabellings, quotients, polytopes of
    nerve fibers and decoded documents."""
    rng = random.Random(33)
    out = {"grid %dx%d" % (a, b): torus_grid(a, b)
           for a, b in ((1, 1), (1, 4), (3, 2), (5, 7), (18, 50))}
    bases = dict(small_complexes(), **one_complexes())
    bases.update(tetrahedron=tetra(), octahedron=octahedron(),
                 icosahedron=icosahedron(), point=DeltaSet(1),
                 points=DeltaSet(3), empty=DeltaSet(0))
    for name, ds in bases.items():
        out[name] = ds
        for refine in (refine_barycentric, refine_edge_split):
            out["%s %s" % (refine.__name__, name)] = refine(ds)
        out["relabelled " + name] = shuffled(ds, rng)
    out["edge split^3 octahedron"] = refine_edge_split(
        refine_edge_split(refine_edge_split(octahedron())))
    for m1, m2 in ((2, 2), (4, 6), (6, 4), (2, 8), (10, 10), (18, 50)):
        out["quotient %dx%d" % (m1, m2)] = \
            quotient_by_involution(*torus_negation(m1, m2))
    ds = octahedron()  # 0, 1, 2 opposite 5, 3, 4
    sigma = Involution(ds, induced_maps(ds, [5, 3, 4, 1, 2, 0]))
    out["quotient antipodal"] = quotient_by_involution(ds, sigma)
    for i, ds in enumerate(recognition_corpus()):
        if ds.dim == 2:
            fiber = _nerve_fiber("corpus %d" % i, (Rational(0),) * ds.n(0),
                                 ds)
            if not validate(fiber):
                out["polytope %d" % i] = clemens_polytope(fiber)
    for name in list(out):
        out["decoded " + name] = delta_from_json(delta_to_json(out[name]))
    return out


class TestFlatLevels:
    """Every flat-built Delta-set equals its rebuild through the nested
    constructor, face for face."""

    def test_nested_rebuild_is_equal(self):
        corpus = library_delta_sets()
        assert sum(name.startswith("polytope") for name in corpus) == 50
        for name, ds in corpus.items():
            faces = nested_faces(ds)
            rebuilt = DeltaSet(ds.n(0), faces)
            assert rebuilt == ds and hash(rebuilt) == hash(ds), name
            assert rebuilt.counts == ds.counts, name
            assert nested_faces(rebuilt) == faces, name
            for q, level in enumerate(faces, start=1):
                assert all(len(fs) == q + 1 for fs in level), name
                assert [tuple(ds.face(q, s, j) for j in range(q + 1))
                        for s in ds.simplices(q)] == list(level), name

    def test_faces_index_like_a_sequence(self):
        ds = torus_grid(2, 3)
        assert ds.faces(2, -1) == ds.faces(2, ds.n(2) - 1)
        assert ds.face(1, -2, 1) == ds.faces(1, ds.n(1) - 2)[1]
        for q, s in ((1, ds.n(1)), (2, ds.n(2)), (2, -ds.n(2) - 1), (0, 0),
                     (3, 0), (-1, 0)):
            with pytest.raises(IndexError):
                ds.faces(q, s)
        with pytest.raises(IndexError):
            ds.face(2, 0, 3)

    def test_hash_ignores_the_input_container(self):
        # lists, tuples and generators of faces give one Delta-set
        edges = [(1, 0), (2, 1), (2, 0)]
        forms = [DeltaSet(3, [edges]), DeltaSet(3, (tuple(edges),)),
                 DeltaSet(3, [[list(e) for e in edges]]),
                 DeltaSet(3, [(iter(e) for e in edges)])]
        assert len(set(forms)) == 1 and all(ds == forms[0] for ds in forms)

    @pytest.mark.parametrize("levels, text", [
        ([[1, 0, 0, -2, 2, 1]], "face id -2 out of range in dimension 1"),
        ([[], [0, 0, 0]], "face id 0 out of range in dimension 2"),
        ([[1, 0, 2, 1, 2, 0], [0, 2, 1, 0, 3, 1]],
         "face id 3 out of range in dimension 2"),
        ([[1, 0, 2, 1, 2, 0], [1, 2, 0, 0, 0, 0]],
         "simplicial identity fails at 2-simplex 1 (i=0, j=2)"),
        ([[1, 0, 2, 1, 2, 0], [1, 2, 0, 1, 1, 0]],
         "simplicial identity fails at 2-simplex 1 (i=1, j=2)"),
        ([[1, 0, 2, 1.5]], "face id 1.5 is not an integer"),
        ([[1, 0, 2, 1], [0, 1, True]], "face id True is not an integer"),
        ([[1, 0, 2]], "flat level of dimension 1 holds 3 face ids"),
    ])
    def test_flat_input_is_checked_alike(self, levels, text):
        # the nested form of each case gets the same message, where it has
        # one; the flat form's length check has no nested counterpart
        with pytest.raises(ValueError) as exc:
            DeltaSet._flat(3, levels)
        assert str(exc.value) == text
        if "flat level" not in text:
            nested = [list(zip(*[iter(level)] * q))
                      for q, level in enumerate(levels, start=2)]
            with pytest.raises(ValueError) as exc:
                DeltaSet(3, nested)
            assert str(exc.value) == text
