import copy
import hashlib
import re

import pytest

from k3motive import weightss
from k3motive.builders import (build_type2_chain, build_type3, icosahedron,
                               octahedron, refine_sphere)
from k3motive.deltaset import cohomology, homology
from k3motive.fibers import Component, DegenerationFiber, K3Smooth
from k3motive.intlinalg import (IntMatrix, _dense, _sparse_rows,
                                smith_normal_form)
from k3motive.serialize import dumps, matrix_to_json
from k3motive.weightss import (
    SpectralRow,
    boundary_rows,
    e1_page,
    e2_report,
    monodromy_gram,
    type2_h1_row,
)

from test_deltaset import recognition_corpus
from test_fibers import chain_fiber, tetra_fiber


class TestE1Page:
    def test_chain_m2_h1_entry(self):
        page = e1_page(chain_fiber(2))
        # one interior elliptic-ruled component contributes b_1 = 2
        assert page.rank(0, 1) == 2

    def test_chain_m2_full_page(self):
        # every nonzero entry of the first page for the m = 2 chain,
        # row by stratum row (curve cohomology on the p = +-1 columns)
        page = e1_page(chain_fiber(2))
        expected = {
            (-1, 4): 2, (0, 4): 3,
            (-1, 3): 4, (0, 3): 2,
            (-1, 2): 2, (0, 2): 22, (1, 2): 2,
            (0, 1): 2, (1, 1): 4,
            (0, 0): 3, (1, 0): 2,
        }
        assert {pos: page.rank(*pos) for pos in page.positions()} == expected

    def test_chain_m3_h1_entry(self):
        page = e1_page(chain_fiber(3))
        assert page.rank(0, 1) == 4

    def test_tetra_corner_entries(self):
        page = e1_page(tetra_fiber())
        assert page.rank(-2, 4) == 4
        assert page.rank(2, 0) == 4
        twists = {s.twist for s in page.entries[(-2, 4)]}
        assert twists == {-2}
        twists = {s.twist for s in page.entries[(2, 0)]}
        assert twists == {0}

    def test_smooth_fiber_single_column(self):
        f = DegenerationFiber.of("smooth", [Component(0, K3Smooth())])
        page = e1_page(f)
        assert all(p == 0 for (p, q) in page.positions())
        assert [page.rank(0, q) for q in range(5)] == [1, 0, 22, 0, 1]

    def test_range_bounds(self):
        page = e1_page(tetra_fiber())
        for (p, q) in page.positions():
            assert -2 <= p <= 2
            assert 0 <= q <= 4

    def test_alternating_rank_is_24(self):
        for f in [tetra_fiber(), chain_fiber(1), chain_fiber(4)]:
            assert e1_page(f).total_alternating_rank() == 24

    def test_kummer_page_from_other_betti_data(self):
        # every Kummer component is rational, with b2 = a: 4 on the 10
        # generic components and 7 on the 4 fixed ones
        from k3motive.builders import KummerParams, build_kummer
        f = build_kummer(KummerParams(4, 6)).fiber
        b0, b1, b2 = len(f.components), 0, sum(c.kind.a for c in f.components)
        curves, points = len(f.double_curves), len(f.triple_points)
        page = e1_page(f)
        assert (b0, b1, b2, curves, points) == (14, 0, 68, 36, 24)
        assert page.rank(0, 2) == b2 + points == 92
        assert page.total_alternating_rank() == 24
        assert page.rank(0, 0) == page.rank(0, 4) == b0
        assert page.rank(0, 1) == page.rank(0, 3) == b1
        assert page.rank(1, 0) == page.rank(-1, 4) == curves
        assert page.rank(2, 0) == page.rank(-2, 4) == points

    def test_missing_betti_rejected(self):
        from k3motive.fibers import Other
        from k3motive.motives import MissingRealizationError, MotiveClass
        f = DegenerationFiber.of(
            "nb", [Component(0, Other(MotiveClass.one(), betti=None))])
        with pytest.raises(MissingRealizationError):
            e1_page(f)


class TestBoundaryRows:
    def test_tetra(self):
        cochain, chain_row = boundary_rows(tetra_fiber())
        assert cochain.modules == (4, 6, 4)
        assert chain_row.modules == (4, 6, 4)
        cochain_h = e2_report([cochain])[0]
        assert cochain_h == [(1, ()), (0, ()), (1, ())]
        chain_h = e2_report([chain_row])[0]
        assert chain_h == [(1, ()), (0, ()), (1, ())]

    def test_chain(self):
        cochain, chain_row = boundary_rows(chain_fiber(3))
        assert cochain.modules == (4, 3, 0)
        h = e2_report([cochain])[0]
        assert h == [(1, ()), (0, ()), (0, ())]

    def test_point_fiber(self):
        f = DegenerationFiber.of("smooth", [Component(0, K3Smooth())])
        cochain, _ = boundary_rows(f)
        assert cochain.modules == (1, 0, 0)
        assert e2_report([cochain])[0][0] == (1, ())

    def test_built_fibers_torsion_free(self):
        from k3motive.builders import build_type3
        for name in ("tetrahedron", "octahedron", "icosahedron"):
            rows = boundary_rows(build_type3(name))
            for positions in e2_report(list(rows)):
                assert all(torsion == () for _, torsion in positions)


ROW_FIBERS = {
    "tetrahedron": lambda: build_type3("tetrahedron"),
    "octahedron": lambda: build_type3("octahedron"),
    "icosahedron": lambda: build_type3("icosahedron"),
    "icosahedron-bary1": lambda: build_type3(refine_sphere(icosahedron(), 1)),
    "octahedron-split2": lambda: build_type3(
        refine_sphere(octahedron(), 2, "edge_split")),
    "chain-m1": lambda: build_type2_chain(1),
    "chain-m3": lambda: build_type2_chain(3),
    "smooth": lambda: DegenerationFiber.of("smooth",
                                           [Component(0, K3Smooth())]),
}

# sha256 of the spectral-row JSON of both boundary rows and of their
# e2_report JSON, as the dense route wrote them
ROW_DIGESTS = {
    "tetrahedron": (
        "d69f180e49e6fa4aa912dbb37edfa7cbdab30766666b8f8a90996a680e8c4736",
        "4bb3c5b278dfdb29019ac898e19623067ccbe063e6240dda1a789408ed98e22a"),
    "octahedron": (
        "5aae9737300fb099b380abe917963b9728e599f944fb38e3aef62ead48fcff6b",
        "4bb3c5b278dfdb29019ac898e19623067ccbe063e6240dda1a789408ed98e22a"),
    "icosahedron": (
        "13cf01ed410b7b253f163f2c6cb849803992de748f2f3f8b6b2c58f9533c20d4",
        "4bb3c5b278dfdb29019ac898e19623067ccbe063e6240dda1a789408ed98e22a"),
    "icosahedron-bary1": (
        "63c39726aac763af6c2cefbb70428390980d78b86f7bc93c21ebe3d58982fdfa",
        "4bb3c5b278dfdb29019ac898e19623067ccbe063e6240dda1a789408ed98e22a"),
    "octahedron-split2": (
        "08c6221e6ae35ff9d0712e494a8cde64abe9f659f2867c4c6fd046f5621fe025",
        "4bb3c5b278dfdb29019ac898e19623067ccbe063e6240dda1a789408ed98e22a"),
    "chain-m1": (
        "6aaca31766c9b4fe03d5cd9e45ae894e483a9e065c9fad85bd683099479bffe6",
        "32d49a0426a335aebffa038521f070f237cceec329c3185d5d8a3bf834322fc4"),
    "chain-m3": (
        "861bfd2c1eaa66277d8384fd8c5635afe9505df1e98ca2042f9345ef9744b13a",
        "32d49a0426a335aebffa038521f070f237cceec329c3185d5d8a3bf834322fc4"),
    "smooth": (
        "6055b2fa616e0c8f72b432bf617d38bfdc8593656b3897f5af371d1367d3dfe7",
        "32d49a0426a335aebffa038521f070f237cceec329c3185d5d8a3bf834322fc4"),
}


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def row_to_json(row):
    """A spectral row as {q, modules, differentials}, each differential a
    dense matrix document of shape (modules[i+1], modules[i])."""
    return {"q": row.q, "modules": list(row.modules), "differentials": [
        matrix_to_json(_dense(d, (m, n))) for d, m, n
        in zip(row.differentials, row.modules[1:], row.modules)]}


def report_to_json(report):
    """Rows of {position, betti, torsion} entries for an e2_report result."""
    return [[{"position": i, "betti": betti, "torsion": list(torsion)}
             for i, (betti, torsion) in enumerate(row)] for row in report]


class TestSparseRows:
    """The rows hold the elimination engine's sparse input, built from the
    face lists; the dense boundary matrices are the oracle."""

    @pytest.mark.parametrize("name", sorted(ROW_DIGESTS))
    def test_json_and_report_bytes(self, name):
        rows = list(boundary_rows(ROW_FIBERS[name]()))
        assert (_sha(dumps([row_to_json(r) for r in rows])),
                _sha(dumps(report_to_json(e2_report(rows))))) \
            == ROW_DIGESTS[name]

    def test_rows_equal_dense_route(self, monkeypatch):
        # the corpus holds complexes no fiber has (loop edges, tori, RP^2);
        # boundary_rows reads only the Clemens polytope, so it is swapped in
        for ds in recognition_corpus():
            monkeypatch.setattr(weightss, "clemens_polytope",
                                lambda f, ds=ds: ds)
            cochain, chain_row = boundary_rows(None)
            dense = {q: ds.boundary_matrix(q) for q in (1, 2)}
            assert cochain.differentials == tuple(
                _sparse_rows(dense[q].transpose()) for q in (1, 2))
            assert chain_row.differentials == tuple(
                _sparse_rows(dense[q]) for q in (2, 1))
            cochain_h, chain_h = e2_report([cochain, chain_row])
            assert cochain_h == [cohomology(ds, q) for q in range(3)]
            assert chain_h == [homology(ds, q) for q in (2, 1, 0)]

    def test_report_leaves_rows_intact(self):
        rows = list(boundary_rows(ROW_FIBERS["icosahedron-bary1"]()))
        before = copy.deepcopy(rows)
        report = e2_report(rows)
        assert e2_report(rows) == report
        assert rows == before

    def test_negative_module_refused(self):
        with pytest.raises(ValueError, match="^module rank -3 is negative$"):
            SpectralRow(q=0, modules=(-3,), differentials=())

    def test_zero_entry_and_empty_row_refused(self):
        why = ("differential 1 has an empty row, a zero entry or one outside "
               "shape (1, 1)")
        for d in ({0: {0: 0}}, {0: {}}, {0: {-1: 1}}, {-1: {0: 1}}):
            with pytest.raises(ValueError, match="^%s$" % re.escape(why)):
                SpectralRow(q=0, modules=(1, 1, 1),
                            differentials=({0: {0: 1}}, d))


class TestType2Row:
    def test_m3(self):
        d1, d3, n, r1 = type2_h1_row(3)
        assert n == IntMatrix([[3, 0], [0, 3]])
        assert r1 == 9

    def test_m1(self):
        d1, d3, n, r1 = type2_h1_row(1)
        assert d1.shape == (2, 0)
        assert n == IntMatrix.identity(2)
        assert r1 == 1

    def test_m2_cokernel_free_rank2(self):
        d1, _, _, _ = type2_h1_row(2)
        dec = smith_normal_form(d1)
        assert d1.shape == (4, 2)
        assert dec.invariant_factors == (1, 1)
        # cokernel = Z^4 / im is free of rank 2

    def test_r1_is_m_squared(self):
        for m in range(1, 51):
            _, _, n, r1 = type2_h1_row(m)
            assert r1 == m * m
            assert n == IntMatrix.diagonal([m, m])

    def test_diagram_relations(self):
        # the diagonal lands in ker(d3) and the summation kills im(d1)
        for m in (1, 2, 5):
            d1, d3, n, _ = type2_h1_row(m)
            h = 2
            diagonal = IntMatrix([[int(a % h == b) for b in range(h)]
                                  for a in range(m * h)], cols=h)
            summation = IntMatrix([[int(a == b % h) for b in range(m * h)]
                                   for a in range(h)], cols=m * h)
            assert (d3 @ diagonal).is_zero()
            assert (summation @ d1).is_zero()
            assert summation @ diagonal == n

    def test_rows_have_free_curve_cohomology(self):
        # d1 sits in the stratum-degree-1 row, d3 in the degree-3 row; each
        # row has a single differential whose cokernel side is free of rank 2
        for m in (2, 3, 4):
            d1, d3, _, _ = type2_h1_row(m)
            row1 = SpectralRow(q=1, modules=(2 * (m - 1), 2 * m),
                               differentials=(_sparse_rows(d1),))
            row3 = SpectralRow(q=3, modules=(2 * m, 2 * (m - 1)),
                               differentials=(_sparse_rows(d3),))
            rep1, rep3 = e2_report([row1, row3])
            assert rep1 == [(0, ()), (2, ())]
            assert rep3 == [(2, ()), (0, ())]

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            type2_h1_row(0)


class TestE2Report:
    def test_torsion_flagged(self):
        row = SpectralRow(q=0, modules=(1, 1),
                          differentials=({0: {0: 2}},))
        report = e2_report([row])[0]
        assert report[0] == (0, ())
        assert report[1] == (0, (2,))

    def test_shape_violation(self):
        with pytest.raises(ValueError):
            SpectralRow(q=0, modules=(2, 2),
                        differentials=({2: {0: 1}},))

    def test_nonzero_composition_rejected(self):
        d = {0: {0: 1}}
        with pytest.raises(ValueError):
            SpectralRow(q=0, modules=(1, 1, 1), differentials=(d, d))


class TestMonodromyGram:
    def test_tetra(self):
        mg = monodromy_gram(tetra_fiber())
        assert mg.gram == IntMatrix([[4]])
        assert mg.r_d == 4

    def test_chain_rejected(self):
        with pytest.raises(ValueError):
            monodromy_gram(chain_fiber(2))

    def test_positive_definite(self):
        mg = monodromy_gram(tetra_fiber())
        assert mg.gram[0, 0] > 0
