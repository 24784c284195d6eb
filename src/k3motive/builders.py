"""Constructors for the example families: chains, sphere fibers, Kummer.

``build_type2_chain``, ``build_type3`` and ``build_kummer`` produce Kulikov
fibers.  ``build_kummer`` models the torus-quotient degeneration of a Kummer
surface: the nerve is the quotient of an m1 x m2 grid torus by simultaneous
negation, and it is the dual complex of a type-III model whose components
are rational surfaces, one per vertex orbit.  A generic component is the
toric surface of the hexagonal fan (a = 4, open part (L-1)^2); a component
over one of the four fixed vertices is that surface modulo -1 with its four
A1 points resolved (a = 7, open part 1 + 4L + L^2).  The integral is the sum
of the census classes; r2(A) comes from the rank-one lattice pairing with
value 1/(2 m1 m2), and r2 of the Kummer surface is the nerve's triangle
count, which the Gram determinant of the model confirms.
"""

from __future__ import annotations

from collections import Counter

from ._record import Record
from .deltaset import (
    DeltaSet,
    Involution,
    Shape,
    _take,
    quotient_by_involution,
    recognize,
    refine_barycentric,
    refine_edge_split,
)
from .fibers import (
    Component,
    DegenerationFiber,
    DoubleCurve,
    K3Smooth,
    Rational,
    RuledElliptic,
    WeakNeronData,
)
from .intlinalg import _int_rows
from .motives import MotiveClass

_L = MotiveClass.lefschetz

# open-stratum classes of the Kummer special fiber components: a two-torus
# for a generic vertex orbit; for a fixed vertex, the four-point blow-up of
# the two-torus modulo inversion, whose invariant E-polynomial is
# u^2 v^2 + 4uv + 1
KUMMER_GENERIC_CLASS = MotiveClass.one() + _L(1, -2) + _L(2)
KUMMER_SPECIAL_CLASS = MotiveClass.one() + _L(1, 4) + _L(2)


# ---------------------------------------------------------------------------
# built-in sphere triangulations
# ---------------------------------------------------------------------------

def _from_facets(num_vertices: int, facets) -> DeltaSet:
    facets = [tuple(sorted(f)) for f in facets]
    edges = sorted({(f[i], f[j]) for f in facets
                    for i in range(3) for j in range(i + 1, 3)})
    eid = {e: i for i, e in enumerate(edges)}
    edge_faces = [v for a, b in edges for v in (b, a)]
    tri_faces = [eid[e] for a, b, c in facets
                 for e in ((b, c), (a, c), (a, b))]
    return DeltaSet._flat(num_vertices, [edge_faces, tri_faces])


def tetrahedron() -> DeltaSet:
    return _from_facets(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


def octahedron() -> DeltaSet:
    return _from_facets(6, [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 1, 4),
                            (1, 2, 5), (2, 3, 5), (3, 4, 5), (1, 4, 5)])


def icosahedron() -> DeltaSet:
    facets = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
              (1, 2, 6), (2, 6, 7), (2, 3, 7), (3, 7, 8), (3, 4, 8),
              (4, 8, 9), (4, 5, 9), (5, 9, 10), (1, 5, 10), (1, 6, 10),
              (6, 7, 11), (7, 8, 11), (8, 9, 11), (9, 10, 11), (6, 10, 11)]
    return _from_facets(12, facets)


BUILTIN_SPHERES = {
    "tetrahedron": tetrahedron,
    "octahedron": octahedron,
    "icosahedron": icosahedron,
}


# ---------------------------------------------------------------------------
# Kulikov fibers
# ---------------------------------------------------------------------------

class ProfileError(ValueError):
    """A surface-invariant profile has the wrong length or total."""


def _checked_profile(a_profile, count: int, total: int) -> list[int]:
    """``count`` non-negative ``int``s summing to ``total``, else a
    ``ProfileError``; None spreads ``total`` as evenly as integers allow."""
    if a_profile is None:
        base, rem = divmod(total, count)
        return [base + 1 if i < rem else base for i in range(count)]
    try:
        a_profile = list(_int_rows([a_profile], "profile entry")[0])
    except ValueError as exc:
        raise ProfileError(str(exc)) from None
    if len(a_profile) != count:
        raise ProfileError("profile needs %d entries, got %d"
                           % (count, len(a_profile)))
    if sum(a_profile) != total:
        raise ProfileError("profile must sum to %d, got %d"
                           % (total, sum(a_profile)))
    if any(a < 0 for a in a_profile):
        raise ProfileError("profile entries must be non-negative")
    return a_profile


def _nerve_fiber(label: str, kinds: tuple, nerve: DeltaSet
                 ) -> DegenerationFiber:
    """The fiber with a component of each kind, one per vertex of the
    2-dimensional nerve, a rational double curve per edge on its (low, high)
    ends and a triple point per triangle on its faces, each numbered by
    position."""
    edges, tris = nerve._levels
    on = [0] * len(edges)
    on[0::2], on[1::2] = edges[1::2], edges[0::2]
    m = len(on) // 2
    return DegenerationFiber._of_columns(
        label, range(len(kinds)), kinds, range(m), tuple(on), (0,) * m,
        (None,) * m, (None,) * m, range(len(tris) // 3), tris)


def build_type1_smooth() -> DegenerationFiber:
    """The trivial smooth fiber: a single K3 component."""
    return DegenerationFiber.of("type1", [Component(0, K3Smooth())])


def build_type2_chain(m: int, a_profile=None) -> DegenerationFiber:
    """Chain fiber with m double curves: rational ends, elliptic-ruled
    interior, every double curve a copy of one elliptic curve E.

    The profile lists the m+1 surface invariants a_i and must sum to 20;
    the default puts 10 on each end.
    """
    if type(m) is not int:
        _int_rows([(m,)], "chain length")  # raises
    if m < 1:
        raise ValueError("chain length m must be >= 1")
    if a_profile is None:
        a_profile = [10] + [0] * (m - 1) + [10]
    a_profile = _checked_profile(a_profile, m + 1, 20)
    comps = [Component(0, Rational(a_profile[0]))]
    comps += [Component(i, RuledElliptic("E", a_profile[i]))
              for i in range(1, m)]
    comps.append(Component(m, Rational(a_profile[m])))
    curves = [DoubleCurve("c%d" % i, (i, i + 1), 1, curve="E")
              for i in range(m)]
    return DegenerationFiber.of("type2_m%d" % m, comps, curves)


def build_type3(tri, a_profile=None) -> DegenerationFiber:
    """Sphere fiber over a triangulation: rational components on vertices,
    rational double curves on edges, triple points on faces.

    ``tri`` is a Delta-set or a built-in name.  The profile must sum to
    20 + 2 * (number of faces); the default spreads it as evenly as
    integers allow.  The default gives the vertex v the surface invariant
    a_v = deg(v) - 2 + q_v, so that its charge 2 + a_v - deg(v) is q_v,
    with the 24 spread over the q_v as evenly as integers allow.
    """
    if isinstance(tri, str):
        try:
            tri = BUILTIN_SPHERES[tri]()
        except KeyError:
            raise ValueError("unknown triangulation %r" % (tri,)) from None
    if recognize(tri) != Shape.SPHERE2:
        raise ValueError("triangulation is not a 2-sphere")
    nv, nf = tri.n(0), tri.n(2)
    if a_profile is None:
        deg = Counter(tri._levels[0])
        a_profile = [deg[v] - 2 + q for v, q in
                     enumerate(_checked_profile(None, nv, 24))]
    a_profile = _checked_profile(a_profile, nv, 20 + 2 * nf)
    return _nerve_fiber("type3_f%d" % nf, tuple(map(Rational, a_profile)),
                        tri)


def refine_sphere(tri: DeltaSet, steps: int, style: str = "barycentric"
                  ) -> DeltaSet:
    """Iterated refinement that stays a 2-sphere.

    ``style`` is "barycentric" (faces x6) or "edge_split" (faces x4).
    """
    if type(steps) is not int or steps < 0:
        raise ValueError("steps %r is not a non-negative integer" % (steps,))
    refine = {"barycentric": refine_barycentric,
              "edge_split": refine_edge_split}.get(style)
    if refine is None:
        raise ValueError("unknown refinement style %r" % (style,))
    if recognize(tri) != Shape.SPHERE2:
        raise ValueError("input is not a 2-sphere")
    out = tri
    for _ in range(steps):
        out = refine(out)
    if steps and recognize(out) != Shape.SPHERE2:
        raise AssertionError("refinement left the 2-sphere class")
    return out


# ---------------------------------------------------------------------------
# Kummer fibers
# ---------------------------------------------------------------------------

class KummerParams(Record):
    """Diagonal valuations (m1, m2) of the period lattice; both even, so
    that the two-torsion is rational and negation fixes exactly four
    components."""

    m1: int
    m2: int

    def __post_init__(self):
        if type(self.m1) is not int or type(self.m2) is not int:
            _int_rows([(self.m1, self.m2)], "valuation")  # raises
        if self.m1 < 2 or self.m2 < 2:
            raise ValueError("valuations must be >= 2")
        if self.m1 % 2 or self.m2 % 2:
            raise ValueError("valuations must be even")


class Census(Record):
    generic: int
    special: int

    @property
    def total(self) -> int:
        return self.generic + self.special


class KummerReport(Record):
    fiber: DegenerationFiber
    nerve: DeltaSet
    component_census: Census
    r2_abelian: int
    r2_kummer: int
    integral: MotiveClass

    def neron_data(self) -> WeakNeronData:
        items = [(KUMMER_SPECIAL_CLASS, 0)] * self.component_census.special
        items += [(KUMMER_GENERIC_CLASS, 0)] * self.component_census.generic
        return WeakNeronData.of(items)


def torus_grid(m1: int, m2: int) -> DeltaSet:
    """m1 x m2 grid torus with the uniform main-diagonal split.

    Ids are arithmetic, indices taken mod (m1, m2): vertex (i, j) is
    v = i m2 + j.  From it run the edges 3v + 0 (h) to (i+1, j), 3v + 1 (v)
    to (i, j+1) and 3v + 2 (d) to (i+1, j+1), stored head first, and its
    square has the triangles 2v + 0 (L, faces: the v edge of (i+1, j), d,
    h) and 2v + 1 (U, faces: the h edge of (i, j+1), d, v).
    """
    if m1 < 1 or m2 < 1:
        raise ValueError("grid sides must be positive")
    n = m1 * m2
    # the neighbours (i+1, j), (i, j+1) and (i+1, j+1) of each vertex
    down = [*range(m2, n), *range(m2)]
    rotated = [*range(1, m2), 0]
    right = [row + j for row in range(0, n, m2) for j in rotated]
    edges, tris = [0] * (6 * n), [0] * (6 * n)
    edges[0::6], edges[2::6], edges[4::6] = down, right, _take(right, down)
    edges[1::6] = edges[3::6] = edges[5::6] = range(n)
    tris[0::6] = [3 * w + 1 for w in down]
    tris[1::6] = tris[4::6] = range(2, 3 * n, 3)
    tris[2::6] = range(0, 3 * n, 3)
    tris[3::6] = [3 * w for w in right]
    tris[5::6] = range(1, 3 * n, 3)
    return DeltaSet._flat(n, [edges, tris])


def torus_negation(m1: int, m2: int) -> tuple[DeltaSet, Involution]:
    """The grid torus together with (i, j) -> (-i, -j).

    On the ids of ``torus_grid``: h(i, j) goes to h(-i-1, -j), v(i, j) to
    v(-i, -j-1), d(i, j) to d(-i-1, -j-1), and L(i, j) and U(i, j) to U and
    L of (-i-1, -j-1).  The involution is only free on positive simplices
    for even sides.  So each map is the vertex negation taken at the head of
    the grid's h, v and d edges: (i+1, j), (i, j+1) and (i+1, j+1).
    """
    ds = torus_grid(m1, m2)
    edges = ds._levels[0]
    # row offsets 0, (m1-1) m2, ..., m2 and columns 0, m2-1, ..., 1
    cols = [0, *range(m2 - 1, 0, -1)]
    neg = [r + c for r in (0, *range((m1 - 1) * m2, 0, -m2)) for c in cols]
    diag = _take(neg, edges[4::6])
    emap, tmap = [0] * (3 * len(neg)), [0] * (2 * len(neg))
    emap[0::3] = [3 * w for w in _take(neg, edges[0::6])]
    emap[1::3] = [3 * w + 1 for w in _take(neg, edges[2::6])]
    emap[2::3] = [3 * w + 2 for w in diag]
    tmap[0::2] = [2 * w + 1 for w in diag]
    tmap[1::2] = [2 * w for w in diag]
    return ds, Involution(ds, [neg, emap, tmap])


def kummer_r2_abelian(p: KummerParams) -> tuple[int, int]:
    """Discriminant invariants from the lattice pairing.

    The pairing on the rank-one top lattice of the abelian surface has Gram
    value 1/(2 m1 m2), so r2(A) = 2 m1 m2; the degree-two quotient halves
    it for the Kummer surface.
    """
    r2_a = 2 * p.m1 * p.m2
    return r2_a, r2_a // 2


def build_kummer(p: KummerParams) -> KummerReport:
    """Torus-quotient model of a degenerate Kummer surface.

    The negation action is free on positive-dimensional grid simplices
    (2i = -1 has no solution modulo an even number), so the quotient nerve
    exists; it must pass 2-sphere recognition.  The integral is the sum of
    the census classes, and the fiber is the type-III fiber on the nerve
    with a = 4 on the generic components and a = 7 on the four fixed ones.
    """
    ds, sigma = torus_negation(p.m1, p.m2)
    if not sigma.is_free_on_positive():
        raise AssertionError("negation stabilizes a positive-dim simplex")
    fixed = sigma.fixed_vertices()
    if len(fixed) != 4:
        raise AssertionError("expected 4 fixed vertices, found %d"
                             % len(fixed))
    nerve = quotient_by_involution(ds, sigma)
    if recognize(nerve) != Shape.SPHERE2:
        raise AssertionError("quotient nerve failed 2-sphere recognition")

    n_total = p.m1 * p.m2 // 2 + 2
    census = Census(generic=n_total - 4, special=4)

    integral = (census.special * KUMMER_SPECIAL_CLASS
                + census.generic * KUMMER_GENERIC_CLASS)

    # the census shares one kind object per class
    kinds = [Rational(4)] * nerve.n(0)
    special = Rational(7)
    for v in fixed:
        kinds[sigma.orbit_of[0][v]] = special
    fiber = _nerve_fiber("kummer_%dx%d" % (p.m1, p.m2), tuple(kinds), nerve)

    r2_a, _ = kummer_r2_abelian(p)
    return KummerReport(fiber=fiber, nerve=nerve, component_census=census,
                        r2_abelian=r2_a, r2_kummer=nerve.n(2),
                        integral=integral)
