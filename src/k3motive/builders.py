"""Constructors for the example families: chains, sphere fibers, Kummer.

``build_type2_chain`` and ``build_type3`` produce honest Kulikov fibers.
``build_kummer`` models the torus-quotient degeneration of a Kummer surface:
the nerve is the quotient of an m1 x m2 grid torus by simultaneous negation,
the component census comes from the vertex orbits, and the integral is the
sum of the census classes.  The discriminant r2 is always computed from the
rank-one lattice pairing with value 1/(2 m1 m2), never from the grid-quotient
Gram pairing: the artificial triangulation is not the dual complex of a
semi-stable model, and its fiber is deliberately typed so that the Kulikov
evaluators reject it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .deltaset import (
    DeltaSet,
    Involution,
    Shape,
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
    Other,
    Rational,
    RuledElliptic,
    TriplePoint,
    WeakNeronData,
)
from .integrals import _warn_if_virtual
from .intlinalg import _int_rows
from .motives import MotiveClass

_L = MotiveClass.lefschetz

# open-stratum classes of the Kummer special fiber components: a two-torus
# for a generic vertex orbit; for a fixed vertex, the four-point blow-up of
# the two-torus modulo inversion, whose invariant E-polynomial is
# u^2 v^2 + 4uv + 1
KUMMER_GENERIC_CLASS = MotiveClass.one() + _L(1, -2) + _L(2)
KUMMER_SPECIAL_CLASS = MotiveClass.one() + _L(1, 4) + _L(2)

# classes of the complete components (closures in the model)
KUMMER_GENERIC_COMPLETE = MotiveClass.one() + _L(1, 2) + _L(2)
KUMMER_SPECIAL_COMPLETE = MotiveClass.one() + _L(1, 6) + _L(2)


# ---------------------------------------------------------------------------
# built-in sphere triangulations
# ---------------------------------------------------------------------------

def _from_facets(num_vertices: int, facets) -> DeltaSet:
    facets = [tuple(sorted(f)) for f in facets]
    edges = sorted({(f[i], f[j]) for f in facets
                    for i in range(3) for j in range(i + 1, 3)})
    eid = {e: i for i, e in enumerate(edges)}
    edge_faces = [(b, a) for a, b in edges]
    tri_faces = [(eid[(b, c)], eid[(a, c)], eid[(a, b)])
                 for a, b, c in facets]
    return DeltaSet(num_vertices, [edge_faces, tri_faces])


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


def _nerve_fiber(label: str, comps, nerve: DeltaSet) -> DegenerationFiber:
    """The fiber on these components, one per vertex of the nerve, with a
    rational double curve per edge and a triple point per triangle."""
    curves = [DoubleCurve(e, nerve.faces(1, e)[::-1], 0)
              for e in nerve.simplices(1)]
    triples = [TriplePoint(t, nerve.faces(2, t)) for t in nerve.simplices(2)]
    return DegenerationFiber.of(label, comps, curves, triples)


def build_type1_smooth() -> DegenerationFiber:
    """The trivial smooth fiber: a single K3 component."""
    return DegenerationFiber.of("type1", [Component(0, K3Smooth())])


def build_type2_chain(m: int, a_profile=None) -> DegenerationFiber:
    """Chain fiber with m double curves: rational ends, elliptic-ruled
    interior, every double curve a copy of one elliptic curve E.

    The profile lists the m+1 surface invariants a_i and must sum to 20;
    the default puts 10 on each end.
    """
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
    integers allow.
    """
    if isinstance(tri, str):
        try:
            tri = BUILTIN_SPHERES[tri]()
        except KeyError:
            raise ValueError("unknown triangulation %r" % (tri,)) from None
    if recognize(tri) != Shape.SPHERE2:
        raise ValueError("triangulation is not a 2-sphere")
    nv, nf = tri.n(0), tri.n(2)
    a_profile = _checked_profile(a_profile, nv, 20 + 2 * nf)
    comps = [Component(v, Rational(a_profile[v])) for v in range(nv)]
    return _nerve_fiber("type3_f%d" % nf, comps, tri)


def refine_sphere(tri: DeltaSet, steps: int, style: str = "barycentric"
                  ) -> DeltaSet:
    """Iterated refinement that stays a 2-sphere.

    ``style`` is "barycentric" (faces x6) or "edge_split" (faces x4).
    Beyond 20 faces the result exceeds the geometric K3 bound and is only
    good for complex-level property tests, not for fiber building.
    """
    if recognize(tri) != Shape.SPHERE2:
        raise ValueError("input is not a 2-sphere")
    refine = {"barycentric": refine_barycentric,
              "edge_split": refine_edge_split}[style]
    out = tri
    for _ in range(steps):
        out = refine(out)
    if steps and recognize(out) != Shape.SPHERE2:
        raise AssertionError("refinement left the 2-sphere class")
    return out


# ---------------------------------------------------------------------------
# Kummer fibers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KummerParams:
    """Diagonal valuations (m1, m2) of the period lattice; both even, so
    that the two-torsion is rational and negation fixes exactly four
    components."""

    m1: int
    m2: int

    def __post_init__(self):
        if self.m1 < 2 or self.m2 < 2:
            raise ValueError("valuations must be >= 2")
        if self.m1 % 2 or self.m2 % 2:
            raise ValueError("valuations must be even")


@dataclass(frozen=True)
class Census:
    generic: int
    special: int

    @property
    def total(self) -> int:
        return self.generic + self.special


@dataclass(frozen=True)
class KummerReport:
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
    edges = []
    tris = []
    for i in range(m1):
        row, down = i * m2, (i + 1) % m1 * m2
        for j in range(m2):
            v, right = row + j, (j + 1) % m2
            edges += ((down + j, v), (row + right, v), (down + right, v))
            tris += ((3 * (down + j) + 1, 3 * v + 2, 3 * v),
                     (3 * (row + right), 3 * v + 2, 3 * v + 1))
    return DeltaSet(m1 * m2, [edges, tris])


def torus_negation(m1: int, m2: int) -> tuple[DeltaSet, Involution]:
    """The grid torus together with (i, j) -> (-i, -j).

    On the ids of ``torus_grid``: h(i, j) goes to h(-i-1, -j), v(i, j) to
    v(-i, -j-1), d(i, j) to d(-i-1, -j-1), and L(i, j) and U(i, j) to U and
    L of (-i-1, -j-1).  The involution is only free on positive simplices
    for even sides.
    """
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


def kummer_r2_abelian(p: KummerParams) -> tuple[int, int]:
    """Discriminant invariants from the lattice pairing.

    The pairing on the rank-one top lattice of the abelian surface has Gram
    value 1/(2 m1 m2), so r2(A) = 2 m1 m2; the degree-two quotient halves
    it for the Kummer surface.
    """
    r2_a = 2 * p.m1 * p.m2
    r2_x = r2_a // 2
    _warn_if_virtual(r2_x)  # at ramification e = 1
    return r2_a, r2_x


def build_kummer(p: KummerParams) -> KummerReport:
    """Torus-quotient model of a degenerate Kummer surface.

    The negation action is free on positive-dimensional grid simplices
    (2i = -1 has no solution modulo an even number), so the quotient nerve
    exists; it must pass 2-sphere recognition.  The integral is the sum of
    the census classes; the fiber records the complete component classes
    and is intentionally not a Kulikov fiber.
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

    # orbit ids follow the representatives in ascending order; the census
    # shares one kind object per class
    reps = [v for v, img in enumerate(sigma.maps[0]) if img >= v]
    kinds = [Other(KUMMER_GENERIC_COMPLETE, betti=(1, 0, 2))] * nerve.n(0)
    special = Other(KUMMER_SPECIAL_COMPLETE, betti=(1, 0, 6))
    for v in fixed:
        kinds[bisect_left(reps, v)] = special
    comps = [Component(o, kind) for o, kind in enumerate(kinds)]
    fiber = _nerve_fiber("kummer_%dx%d" % (p.m1, p.m2), comps, nerve)

    r2_a, r2_x = kummer_r2_abelian(p)
    return KummerReport(fiber=fiber, nerve=nerve, component_census=census,
                        r2_abelian=r2_a, r2_kummer=r2_x, integral=integral)
