"""Abstract triangulated sets and their integral (co)homology.

A ``DeltaSet`` stores, per dimension, a list of simplices and for each
q-simplex its ordered faces d_0, ..., d_q.  The simplicial identities
d_i d_j = d_{j-1} d_i (i < j) are checked at construction.  Unlike a
simplicial complex, several simplices may sit on the same vertex set --
the 2-gon circle and the torus-quotient nerves need exactly that.

Homology comes from one memoized sparse elimination per Delta-set and degree,
fed straight from the face lists.  Recognition eliminates nothing; the top
homology is one orientation pass on a closed, connected, oriented
2-pseudomanifold and the top-degree kernel of that elimination elsewhere; a
free generator below the top degree pairs the sparse kernels of a boundary
and a coboundary.  Nothing in the library calls ``boundary_matrix``, the one
dense build: it is the dense oracle of the tests.
``quotient_by_involution`` builds the orbit Delta-set of an involution that
is free on positive-dimensional simplices (fixed simplices are allowed when
they are fixed together with all of their faces); the orbit cells inherit
consistent orderings found by a small backtracking search, and the
construction fails loudly when no consistent ordering exists, in which case
a barycentric refinement of the input is the documented way out.  Both
refinements, barycentric and edge-split, are written out by formula and
stop at dimension 2, the largest a Clemens polytope has.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import chain, compress, count, permutations
from math import gcd
from operator import add, eq, ge, itemgetter, mul, ne
from typing import Sequence

from .intlinalg import (IntMatrix, _chain_normalize, _dense, _int_rows,
                        _sparse_reduce)
# unused here; perfbench/selftest.py reads and patches deltaset.kernel_basis
from .intlinalg import kernel_basis  # noqa: F401


class QuotientError(ValueError):
    """The orbit space admits no Delta-set structure on these cells."""


def _take(seq, ids) -> tuple:
    """``seq[i]`` for each i in ``ids``, in one C-level pass."""
    return itemgetter(*ids)(seq) if len(ids) > 1 \
        else tuple(seq[i] for i in ids)


def _symmetric(slots) -> list:
    """The elementary symmetric functions e_1, ..., e_k of the k entries of
    each row, from the rows' k slot columns: they agree on two rows exactly
    when the rows hold the same multiset."""
    e = [slots[0]]
    for x in slots[1:]:
        e = ([list(map(add, e[0], x))]
             + [list(map(add, hi, map(mul, x, lo)))
                for lo, hi in zip(e, e[1:])]
             + [list(map(mul, x, e[-1]))])
    return e


class DeltaSet:
    """Abstract triangulated set; logically immutable after construction:
    the ``_memo`` dict only keeps the shape, the orientation and the
    boundary reductions."""

    __slots__ = ("_counts", "_faces", "_memo")

    def __init__(self, num_vertices: int,
                 faces: Sequence[Sequence[Sequence[int]]] = ()):
        """``faces[q-1][s]`` lists the q+1 faces of the s-th q-simplex.

        Trailing empty dimensions are dropped; a float or boolean is refused.
        The face counts, the face ranges and the simplicial identities are
        checked in flat passes over the face ids taken slot by slot; only a
        failed pass scans simplex by simplex, to name the first failure.
        """
        counts = [num_vertices]
        _int_rows([counts], "vertex count")
        if num_vertices < 0:
            raise ValueError("vertex count %d is negative" % num_vertices)
        stored = [_int_rows(level, "face id") for level in faces]
        while stored and not stored[-1]:
            stored.pop()
        slots = []  # slots[q-1][j]: face j of each q-simplex
        for q, level in enumerate(stored, start=1):
            counts.append(len(level))
            slots.append(tuple(zip(*level)))
            if set(map(len, level)) == {q + 1} \
                    and min(map(min, slots[-1])) >= 0 \
                    and max(map(max, slots[-1])) < counts[q - 1]:
                continue
            # an empty level, or some simplex is bad: report the first
            for s, fs in enumerate(level):
                if len(fs) != q + 1:
                    raise ValueError(
                        "simplex %d of dimension %d has %d faces, expected %d"
                        % (s, q, len(fs), q + 1))
                below = counts[q - 1]
                for f in fs:
                    if not 0 <= f < below:
                        raise ValueError(
                            "face id %d out of range in dimension %d" % (f, q))
        self._counts = tuple(counts)
        self._faces = tuple(stored)
        self._memo = {}
        for q in range(2, self.dim + 1):
            pairs = [(i, j) for j in range(q + 1) for i in range(j)]
            # d_i d_j = d_{j-1} d_i, slot by slot: lower[fs[j]][i] is
            # slot i of the face in slot j
            up, down = slots[q - 1], slots[q - 2]
            if all(_take(down[i], up[j]) == _take(down[j - 1], up[i])
                   for i, j in pairs):
                continue
            lower = self._faces[q - 2]
            for s, fs in enumerate(self._faces[q - 1]):
                for i, j in pairs:
                    if lower[fs[j]][i] != lower[fs[i]][j - 1]:
                        raise ValueError(
                            "simplicial identity fails at %d-simplex %d "
                            "(i=%d, j=%d)" % (q, s, i, j))

    # -- queries ------------------------------------------------------

    @property
    def counts(self) -> tuple[int, ...]:
        return self._counts

    @property
    def dim(self) -> int:
        return len(self._counts) - 1

    def n(self, q: int) -> int:
        if 0 <= q <= self.dim:
            return self._counts[q]
        return 0

    def face(self, q: int, s: int, j: int) -> int:
        return self._faces[q - 1][s][j]

    def faces(self, q: int, s: int) -> tuple[int, ...]:
        return self._faces[q - 1][s]

    def simplices(self, q: int) -> range:
        return range(self.n(q))

    def vertex_tuple(self, q: int, s: int) -> tuple[int, ...]:
        """The vertex id in each of the q+1 slots of a q-simplex."""
        out = []
        for target in range(q + 1):
            cur, cur_dim, k = s, q, target
            while cur_dim > 0:
                if k < cur_dim:
                    cur = self.face(cur_dim, cur, cur_dim)
                else:
                    cur = self.face(cur_dim, cur, 0)
                    k -= 1
                cur_dim -= 1
            out.append(cur)
        return tuple(out)

    def boundary_matrix(self, q: int) -> IntMatrix:
        """The boundary map C_q -> C_{q-1} as a dense matrix."""
        return _dense(_boundary_rows(self, q), (self.n(q - 1), self.n(q)))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DeltaSet) and self._counts == other._counts \
            and self._faces == other._faces

    def __hash__(self) -> int:
        return hash((self._counts, self._faces))

    def __repr__(self) -> str:
        return "DeltaSet(counts=%r)" % (self._counts,)


@dataclass(frozen=True)
class CycleVector:
    """An integer q-cycle: one coefficient per q-simplex."""

    dimension: int
    coefficients: tuple[int, ...]


class Shape(enum.Enum):
    POINT = "point"
    INTERVAL = "interval"
    SPHERE2 = "sphere2"
    OTHER = "other"


# ---------------------------------------------------------------------------
# homology
# ---------------------------------------------------------------------------

def _boundary_rows(ds: DeltaSet, q: int) -> dict[int, dict[int, int]]:
    """The nonzero entries of the boundary map C_q -> C_{q-1} as
    {face: {simplex: sign}}; entries accumulate, so repeated faces cancel
    (a loop edge has zero boundary)."""
    rows: dict[int, dict[int, int]] = {}
    for s, fs in enumerate(ds._faces[q - 1] if 0 < q <= ds.dim else ()):
        column: dict[int, int] = {}
        for j, f in enumerate(fs):
            column[f] = column.get(f, 0) + (-1) ** j
        for f, x in column.items():
            if x:
                rows.setdefault(f, {})[s] = x
    return rows


def _coboundary_rows(ds: DeltaSet, q: int) -> dict[int, dict[int, int]]:
    """The same entries as {simplex: {face: sign}}, the rows of the
    coboundary C^{q-1} -> C^q: the transpose of ``_boundary_rows``, so a
    simplex of zero boundary has no row."""
    rows: dict[int, dict[int, int]] = {}
    for f, row in _boundary_rows(ds, q).items():
        for s, x in row.items():
            rows.setdefault(s, {})[f] = x
    return rows


def _is_cycle(ds: DeltaSet, q: int, coeffs: Sequence[int]) -> bool:
    """Is this q-chain a cycle?  Face j adds (-1)^j c to the boundary."""
    boundary = [0] * ds.n(q - 1)
    for c, fs in zip(coeffs, ds._faces[q - 1] if q else ()):
        for f in fs:
            boundary[f] += c
            c = -c
    return not any(boundary)


def _boundary_reduction(ds: DeltaSet, q: int):
    """Rank, invariant factors and, at the top degree only (else None), a
    kernel basis as coefficient tuples, of the boundary map C_q -> C_{q-1},
    kept in the memo; ``_top_cycles`` reads the kernel only where no
    orientation exists."""
    if q in ds._memo:
        return ds._memo[q]
    top = q == ds.dim
    if 0 < q <= ds.dim:
        pivots, kernel = _sparse_reduce(_boundary_rows(ds, q), ds.n(q),
                                        want_kernel=top)
    else:  # a zero map: at the top degree its kernel is all of C_q
        pivots, kernel = [], [{s: 1} for s in ds.simplices(q) if top]
    cycles = tuple(tuple(col.get(s, 0) for s in ds.simplices(q))
                   for col in kernel) if top else None
    ds._memo[q] = len(pivots), _chain_normalize(pivots), cycles
    return ds._memo[q]


def homology(ds: DeltaSet, q: int) -> tuple[int, tuple[int, ...]]:
    """H_q as (betti number, invariant factors > 1)."""
    if q < 0 or q > ds.dim:
        return (0, ())
    rank_down = _boundary_reduction(ds, q)[0]
    rank_up, factors, _ = _boundary_reduction(ds, q + 1)
    betti = ds.n(q) - rank_down - rank_up
    torsion = tuple(d for d in factors if d > 1)
    return (betti, torsion)


def cohomology(ds: DeltaSet, q: int) -> tuple[int, tuple[int, ...]]:
    """H^q by the universal coefficient theorem: the Betti number of H_q
    and the torsion of H_{q-1}."""
    if q < 0 or q > ds.dim:
        return (0, ())
    return (homology(ds, q)[0], homology(ds, q - 1)[1])


def euler_characteristic(ds: DeltaSet) -> int:
    return sum((-1) ** q * n for q, n in enumerate(ds.counts))


def _top_cycles(ds: DeltaSet) -> list[CycleVector]:
    """A Z-basis of the top homology, each vector checked to be a cycle; a
    single generator has its first nonzero coefficient positive.  Across
    each edge of a closed 2-pseudomanifold a cycle's coefficient on one
    side fixes the other's, so ker d2 = Z sign for the ``_oriented`` signs,
    shared with ``recognize``; elsewhere the basis is the memo's kernel."""
    d = ds.dim
    sign = _oriented(ds) if d == 2 else None
    columns = [sign] if sign else list(_boundary_reduction(ds, d)[2])
    if len(columns) == 1 and next(c for c in columns[0] if c) < 0:
        columns = [tuple(-c for c in columns[0])]
    assert all(_is_cycle(ds, d, c) for c in columns)
    return [CycleVector(d, c) for c in columns]


def top_cycle_generator(ds: DeltaSet, d: int) -> CycleVector:
    """A generator of H_d modulo torsion, for rank exactly 1: at the top
    degree the ``_top_cycles`` vector.  Below it, a cocycle phi kills
    boundaries, so phi(z) = a b(z) for the class b(z) of a cycle z in
    H_d / torsion = Z; by the universal coefficient theorem some basis
    cocycle has a != 0.  The first such one and an extended gcd over the
    cycle basis, last column first, give a z with phi(z) = +-|a|, so
    b(z) = +-1; H_0 of a connected complex gives its last vertex.  The
    first nonzero coefficient is made positive."""
    if d == ds.dim:
        top = _top_cycles(ds)
        betti = len(top)
    else:  # rank-nullity for d_d and d_{d+1}
        cycles = _sparse_reduce(_boundary_rows(ds, d), ds.n(d),
                                want_kernel=True)[1][::-1]
        cocycles = _sparse_reduce(_coboundary_rows(ds, d + 1), ds.n(d),
                                  want_kernel=True)[1]
        betti = len(cycles) + len(cocycles) - ds.n(d)
    if betti != 1:
        raise ValueError("H_%d has free rank %d, expected 1" % (d, betti))
    if d == ds.dim:
        return top[0]
    for phi in cocycles:
        values = [sum(x * phi.get(s, 0) for s, x in z.items())
                  for z in cycles]
        if any(values):
            break
    gen: dict[int, int] = {}
    g = 0  # phi(gen)
    for z, v in zip(cycles, values):
        if v and (not g or v % g):
            h = gcd(g, v)
            t = pow(v // h, -1, abs(g) // h) if g else v // h
            u = (h - t * v) // g if g else 0  # u g + t v = h
            gen = {s: u * gen.get(s, 0) + t * z.get(s, 0)
                   for s in gen.keys() | z.keys()}
            g = h
    coeffs = [gen.get(s, 0) for s in ds.simplices(d)]
    if next((c for c in coeffs if c), 0) < 0:
        coeffs = [-c for c in coeffs]
    assert _is_cycle(ds, d, coeffs)
    return CycleVector(dimension=d, coefficients=tuple(coeffs))


def cycle_pairing(x: CycleVector, y: CycleVector) -> int:
    """Coefficient pairing sum_v a_v b_v on top cycles."""
    if x.dimension != y.dimension:
        raise ValueError("cycle dimensions differ")
    if len(x.coefficients) != len(y.coefficients):
        raise ValueError("cycle lengths differ")
    return sum(a * b for a, b in zip(x.coefficients, y.coefficients))


# ---------------------------------------------------------------------------
# shape recognition
# ---------------------------------------------------------------------------

def recognize(ds: DeltaSet) -> Shape:
    """Point / interval / 2-sphere recognition; anything else is OTHER.

    A 1-complex is an interval when it is connected, no valence exceeds 2
    and exactly two vertices have valence 1.  A closed 2-pseudomanifold
    (every edge on two triangle sides) is its normalisation N, a closed
    surface, with j identifications of vertices.  If N is connected and
    oriented of genus g, chi = 2 - 2g - j, so chi = 2 holds only for S^2
    (Hatcher, Algebraic Topology, 3.3).  No elimination runs, and the shape
    is kept in the memo."""
    if "shape" in ds._memo:
        return ds._memo["shape"]
    shape = Shape.OTHER
    if ds.counts == (1,):
        shape = Shape.POINT
    elif ds.dim == 1:
        adjacent: list[list[int]] = [[] for _ in ds.simplices(0)]
        for b, a in ds._faces[0]:
            adjacent[a].append(b)
            adjacent[b].append(a)
        valence = [len(near) for near in adjacent]
        if max(valence) <= 2 and valence.count(1) == 2:
            seen = [True] + [False] * (ds.n(0) - 1)
            queue = [0]  # grows while it is read
            for v in queue:
                for w in adjacent[v]:
                    if not seen[w]:
                        seen[w] = True
                        queue.append(w)
            if len(queue) == ds.n(0):
                shape = Shape.INTERVAL
    elif ds.dim == 2:
        used = {v for fs in ds._faces[0] for v in fs}
        if len(used) == ds.n(0) and _oriented(ds) is not None \
                and euler_characteristic(ds) == 2:
            shape = Shape.SPHERE2
    ds._memo["shape"] = shape
    return shape


def _oriented(ds: DeltaSet) -> tuple[int, ...] | None:
    """``_orientation(ds)``, run on first use and kept in the memo."""
    if "sign" not in ds._memo:
        ds._memo["sign"] = _orientation(ds)
    return ds._memo["sign"]


def _orientation(ds: DeltaSet) -> tuple[int, ...] | None:
    """Signs from one breadth-first pass from triangle 0 of a closed
    2-pseudomanifold (every edge on exactly two triangle sides) that cancel
    on the sides (t, j), (o, k) of each edge, sign[t] (-1)^j + sign[o]
    (-1)^k = 0; None if there are none or the pass misses a triangle."""
    sides: list[list[tuple[int, int]]] = [[] for _ in ds.simplices(1)]
    for t, fs in enumerate(ds._faces[1]):
        for j, e in enumerate(fs):
            sides[e].append((t, j))
    if any(len(two) != 2 for two in sides):
        return None
    sign = [1] + [0] * (ds.n(2) - 1)
    queue = [0]  # grows while it is read: breadth-first order
    for t in queue:
        for j, e in enumerate(ds._faces[1][t]):
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


def relabel(ds: DeltaSet, perms: Sequence[Sequence[int]]) -> DeltaSet:
    """Apply one permutation of simplex ids per dimension.

    ``perms[q][old_id] = new_id``; used to check that recognition and
    homology do not depend on the labelling.
    """
    if len(perms) != ds.dim + 1:
        raise ValueError("need one permutation per dimension")
    for q, p in enumerate(perms):
        if sorted(p) != list(range(ds.n(q))):
            raise ValueError("invalid permutation in dimension %d" % q)
    levels = []
    for q in range(1, ds.dim + 1):
        level: list[tuple[int, ...] | None] = [None] * ds.n(q)
        for s in ds.simplices(q):
            level[perms[q][s]] = tuple(perms[q - 1][f] for f in ds.faces(q, s))
        levels.append(level)
    return DeltaSet(ds.n(0), levels)


# ---------------------------------------------------------------------------
# refinements
# ---------------------------------------------------------------------------

def refine_barycentric(ds: DeltaSet) -> DeltaSet:
    """Barycentric subdivision for complexes of dimension <= 2.

    Old vertices keep their ids; the barycenters of edge e and of triangle
    t follow, at n0 + e and n0 + n1 + t.  Edge 2e + a runs from the
    barycenter of e to its slot-a vertex, face d_{1-a}.  Each triangle then
    adds six edges from its barycenter to those of its slot subsets (0),
    (1), (2), (0, 1), (0, 2), (1, 2), and six triangles, one per flag
    (a) < pair with the pairs in that order and a ascending; a triangle's
    faces are the pair edge, the vertex edge and the half of the pair's
    input edge at a.
    """
    if ds.dim > 2:
        raise ValueError("barycentric refinement is limited to dimension <= 2")
    n0, n1 = ds.n(0), ds.n(1)
    edges = [(n0 + e, v) for e in ds.simplices(1)
             for v in reversed(ds.faces(1, e))]  # d1 = slot 0, d0 = slot 1

    triangles: list[tuple[int, int, int]] = []
    for t, (e0, e1, e2) in enumerate(ds._faces[1] if ds.dim == 2 else ()):
        c = len(edges)
        pairs = (((0, 1), e2), ((0, 2), e1), ((1, 2), e0))  # d_k drops slot k
        edges += [(n0 + n1 + t, v) for v in ds.vertex_tuple(2, t)]
        edges += [(n0 + n1 + t, n0 + e) for _, e in pairs]
        triangles += [(c + 3 + p, c + a, 2 * e + i)
                      for p, (pair, e) in enumerate(pairs)
                      for i, a in enumerate(pair)]

    return DeltaSet(n0 + n1 + ds.n(2), [edges, triangles])


def refine_edge_split(ds: DeltaSet) -> DeltaSet:
    """Midpoint (1-to-4) subdivision for complexes of dimension <= 2.

    Old vertices keep their ids; edge midpoints follow.  Each edge splits
    in two, each triangle into three corner triangles and a center one.
    """
    if ds.dim > 2:
        raise ValueError("edge-split refinement is limited to dimension <= 2")
    n0, n1 = ds.n(0), ds.n(1)
    mid = lambda e: n0 + e

    # halves: edge e = (tail a, head b) -> 2e = (a, mid), 2e + 1 = (b, mid)
    edges = [(mid(e), v) for e in ds.simplices(1)
             for v in reversed(ds.faces(1, e))]  # d0 = head, d1 = tail

    triangles: list[tuple[int, int, int]] = []
    if ds.dim == 2:
        # center edges 2 n1 + 3t + (0, 1, 2) join the midpoints of slots
        # (0, 1), (0, 2), (1, 2) of triangle t: keyed by triangle and slot
        # pair, never by edge ids, so repeated faces and loop edges stay
        # unambiguous
        for t, (e0, e1, e2) in enumerate(ds._faces[1]):
            c = len(edges)
            edges += ((mid(e1), mid(e0)), (mid(e2), mid(e0)),
                      (mid(e2), mid(e1)))
            # the corners at slots 0, 1, 2, then the center triangle
            triangles += ((c + 2, 2 * e2, 2 * e1), (c + 1, 2 * e2 + 1, 2 * e0),
                          (c, 2 * e1 + 1, 2 * e0 + 1), (c + 2, c + 1, c))

    return DeltaSet(n0 + n1, [edges, triangles])


# ---------------------------------------------------------------------------
# involutions and quotients
# ---------------------------------------------------------------------------

class Involution:
    """A Delta-set automorphism of order dividing 2.

    ``maps[q][s]`` is the image of the s-th q-simplex.  The map may reorder
    the faces of a simplex it moves (geometrically: reverse orientations);
    a simplex mapped to itself must be fixed together with all its faces.
    Each level is checked in flat passes: the map composed with itself, and
    the symmetric functions of the images of the faces of each simplex
    against those of the faces of its image; only a failed pass scans
    simplex by simplex, to name the first failure.
    """

    def __init__(self, ds: DeltaSet, maps: Sequence[Sequence[int]]):
        if len(maps) != ds.dim + 1:
            raise ValueError("need one map per dimension")
        self.ds = ds
        self.maps = _int_rows(maps, "simplex image")
        for q, level in enumerate(self.maps):
            if sorted(level) != list(range(ds.n(q))):
                raise ValueError("map in dimension %d is not a bijection" % q)
            if _take(level, level) == tuple(range(ds.n(q))):
                continue
            for s, img in enumerate(level):
                if level[img] != s:
                    raise ValueError("map is not an involution at (%d, %d)"
                                     % (q, s))
        for q, level in enumerate(self.ds._faces, start=1):
            below, here = self.maps[q - 1], self.maps[q]
            slots = tuple(zip(*level))
            fixed = compress(count(), map(eq, here, count()))
            if _symmetric([_take(below, x) for x in slots]) \
                    == _symmetric([_take(x, here) for x in slots]) \
                    and all(below[f] == f for s in fixed for f in level[s]):
                continue
            target = [sorted(fs) for fs in level]
            for s, (img, fs) in enumerate(zip(here, level)):
                if sorted(map(below.__getitem__, fs)) != target[img]:
                    raise ValueError(
                        "not an automorphism: faces of %d-simplex %d do not "
                        "match faces of its image" % (q, s))
                if img == s:
                    for f in fs:
                        if below[f] != f:
                            raise ValueError(
                                "%d-simplex %d is stabilized but not fixed "
                                "pointwise; refine first" % (q, s))

    def is_free_on_positive(self) -> bool:
        return all(map(ne, chain.from_iterable(self.maps[1:]),
                       chain.from_iterable(map(range, self.ds.counts[1:]))))

    def fixed_vertices(self) -> list[int]:
        return list(compress(count(), map(eq, self.maps[0], count())))


def quotient_by_involution(ds: DeltaSet, sigma: Involution) -> DeltaSet:
    """The orbit Delta-set; see the module docstring for the ground rules."""
    if sigma.ds is not ds and sigma.ds != ds:
        raise ValueError("involution was built for a different Delta-set")
    if ds.dim > 2:
        raise QuotientError("quotients are supported up to dimension 2")

    # orbits, indexed by their smaller representative in ascending order
    reps: list[list[int]] = []
    orbit_of: list[list[int]] = []
    for level in sigma.maps:
        rep_ids = list(compress(count(), map(ge, level, count())))
        orbit = [0] * len(level)
        for i, r in enumerate(rep_ids):
            orbit[r] = orbit[level[r]] = i
        reps.append(rep_ids)
        orbit_of.append(orbit)

    if ds.dim == 0:
        return DeltaSet(len(reps[0]))

    # quotient (tail, head) of each edge orbit, in the representative's
    # order, and its flip: None while free, False for a fixed edge
    vorb = orbit_of[0]
    heads, tails = (_take(vorb, x) for x in zip(*ds._faces[0]))
    e_ends = list(zip(_take(tails, reps[1]), _take(heads, reps[1])))
    flips: list[bool | None] = [
        False if img == e else None
        for e, img in zip(reps[1], _take(sigma.maps[1], reps[1]))]

    new_tris = []
    if ds.dim == 2:
        all_orders = list(permutations(range(3)))
        slots = tuple(zip(*_take(ds._faces[1], reps[2])))
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
                k, assigned = placed.pop()
                for eo in assigned:
                    flips[eo] = None
                k += 1
        new_tris = [None] * len(tris)
        for (i, e_orbs, _, taus), (k, _) in zip(tris, placed):
            a, b, c = taus[k]
            new_tris[i] = (e_orbs[a], e_orbs[b], e_orbs[c])

    # (head, tail) of each edge orbit: the representative's, or flipped
    new_edges = [ends if flip else ends[::-1]
                 for ends, flip in zip(e_ends, flips)]
    return DeltaSet(len(reps[0]), [new_edges, new_tris])
