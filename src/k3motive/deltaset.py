"""Abstract triangulated sets and their integral (co)homology.

A ``DeltaSet`` stores, per dimension q >= 1, one flat tuple of face ids:
the ordered faces d_0, ..., d_q of each q-simplex in turn, so that slot
column j is a slice.  The library's builders hand such levels straight to
the checks; the nested constructor flattens its argument first.  The
simplicial identities d_i d_j = d_{j-1} d_i (i < j) are checked at
construction.  Unlike a simplicial complex, several simplices may sit on
the same vertex set -- the 2-gon circle and the torus-quotient nerves need
exactly that.

Homology comes from one memoized sparse elimination per Delta-set and degree,
fed straight from the face lists, with no kernel kept.  Recognition eliminates
nothing; the top homology is one orientation pass on a closed, connected,
oriented 2-pseudomanifold and one kernel-tracking elimination elsewhere.
Nothing in the library calls ``boundary_matrix``, the one dense build: it is
the dense oracle of the tests.
An ``Involution`` is checked level by level in up to two passes: one
slot permutation shared by every simplex, and a per-simplex scan that names
the first failure.
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
from itertools import chain, compress, count, permutations, repeat
from operator import eq, ge, getitem, itemgetter, mul, ne, not_
from typing import Sequence

from ._record import Record
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


def _chunks(level, k: int):
    """The consecutive k-tuples of a flat level: its simplices' faces."""
    return zip(*[iter(level)] * k)


class DeltaSet:
    """Abstract triangulated set; logically immutable after construction:
    the ``_memo`` dict only keeps the shape, the orientation and the
    boundary reductions.

    Each level q >= 1 is one flat tuple of face ids: the q-simplex s holds
    ``level[s*(q+1):(s+1)*(q+1)]``, and slot column j (face d_j of every
    q-simplex) is ``level[j::q+1]``."""

    __slots__ = ("_counts", "_levels", "_memo")

    def __init__(self, num_vertices: int,
                 faces: Sequence[Sequence[Sequence[int]]] = ()):
        """``faces[q-1][s]`` lists the q+1 faces of the s-th q-simplex.

        Trailing empty dimensions are dropped; a float or boolean is refused.
        The levels are flattened and checked by ``_check``, as the library's
        own flat levels are, which also checks each simplex's face count.
        """
        rows = [tuple(map(tuple, level)) for level in faces]
        self._check(num_vertices,
                    [tuple(chain.from_iterable(level)) for level in rows],
                    rows)

    @classmethod
    def _flat(cls, num_vertices: int, levels) -> "DeltaSet":
        """The Delta-set of these flat levels, as the library's builders
        make them, under the constructor's checks."""
        ds = cls.__new__(cls)
        ds._check(num_vertices, list(map(tuple, levels)), None)
        return ds

    def _check(self, num_vertices: int, levels: list, rows) -> None:
        """Check and store flat ``levels``; ``rows`` holds the nested
        levels they came from, or None for flat input.

        The face types, the face counts, the face ranges and the simplicial
        identities are checked in flat passes over the levels and their slot
        columns; only a failed pass scans simplex by simplex, to name the
        first failure."""
        counts = [num_vertices]
        _int_rows([counts], "vertex count")
        if num_vertices < 0:
            raise ValueError("vertex count %d is negative" % num_vertices)
        levels = list(_int_rows(levels, "face id"))
        if rows is not None:
            sizes = list(map(len, rows))
        else:  # flat input must hold whole simplices
            sizes = [len(level) // q for q, level in enumerate(levels, start=2)]
            for q, level in enumerate(levels, start=1):
                if len(level) % (q + 1):
                    raise ValueError("flat level of dimension %d holds %d "
                                     "face ids" % (q, len(level)))
        while sizes and not sizes[-1]:
            sizes.pop()
            levels.pop()
        for q, level in enumerate(levels, start=1):
            below = counts[-1]
            counts.append(sizes[q - 1])
            if rows is not None and set(map(len, rows[q - 1])) - {q + 1}:
                level = ()  # some simplex has the wrong face count
            if level and min(level) >= 0 and max(level) < below:
                continue
            # an empty level, or some simplex is bad: report the first
            simplices = _chunks(level, q + 1) if rows is None else rows[q - 1]
            for s, fs in enumerate(simplices):
                if len(fs) != q + 1:
                    raise ValueError(
                        "simplex %d of dimension %d has %d faces, expected %d"
                        % (s, q, len(fs), q + 1))
                for f in fs:
                    if not 0 <= f < below:
                        raise ValueError(
                            "face id %d out of range in dimension %d" % (f, q))
        self._counts = tuple(counts)
        self._levels = tuple(levels)
        self._memo = {}
        for q in range(2, len(counts)):
            pairs = [(i, j) for j in range(q + 1) for i in range(j)]
            # d_i d_j = d_{j-1} d_i, slot by slot: the face in slot j of a
            # q-simplex has its slot i at lower[q * up[j] + i]
            lower, upper = levels[q - 2], levels[q - 1]
            up = [upper[j::q + 1] for j in range(q + 1)]
            down = [lower[i::q] for i in range(q)]
            if all(_take(down[i], up[j]) == _take(down[j - 1], up[i])
                   for i, j in pairs):
                continue
            for s, fs in enumerate(_chunks(upper, q + 1)):
                for i, j in pairs:
                    if lower[q * fs[j] + i] != lower[q * fs[i] + j - 1]:
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
        return self.faces(q, s)[j]

    def faces(self, q: int, s: int) -> tuple[int, ...]:
        if not 0 < q <= self.dim:
            raise IndexError("no %d-simplices with faces" % q)
        s = range(self._counts[q])[s]  # an IndexError as from a sequence
        return self._levels[q - 1][(q + 1) * s:(q + 1) * (s + 1)]

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
            and self._levels == other._levels

    def __hash__(self) -> int:
        return hash((self._counts, self._levels))

    def __repr__(self) -> str:
        return "DeltaSet(counts=%r)" % (self._counts,)


class CycleVector(Record):
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
    for s, fs in enumerate(_chunks(ds._levels[q - 1], q + 1)
                           if 0 < q <= ds.dim else ()):
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
    boundary = [0] * (ds._counts[q - 1] if q else 0)
    for c, fs in zip(coeffs, _chunks(ds._levels[q - 1], q + 1) if q else ()):
        for f in fs:
            boundary[f] += c
            c = -c
    return not any(boundary)


def _boundary_reduction(ds: DeltaSet, q: int) -> tuple[int, tuple[int, ...]]:
    """Rank and invariant factors of the boundary map C_q -> C_{q-1}, kept
    in the memo; out of 1..dim the map is zero and has neither."""
    if q not in ds._memo:
        pivots = _sparse_reduce(_boundary_rows(ds, q), ds.n(q), False)[0]
        ds._memo[q] = len(pivots), _chain_normalize(pivots)
    return ds._memo[q]


def homology(ds: DeltaSet, q: int) -> tuple[int, tuple[int, ...]]:
    """H_q as (betti number, invariant factors > 1)."""
    if q < 0 or q > ds.dim:
        return (0, ())
    rank_down = _boundary_reduction(ds, q)[0]
    rank_up, factors = _boundary_reduction(ds, q + 1)
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
    return sum(ds._counts[0::2]) - sum(ds._counts[1::2])


def _top_cycles(ds: DeltaSet) -> list[CycleVector]:
    """A Z-basis of the top homology, each vector checked to be a cycle; a
    single generator has its first nonzero coefficient positive.  Across
    each edge of a closed 2-pseudomanifold a cycle's coefficient on one
    side fixes the other's, so ker d2 = Z sign for the ``_oriented`` signs,
    shared with ``recognize``; elsewhere one elimination tracks the kernel."""
    d = len(ds._counts) - 1
    sign = _oriented(ds) if d == 2 else None
    columns = [sign] if sign else [
        tuple(map(col.get, ds.simplices(d), repeat(0)))
        for col in _sparse_reduce(_boundary_rows(ds, d), ds.n(d), True)[1]]
    if len(columns) == 1 and next(c for c in columns[0] if c) < 0:
        columns = [tuple(-c for c in columns[0])]
    assert all(_is_cycle(ds, d, c) for c in columns)
    return [CycleVector(d, c) for c in columns]


def top_cycle_generator(ds: DeltaSet, d: int) -> CycleVector:
    """The generator of H_d for the top degree d and free rank exactly 1:
    the ``_top_cycles`` vector, its first nonzero coefficient positive.
    Above the top degree H_d = 0."""
    if d < ds.dim:
        raise ValueError("H_%d is below the top degree %d" % (d, ds.dim))
    top = _top_cycles(ds) if d == ds.dim else []
    if len(top) != 1:
        raise ValueError("H_%d has free rank %d, expected 1" % (d, len(top)))
    return top[0]


def cycle_pairing(x: CycleVector, y: CycleVector) -> int:
    """Coefficient pairing sum_v a_v b_v on top cycles."""
    if x.dimension != y.dimension:
        raise ValueError("cycle dimensions differ")
    if len(x.coefficients) != len(y.coefficients):
        raise ValueError("cycle lengths differ")
    return sum(map(mul, x.coefficients, y.coefficients))


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
    shape, counts = Shape.OTHER, ds._counts
    if counts == (1,):
        shape = Shape.POINT
    elif len(counts) == 2:
        adjacent: list[list[int]] = [[] for _ in range(counts[0])]
        for b, a in _chunks(ds._levels[0], 2):
            adjacent[a].append(b)
            adjacent[b].append(a)
        valence = [len(near) for near in adjacent]
        if max(valence) <= 2 and valence.count(1) == 2:
            seen = [True] + [False] * (counts[0] - 1)
            queue = [0]  # grows while it is read
            for v in queue:
                for w in adjacent[v]:
                    if not seen[w]:
                        seen[w] = True
                        queue.append(w)
            if len(queue) == counts[0]:
                shape = Shape.INTERVAL
    elif len(counts) == 3:
        used = set(ds._levels[0])
        if len(used) == counts[0] and _oriented(ds) is not None \
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
    """Signs of a closed 2-pseudomanifold (every edge on exactly two
    triangle sides) that cancel on the two sides 3t + j and 3o + k of each
    edge, sign[t] (-1)^j + sign[o] (-1)^k = 0; None if there are none or
    triangle 0 does not reach every triangle.

    One pass over the side list pairs each edge's two sides, with a marker
    per edge (unseen, one side seen, paired); a third side ends it.  A
    breadth-first pass from triangle 0 sets each sign from the first side
    reaching it and checks it on every other side, loop sides included:
    sign[0] = 1 fixes the signs of a connected complex where they exist."""
    flat, n = ds._levels[1], ds._counts[2]
    seen = [-1] * ds._counts[1]  # per edge: -1 unseen, first side, -2 paired
    other = [0] * len(flat)  # per side: the other side of its edge
    for p, e in enumerate(flat):
        q = seen[e]
        if q == -2:
            return None  # a third side
        if q == -1:
            seen[e] = p
        else:
            other[p], other[q], seen[e] = q, p, -2
    if seen.count(-2) != len(seen):
        return None
    parity = (1, -1, 1) * n  # (-1)^j on side 3t + j
    sign = [1] + [0] * (n - 1)
    queue = [0]  # grows while it is read: breadth-first order
    for t in queue:
        for p in (3 * t, 3 * t + 1, 3 * t + 2):
            q = other[p]
            o, need = q // 3, -sign[t] * parity[p] * parity[q]
            if not sign[o]:
                sign[o] = need
                queue.append(o)
            elif sign[o] != need:
                return None
    return tuple(sign) if len(queue) == n else None


def relabel(ds: DeltaSet, perms: Sequence[Sequence[int]]) -> DeltaSet:
    """Apply one permutation of simplex ids per dimension.

    ``perms[q][old_id] = new_id``; used to check that recognition and
    homology do not depend on the labelling.
    """
    if len(perms) != ds.dim + 1:
        raise ValueError("need one permutation per dimension")
    perms = _int_rows(perms, "permutation entry")
    for q, p in enumerate(perms):
        if sorted(p) != list(range(ds.n(q))):
            raise ValueError("invalid permutation in dimension %d" % q)
    levels = []
    for q, level in enumerate(ds._levels, start=1):
        # new face ids slot by slot, taken in the new order of the simplices
        order = sorted(ds.simplices(q), key=perms[q].__getitem__)
        out = [0] * len(level)
        for j in range(q + 1):
            out[j::q + 1] = _take(_take(perms[q - 1], level[j::q + 1]), order)
        levels.append(out)
    return DeltaSet._flat(ds.n(0), levels)


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
    edges, v = _halves(ds), ds._levels[0] if ds.dim else ()

    triangles: list[int] = []
    for t, (e0, e1, e2) in enumerate(_chunks(ds._levels[1], 3)
                                     if ds.dim == 2 else ()):
        c, b = len(edges) // 2, n0 + n1 + t
        # the slot vertices (vertex_tuple) and the slot pairs (0, 1),
        # (0, 2), (1, 2), on the input edges d_2, d_1, d_0
        edges += (b, v[2 * e2 + 1], b, v[2 * e2], b, v[2 * e0],
                  b, n0 + e2, b, n0 + e1, b, n0 + e0)
        triangles += (c + 3, c, 2 * e2, c + 3, c + 1, 2 * e2 + 1,
                      c + 4, c, 2 * e1, c + 4, c + 2, 2 * e1 + 1,
                      c + 5, c + 1, 2 * e0, c + 5, c + 2, 2 * e0 + 1)

    return DeltaSet._flat(n0 + n1 + ds.n(2), [edges, triangles])


def _halves(ds: DeltaSet) -> list[int]:
    """The flat level of the edge halves 2e + a, from the new vertex n0 + e
    to the slot-a vertex of edge e (its face d_{1-a})."""
    n0, n1 = ds.n(0), ds.n(1)
    ends = ds._levels[0] if ds.dim else ()
    edges = [0] * (4 * n1)
    edges[0::4] = edges[2::4] = range(n0, n0 + n1)
    edges[1::4], edges[3::4] = ends[1::2], ends[0::2]
    return edges


def refine_edge_split(ds: DeltaSet) -> DeltaSet:
    """Midpoint (1-to-4) subdivision for complexes of dimension <= 2.

    Old vertices keep their ids; edge midpoints follow.  Each edge splits
    in two, each triangle into three corner triangles and a center one.
    """
    if ds.dim > 2:
        raise ValueError("edge-split refinement is limited to dimension <= 2")
    n0, n1 = ds.n(0), ds.n(1)

    # halves: edge e = (tail a, head b) -> 2e = (a, mid), 2e + 1 = (b, mid)
    edges = _halves(ds)

    triangles: list[int] = []
    if ds.dim == 2:
        # center edges 2 n1 + 3t + (0, 1, 2) join the midpoints of slots
        # (0, 1), (0, 2), (1, 2) of triangle t: keyed by triangle and slot
        # pair, never by edge ids, so repeated faces and loop edges stay
        # unambiguous
        for t, (e0, e1, e2) in enumerate(_chunks(ds._levels[1], 3)):
            c = len(edges) // 2
            m0, m1, m2 = n0 + e0, n0 + e1, n0 + e2
            edges += (m1, m0, m2, m0, m2, m1)
            # the corners at slots 0, 1, 2, then the center triangle
            triangles += (c + 2, 2 * e2, 2 * e1, c + 1, 2 * e2 + 1, 2 * e0,
                          c, 2 * e1 + 1, 2 * e0 + 1, c + 2, c + 1, c)

    return DeltaSet._flat(n0 + n1, [edges, triangles])


# ---------------------------------------------------------------------------
# involutions and quotients
# ---------------------------------------------------------------------------

class Involution:
    """A Delta-set automorphism of order dividing 2.

    ``maps[q][s]`` is the image of the s-th q-simplex.  The map may reorder
    the faces of a simplex it moves (geometrically: reverse orientations);
    a simplex mapped to itself must be fixed together with all its faces.
    Each level is checked in two passes, the second only when the first
    fails.  First, the map is in range and its own inverse, and the slot
    columns of the faces' images equal those of the image's faces under one
    slot permutation shared by every simplex; second, a scan simplex by
    simplex names the first failure.

    Orbits are numbered by their smaller member: ``reps[q]`` lists those
    members in ascending order, and ``orbit_of[q][s]`` is the number of the
    orbit of the s-th q-simplex.
    """

    def __init__(self, ds: DeltaSet, maps: Sequence[Sequence[int]]):
        if len(maps) != ds.dim + 1:
            raise ValueError("need one map per dimension")
        self.ds = ds
        self.maps = _int_rows(maps, "simplex image")
        for q, level in enumerate(self.maps):
            n = ds.n(q)
            if len(level) == n \
                    and (not n or min(level) >= 0 and max(level) < n) \
                    and _take(level, level) == tuple(range(n)):
                continue
            if sorted(level) != list(range(n)):
                raise ValueError("map in dimension %d is not a bijection" % q)
            for s, img in enumerate(level):
                if level[img] != s:
                    raise ValueError("map is not an involution at (%d, %d)"
                                     % (q, s))
        for q, level in enumerate(self.ds._levels, start=1):
            below, here = self.maps[q - 1], self.maps[q]
            slots = [level[j::q + 1] for j in range(q + 1)]
            fixed = compress(count(), map(eq, here, count()))
            images = [_take(below, x) for x in slots]
            targets = [_take(x, here) for x in slots]
            # equal columns are interchangeable, so a shared slot
            # permutation exists exactly when the sorted columns agree
            if sorted(images) == sorted(targets) \
                    and all(below[x[s]] == x[s] for s in fixed for x in slots):
                continue
            rows = list(_chunks(level, q + 1))
            target = [sorted(fs) for fs in rows]
            for s, (img, fs) in enumerate(zip(here, rows)):
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
        self.reps = [list(compress(count(), map(ge, level, count())))
                     for level in self.maps]
        self.orbit_of = [[0] * len(level) for level in self.maps]
        for level, reps, orbit in zip(self.maps, self.reps, self.orbit_of):
            for i, r in enumerate(reps):
                orbit[r] = orbit[level[r]] = i

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
        e_cols = [_take(orbit_of[1], x) for x in slots]
        # per orbit triangle: its index, the edge orbits of its faces, the
        # vertex orbits of its slots (as in vertex_tuple) and its orderings
        tris = list(zip(
            count(), zip(*e_cols),
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
        # the faces' edge orbits in slot order, rewritten only where the
        # placed ordering is not the identity, index 0 of both order lists
        new_tris = [0] * (3 * len(tris))
        new_tris[0::3], new_tris[1::3], new_tris[2::3] = e_cols
        for (i, e_orbs, _, taus), (k, _) in compress(
                zip(tris, placed), map(itemgetter(0), placed)):
            a, b, c = taus[k]
            new_tris[3 * i:3 * i + 3] = e_orbs[a], e_orbs[b], e_orbs[c]

    # (head, tail) of each edge orbit: the representative's, or flipped;
    # e_ends holds (tail, head), and None reads as no flip
    new_edges = [0] * (2 * len(e_ends))
    new_edges[0::2] = map(getitem, e_ends, map(not_, flips))
    new_edges[1::2] = map(getitem, e_ends, map(bool, flips))
    return DeltaSet._flat(len(reps[0]), [new_edges, new_tris])
