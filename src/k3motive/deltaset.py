"""Abstract triangulated sets and their integral (co)homology.

A ``DeltaSet`` stores, per dimension, a list of simplices and for each
q-simplex its ordered faces d_0, ..., d_q.  The simplicial identities
d_i d_j = d_{j-1} d_i (i < j) are checked at construction.  Unlike a
simplicial complex, several simplices may sit on the same vertex set --
the 2-gon circle and the torus-quotient nerves need exactly that.

Homology comes from one cached sparse elimination per Delta-set and degree,
fed straight from the face lists; at the top degree it also yields the
kernel, which is the top homology.  ``quotient_by_involution`` builds the
orbit Delta-set of an involution that is free on positive-dimensional
simplices (fixed simplices are allowed when they are fixed together with
all of their faces); the orbit cells inherit consistent orderings found by
a small backtracking search, and the construction fails loudly when no
consistent ordering exists, in which case a barycentric refinement of the
input is the documented way out.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import Sequence

from .intlinalg import (
    IntMatrix,
    _chain_normalize,
    _sparse_reduce,
    kernel_basis,
    smith_normal_form,
)


class QuotientError(ValueError):
    """The orbit space admits no Delta-set structure on these cells."""


class DeltaSet:
    """Abstract triangulated set; immutable after construction."""

    __slots__ = ("_counts", "_faces")

    def __init__(self, num_vertices: int,
                 faces: Sequence[Sequence[Sequence[int]]] = ()):
        """``faces[q-1][s]`` lists the q+1 faces of the s-th q-simplex.

        Trailing empty dimensions are dropped.
        """
        stored: list[tuple[tuple[int, ...], ...]] = []
        for level in faces:
            stored.append(tuple(tuple(int(f) for f in s) for s in level))
        while stored and not stored[-1]:
            stored.pop()
        counts = [int(num_vertices)]
        for q, level in enumerate(stored, start=1):
            counts.append(len(level))
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
        self._check_identities()

    def _check_identities(self):
        for q in range(2, self.dim + 1):
            lower = self._faces[q - 2]
            for s in range(self._counts[q]):
                fs = self._faces[q - 1][s]
                for j in range(q + 1):
                    for i in range(j):
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
        data = [[0] * self.n(q) for _ in range(self.n(q - 1))]
        for i, row in _boundary_rows(self, q).items():
            for j, x in row.items():
                data[i][j] = x
        return IntMatrix(data, cols=self.n(q))

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


def _is_cycle(rows: dict[int, dict[int, int]], coeffs: Sequence[int]) -> bool:
    return all(sum(x * coeffs[s] for s, x in row.items()) == 0
               for row in rows.values())


@lru_cache(maxsize=128)
def _boundary_reduction(ds: DeltaSet, q: int):
    """Rank, invariant factors and, at the top degree only (else None), a
    kernel basis as coefficient tuples, of the boundary map C_q -> C_{q-1}."""
    top = q == ds.dim
    if 0 < q <= ds.dim:
        pivots, kernel = _sparse_reduce(_boundary_rows(ds, q), ds.n(q),
                                        want_kernel=top)
    else:  # a zero map: at the top degree its kernel is all of C_q
        pivots, kernel = [], [{s: 1} for s in ds.simplices(q) if top]
    cycles = tuple(tuple(col.get(s, 0) for s in ds.simplices(q))
                   for col in kernel) if top else None
    return len(pivots), _chain_normalize(pivots), cycles


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


def _unimodular_inverse(u: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular integer matrix."""
    from fractions import Fraction
    n = u.rows
    aug = [[Fraction(u[i, j]) for j in range(n)] + [Fraction(int(i == j))
           for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    data = [[int(aug[i][n + j]) for j in range(n)] for i in range(n)]
    out = IntMatrix(data, cols=n)
    assert (u @ out) == IntMatrix.identity(n)
    return out


def _top_cycles(ds: DeltaSet) -> list[CycleVector]:
    """A Z-basis of the top homology, read off the cached elimination of
    the top boundary map.  A single generator has its first nonzero
    coefficient positive; every basis vector is checked to be a cycle."""
    d = ds.dim
    columns = list(_boundary_reduction(ds, d)[2])
    if len(columns) == 1 and next(c for c in columns[0] if c) < 0:
        columns = [tuple(-c for c in columns[0])]
    rows = _boundary_rows(ds, d)
    assert all(_is_cycle(rows, c) for c in columns)
    return [CycleVector(d, c) for c in columns]


def top_cycle_generator(ds: DeltaSet, d: int) -> CycleVector:
    """A generator of H_d modulo torsion, for rank exactly 1.

    The sign is normalized so the first nonzero coefficient is positive.
    """
    betti, _ = homology(ds, d)
    if betti != 1:
        raise ValueError("H_%d has free rank %d, expected 1" % (d, betti))
    if d == ds.dim:
        cycles = _top_cycles(ds)
        if len(cycles) != 1:
            raise ValueError("kernel rank %d, expected 1" % len(cycles))
        return cycles[0]
    # quotient by boundaries: express the image in cycle coordinates,
    # then lift a generator of the free part of the cokernel
    cycles = kernel_basis(ds.boundary_matrix(d))
    bnd = ds.boundary_matrix(d + 1)
    dec = smith_normal_form(cycles)
    ud = dec.U @ bnd
    divs = [dec.S[i, i] for i in range(cycles.cols)]
    if any(div == 0 or ud[i, j] % div for i, div in enumerate(divs)
           for j in range(bnd.cols)):
        raise ValueError("boundary is not a cycle combination")
    x = dec.V @ IntMatrix([[ud[i, j] // div for j in range(bnd.cols)]
                           for i, div in enumerate(divs)], cols=bnd.cols)
    xdec = smith_normal_form(x)
    free = [i for i in range(cycles.cols)
            if i >= len(xdec.diagonal) or xdec.diagonal[i] == 0]
    if len(free) != 1:
        raise ValueError("free part of H_%d has rank %d" % (d, len(free)))
    xinv = _unimodular_inverse(xdec.U)
    gen = [xinv[i, free[0]] for i in range(cycles.cols)]
    coeffs = [sum(cycles[i, k] * gen[k] for k in range(cycles.cols))
              for i in range(ds.n(d))]
    if next((c for c in coeffs if c), 0) < 0:
        coeffs = [-c for c in coeffs]
    assert _is_cycle(_boundary_rows(ds, d), coeffs)
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
    """Point / interval / 2-sphere recognition, combinatorial plus
    homological; anything else is OTHER."""
    if ds.counts == (1,):
        return Shape.POINT
    if ds.dim == 1:
        if homology(ds, 0) != (1, ()):
            return Shape.OTHER
        if homology(ds, 1) != (0, ()):
            return Shape.OTHER
        valence = [0] * ds.n(0)
        for e in ds.simplices(1):
            for v in ds.faces(1, e):
                valence[v] += 1
        if any(d > 2 for d in valence):
            return Shape.OTHER
        if sum(1 for d in valence if d == 1) != 2:
            return Shape.OTHER
        return Shape.INTERVAL
    if ds.dim == 2:
        edge_use = [0] * ds.n(1)
        for t in ds.simplices(2):
            for e in ds.faces(2, t):
                edge_use[e] += 1
        if any(u != 2 for u in edge_use):
            return Shape.OTHER
        vertex_used = [False] * ds.n(0)
        for e in ds.simplices(1):
            for v in ds.faces(1, e):
                vertex_used[v] = True
        if not all(vertex_used):
            return Shape.OTHER
        if homology(ds, 0) != (1, ()):
            return Shape.OTHER
        if homology(ds, 1) != (0, ()):
            return Shape.OTHER
        if homology(ds, 2) != (1, ()):
            return Shape.OTHER
        return Shape.SPHERE2
    return Shape.OTHER


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
    """Barycentric subdivision; works in any dimension.

    Vertices of the subdivision are the simplices of the input; the
    k-simplices are flags of slot subsets ending at the full slot set of
    an input simplex.
    """
    offsets = [0]
    for q in range(ds.dim + 1):
        offsets.append(offsets[-1] + ds.n(q))

    def sub_simplex(q: int, s: int, subset: tuple[int, ...]):
        # iterated face of s spanned by the given slots
        cur, cur_dim = s, q
        for j in range(q, -1, -1):
            if j not in subset:
                cur = ds.face(cur_dim, cur, j)
                cur_dim -= 1
        return (cur_dim, cur)

    ids: dict[tuple, int] = {}
    levels: list[list[tuple[int, ...]]] = [[] for _ in range(ds.dim)]

    def flag_id(q: int, s: int, flag: tuple[tuple[int, ...], ...]) -> int:
        # flag of strict subsets of [q], the last being all of [q]
        k = len(flag) - 1
        if k == 0:
            return offsets[q] + s
        key = (q, s, flag)
        if key in ids:
            return ids[key]
        faces = []
        for i in range(k + 1):
            reduced = flag[:i] + flag[i + 1:]
            if i < k:
                faces.append(flag_id(q, s, reduced))
            else:
                top = flag[k - 1]
                q2, s2 = sub_simplex(q, s, top)
                renum = {slot: pos for pos, slot in enumerate(top)}
                newflag = tuple(tuple(renum[x] for x in a) for a in flag[:k])
                faces.append(flag_id(q2, s2, newflag))
        new_id = len(levels[k - 1])
        levels[k - 1].append(tuple(faces))
        ids[key] = new_id
        return new_id

    def strict_flags(q: int, length: int):
        # ascending chains of subsets of [q], ending at the full set
        full = tuple(range(q + 1))
        if length == 1:
            yield (full,)
            return
        def chains(top: tuple[int, ...], remaining: int):
            if remaining == 0:
                yield ()
                return
            from itertools import combinations
            for size in range(remaining, len(top)):
                for sub in combinations(top, size):
                    for rest in chains(sub, remaining - 1):
                        yield rest + (sub,)
        for prefix in chains(full, length - 1):
            yield prefix + (full,)

    for k in range(1, ds.dim + 1):
        for q in range(k, ds.dim + 1):
            for s in ds.simplices(q):
                for flag in strict_flags(q, k + 1):
                    flag_id(q, s, flag)

    return DeltaSet(offsets[-1], levels)


def refine_edge_split(ds: DeltaSet) -> DeltaSet:
    """Midpoint (1-to-4) subdivision for complexes of dimension <= 2.

    Old vertices keep their ids; edge midpoints follow.  Each edge splits
    in two, each triangle into three corner triangles and a center one.
    """
    if ds.dim > 2:
        raise ValueError("edge-split refinement is limited to dimension <= 2")
    n0, n1 = ds.n(0), ds.n(1)
    mid = lambda e: n0 + e

    # halves: edge e = (tail a, head b) -> (a, mid) and (b, mid)
    edges: list[tuple[int, int]] = []
    tail_half: list[int] = []
    head_half: list[int] = []
    for e in ds.simplices(1):
        b, a = ds.faces(1, e)  # d0 = head, d1 = tail
        tail_half.append(len(edges))
        edges.append((mid(e), a))
        head_half.append(len(edges))
        edges.append((mid(e), b))

    triangles: list[tuple[int, int, int]] = []
    if ds.dim == 2:
        # center edges are keyed by triangle and slot pair, never by edge
        # ids: repeated faces and loop edges stay unambiguous this way
        center: dict[tuple[int, int, int], int] = {}
        for t in ds.simplices(2):
            fs = ds.faces(2, t)
            for j, k in ((0, 1), (0, 2), (1, 2)):
                center[(t, j, k)] = len(edges)
                edges.append((mid(fs[k]), mid(fs[j])))

        for t in ds.simplices(2):
            e0, e1, e2 = ds.faces(2, t)
            # corner at slot 0: (v0, mid(e1), mid(e2))
            triangles.append((center[(t, 1, 2)], tail_half[e2], tail_half[e1]))
            # corner at slot 1: (v1, mid(e0), mid(e2))
            triangles.append((center[(t, 0, 2)], head_half[e2], tail_half[e0]))
            # corner at slot 2: (v2, mid(e0), mid(e1))
            triangles.append((center[(t, 0, 1)], head_half[e1], head_half[e0]))
            # center: (mid(e0), mid(e1), mid(e2))
            triangles.append((center[(t, 1, 2)], center[(t, 0, 2)],
                              center[(t, 0, 1)]))

    return DeltaSet(n0 + n1, [edges, triangles])


# ---------------------------------------------------------------------------
# involutions and quotients
# ---------------------------------------------------------------------------

class Involution:
    """A Delta-set automorphism of order dividing 2.

    ``maps[q][s]`` is the image of the s-th q-simplex.  The map may reorder
    the faces of a simplex it moves (geometrically: reverse orientations);
    a simplex mapped to itself must be fixed together with all its faces.
    """

    def __init__(self, ds: DeltaSet, maps: Sequence[Sequence[int]]):
        if len(maps) != ds.dim + 1:
            raise ValueError("need one map per dimension")
        self.ds = ds
        self.maps = tuple(tuple(int(x) for x in level) for level in maps)
        for q, level in enumerate(self.maps):
            if sorted(level) != list(range(ds.n(q))):
                raise ValueError("map in dimension %d is not a bijection" % q)
            for s, img in enumerate(level):
                if level[img] != s:
                    raise ValueError("map is not an involution at (%d, %d)"
                                     % (q, s))
        self._check_compatibility()

    def _check_compatibility(self):
        ds = self.ds
        for q in range(1, ds.dim + 1):
            for s in ds.simplices(q):
                img = self.maps[q][s]
                mapped = sorted(self.maps[q - 1][f] for f in ds.faces(q, s))
                target = sorted(ds.faces(q, img))
                if mapped != target:
                    raise ValueError(
                        "not an automorphism: faces of %d-simplex %d do not "
                        "match faces of its image" % (q, s))
                if img == s:
                    for f in ds.faces(q, s):
                        if self.maps[q - 1][f] != f:
                            raise ValueError(
                                "%d-simplex %d is stabilized but not fixed "
                                "pointwise; refine first" % (q, s))

    def is_free_on_positive(self) -> bool:
        return all(self.maps[q][s] != s
                   for q in range(1, self.ds.dim + 1)
                   for s in self.ds.simplices(q))

    def fixed_vertices(self) -> list[int]:
        return [v for v, img in enumerate(self.maps[0]) if img == v]


def quotient_by_involution(ds: DeltaSet, sigma: Involution) -> DeltaSet:
    """The orbit Delta-set; see the module docstring for the ground rules."""
    if sigma.ds is not ds and sigma.ds != ds:
        raise ValueError("involution was built for a different Delta-set")
    if ds.dim > 2:
        raise QuotientError("quotients are supported up to dimension 2")

    # orbits, indexed by their smaller representative
    reps: list[list[int]] = []
    orbit_of: list[list[int]] = []
    for q in range(ds.dim + 1):
        rep_ids = sorted(s for s in ds.simplices(q) if sigma.maps[q][s] >= s)
        index = {r: i for i, r in enumerate(rep_ids)}
        reps.append(rep_ids)
        orbit_of.append([index[min(s, sigma.maps[q][s])]
                         for s in ds.simplices(q)])

    if ds.dim == 0:
        return DeltaSet(len(reps[0]))

    # quotient endpoints of each edge orbit, in the representative's order
    vorb = orbit_of[0]
    e_ends = []
    for e in reps[1]:
        head, tail = ds.faces(1, e)
        e_ends.append((vorb[tail], vorb[head]))

    flips: dict[int, bool] = {}
    for i, e in enumerate(reps[1]):
        if sigma.maps[1][e] == e:
            flips[i] = False

    new_tris = []
    if ds.dim == 2:
        all_orders = list(permutations(range(3)))
        tris = []
        for t in reps[2]:
            e_orbs = tuple(orbit_of[1][f] for f in ds.faces(2, t))
            w = tuple(vorb[v] for v in ds.vertex_tuple(2, t))
            taus = [(0, 1, 2)] if sigma.maps[2][t] == t else all_orders
            tris.append((t, e_orbs, w, taus))

        # process triangles in breadth-first order over shared edge orbits,
        # so each one usually meets an already-oriented edge and the
        # backtracking stays local
        by_edge: dict[int, list[int]] = {}
        for idx, tri in enumerate(tris):
            for eo in tri[1]:
                by_edge.setdefault(eo, []).append(idx)
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
        tris = [tris[i] for i in order]

        def orient(tri, tau) -> list[int] | None:
            # fix the edge flips ordering tau needs and return the edge
            # orbits newly fixed, or fix nothing and return None on a clash
            _, e_orbs, w, _ = tri
            assigned = []
            for i, (a, b) in enumerate(((1, 2), (0, 2), (0, 1))):
                eo, ends = e_orbs[tau[i]], (w[tau[a]], w[tau[b]])
                if e_ends[eo][0] == e_ends[eo][1]:
                    continue  # loop edge: orientation-free
                if ends not in (e_ends[eo], e_ends[eo][::-1]):
                    raise AssertionError("edge orbit endpoints disagree")
                need = ends != e_ends[eo]
                if flips.get(eo) == need:
                    continue
                if eo in flips:
                    for x in assigned:
                        del flips[x]
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
                    del flips[eo]
                k += 1
        ordered = {t: tuple(e_orbs[i] for i in taus[k])
                   for (t, e_orbs, _, taus), (k, _) in zip(tris, placed)}
        new_tris = [ordered[t] for t in reps[2]]

    new_edges = []
    for i, e in enumerate(reps[1]):
        tail_orb, head_orb = e_ends[i]
        if flips.get(i, False):
            tail_orb, head_orb = head_orb, tail_orb
        new_edges.append((head_orb, tail_orb))
    return DeltaSet(len(reps[0]), [new_edges, new_tris])
