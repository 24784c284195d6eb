"""Combinatorially determined pieces of the integral weight spectral sequence.

For a surface degeneration the first page is assembled from Betti numbers of
the strata; the rows in stratum degree 0 and 2d are literally the simplicial
(co)chain complexes of the dual complex, and for a chain fiber the H^1 row is
written down explicitly together with the monodromy composition N, whose
cokernel order is the first discriminant invariant.  The middle row of the
page needs restriction data the combinatorial model does not carry, so it is
only accepted as user-supplied rows through ``e2_report``.  Differentials
stay sparse, in the form the elimination engine reads, from start to end.
"""

from __future__ import annotations

from ._record import Record
from .deltaset import (CycleVector, _boundary_rows, _coboundary_rows,
                       _top_cycles, cycle_pairing)
from .fibers import DegenerationFiber, clemens_polytope, component_betti
from .intlinalg import IntMatrix, _chain_normalize, _sparse_reduce, det

# a surface degeneration: the strata Y^(0), Y^(1), Y^(2) have dimensions 2,
# 1 and 0, and the dual complex has dimension at most 2
_DIM = 2
# rank of H^1 of the elliptic double curves of a chain fiber
_H1_RANK = 2


class SpectralRow(Record):
    """A bounded complex of free Z-modules with explicit differentials.

    ``differentials[i]`` maps the i-th module to the (i+1)-st as the nonzero
    entries {row: {col: value}} of a map of shape (modules[i+1], modules[i]);
    module ranks are non-negative and consecutive differentials compose to 0.
    """

    q: int
    modules: tuple[int, ...]
    differentials: tuple[dict[int, dict[int, int]], ...]

    def __post_init__(self):
        if any(n < 0 for n in self.modules):
            raise ValueError("module rank %d is negative" % min(self.modules))
        if len(self.differentials) != max(len(self.modules) - 1, 0):
            raise ValueError("expected %d differentials, got %d"
                             % (len(self.modules) - 1, len(self.differentials)))
        for i, d in enumerate(self.differentials):
            m, n = self.modules[i + 1], self.modules[i]
            if not all(row and 0 <= r < m and all(
                    x and 0 <= c < n for c, x in row.items())
                    for r, row in d.items()):
                raise ValueError("differential %d has an empty row, a zero "
                                 "entry or one outside shape %r" % (i, (m, n)))
        # the composite over nonzero entries: row r of d_{i+1} d_i is the
        # sum of x times row k of d_i over the entries x at (r, k)
        ds = self.differentials
        for i, (first, second) in enumerate(zip(ds, ds[1:])):
            for row in second.values():
                product: dict[int, int] = {}
                for k, x in row.items():
                    for j, y in first.get(k, {}).items():
                        product[j] = product.get(j, 0) + x * y
                if any(product.values()):
                    raise ValueError("differentials %d and %d do not compose "
                                     "to zero" % (i, i + 1))


class E1Summand(Record):
    """One H^degree(Y^(stratum)) contribution, with its Tate twist."""

    rank: int
    twist: int
    stratum: int
    degree: int


class E1Page:
    """Ranks of the first page, indexed by (p, q), one summand per stratum."""

    def __init__(self, entries: dict[tuple[int, int], tuple[E1Summand, ...]]):
        self.entries = {k: tuple(v) for k, v in entries.items() if v}

    def rank(self, p: int, q: int) -> int:
        return sum(s.rank for s in self.entries.get((p, q), ()))

    def positions(self) -> list[tuple[int, int]]:
        return sorted(self.entries)

    def total_alternating_rank(self) -> int:
        return sum((-1) ** (p + q) * self.rank(p, q)
                   for (p, q) in self.entries)


def _strata_betti(f: DegenerationFiber) -> list[list[int]]:
    """Betti numbers of Y^(0), Y^(1), Y^(2) (lists padded to length 5)."""
    b0 = [0, 0, 0, 0, 0]
    for c in f.components:
        for k, b in enumerate(component_betti(c.kind)):
            b0[k] += b
    b1 = [0, 0, 0, 0, 0]
    for d in f.double_curves:
        b1[0] += 1
        b1[1] += 2 if d.genus == 1 else 0
        b1[2] += 1
    b2 = [len(f.triple_points), 0, 0, 0, 0]
    return [b0, b1, b2]


def e1_page(f: DegenerationFiber) -> E1Page:
    """First page of the weight spectral sequence from strata Betti data.

    The (p, q) entry is the direct sum over i >= max(0, p) of
    H^(q + 2p - 2i) of the (2i - p)-fold stratum, twisted by (p - i).
    """
    betti = _strata_betti(f)
    entries: dict[tuple[int, int], list[E1Summand]] = {}
    for p in range(-_DIM, _DIM + 1):
        for q in range(0, 2 * _DIM + 1):
            summands = []
            for i in range(max(0, p), _DIM + p + 1):
                stratum = 2 * i - p
                degree = q + 2 * p - 2 * i
                if not 0 <= stratum <= _DIM:
                    continue
                if not 0 <= degree < len(betti[stratum]):
                    continue
                r = betti[stratum][degree]
                if r:
                    summands.append(E1Summand(rank=r, twist=p - i,
                                              stratum=stratum, degree=degree))
            if summands:
                entries[(p, q)] = summands
    return E1Page(entries)


def boundary_rows(f: DegenerationFiber) -> tuple[SpectralRow, SpectralRow]:
    """The stratum-degree-0 cochain row and the degree-2d chain row.

    The first is the simplicial cochain complex of the Clemens polytope,
    the second its chain complex; their cohomology is H^*(Cl(Y)) and
    H_*(Cl(Y)) respectively.
    """
    cl = clemens_polytope(f)
    counts = tuple(cl.n(q) for q in range(_DIM + 1))
    cochain = SpectralRow(q=0, modules=counts, differentials=tuple(
        _coboundary_rows(cl, q + 1) for q in range(_DIM)))
    chain = SpectralRow(q=2 * _DIM, modules=counts[::-1], differentials=tuple(
        _boundary_rows(cl, q) for q in range(_DIM, 0, -1)))
    return cochain, chain


def type2_h1_row(m: int) -> tuple[IntMatrix, IntMatrix, IntMatrix, int]:
    """The explicit H^1 row of a chain fiber with m double curves.

    Writing H for the rank-2 curve cohomology, the incoming differential is
    (u_1, ..., u_{m-1}) -> (u_1, u_2 - u_1, ..., -u_{m-1}) and the outgoing
    one is (u_0, ..., u_{m-1}) -> (u_1 - u_0, ..., u_{m-1} - u_{m-2}); the
    monodromy composition is the diagonal followed by the summation map,
    which is m times the identity.  It is square, so its cokernel has order
    |det| = m^2, with no elimination.
    """
    n, order = _monodromy_composition(m)
    h = _H1_RANK
    # by entry: delta1 has +1 on the diagonal and -1 one block below it,
    # delta3 has -1 on the diagonal and +1 one block right of it
    delta1 = IntMatrix([[int(i == j) - int(i == j + h)
                         for j in range((m - 1) * h)]
                        for i in range(m * h)], cols=(m - 1) * h)
    delta3 = IntMatrix([[int(j == i + h) - int(j == i) for j in range(m * h)]
                        for i in range((m - 1) * h)], cols=m * h)
    return delta1, delta3, n, order


def _monodromy_composition(m: int) -> tuple[IntMatrix, int]:
    """The monodromy composition N and its cokernel order r1, as
    ``type2_h1_row(m)`` returns them, without building its differentials."""
    if m < 1:
        raise ValueError("chain length m must be >= 1")
    h = _H1_RANK
    diagonal = IntMatrix([[int(a % h == b) for b in range(h)]
                          for a in range(m * h)], cols=h)
    summation = IntMatrix([[int(a == b % h) for b in range(m * h)]
                           for a in range(h)], cols=m * h)
    n = summation @ diagonal
    order = abs(det(n))
    if not order:
        raise ArithmeticError("monodromy composition is singular")
    return n, order


def e2_report(rows: list[SpectralRow]
              ) -> list[list[tuple[int, tuple[int, ...]]]]:
    """Cohomology (betti, torsion) of each row at each position.

    Any torsion entry means the page cannot degenerate integrally at the
    second term, which is the testable part of the degeneration claim.
    """
    out = []
    for row in rows:
        # the pivots of each differential, padded with the zero maps into the
        # first and out of the last module; the engine consumes a copy
        pivots = [[]] + [_sparse_reduce({i: dict(r) for i, r in d.items()},
                                        n, False)[0] for d, n in
                         zip(row.differentials, row.modules)] + [[]]
        out.append([(n - len(pivots[i]) - len(pivots[i + 1]),
                     tuple(d for d in _chain_normalize(pivots[i]) if d > 1))
                    for i, n in enumerate(row.modules)])
    return out


class MonodromyGram(Record):
    """Coefficient pairing on a basis of H_d(Cl(Y)) modulo torsion."""

    basis: tuple[CycleVector, ...]
    gram: IntMatrix
    r_d: int


def monodromy_gram(f: DegenerationFiber) -> MonodromyGram:
    """Gram matrix of the coefficient pairing on top homology.

    The determinant is the discriminant of the homology-side pairing, equal
    to the reciprocal discriminant of the dual cohomology-side monodromy
    pairing; positivity is asserted.  A Clemens polytope has dimension at
    most 2, so nothing bounds onto its 2-cycles: H_2 is the kernel of the
    top boundary map, for a sphere its orientation class, found by one
    breadth-first pass with no elimination (``_top_cycles``).  A single
    generator has its first nonzero coefficient positive.
    """
    cl = clemens_polytope(f)
    vectors = _top_cycles(cl) if cl.dim == _DIM else []
    if not vectors:
        raise ValueError("top homology has rank 0: fiber is not maximally "
                         "degenerate")
    gram = IntMatrix([[cycle_pairing(x, y) for y in vectors]
                      for x in vectors], cols=len(vectors))
    r_d = det(gram)
    if r_d <= 0:
        raise ArithmeticError("monodromy Gram determinant is not positive")
    return MonodromyGram(basis=tuple(vectors), gram=gram, r_d=r_d)
