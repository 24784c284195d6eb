"""Exact integer matrix algebra.

Smith normal form with unimodular transforms, integer kernels, cokernel
structure and Gram determinants.  Everything runs over Python's native
arbitrary-precision integers; no floating point is used anywhere, because
intermediate entries of a Smith reduction routinely outgrow 64 bits and the
torsion answers have to be exact.

Two elimination engines live here.  ``smith_normal_form`` is the dense
reference reduction with the documented pivot rule (smallest nonzero absolute
value, row-major tie break).  ``rank``, ``invariant_factors`` and
``kernel_basis`` run on a sparse gcd elimination that handles the large,
very sparse boundary matrices of refined sphere triangulations quickly; the
two engines are cross-checked against each other in the test suite.  The
sparse engine takes sparse rows: boundary maps reach it straight from the
face lists, and a dense ``IntMatrix`` is converted once, at the public API.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterator, Sequence


class IntMatrix:
    """Dense matrix of exact integers, immutable after construction."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, data: Sequence[Sequence[int]], *, cols: int | None = None):
        body = tuple(tuple(int(x) for x in row) for row in data)
        if body:
            width = len(body[0])
            if any(len(r) != width for r in body):
                raise ValueError("ragged rows in matrix data")
            if cols is not None and cols != width:
                raise ValueError("cols=%d does not match row width %d" % (cols, width))
        else:
            width = 0 if cols is None else cols
        self.rows = len(body)
        self.cols = width
        self._data = body

    # -- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls([[0] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[int(i == j) for j in range(n)] for i in range(n)], cols=n)

    @classmethod
    def diagonal(cls, entries: Sequence[int], rows: int | None = None,
                 cols: int | None = None) -> "IntMatrix":
        entries = [int(x) for x in entries]
        r = len(entries) if rows is None else rows
        c = len(entries) if cols is None else cols
        data = [[0] * c for _ in range(r)]
        for i, d in enumerate(entries):
            data[i][i] = d
        return cls(data, cols=c)

    @classmethod
    def from_flat(cls, rows: int, cols: int, entries: Sequence[int]) -> "IntMatrix":
        entries = [int(x) for x in entries]
        if len(entries) != rows * cols:
            raise ValueError("expected %d entries, got %d" % (rows * cols, len(entries)))
        return cls([entries[i * cols:(i + 1) * cols] for i in range(rows)], cols=cols)

    @classmethod
    def column(cls, entries: Sequence[int]) -> "IntMatrix":
        return cls([[int(x)] for x in entries], cols=1)

    # -- queries ------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        return self._data[i][j]

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self._data)

    def iter_rows(self) -> Iterator[tuple[int, ...]]:
        return iter(self._data)

    def flat(self) -> list[int]:
        return [x for row in self._data for x in row]

    def tolist(self) -> list[list[int]]:
        return [list(r) for r in self._data]

    def is_zero(self) -> bool:
        return all(x == 0 for row in self._data for x in row)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        return self.is_square() and all(
            self._data[i][j] == self._data[j][i]
            for i in range(self.rows) for j in range(i))

    def transpose(self) -> "IntMatrix":
        return IntMatrix([[self._data[i][j] for i in range(self.rows)]
                          for j in range(self.cols)], cols=self.rows)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch %s @ %s" % (self.shape, other.shape))
        ot = other.transpose()
        return IntMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in ot._data]
             for row in self._data],
            cols=other.cols)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntMatrix) and self.cols == other.cols \
            and self._data == other._data

    def __hash__(self) -> int:
        return hash((self.cols, self._data))

    def __repr__(self) -> str:
        return "IntMatrix(%r)" % ([list(r) for r in self._data],) \
            if self.rows else "IntMatrix([], cols=%d)" % self.cols


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ A @ V == S with U, V unimodular and S diagonal.

    ``diagonal`` has length min(rows, cols); nonzero entries are positive,
    form a divisibility chain and are followed only by zeros.
    """

    U: IntMatrix
    S: IntMatrix
    V: IntMatrix
    diagonal: tuple[int, ...]

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d)

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        return tuple(d for d in self.diagonal if d)


@dataclass(frozen=True)
class CokernelStructure:
    """coker(A) = Z^free_rank  (+)  Z/t1 (+) ... with t1 | t2 | ..."""

    free_rank: int
    torsion: tuple[int, ...]

    @property
    def order(self) -> int:
        """Order of the torsion part (1 for a free cokernel)."""
        out = 1
        for t in self.torsion:
            out *= t
        return out


def det(a: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if not a.is_square():
        raise ValueError("determinant of a non-square matrix")
    n = a.rows
    if n == 0:
        return 1
    m = [list(r) for r in a.iter_rows()]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


# ---------------------------------------------------------------------------
# dense Smith normal form
# ---------------------------------------------------------------------------

def _pivot_position(s, t, m, n):
    best = None
    best_abs = None
    for i in range(t, m):
        row = s[i]
        for j in range(t, n):
            x = row[j]
            if x:
                ax = -x if x < 0 else x
                if best_abs is None or ax < best_abs:
                    best_abs = ax
                    best = (i, j)
    return best


def _balanced_div(a, b):
    # quotient with remainder in (-b/2, b/2]; b > 0
    q, r = divmod(a, b)
    if 2 * r > b:
        q += 1
    return q


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """Smith normal form with transforms.

    Pivot rule: smallest nonzero absolute value in the working submatrix,
    ties broken by row-major position, so the output is deterministic for a
    fixed input.  The pivot is re-selected after every reduction sweep and
    remainders are balanced; without this, gcd cascades square the entry
    sizes at each stage and 30 x 30 inputs become intractable.  Empty
    matrices are allowed.
    """
    m, n = a.rows, a.cols
    s = [list(r) for r in a.iter_rows()]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def add_row(dst, src, q):
        srow, drow = s[src], s[dst]
        for k in range(n):
            drow[k] += q * srow[k]
        srow, drow = u[src], u[dst]
        for k in range(m):
            drow[k] += q * srow[k]

    def add_col(dst, src, q):
        for row in s:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    t = 0
    limit = min(m, n)
    while t < limit:
        pos = _pivot_position(s, t, m, n)
        if pos is None:
            break
        while True:
            i, j = pos
            if i != t:
                s[i], s[t] = s[t], s[i]
                u[i], u[t] = u[t], u[i]
            if j != t:
                for row in s:
                    row[j], row[t] = row[t], row[j]
                for row in v:
                    row[j], row[t] = row[t], row[j]
            if s[t][t] < 0:
                s[t] = [-x for x in s[t]]
                u[t] = [-x for x in u[t]]
            piv = s[t][t]
            dirty = False
            for r in range(t + 1, m):
                if s[r][t]:
                    q = _balanced_div(s[r][t], piv)
                    if q:
                        add_row(r, t, -q)
                    if s[r][t]:
                        dirty = True
            for c in range(t + 1, n):
                if s[t][c]:
                    q = _balanced_div(s[t][c], piv)
                    if q:
                        add_col(c, t, -q)
                    if s[t][c]:
                        dirty = True
            if not dirty:
                # cross is clear; pull in any entry the pivot fails to
                # divide so the invariant-factor chain comes out right
                d = s[t][t]
                bad = None
                for r in range(t + 1, m):
                    row = s[r]
                    for c in range(t + 1, n):
                        if row[c] % d:
                            bad = r
                            break
                    if bad is not None:
                        break
                if bad is None:
                    break
                add_row(t, bad, 1)
            pos = _pivot_position(s, t, m, n)
        t += 1

    diag = tuple(s[k][k] for k in range(limit))
    return SmithDecomposition(
        U=IntMatrix(u, cols=m), S=IntMatrix(s, cols=n), V=IntMatrix(v, cols=n),
        diagonal=diag)


# ---------------------------------------------------------------------------
# sparse gcd elimination
# ---------------------------------------------------------------------------

def _sparse_rows(a: IntMatrix) -> dict[int, dict[int, int]]:
    """The nonzero entries of a dense matrix as {row: {col: value}}."""
    return {i: {j: x for j, x in enumerate(row) if x}
            for i, row in enumerate(a.iter_rows()) if any(row)}


def _sparse_reduce(rows: dict[int, dict[int, int]], ncols: int,
                   want_kernel: bool):
    """Shared core on {row: {col: value}} input of nonzero entries, which
    it consumes: returns (pivot values, kernel columns or None).

    Row operations are untracked (they change neither rank, invariant
    factors nor the kernel); column operations are mirrored on a sparse
    copy of the identity whenever the kernel is requested.
    """
    cols: dict[int, set[int]] = {}
    for i, row in rows.items():
        for j in row:
            cols.setdefault(j, set()).add(i)

    vcols: dict[int, dict[int, int]] | None = None
    if want_kernel:
        vcols = {j: {j: 1} for j in range(ncols)}

    def row_sub(dst: int, src: int, q: int):
        # row_dst -= q * row_src
        drow = rows.setdefault(dst, {})
        for j, x in rows[src].items():
            nv = drow.get(j, 0) - q * x
            if nv:
                drow[j] = nv
                cols.setdefault(j, set()).add(dst)
            elif j in drow:
                del drow[j]
                cols[j].discard(dst)
        if not drow:
            del rows[dst]

    def col_sub(dst: int, src: int, q: int):
        # col_dst -= q * col_src, mirrored on vcols; per-row updates are
        # independent, so the iteration order cannot affect the result
        for i in list(cols.get(src, ())):
            x = rows[i][src]
            nv = rows[i].get(dst, 0) - q * x
            if nv:
                rows[i][dst] = nv
                cols.setdefault(dst, set()).add(i)
            else:
                rows[i].pop(dst, None)
                cols.get(dst, set()).discard(i)
        if vcols is not None:
            vdst, vsrc = vcols[dst], vcols[src]
            for i, x in vsrc.items():
                nv = vdst.get(i, 0) - q * x
                if nv:
                    vdst[i] = nv
                else:
                    vdst.pop(i, None)

    def negate_row(i):
        for j in rows[i]:
            rows[i][j] = -rows[i][j]

    pivot_values: list[int] = []
    pivot_cols: set[int] = set()

    while rows:
        best_key = None
        for i, row in rows.items():
            nr = len(row) - 1
            for j, x in row.items():
                ax = -x if x < 0 else x
                key = (ax, nr * (len(cols[j]) - 1), i, j)
                if best_key is None or key < best_key:
                    best_key = key
        pr, pc = best_key[2], best_key[3]
        if rows[pr][pc] < 0:
            negate_row(pr)
        while True:
            piv = rows[pr][pc]
            moved = False
            for r2 in sorted(cols[pc] - {pr}):
                q = rows[r2][pc] // piv
                if q:
                    row_sub(r2, pr, q)
                if r2 in rows and pc in rows.get(r2, {}):
                    pr = r2
                    if rows[pr][pc] < 0:
                        negate_row(pr)
                    moved = True
                    break
            if moved:
                continue
            piv = rows[pr][pc]
            for c2 in sorted(set(rows[pr]) - {pc}):
                q = rows[pr][c2] // piv
                if q:
                    col_sub(c2, pc, q)
                if c2 in rows.get(pr, {}):
                    pc = c2
                    moved = True
                    break
            if moved:
                continue
            break
        pivot_values.append(rows[pr][pc])
        pivot_cols.add(pc)
        for j in list(rows[pr]):
            cols[j].discard(pr)
            if not cols[j]:
                del cols[j]
        del rows[pr]

    kernel = None
    if want_kernel:
        kernel = [vcols[j] for j in range(ncols) if j not in pivot_cols]
    return pivot_values, kernel


def _pivots(a: IntMatrix) -> list[int]:
    return _sparse_reduce(_sparse_rows(a), a.cols, want_kernel=False)[0]


def rank(a: IntMatrix) -> int:
    """Rank over the rationals."""
    return len(_pivots(a))


def _chain_normalize(pivots) -> tuple[int, ...]:
    factors = sorted(abs(p) for p in pivots)
    changed = True
    while changed:
        changed = False
        for i in range(len(factors)):
            for j in range(i + 1, len(factors)):
                if factors[j] % factors[i]:
                    g = gcd(factors[i], factors[j])
                    factors[i], factors[j] = g, factors[i] * factors[j] // g
                    changed = True
        if changed:
            factors.sort()
    return tuple(factors)


def invariant_factors(a: IntMatrix) -> tuple[int, ...]:
    """Invariant factors d1 | d2 | ... (positive, zeros omitted)."""
    return _chain_normalize(_pivots(a))


def rank_and_invariants(a: IntMatrix) -> tuple[int, tuple[int, ...]]:
    """Rank and invariant factors from a single elimination."""
    pivots = _pivots(a)
    return len(pivots), _chain_normalize(pivots)


def cokernel_structure(a: IntMatrix) -> CokernelStructure:
    """Structure of Z^rows / im(A) in invariant-factor form."""
    factors = invariant_factors(a)
    return CokernelStructure(free_rank=a.rows - len(factors),
                             torsion=tuple(d for d in factors if d > 1))


def kernel_basis(a: IntMatrix) -> IntMatrix:
    """Columns form a Z-basis of {x : A x = 0}.

    The basis spans a saturated sublattice (it consists of columns of a
    unimodular transform), so every invariant factor of the returned
    matrix is 1.
    """
    _, kernel = _sparse_reduce(_sparse_rows(a), a.cols, want_kernel=True)
    cols = len(kernel)
    data = [[kernel[k].get(i, 0) for k in range(cols)] for i in range(a.cols)]
    return IntMatrix(data, cols=cols)


def gram_determinant(vectors: Sequence[Sequence[int]], pairing: IntMatrix) -> int:
    """det [ v_i^T . pairing . v_j ] for linearly independent vectors.

    The empty family has Gram determinant 1 by convention.
    """
    if not pairing.is_square():
        raise ValueError("pairing matrix must be square")
    if not pairing.is_symmetric():
        raise ValueError("pairing matrix must be symmetric")
    vecs = [tuple(int(x) for x in v) for v in vectors]
    for v in vecs:
        if len(v) != pairing.rows:
            raise ValueError("vector length %d does not match pairing size %d"
                             % (len(v), pairing.rows))
    if not vecs:
        return 1
    paired = [pairing @ IntMatrix.column(v) for v in vecs]
    gram = IntMatrix([[sum(x * paired[j][k, 0] for k, x in enumerate(vecs[i]))
                       for j in range(len(vecs))] for i in range(len(vecs))],
                     cols=len(vecs))
    return det(gram)
