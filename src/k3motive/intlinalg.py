"""Exact integer matrix algebra.

Smith normal form with unimodular transforms, integer kernels, cokernel
structure and Gram determinants.  Everything runs over Python's native
arbitrary-precision integers; no floating point is used anywhere, because
intermediate entries of a Smith reduction routinely outgrow 64 bits and the
torsion answers have to be exact.

Two elimination engines live here.  ``smith_normal_form`` is the dense
reduction with transforms.  Each stage scans the working submatrix once for
its pivot (smallest nonzero absolute value, row-major tie break), then
clears the pivot column and then the pivot row by Euclid, each next pivot
being the least remainder; this order keeps U and V small.  Its operations
update only the entries they can change, which leaves every value as
whole-row and whole-column updates would.  ``rank``, ``invariant_factors``
and ``kernel_basis`` run on a sparse gcd elimination that handles the large,
very sparse boundary matrices of refined sphere triangulations quickly; the
two engines are cross-checked against each other in the test suite.  The
sparse engine takes sparse rows: boundary maps reach it straight from the
face lists, and a dense ``IntMatrix`` is converted once, at the public API.

The sparse engine pivots on the entry of least key (|x|, Markowitz product,
row, column).  It does not rescan the matrix for that entry before each
pivot: the keys sit in a lazily invalidated heap.  A pivot step only records
the rows that a row operation changed and the columns that lost an entry;
one flush before the next pivot pushes the current key of each entry in
them, once; once the heap holds more than twice the live entries plus 64,
it is emptied and the flush covers every row.  The pivot sequence is the one
a full scan would choose (see ``_sparse_reduce``).
"""

from __future__ import annotations

from heapq import heappop, heappush, heappushpop
from itertools import chain
from math import gcd
from typing import Iterator, Sequence

from ._record import Record


def _int_rows(rows, what: str) -> tuple[tuple[int, ...], ...]:
    """``rows`` as tuples of ``int``s; a float or a boolean is refused."""
    body = tuple(map(tuple, rows))
    if set(map(type, chain.from_iterable(body))) - {int}:
        bad = next(x for x in chain.from_iterable(body) if type(x) is not int)
        raise ValueError("%s %r is not an integer" % (what, bad))
    return body


def _check_shape(rows: int, cols: int) -> None:
    if type(rows) is not int or type(cols) is not int:
        raise ValueError("shape %r x %r is not a pair of integers"
                         % (rows, cols))
    if rows < 0 or cols < 0:
        raise ValueError("shape %d x %d is negative" % (rows, cols))


class IntMatrix:
    """Dense matrix of exact integers, immutable after construction."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, data: Sequence[Sequence[int]], *, cols: int | None = None):
        body = _int_rows(data, "matrix entry")
        if body:
            width = len(body[0])
            if any(len(r) != width for r in body):
                raise ValueError("ragged rows in matrix data")
            if cols is not None and cols != width:
                raise ValueError("cols=%d does not match row width %d" % (cols, width))
        else:
            width = 0 if cols is None else cols
            _check_shape(0, width)
        self.rows = len(body)
        self.cols = width
        self._data = body

    # -- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        _check_shape(rows, cols)
        return cls([[0] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        _check_shape(n, n)
        return cls([[int(i == j) for j in range(n)] for i in range(n)], cols=n)

    @classmethod
    def diagonal(cls, entries: Sequence[int], rows: int | None = None,
                 cols: int | None = None) -> "IntMatrix":
        r = len(entries) if rows is None else rows
        c = len(entries) if cols is None else cols
        _check_shape(r, c)
        if len(entries) > min(r, c):
            raise ValueError("%d diagonal entries do not fit a %d x %d matrix"
                             % (len(entries), r, c))
        data = [[0] * c for _ in range(r)]
        for i, d in enumerate(entries):
            data[i][i] = d
        return cls(data, cols=c)

    @classmethod
    def from_flat(cls, rows: int, cols: int, entries: Sequence[int]) -> "IntMatrix":
        _check_shape(rows, cols)
        if len(entries) != rows * cols:
            raise ValueError("expected %d entries, got %d" % (rows * cols, len(entries)))
        return cls([entries[i * cols:(i + 1) * cols] for i in range(rows)], cols=cols)

    @classmethod
    def column(cls, entries: Sequence[int]) -> "IntMatrix":
        return cls([[x] for x in entries], cols=1)

    # -- queries ------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        return self._data[i][j]

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


class SmithDecomposition(Record):
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


class CokernelStructure(Record):
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

def _pivot_position(s, t, m):
    """(i, j) of the least nonzero |s[i][j]| with i, j >= t, first in
    row-major order, or None if there is none.  Each row's least is taken
    with builtins; a row whose least is 1 ends the search."""
    best = 0
    for r in range(t, m):
        x = min(map(abs, filter(None, s[r][t:])), default=0)
        if x and (not best or x < best):
            best, i = x, r
            if x == 1:
                break
    if not best:
        return None
    row = s[i]
    j = t
    while row[j] != best and row[j] != -best:
        j += 1
    return i, j


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """Smith normal form with transforms.

    Stage t works on the submatrix from (t, t) on:
    1. its pivot is the least nonzero |x| there, first in row-major order,
       and this is the stage's only scan;
    2. the pivot is swapped to (t, t) and made positive;
    3. column phase: every row below takes the balanced quotient times row
       t; a nonzero remainder of least |x| (first row on a tie) becomes
       the pivot, back to 2;
    4. row phase: likewise for the columns right of t, first column on a
       tie;
    5. divisibility fix: if the pivot is not 1 and fails to divide some
       entry of a later row, the first such row is added to row t, back to
       2 with the pivot in place.
    The output is deterministic for a fixed input.  Remainders are
    balanced, which keeps the entries of S small.  Clearing the column and
    then the row within a stage is the order whose growth Kannan and Bachem
    (SIAM J. Comput. 1979) bound: on seeded inputs up to 30 x 30, U and V
    reach 926 bits with entries in [-9, 9] and 8445 bits with entries in
    [-10**9, 10**9].  Empty matrices are allowed.

    An operation updates only the entries it can change, which leaves every
    value as a whole-row or whole-column update would:
    - at stage t, the rows of S from t on are zero in the columns below t,
      so row operations on S run over the columns from t on;
    - in the row phase, column t of S is zero but for the pivot, so a
      column operation changes the pivot's row of S alone;
    - U changes by swapping and negating rows and by adding multiples of
      the pivot row, or of the row a divisibility fix pulls in, to another
      row.  So each row is zero outside the unit column it started as and
      those of the rows that have been pivot or fix rows (``ucols``), and a
      row operation on U runs over the latter.  V, stored by columns,
      likewise.
    """
    m, n = a.rows, a.cols
    s = [list(r) for r in a.iter_rows()]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]  # by columns
    # uown[i]: the unit vector that row i of u started as; ucols: those of
    # the rows that have been pivot or fix rows.  Likewise for v.
    uown, vown = list(range(m)), list(range(n))
    ucols, vcols = [], []

    t = 0
    limit = min(m, n)
    while t < limit:
        pos = _pivot_position(s, t, m)
        if pos is None:
            break
        while True:
            i, j = pos
            if i != t:
                s[i], s[t] = s[t], s[i]
                u[i], u[t] = u[t], u[i]
                uown[i], uown[t] = uown[t], uown[i]
            if j != t:
                for r in range(t, m):
                    row = s[r]
                    row[j], row[t] = row[t], row[j]
                v[j], v[t] = v[t], v[j]
                vown[j], vown[t] = vown[t], vown[j]
            st, ut, vt = s[t], u[t], v[t]
            if uown[t] not in ucols:
                ucols.append(uown[t])
            if st[t] < 0:
                st[t:] = [-x for x in st[t:]]
                for c in ucols:
                    ut[c] = -ut[c]
            piv = st[t]
            # column phase: the least nonzero remainder is the next pivot
            best = 0
            for r in range(t + 1, m):
                sr = s[r]
                if sr[t]:
                    q, rem = divmod(sr[t], piv)
                    if 2 * rem > piv:  # balanced remainder
                        q += 1
                        rem -= piv
                    if q:
                        for c in range(t, n):
                            sr[c] -= q * st[c]
                        ur = u[r]
                        for c in ucols:
                            ur[c] -= q * ut[c]
                    if rem and (not best or abs(rem) < best):
                        best, pos = abs(rem), (r, t)
            if best:
                continue
            # row phase: column t is clear below the pivot, so a column
            # operation changes row t of S only
            if vown[t] not in vcols:
                vcols.append(vown[t])
            for c in range(t + 1, n):
                if st[c]:
                    q, rem = divmod(st[c], piv)
                    if 2 * rem > piv:
                        q += 1
                        rem -= piv
                    if q:
                        st[c] = rem
                        vc = v[c]
                        for r in vcols:
                            vc[r] -= q * vt[r]
                    if rem and (not best or abs(rem) < best):
                        best, pos = abs(rem), (t, c)
            if best:
                continue
            # the cross is clear; pull in any entry the pivot fails to
            # divide so the invariant-factor chain comes out right
            if piv == 1:  # 1 divides every entry
                break
            for bad in range(t + 1, m):
                if any(x % piv for x in s[bad][t + 1:]):
                    break
            else:
                break
            sb, ub = s[bad], u[bad]
            for c in range(t + 1, n):
                st[c] += sb[c]
            if uown[bad] not in ucols:
                ucols.append(uown[bad])
            for c in ucols:
                ut[c] += ub[c]
            pos = (t, t)
        t += 1

    diag = tuple(s[k][k] for k in range(limit))
    return SmithDecomposition(
        U=IntMatrix(u, cols=m), S=IntMatrix(s, cols=n),
        V=IntMatrix(list(zip(*v)), cols=n), diagonal=diag)


# ---------------------------------------------------------------------------
# sparse gcd elimination
# ---------------------------------------------------------------------------

def _sparse_rows(a: IntMatrix) -> dict[int, dict[int, int]]:
    """The nonzero entries of a dense matrix as {row: {col: value}}."""
    return {i: {j: x for j, x in enumerate(row) if x}
            for i, row in enumerate(a.iter_rows()) if any(row)}


def _dense(rows: dict[int, dict[int, int]], shape) -> IntMatrix:
    """The inverse of ``_sparse_rows``, given the shape."""
    return IntMatrix([[rows.get(i, {}).get(j, 0) for j in range(shape[1])]
                      for i in range(shape[0])], cols=shape[1])


def _sparse_reduce(rows: dict[int, dict[int, int]], ncols: int,
                   want_kernel: bool):
    """Shared core on {row: {col: value}} input of nonzero entries, which
    it consumes: returns (pivot values, kernel columns or None).

    Pivot rule: the entry of least key (|x|, Markowitz product
    (len(row) - 1) * (len(col) - 1), i, j), found in a lazily invalidated
    heap of keys.  Invariant: when a key is popped, every entry has at
    least one heap key <= its current key.  Keys end in (i, j), so they are
    unique, and the first popped key that equals its entry's current key is
    the least of all: the pivots are those of a full scan.  A popped key
    whose entry is gone is dropped; one whose entry's key has risen is
    pushed again at its current value.

    The heap is read only when a pivot is chosen, so within a pivot step
    nothing is pushed.  A key can fall only in a row that a row operation
    changed or in a column that lost an entry; the step records those rows
    and columns, and one flush before the next pop pushes the current key of
    each entry in them, once.  The pivot row needs no record: at the end of
    its step it holds the pivot alone and leaves the matrix, or a smaller
    remainder has replaced it as pivot row and a row operation then marks
    it.  The first flush, and every one after the heap has grown to more
    than twice the live entries plus 64, starts from an empty heap with
    every row marked.

    Row operations are untracked (they change neither rank, invariant
    factors nor the kernel); column operations are mirrored on a sparse
    copy of the identity whenever the kernel is requested.
    """
    cols: dict[int, set[int]] = {}
    for i, row in rows.items():
        for j in row:
            cols.setdefault(j, set()).add(i)
    live = sum(len(row) for row in rows.values())

    vcols: dict[int, dict[int, int]] | None = None
    if want_kernel:
        vcols = {j: {j: 1} for j in range(ncols)}

    def key(i, j):
        row = rows[i]
        x = row[j]
        return (-x if x < 0 else x, (len(row) - 1) * (len(cols[j]) - 1), i, j)

    heap: list[tuple[int, int, int, int]] = []
    dirty_rows = set(rows)
    dirty_cols: set[int] = set()

    def row_sub(dst: int, src: int, q: int):
        # row_dst -= q * row_src
        nonlocal live
        drow = rows[dst]
        dirty_rows.add(dst)
        for j, x in rows[src].items():
            nv = drow.get(j, 0) - q * x
            if nv:
                if j not in drow:
                    cols[j].add(dst)
                    live += 1
                drow[j] = nv
            elif j in drow:
                del drow[j]
                cols[j].discard(dst)
                dirty_cols.add(j)
                live -= 1
        if not drow:
            del rows[dst]

    def kernel_sub(dst: int, src: int, q: int):
        # col_dst -= q * col_src on the identity copy
        vdst = vcols[dst]
        for i, x in vcols[src].items():
            nv = vdst.get(i, 0) - q * x
            if nv:
                vdst[i] = nv
            else:
                del vdst[i]

    def negate_row(i):
        for j in rows[i]:
            rows[i][j] = -rows[i][j]

    pivot_values: list[int] = []
    pivot_cols: set[int] = set()

    while rows:
        if len(heap) > 2 * live + 64:
            heap = []
            dirty_rows.update(rows)
        for i in dirty_rows & rows.keys():
            m = len(rows[i]) - 1
            for j, x in rows[i].items():
                heappush(heap, (-x if x < 0 else x,
                                m * (len(cols[j]) - 1), i, j))
        for j in dirty_cols & cols.keys():
            m = len(cols[j]) - 1
            for i in cols[j] - dirty_rows:
                x = rows[i][j]
                heappush(heap, (-x if x < 0 else x,
                                (len(rows[i]) - 1) * m, i, j))
        dirty_rows.clear()
        dirty_cols.clear()
        top = heappop(heap)
        while True:
            _, _, pr, pc = top
            if pc in rows.get(pr, ()):
                now = key(pr, pc)
                if now == top:
                    break
                top = heappushpop(heap, now)
            else:
                top = heappop(heap)
        if rows[pr][pc] < 0:
            negate_row(pr)
        while True:  # clear the pivot's column, then its row
            piv = rows[pr][pc]
            for r2 in sorted(cols[pc] - {pr}):
                q = rows[r2][pc] // piv
                if q:
                    row_sub(r2, pr, q)
                if pc in rows.get(r2, {}):  # 0 < remainder < piv: pivot there
                    pr = r2
                    break
            else:
                # the pivot is alone in its column, so a column operation
                # changes the pivot row only
                prow = rows[pr]
                for c2 in sorted(set(prow) - {pc}):
                    q, rem = divmod(prow[c2], piv)
                    if q and vcols is not None:
                        kernel_sub(c2, pc, q)
                    if rem:
                        prow[c2] = rem
                        pc = c2
                        break
                    del prow[c2]
                    cols[c2].discard(pr)
                    dirty_cols.add(c2)
                    live -= 1
                else:
                    break
        # the pivot is alone in its row and its column
        pivot_values.append(rows.pop(pr)[pc])
        pivot_cols.add(pc)
        del cols[pc]
        live -= 1

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
    """Invariant factors of diag(pivots): one pass of gcd/lcm swaps over the
    sorted values.  Once position i has met every later position it divides
    all of them, so neither a second pass nor a re-sort is needed."""
    factors = sorted(abs(p) for p in pivots)
    for i, a in enumerate(factors):
        if a == 1:
            continue
        for j in range(i + 1, len(factors)):
            if factors[j] % a:
                g = gcd(a, factors[j])
                a, factors[j] = g, a * factors[j] // g
        factors[i] = a
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
    for v in vectors:
        if len(v) != pairing.rows:
            raise ValueError("vector length %d does not match pairing size %d"
                             % (len(v), pairing.rows))
    v = IntMatrix(vectors, cols=pairing.rows)
    return det(v @ (pairing @ v.transpose()))
