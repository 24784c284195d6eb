import math
import random

import pytest
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import (
    invariant_factors as sympy_invariant_factors,
)

from k3motive.builders import (
    icosahedron,
    octahedron,
    refine_sphere,
    torus_grid,
    torus_negation,
)
from k3motive.deltaset import _boundary_rows, quotient_by_involution
from k3motive.intlinalg import (
    CokernelStructure,
    IntMatrix,
    _chain_normalize,
    _sparse_reduce,
    cokernel_structure,
    det,
    gram_determinant,
    invariant_factors,
    kernel_basis,
    rank,
    rank_and_invariants,
    smith_normal_form,
)


def snf_2x2_bruteforce(a, b, c, d):
    """Independent oracle: breadth-first search over elementary row/column
    operations until a diagonal divisibility-chain form is reached.

    Smith forms are unique, so the first chain form found is the answer.
    """
    bound = 4 * max(abs(x) for x in (a, b, c, d)) + 16
    start = (a, b, c, d)  # the matrix ((a, b), (c, d)), row-major
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for p, q, r, s in frontier:
            chain = (p != 0 and s % p == 0) or (p == 0 and s == 0)
            if q == 0 and r == 0 and p >= 0 and s >= 0 and chain:
                return (p, s)
            for mv in ((r, s, p, q),                # swap rows
                       (q, p, s, r),                # swap cols
                       (-p, -q, r, s),              # negate row
                       (-p, q, -r, s),              # negate col
                       # add +-1 times one row/col to the other
                       (p + r, q + s, r, s), (p, q, r + p, s + q),
                       (p + q, q, r + s, s), (p, q + p, r, s + r),
                       (p - r, q - s, r, s), (p, q, r - p, s - q),
                       (p - q, q, r - s, s), (p, q - p, r, s - r)):
                w, x, y, z = mv
                if (-bound <= w <= bound and -bound <= x <= bound
                        and -bound <= y <= bound and -bound <= z <= bound
                        and mv not in seen):
                    seen.add(mv)
                    nxt.append(mv)
        frontier = nxt
    raise AssertionError("no Smith form found within search bound")


def snf_2x2_divisors(a, b, c, d):
    """Independent oracle: the Smith form (d1, d2) of ((a, b), (c, d)) from
    its determinantal divisors, d1 = gcd of the entries, d1 d2 = |ad - bc|.
    """
    d1 = math.gcd(a, b, c, d)
    return (d1, abs(a * d - b * c) // d1 if d1 else 0)


def check_decomposition(a):
    dec = smith_normal_form(a)
    assert dec.U @ a @ dec.V == dec.S
    assert abs(det(dec.U)) == 1
    assert abs(det(dec.V)) == 1
    diag = dec.diagonal
    assert len(diag) == min(a.rows, a.cols)
    for i in range(dec.rank):
        assert diag[i] > 0
        if i + 1 < dec.rank:
            assert diag[i + 1] % diag[i] == 0
    assert all(d == 0 for d in diag[dec.rank:])
    for i in range(a.rows):
        for j in range(a.cols):
            if i != j:
                assert dec.S[i, j] == 0
    return dec


def random_matrix(rng, max_dim=8, lo=-9, hi=9):
    m = rng.randint(1, max_dim)
    n = rng.randint(1, max_dim)
    return IntMatrix([[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)])


class TestSmithNormalForm:
    def test_diag_2_3(self):
        # oracle first: the brute-force search fixes the expected factors
        assert snf_2x2_bruteforce(2, 0, 0, 3) == (1, 6)
        dec = check_decomposition(IntMatrix([[2, 0], [0, 3]]))
        assert dec.diagonal == (1, 6)

    def test_identity(self):
        dec = check_decomposition(IntMatrix.identity(3))
        assert dec.diagonal == (1, 1, 1)
        assert dec.U == IntMatrix.identity(3)
        assert dec.V == IntMatrix.identity(3)

    def test_single_entry(self):
        dec = check_decomposition(IntMatrix([[3]]))
        assert dec.diagonal == (3,)

    def test_negative_single_entry(self):
        dec = check_decomposition(IntMatrix([[-3]]))
        assert dec.diagonal == (3,)

    def test_empty_shapes(self):
        for shape in [(0, 0), (0, 3), (3, 0)]:
            a = IntMatrix.zeros(*shape)
            dec = check_decomposition(a)
            assert dec.diagonal == ()

    def test_zero_matrix(self):
        dec = check_decomposition(IntMatrix.zeros(2, 2))
        assert dec.diagonal == (0, 0)

    def test_against_bruteforce_oracle(self):
        # the search oracle costs a breadth-first search per input, so it
        # runs on the first five and must agree with the divisors there
        rng = random.Random(20240)
        for i in range(25):
            a, b, c, d = (rng.randint(-6, 6) for _ in range(4))
            expected = snf_2x2_divisors(a, b, c, d)
            if i < 5:
                assert snf_2x2_bruteforce(a, b, c, d) == expected
            dec = check_decomposition(IntMatrix([[a, b], [c, d]]))
            assert tuple(dec.diagonal) == expected

    def test_deterministic(self):
        a = IntMatrix([[6, 4, 2], [4, 8, 10], [2, 10, 4]])
        first = smith_normal_form(a)
        second = smith_normal_form(a)
        assert first.U == second.U and first.V == second.V and first.S == second.S

    def test_random_invariants(self):
        # the dense reference and the sparse engine must agree exactly
        rng = random.Random(7)
        for _ in range(60):
            a = random_matrix(rng)
            dec = check_decomposition(a)
            assert dec.rank == rank(a)
            assert dec.invariant_factors == invariant_factors(a)

    def test_random_invariants_larger(self):
        rng = random.Random(9)
        for _ in range(8):
            a = random_matrix(rng, max_dim=16)
            dec = check_decomposition(a)
            assert dec.rank == rank(a)
            assert dec.invariant_factors == invariant_factors(a)

    def test_wide_growth_case(self):
        # entries here force multi-word intermediates in a naive reduction
        a = IntMatrix([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        dec = check_decomposition(a)
        prod = 1
        for d in dec.invariant_factors:
            prod *= d
        assert prod == abs(det(a))


class TestCokernel:
    def test_single_entry(self):
        c = cokernel_structure(IntMatrix([[3]]))
        assert c == CokernelStructure(free_rank=0, torsion=(3,))

    def test_zero_matrix(self):
        c = cokernel_structure(IntMatrix.zeros(2, 2))
        assert c == CokernelStructure(free_rank=2, torsion=())

    def test_diag_2_3(self):
        c = cokernel_structure(IntMatrix([[2, 0], [0, 3]]))
        assert c == CokernelStructure(free_rank=0, torsion=(6,))

    def test_empty_conventions(self):
        # a 0 x n matrix has trivial cokernel and full kernel
        c = cokernel_structure(IntMatrix.zeros(0, 3))
        assert c == CokernelStructure(free_rank=0, torsion=())
        k = kernel_basis(IntMatrix.zeros(0, 3))
        assert k.shape == (3, 3)
        assert k == IntMatrix.identity(3)

    def test_order_equals_det_on_nonsingular(self):
        rng = random.Random(11)
        done = 0
        while done < 30:
            n = rng.randint(1, 6)
            a = IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
            d = det(a)
            if d == 0:
                continue
            c = cokernel_structure(a)
            assert c.free_rank == 0
            assert c.order == abs(d)
            done += 1


class TestKernel:
    def test_row_of_ones(self):
        k = kernel_basis(IntMatrix([[1, 1]]))
        assert k.shape == (2, 1)
        v = tuple(r[0] for r in k.iter_rows())
        assert v in [(1, -1), (-1, 1)]

    def test_identity_kernel_empty(self):
        k = kernel_basis(IntMatrix.identity(4))
        assert k.shape == (4, 0)

    def test_kernel_properties_random(self):
        rng = random.Random(23)
        for _ in range(40):
            a = random_matrix(rng)
            k = kernel_basis(a)
            assert k.cols == a.cols - rank(a)
            assert (a @ k).is_zero()
            if k.cols:
                # saturated: every invariant factor of the basis matrix is 1
                assert invariant_factors(k) == (1,) * k.cols


class TestGramDeterminant:
    def test_all_ones_vector(self):
        assert gram_determinant([[1] * 8], IntMatrix.identity(8)) == 8

    def test_empty_family(self):
        assert gram_determinant([], IntMatrix.identity(5)) == 1

    def test_unit_vectors(self):
        assert gram_determinant([[1, 0], [0, 1]], IntMatrix.identity(2)) == 1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gram_determinant([[1, 0, 0]], IntMatrix.identity(2))

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError):
            gram_determinant([[1, 0]], IntMatrix([[0, 1], [0, 0]]))


class TestDet:
    def test_known(self):
        assert det(IntMatrix([[1, 2], [3, 4]])) == -2
        assert det(IntMatrix.identity(5)) == 1
        assert det(IntMatrix.zeros(3, 3)) == 0
        assert det(IntMatrix([], cols=0)) == 1

    def test_cofactor_oracle(self):
        def cofactor_det(m):
            n = len(m)
            if n == 0:
                return 1
            if n == 1:
                return m[0][0]
            total = 0
            for j in range(n):
                minor = [row[:j] + row[j + 1:] for row in m[1:]]
                total += (-1) ** j * m[0][j] * cofactor_det(minor)
            return total

        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(1, 5)
            rowsdata = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            assert det(IntMatrix(rowsdata)) == cofactor_det(rowsdata)


class TestIntMatrix:
    def test_matmul_shapes(self):
        a = IntMatrix([[1, 2, 3]])
        b = IntMatrix([[1], [0], [-1]])
        assert (a @ b)[0, 0] == -2
        with pytest.raises(ValueError):
            b @ b

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            IntMatrix([[1, 2], [3]])

    def test_transpose_roundtrip(self):
        a = IntMatrix([[1, 2, 3], [4, 5, 6]])
        assert a.transpose().transpose() == a

    def test_from_flat(self):
        a = IntMatrix.from_flat(2, 2, [1, 2, 3, 4])
        assert a == IntMatrix([[1, 2], [3, 4]])
        with pytest.raises(ValueError):
            IntMatrix.from_flat(2, 2, [1, 2, 3])

    @pytest.mark.parametrize("build, bad", [
        (lambda: IntMatrix([[1.5, True]]), "1.5"),
        (lambda: IntMatrix([[1, True]]), "True"),
        (lambda: IntMatrix([[2], [3.0]]), "3.0"),
        (lambda: IntMatrix.from_flat(1, 2, [1, 2.5]), "2.5"),
        (lambda: IntMatrix.column([0, False]), "False"),
        (lambda: IntMatrix.diagonal([1, 1.0]), "1.0"),
    ], ids=["float", "bool", "float-row", "from-flat", "column", "diagonal"])
    def test_non_int_entry_refused(self, build, bad):
        # refused, not truncated: [[1.5, True]] is no [[1, 1]]
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == "matrix entry %s is not an integer" % bad

    @pytest.mark.parametrize("build, message", [
        (lambda: IntMatrix([], cols=-3), "shape 0 x -3 is negative"),
        (lambda: IntMatrix.identity(-2), "shape -2 x -2 is negative"),
        (lambda: IntMatrix.from_flat(-1, -1, [1]),
         "shape -1 x -1 is negative"),
        (lambda: IntMatrix.zeros(-1, 2), "shape -1 x 2 is negative"),
        (lambda: IntMatrix.diagonal([1, 2, 3], rows=2),
         "3 diagonal entries do not fit a 2 x 3 matrix"),
        (lambda: IntMatrix.diagonal([1], rows=-1),
         "shape -1 x 1 is negative"),
    ], ids=["empty-body", "identity", "from-flat", "zeros", "diagonal-long",
            "diagonal-negative"])
    def test_bad_shape_refused(self, build, message):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message

    @pytest.mark.parametrize("build, shape", [
        (lambda: IntMatrix([], cols=2.5), "0 x 2.5"),
        (lambda: IntMatrix([], cols=True), "0 x True"),
        (lambda: IntMatrix.from_flat(0, 1.5, []), "0 x 1.5"),
        (lambda: IntMatrix.identity(True), "True x True"),
        (lambda: IntMatrix.zeros(2.0, 2), "2.0 x 2"),
        (lambda: IntMatrix.diagonal([], rows=1.5), "1.5 x 0"),
    ], ids=["empty-body-float", "empty-body-bool", "from-flat", "identity",
            "zeros", "diagonal"])
    def test_non_int_shape_refused(self, build, shape):
        # refused, not kept: a float or boolean shape is no shape
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == "shape %s is not a pair of integers" % shape


# -- independent oracle: sympy's invariant factors ---------------------------

def sympy_factors(data, cols):
    """Test-only oracle sharing no code with the library: the nonzero
    invariant factors of sympy's Smith form over ZZ."""
    m = Matrix(len(data), cols, [x for row in data for x in row])
    return tuple(abs(int(d)) for d in sympy_invariant_factors(m, domain=ZZ)
                 if d)


class TestSympyOracle:
    def test_sparse_random(self):
        rng = random.Random(4242)
        for _ in range(200):
            m, n = rng.randint(1, 12), rng.randint(1, 12)
            density = rng.choice([0.1, 0.25, 0.5])
            data = [[rng.randint(-6, 6) if rng.random() < density else 0
                     for _ in range(n)] for _ in range(m)]
            a = IntMatrix(data, cols=n)
            expected = sympy_factors(data, n)
            assert invariant_factors(a) == expected, data
            assert rank_and_invariants(a) == (len(expected), expected), data
            assert smith_normal_form(a).invariant_factors == expected, data

    def test_chain_normalize(self):
        # pivot lists with non-unit entries; the oracle is the Smith form
        # of the diagonal matrix they span
        rng = random.Random(99)
        values = [1, 1, 1, 2, 3, 4, 6, 8, 9, 10, 12, 15, 25, 27, 30, 49]
        for _ in range(100):
            pivots = [rng.choice(values) * rng.choice([1, -1])
                      for _ in range(rng.randint(1, 10))]
            pivots.append(rng.choice(values[3:]))
            rng.shuffle(pivots)
            k = len(pivots)
            diag = [[pivots[i] if i == j else 0 for j in range(k)]
                    for i in range(k)]
            assert _chain_normalize(pivots) == sympy_factors(diag, k), pivots


def scan_reduce(rows, ncols, want_kernel):
    """Reference for the sparse engine's pivot order: the same gcd
    elimination, but the pivot is found by rescanning every remaining entry
    for the least key (|x|, Markowitz product, row, column).  Returns the
    pivot values in order and the kernel columns (or None)."""
    rows = {i: dict(row) for i, row in rows.items()}
    cols = {}
    for i, row in rows.items():
        for j in row:
            cols.setdefault(j, set()).add(i)
    vcols = {j: {j: 1} for j in range(ncols)} if want_kernel else None

    def add_to_row(dst, src, q):
        drow = rows.setdefault(dst, {})
        for j, x in rows[src].items():
            v = drow.get(j, 0) - q * x
            if v:
                drow[j] = v
                cols.setdefault(j, set()).add(dst)
            elif j in drow:
                del drow[j]
                cols[j].discard(dst)
        if not drow:
            del rows[dst]

    def add_to_col(dst, src, q):
        for i in list(cols.get(src, ())):
            v = rows[i].get(dst, 0) - q * rows[i][src]
            if v:
                rows[i][dst] = v
                cols.setdefault(dst, set()).add(i)
            else:
                rows[i].pop(dst, None)
                cols.get(dst, set()).discard(i)
        if vcols is not None:
            for i, x in vcols[src].items():
                v = vcols[dst].get(i, 0) - q * x
                if v:
                    vcols[dst][i] = v
                else:
                    vcols[dst].pop(i, None)

    def make_positive(i, j):
        if rows[i][j] < 0:
            rows[i] = {j: -x for j, x in rows[i].items()}

    pivots, pivot_cols = [], set()
    while rows:
        _, _, pr, pc = min((abs(x), (len(row) - 1) * (len(cols[j]) - 1), i, j)
                           for i, row in rows.items() for j, x in row.items())
        make_positive(pr, pc)
        moved = True
        while moved:
            moved = False
            piv = rows[pr][pc]
            for r in sorted(cols[pc] - {pr}):
                q = rows[r][pc] // piv
                if q:
                    add_to_row(r, pr, q)
                if pc in rows.get(r, {}):
                    pr, moved = r, True
                    make_positive(pr, pc)
                    break
            if moved:
                continue
            for c in sorted(set(rows[pr]) - {pc}):
                q = rows[pr][c] // piv
                if q:
                    add_to_col(c, pc, q)
                if c in rows[pr]:
                    pc, moved = c, True
                    break
        pivots.append(rows[pr][pc])
        pivot_cols.add(pc)
        for j in rows.pop(pr):
            cols[j].discard(pr)
            if not cols[j]:
                del cols[j]
    kernel = [vcols[j] for j in range(ncols) if j not in pivot_cols] \
        if want_kernel else None
    return pivots, kernel


def kummer_nerve(m1, m2):
    return quotient_by_involution(*torus_negation(m1, m2))


class TestPivotOrder:
    """The heap-driven sparse engine pivots exactly where a full scan
    would: same pivot values in the same order, same kernel columns."""

    @staticmethod
    def check(rows, ncols, want_kernel):
        expected = scan_reduce(rows, ncols, want_kernel)
        copy = {i: dict(row) for i, row in rows.items()}
        assert _sparse_reduce(copy, ncols, want_kernel) == expected

    def test_random_sparse(self):
        rng = random.Random(4242)
        for _ in range(300):
            m, n = rng.randint(1, 14), rng.randint(1, 14)
            density = rng.random()
            rows = {}
            for i in range(m):
                for j in range(n):
                    x = rng.randint(-9, 9) if rng.random() < density else 0
                    if x:
                        rows.setdefault(i, {})[j] = x
            self.check(rows, n, False)
            self.check(rows, n, True)

    def test_column_emptied_by_row_operation(self):
        # clearing the first pivot's column cancels row 4's entry in column
        # 2; the Markowitz keys of that column's other entries fall, and
        # the next pivot is among them
        rows = {0: {0: -1, 1: 3, 2: -1, 3: 3, 5: -3},
                1: {0: 1, 2: -2, 3: 2, 6: 2},
                2: {0: -2, 2: 3, 4: 1, 6: 2},
                3: {0: 3, 1: 2, 2: 1, 4: 3, 5: -3},
                4: {0: 3, 2: -3, 4: -3, 5: -3}}
        assert scan_reduce(rows, 7, False)[0] == [1, 1, 1, 3, 2]
        self.check(rows, 7, False)
        self.check(rows, 7, True)

    def test_column_emptied_by_column_operation(self):
        # the first pivot is (1, 1); clearing its row removes row 1's entry
        # from column 0, so (0, 0) falls below (0, 2) and is the next pivot.
        # Pivoting at (0, 2) instead gives the same values but the kernel
        # column (1, -5, -1)
        rows = {0: {0: 2, 2: 2}, 1: {0: -5, 1: -1}}
        assert scan_reduce(rows, 3, True) == ([1, 2], [{0: -1, 1: 5, 2: 1}])
        self.check(rows, 3, True)

    @pytest.mark.parametrize("make", [
        *(lambda k=k: refine_sphere(octahedron(), k, "edge_split")
          for k in range(4)),
        *(lambda k=k: refine_sphere(icosahedron(), k, "barycentric")
          for k in range(3)),
        lambda: torus_grid(6, 4),
        lambda: kummer_nerve(8, 10),
        lambda: kummer_nerve(20, 20),
    ], ids=[*("octahedron-split%d" % k for k in range(4)),
            *("icosahedron-bary%d" % k for k in range(3)),
            "torus-6x4", "kummer-8x10", "kummer-20x20"])
    def test_boundary_maps(self, make):
        ds = make()
        for q in range(1, ds.dim + 1):
            self.check(_boundary_rows(ds, q), ds.n(q), True)


def snf_reference(a):
    """Reference for the dense Smith form's operations: the same stage
    pivot, column-then-row Euclid and divisibility fix, but every operation
    updates whole rows and columns of S, U and V.  Returns U, S, V as lists
    of rows and the diagonal."""
    m, n = a.rows, a.cols
    s = [list(r) for r in a.iter_rows()]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def pivot_position(t):
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

    def balanced_div(a, b):
        # quotient with remainder in (-b/2, b/2]; b > 0
        q, r = divmod(a, b)
        if 2 * r > b:
            q += 1
        return q

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

    def least(entries):
        # position of the least nonzero |x| among (position, x), first on
        # a tie, or None
        best = None
        for p, x in entries:
            if x and (best is None or abs(x) < best[1]):
                best = (p, abs(x))
        return best and best[0]

    t = 0
    limit = min(m, n)
    while t < limit:
        pos = pivot_position(t)
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
            for r in range(t + 1, m):
                q = balanced_div(s[r][t], piv)
                if q:
                    add_row(r, t, -q)
            pos = least(((r, t), s[r][t]) for r in range(t + 1, m))
            if pos:
                continue
            for c in range(t + 1, n):
                q = balanced_div(s[t][c], piv)
                if q:
                    add_col(c, t, -q)
            pos = least(((t, c), s[t][c]) for c in range(t + 1, n))
            if pos:
                continue
            bad = None
            for r in range(t + 1, m):
                if any(s[r][c] % piv for c in range(t + 1, n)):
                    bad = r
                    break
            if bad is None:
                break
            add_row(t, bad, 1)
            pos = (t, t)
        t += 1

    return u, s, v, tuple(s[k][k] for k in range(limit))


class TestSmithReference:
    """The dense Smith form updates only the entries an operation can
    change; its U, S, V and diagonal equal the full-update reference's."""

    @staticmethod
    def check(a):
        dec = smith_normal_form(a)
        got = (dec.U.tolist(), dec.S.tolist(), dec.V.tolist(), dec.diagonal)
        assert got == snf_reference(a), a

    def test_criterion_7_distribution(self):
        rng = random.Random(1107)
        for _ in range(120):
            self.check(random_matrix(rng, max_dim=30))

    def test_random_sparse(self):
        rng = random.Random(1108)
        for _ in range(200):
            m, n = rng.randint(1, 14), rng.randint(1, 14)
            density = rng.random()
            self.check(IntMatrix(
                [[rng.randint(-50, 50) if rng.random() < density else 0
                  for _ in range(n)] for _ in range(m)]))

    def test_empty_and_zero(self):
        for shape in [(0, 0), (0, 3), (3, 0), (1, 1), (2, 2), (3, 5), (5, 3)]:
            self.check(IntMatrix.zeros(*shape))

    def test_divisibility_fix(self):
        # the cross clears at once with pivot 2, and 2 does not divide 3
        self.check(IntMatrix([[2, 0], [0, 3]]))

    def test_demo_matrices(self):
        for data in ([[6, 4, 2], [4, 8, 10], [2, 10, 4]],
                     [[1, 2, 3], [2, 4, 6]],
                     [[10 ** 40, 1], [1, 10 ** 40]],
                     [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]):
            self.check(IntMatrix(data))


def transform_bits(dec):
    """Bit length of the largest |entry| of U and V."""
    return max(abs(x).bit_length() for t in (dec.U, dec.V) for x in t.flat())


def seeded_matrices(seed, count, bound):
    """``count`` matrices, rows and cols uniform in 1..30, entries uniform in
    [-bound, bound], drawn as acceptance criterion 7 draws its set."""
    rng = random.Random(seed)
    for _ in range(count):
        rows, cols = rng.randint(1, 30), rng.randint(1, 30)
        yield IntMatrix([[rng.randint(-bound, bound) for _ in range(cols)]
                         for _ in range(rows)])


class TestTransformGrowth:
    """Bounds on the entries of U and V, each 10 % above the largest bit
    length measured for the column-then-row Euclid (926 and 8445 bits).
    They only ever tighten."""

    def test_criterion_7_set(self):
        # the 500 matrices of acceptance criterion 7 (seed 777)
        decs = map(smith_normal_form, seeded_matrices(777, 500, 9))
        assert max(map(transform_bits, decs)) <= 1019

    def test_nine_digit_entries(self):
        decs = map(check_decomposition, seeded_matrices(778, 20, 10 ** 9))
        assert max(map(transform_bits, decs)) <= 9290
