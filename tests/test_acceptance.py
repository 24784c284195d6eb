"""Acceptance suite: one test per criterion, each printing a pass line.

Every expected value is exact; the timing bounds are the stated ones.
"""

import random
import time
import warnings
from fractions import Fraction

from k3motive.builders import (
    KummerParams,
    build_kummer,
    build_type1_smooth,
    build_type2_chain,
    build_type3,
    icosahedron,
    kummer_r2_abelian,
    octahedron,
    refine_sphere,
    tetrahedron,
)
from k3motive.deltaset import (
    Shape,
    cycle_pairing,
    euler_characteristic,
    homology,
    recognize,
    refine_barycentric,
    top_cycle_generator,
)
from k3motive.fibers import (
    Rational,
    WeakNeronData,
    component_class,
    open_component_classes,
    smooth_locus_class,
)
from k3motive.integrals import (
    GeometricRealizabilityWarning,
    RamifiedParams,
    acampo_chi,
    integral_from_neron,
    integral_kulikov,
    scaling_check,
    serre_hodge_check,
    closed_form_integral,
)
from k3motive.intlinalg import (
    IntMatrix,
    cokernel_structure,
    det,
    smith_normal_form,
)
from k3motive.motives import EllipticCurveAtom, MotiveClass, UnivariateLaurent
from k3motive.weightss import monodromy_gram, type2_h1_row

L = MotiveClass.lefschetz
E_ATOM = EllipticCurveAtom("E")


def announce(num, text, t0, limit=None):
    elapsed = time.perf_counter() - t0
    print("PASS criterion %d: %s (%.2f s)" % (num, text, elapsed))
    if limit is not None:
        assert elapsed < limit, "criterion %d exceeded %s s" % (num, limit)


def random_composition(rng, parts, total):
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    vals = []
    prev = 0
    for c in cuts + [total]:
        vals.append(c - prev)
        prev = c
    return vals


def test_criterion_1_type3_closed_forms():
    t0 = time.perf_counter()
    expected = {
        "tetrahedron": 4 * MotiveClass.one() + L(1, 16) + L(2, 4),
        "octahedron": 6 * MotiveClass.one() + L(1, 12) + L(2, 6),
        "icosahedron": 12 * MotiveClass.one() + L(2, 12),
    }
    r2s = {"tetrahedron": 4, "octahedron": 8, "icosahedron": 20}
    for name, want in expected.items():
        fiber = build_type3(name)
        integral = integral_kulikov(fiber)
        assert integral == want
        assert integral == closed_form_integral(
            RamifiedParams(e=1, s=3, r=r2s[name]))
    announce(1, "type III integrals match the closed form exactly", t0, 1.0)


def test_criterion_2_type2_closed_forms():
    t0 = time.perf_counter()
    rng = random.Random(1405)
    for m in range(1, 11):
        _, _, _, r1 = type2_h1_row(m)
        assert r1 == m * m
        closed = closed_form_integral(
            RamifiedParams(e=1, s=2, r=r1, elliptic_atom=E_ATOM))
        profiles = [None] + [random_composition(rng, m + 1, 20)
                             for _ in range(5)]
        for profile in profiles:
            fiber = build_type2_chain(m, profile)
            assert integral_kulikov(fiber) == closed
    announce(2, "type II integrals match the closed form for m = 1..10", t0,
             1.0)


def test_criterion_3_chi_and_serre():
    t0 = time.perf_counter()
    fibers = [build_type1_smooth()]
    fibers += [build_type2_chain(m) for m in range(1, 11)]
    fibers += [build_type3(n) for n in ("tetrahedron", "octahedron",
                                        "icosahedron")]
    for f in fibers:
        assert acampo_chi(f) == 24
        assert serre_hodge_check(f) is True
    # the Kummer builder's fiber is deliberately non-Kulikov; its integral
    # carries the same identities
    for m1, m2 in ((2, 2), (2, 4), (4, 4)):
        rep = build_kummer(KummerParams(m1, m2))
        assert rep.integral.euler_characteristic() == 24
        assert rep.integral.serre_reduce() == UnivariateLaurent.constant(24)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GeometricRealizabilityWarning)
        for e in range(1, 6):
            for r in range(1, 21):
                if (e * e * r) % 2 == 0:
                    cls = closed_form_integral(RamifiedParams(e=e, s=3, r=r))
                    assert cls.euler_characteristic() == 24
                root = int(r ** 0.5)
                if root * root == r:
                    cls = closed_form_integral(
                        RamifiedParams(e=e, s=2, r=r, elliptic_atom=E_ATOM))
                    assert cls.euler_characteristic() == 24
    announce(3, "chi = 24 and the Serre identity hold for every builder "
                "output and closed form", t0)


def test_criterion_4_cycle_coefficients():
    t0 = time.perf_counter()
    for name in ("tetrahedron", "octahedron", "icosahedron"):
        fiber = build_type3(name)
        mg = monodromy_gram(fiber)
        faces = len(fiber.triple_points)
        assert mg.gram.shape == (1, 1)
        assert mg.gram[0, 0] == faces
        assert mg.r_d == faces
        assert all(abs(c) == 1 for c in mg.basis[0].coefficients)
    plans = [
        (tetrahedron, ["e"]), (tetrahedron, ["b"]),
        (tetrahedron, ["e", "e"]), (tetrahedron, ["e", "b"]),
        (tetrahedron, ["b", "e"]), (tetrahedron, ["b", "b"]),
        (tetrahedron, ["e", "e", "e"]), (tetrahedron, ["e", "e", "b"]),
        (tetrahedron, ["e", "b", "e"]), (tetrahedron, ["b", "e", "e"]),
        (octahedron, ["e"]), (octahedron, ["b"]),
        (octahedron, ["e", "e"]), (octahedron, ["e", "b"]),
        (octahedron, ["b", "e"]), (octahedron, ["b", "b"]),
        (icosahedron, ["e"]), (icosahedron, ["b"]),
        (icosahedron, ["e", "e"]), (icosahedron, ["e", "b"]),
    ]
    assert len(plans) == 20
    style = {"e": "edge_split", "b": "barycentric"}
    for seed, seq in plans:
        tri = seed()
        for step in seq:
            tri = refine_sphere(tri, 1, style=style[step])
        assert tri.n(2) <= 512
        gen = top_cycle_generator(tri, 2)
        assert all(abs(c) == 1 for c in gen.coefficients)
        assert cycle_pairing(gen, gen) == tri.n(2)
    announce(4, "top-cycle coefficients are all +-1 on 3 built-in and 20 "
                "refined spheres", t0, 10.0)


def test_criterion_5_kummer_suite():
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GeometricRealizabilityWarning)
        for m1 in (2, 4, 6):
            for m2 in (2, 4, 6):
                p = KummerParams(m1, m2)
                rep = build_kummer(p)
                c = m1 * m2
                assert recognize(rep.nerve) == Shape.SPHERE2
                assert euler_characteristic(rep.nerve) == 2
                assert rep.component_census.total == c // 2 + 2
                assert rep.component_census.special == 4
                want = ((c // 2 + 2) * (MotiveClass.one() + L(2))
                        + L(1, 20 - c))
                assert rep.integral == want
                assert kummer_r2_abelian(p) == (2 * c, c)
                assert rep.r2_abelian == 2 * c
                assert rep.r2_kummer == c
                gen = top_cycle_generator(rep.nerve, 2)
                assert cycle_pairing(gen, gen) == c
    announce(5, "Kummer census, integral, lattice r2 and grid pairing agree "
                "for (m1, m2) in {2,4,6}^2", t0, 5.0)


def test_criterion_6_scaling_law():
    t0 = time.perf_counter()
    rng = random.Random(43)
    for _ in range(50):
        e = rng.randint(1, 5)
        e2 = rng.randint(1, 4)
        if rng.random() < 0.5:
            p = RamifiedParams(e=e, s=2, r=rng.randint(1, 7) ** 2,
                               elliptic_atom=E_ATOM)
        else:
            p = RamifiedParams(e=e, s=3, r=2 * rng.randint(1, 12))
        assert scaling_check(p, e2)
    announce(6, "closed forms satisfy the (e e', r) <-> (e', e^2 r) "
                "substitution", t0)


def rational_rank(a):
    # independent oracle: Gaussian elimination over the rationals
    m = [[Fraction(x) for x in row] for row in a.iter_rows()]
    rank = 0
    for col in range(a.cols):
        piv = next((r for r in range(rank, a.rows) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(a.rows):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def test_criterion_7_linear_algebra_suite():
    t0 = time.perf_counter()
    oracle_s = 0.0  # time spent in the test's own rational-rank oracle
    rng = random.Random(777)
    for _ in range(500):
        rows = rng.randint(1, 30)
        cols = rng.randint(1, 30)
        a = IntMatrix([[rng.randint(-9, 9) for _ in range(cols)]
                       for _ in range(rows)])
        dec = smith_normal_form(a)
        assert dec.U @ a @ dec.V == dec.S
        assert abs(det(dec.U)) == 1
        assert abs(det(dec.V)) == 1
        nonzero = [d for d in dec.diagonal if d]
        for i in range(len(nonzero) - 1):
            assert nonzero[i + 1] % nonzero[i] == 0
        assert all(d == 0 for d in dec.diagonal[len(nonzero):])
        t_oracle = time.perf_counter()
        expected_rank = rational_rank(a)
        oracle_s += time.perf_counter() - t_oracle
        assert len(nonzero) == expected_rank
        if rows == cols:
            d = det(a)
            if d:
                assert cokernel_structure(a).order == abs(d)

    def circle(m):
        from k3motive.deltaset import DeltaSet
        return DeltaSet(m, [[((i + 1) % m, i) for i in range(m)]])

    def rp2():
        from k3motive.deltaset import DeltaSet
        return DeltaSet(2, [[(1, 0), (1, 0), (0, 0)], [(1, 0, 2), (0, 1, 2)]])

    def torus():
        from k3motive.builders import torus_grid
        return torus_grid(3, 3)

    known = [
        (circle(4), {0: (1, ()), 1: (1, ())}),
        (circle(2), {0: (1, ()), 1: (1, ())}),
        (tetrahedron(), {0: (1, ()), 1: (0, ()), 2: (1, ())}),
        (octahedron(), {0: (1, ()), 1: (0, ()), 2: (1, ())}),
        (torus(), {0: (1, ()), 1: (2, ()), 2: (1, ())}),
        (rp2(), {0: (1, ()), 1: (0, (2,)), 2: (0, ())}),
    ]
    for ds, table in known:
        for q, want in table.items():
            assert homology(ds, q) == want
        sd = refine_barycentric(ds)
        for q in table:
            assert homology(sd, q) == table[q]
    library_s = time.perf_counter() - t0 - oracle_s
    announce(7, "500 random Smith forms verified; homology matches S^1, "
                "S^2, torus, RP^2 and survives refinement (library %.2f s, "
                "oracle %.2f s)" % (library_s, oracle_s), t0, 30.0)


def test_criterion_8_neron_evaluator():
    t0 = time.perf_counter()
    rng = random.Random(97)
    for _ in range(100):
        items = []
        for _ in range(rng.randint(1, 7)):
            cls = component_class(Rational(rng.randint(0, 12)))
            if rng.random() < 0.4:
                cls = cls + MotiveClass.of_atom(E_ATOM) * rng.randint(-3, 3)
            items.append((cls, rng.randint(-6, 6)))
        base = integral_from_neron(WeakNeronData.of(items))
        shift = rng.randint(-9, 9)
        shuffled = [(c, m + shift) for c, m in items]
        rng.shuffle(shuffled)
        assert integral_from_neron(WeakNeronData.of(shuffled)) == base
    fibers = [build_type2_chain(m) for m in (1, 3, 6)]
    fibers += [build_type3(n) for n in ("tetrahedron", "octahedron",
                                        "icosahedron")]
    for f in fibers:
        data = WeakNeronData.of((c, 0) for c in open_component_classes(f))
        assert integral_from_neron(data) == smooth_locus_class(f)
        assert integral_from_neron(data) == integral_kulikov(f)
    announce(8, "weak Neron evaluation is shift/permutation invariant and "
                "matches the smooth locus at zero multiplicities", t0)
