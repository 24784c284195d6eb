import functools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from k3motive.deltaset import Shape, homology, recognize
from k3motive.fibers import (
    Component,
    DegenerationFiber,
    DoubleCurve,
    InvalidFiberError,
    K3Smooth,
    NonKulikovError,
    Other,
    Rational,
    RuledElliptic,
    TriplePoint,
    clemens_polytope,
    component_betti,
    component_class,
    degeneration_type,
    open_component_classes,
    smooth_locus_class,
    strata_classes,
    validate,
)
from k3motive.motives import (
    EPolynomial,
    EllipticCurveAtom,
    MissingRealizationError,
    MotiveClass,
    OpaqueAtom,
    POINT,
)
from test_deltaset import nested_faces

L = MotiveClass.lefschetz
E = EllipticCurveAtom("E")


def tetra_fiber(profile=(7, 7, 7, 7)):
    comps = [Component(i, Rational(profile[i])) for i in range(4)]
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    curves = [DoubleCurve("c%d%d" % p, p, 0) for p in pairs]
    cid = {frozenset(p): "c%d%d" % p for p in pairs}
    facets = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    triples = [TriplePoint("t%d" % i,
                           (cid[frozenset((a, b))], cid[frozenset((a, c))],
                            cid[frozenset((b, c))]))
               for i, (a, b, c) in enumerate(facets)]
    return DegenerationFiber.of("tetra", comps, curves, triples)


def chain_fiber(m, ends=(10, 10), middles=None):
    comps = [Component(0, Rational(ends[0]))]
    for i in range(1, m):
        comps.append(Component(i, RuledElliptic("E", 0 if middles is None
                                                else middles[i - 1])))
    comps.append(Component(m, Rational(ends[1])))
    curves = [DoubleCurve("c%d" % i, (i, i + 1), 1, curve="E")
              for i in range(m)]
    return DegenerationFiber.of("chain", comps, curves)


class TestValidate:
    def test_tetra_valid(self):
        assert validate(tetra_fiber()) == []

    def test_self_intersection(self):
        f = DegenerationFiber.of(
            "bad", [Component(0, Rational(0))],
            [DoubleCurve("c", (0, 0), 0)])
        msgs = validate(f)
        assert any("self-intersecting" in m for m in msgs)

    def test_non_adjacent_triple(self):
        comps = [Component(i, Rational(0)) for i in range(4)]
        curves = [DoubleCurve("a", (0, 1), 0), DoubleCurve("b", (1, 2), 0),
                  DoubleCurve("c", (2, 3), 0)]
        f = DegenerationFiber.of("bad", comps, curves,
                                 [TriplePoint("t", ("a", "b", "c"))])
        msgs = validate(f)
        assert len(msgs) == 1
        assert "pairwise adjacent" in msgs[0]

    def test_unknown_component(self):
        f = DegenerationFiber.of(
            "bad", [Component(0, Rational(0))],
            [DoubleCurve("c", (0, 9), 0)])
        assert any("unknown component" in m for m in validate(f))

    def test_unknown_kind_is_a_violation(self):
        # one line naming the component, instead of a TypeError from the
        # class and Betti lookups of the evaluators
        f = DegenerationFiber.of(
            "x", [Component(0, "junk"), Component("r", Rational(20)),
                  Component(2, None)])
        assert validate(f) == ["component 0 has unknown kind 'junk'",
                               "component 2 has unknown kind None"]
        from k3motive.integrals import verify_fiber
        with pytest.raises(InvalidFiberError) as exc:
            verify_fiber(f)
        assert exc.value.violations == validate(f)

    def test_genus_one_needs_atom(self):
        f = DegenerationFiber.of(
            "bad", [Component(0, Rational(0)), Component(1, Rational(0))],
            [DoubleCurve("c", (0, 1), 1)])
        assert any("elliptic atom" in m for m in validate(f))

    def test_other_betti_consistency(self):
        good = Other(MotiveClass.one() + L(1, 2) + L(2), betti=(1, 0, 2))
        bad = Other(MotiveClass.one() + L(1, 2) + L(2), betti=(1, 0, 5))
        f = DegenerationFiber.of("x", [Component(0, good)])
        assert validate(f) == []
        f = DegenerationFiber.of("x", [Component(0, bad)])
        assert any("Betti" in m for m in validate(f))


def validation_cases():
    """Invalid fibers, one per rule and a few breaking several, by name."""
    R = Rational
    comps3 = [Component(i, R(0)) for i in range(3)]
    tri = [DoubleCurve("ab", (0, 1), 0), DoubleCurve("ac", (0, 2), 0),
           DoubleCurve("bc", (1, 2), 0)]
    t = [TriplePoint("t", ("ab", "ac", "bc"))]
    fiber = DegenerationFiber.of
    return {
        "duplicate component ids": fiber(
            "x", [Component(0, R(0)), Component(0, R(1))]),
        "negative a, rational": fiber("x", [Component(0, R(-1))]),
        "negative a, ruled": fiber(
            "x", [Component("r", RuledElliptic("E", -2))]),
        "Betti disagrees": fiber("x", [Component(0, Other(
            MotiveClass.one() + L(1, 2) + L(2), betti=(1, 0, 5)))]),
        "duplicate curve ids, last wins": fiber(
            "x", comps3 + [Component(3, R(0))],
            tri + [DoubleCurve("bc", (1, 3), 0)], t),
        "duplicate curve ids, last fits": fiber(
            "x", comps3 + [Component(3, R(0))],
            [DoubleCurve("bc", (1, 3), 0)] + tri, t),
        "curve on one component": fiber(
            "x", comps3, [DoubleCurve("c", (0,), 0)]),
        "curve on three components": fiber(
            "x", comps3, [DoubleCurve("c", (0, 1, 2), 0)]),
        "self-intersecting curve": fiber(
            "x", comps3, [DoubleCurve("c", (1, 1), 0)]),
        "unknown components": fiber(
            "x", comps3, [DoubleCurve("c", (7, "y"), 0)]),
        "genus 2": fiber("x", comps3, [DoubleCurve("c", (0, 1), 2)]),
        "genus 1 without atom": fiber(
            "x", comps3, [DoubleCurve("c", (0, 1), 1)]),
        "duplicate triple ids": fiber(
            "x", comps3, tri, t + [TriplePoint("t", ("bc", "ab", "ac"))]),
        "triple on two curves": fiber(
            "x", comps3, tri, [TriplePoint("t", ("ab", "ac"))]),
        "triple on a repeated curve": fiber(
            "x", comps3, tri, [TriplePoint("t", ("ab", "ab", "bc"))]),
        "triple on four curves": fiber(
            "x", comps3, tri, [TriplePoint("t", ("ab", "ac", "bc", "ab"))]),
        "triple on an unknown curve": fiber(
            "x", comps3, tri, [TriplePoint("t", ("ab", "ac", "zz"))]),
        "triple along a path": fiber(
            "x", comps3 + [Component(3, R(0))],
            tri[:1] + [DoubleCurve("bc", (1, 2), 0),
                       DoubleCurve("cd", (2, 3), 0)],
            [TriplePoint("t", ("ab", "bc", "cd"))]),
        "triple on a three-component curve": fiber(
            "x", comps3, tri[:2] + [DoubleCurve("bc", (0, 1, 2), 0)], t),
        "triple beside a self-intersecting curve": fiber(
            "x", comps3, [DoubleCurve("ab", (0, 0), 0),
                          DoubleCurve("ac", (0, 1), 0),
                          DoubleCurve("bc", (0, 2), 0)], t),
        "triple with a self-intersecting curve apart": fiber(
            "x", comps3, tri[:2] + [DoubleCurve("cc", (2, 2), 0)],
            [TriplePoint("t", ("ab", "ac", "cc"))]),
        "triple on two components": fiber(
            "x", comps3, [DoubleCurve("aa", (0, 0), 0),
                          DoubleCurve("aa2", (0, 0), 0),
                          DoubleCurve("ab", (0, 1), 0)],
            [TriplePoint("t", ("aa", "aa2", "ab"))]),
        "triple on parallel curves": fiber(
            "x", comps3, tri + [DoubleCurve("ab2", (1, 0), 0)],
            [TriplePoint("t", ("ab", "ab2", "bc"))]),
        "several rules": fiber(
            "x", [Component(0, R(-1)), Component(0, R(0)),
                  Component(1, RuledElliptic("E", -1))],
            [DoubleCurve("c", (0, 0), 3), DoubleCurve("c", (1, 5), 1),
             DoubleCurve("d", (0,), 1)],
            [TriplePoint(1, ("c", "d")), TriplePoint(1, ("c", "d", "e")),
             TriplePoint(2, ("c", "c", "d"))]),
        "every triple rule": fiber(
            "x", comps3 + [Component(3, R(0))],
            tri + [DoubleCurve("cd", (2, 3), 0),
                   DoubleCurve("bd", (1, 3, 0), 0)],
            [TriplePoint("p", ("ab", "bc", "cd")),
             TriplePoint("q", ("ab", "ac", "x")),
             TriplePoint("r", ("ab", "ac", "bd")),
             TriplePoint("s", ("ab", "ac", "bc")),
             TriplePoint("p", ("ab",))]),
    }


# violation lists of ``validation_cases``, pinned verbatim from the
# triple-point rule with three sets and a union per triple point
PINNED_VIOLATIONS = {
    "duplicate component ids": [
        "duplicate component ids",
    ],
    "negative a, rational": [
        "component 0 has negative a",
    ],
    "negative a, ruled": [
        "component 'r' has negative a",
    ],
    "Betti disagrees": [
        "component 0 Betti data disagrees with its class",
    ],
    "duplicate curve ids, last wins": [
        "duplicate double-curve ids",
        "triple point 't' curves are not pairwise adjacent along three "
        "components",
    ],
    "duplicate curve ids, last fits": [
        "duplicate double-curve ids",
    ],
    "curve on one component": [
        "double curve 'c' is not on exactly two components",
    ],
    "curve on three components": [
        "double curve 'c' is not on exactly two components",
    ],
    "self-intersecting curve": [
        "self-intersecting double curve 'c'",
    ],
    "unknown components": [
        "double curve 'c' references unknown component 7",
        "double curve 'c' references unknown component 'y'",
    ],
    "genus 2": [
        "double curve 'c' has genus 2 outside {0, 1}",
    ],
    "genus 1 without atom": [
        "genus-1 double curve 'c' names no elliptic atom",
    ],
    "duplicate triple ids": [
        "duplicate triple-point ids",
    ],
    "triple on two curves": [
        "triple point 't' is not on three distinct curves",
    ],
    "triple on a repeated curve": [
        "triple point 't' is not on three distinct curves",
    ],
    "triple on four curves": [
        "triple point 't' is not on three distinct curves",
    ],
    "triple on an unknown curve": [
        "triple point 't' references an unknown double curve",
    ],
    "triple along a path": [
        "triple point 't' curves are not pairwise adjacent along three "
        "components",
    ],
    "triple on a three-component curve": [
        "double curve 'bc' is not on exactly two components",
        "triple point 't' curves are not pairwise adjacent along three "
        "components",
    ],
    "triple beside a self-intersecting curve": [
        "self-intersecting double curve 'ab'",
    ],
    "triple with a self-intersecting curve apart": [
        "self-intersecting double curve 'cc'",
        "triple point 't' curves are not pairwise adjacent along three "
        "components",
    ],
    "triple on two components": [
        "self-intersecting double curve 'aa'",
        "self-intersecting double curve 'aa2'",
        "triple point 't' curves are not pairwise adjacent along three "
        "components",
    ],
    "triple on parallel curves": [
        "triple point 't' curves are not pairwise adjacent along three "
        "components",
    ],
    "several rules": [
        "duplicate component ids",
        "component 0 has negative a",
        "component 1 has negative a",
        "duplicate double-curve ids",
        "self-intersecting double curve 'c'",
        "double curve 'c' has genus 3 outside {0, 1}",
        "double curve 'c' references unknown component 5",
        "genus-1 double curve 'c' names no elliptic atom",
        "double curve 'd' is not on exactly two components",
        "duplicate triple-point ids",
        "triple point 1 is not on three distinct curves",
        "triple point 1 references an unknown double curve",
        "triple point 2 is not on three distinct curves",
    ],
    "every triple rule": [
        "double curve 'bd' is not on exactly two components",
        "duplicate triple-point ids",
        "triple point 'p' curves are not pairwise adjacent along three "
        "components",
        "triple point 'q' references an unknown double curve",
        "triple point 'r' curves are not pairwise adjacent along three "
        "components",
        "triple point 'p' is not on three distinct curves",
    ],
}


class TestValidationMessages:
    def test_pinned_violation_lists(self):
        cases = validation_cases()
        assert list(cases) == list(PINNED_VIOLATIONS)
        for name, f in cases.items():
            assert validate(f) == PINNED_VIOLATIONS[name], name

    def test_invalid_fibers_have_no_polytope(self):
        for name, f in validation_cases().items():
            with pytest.raises(InvalidFiberError) as err:
                clemens_polytope(f)
            assert err.value.violations == PINNED_VIOLATIONS[name], name


class TestMalformedOn:
    """An ``on`` holding an unhashable id, or no ids at all, is listed as a
    violation in the scan's words, never raised."""

    @staticmethod
    def fiber(curves=(), points=()):
        comps = [Component(0, Rational(0)), Component(1, Rational(0))]
        return DegenerationFiber.of("x", comps, curves, points)

    def test_unhashable_component_id(self):
        f = self.fiber([DoubleCurve(0, ([0], 1), 1, "E")])
        assert validate(f) == [
            "double curve 0 references unknown component [0]"]

    def test_on_is_no_sequence(self):
        f = self.fiber([DoubleCurve(0, 5, 1, "E")])
        assert validate(f) == [
            "double curve 0 is not on exactly two components"]

    def test_triple_points(self):
        ok = DoubleCurve("a", (0, 1), 0)
        cases = [
            (TriplePoint("t", 5), "triple point 't' is not on three distinct "
                                  "curves"),
            (TriplePoint("t", ([0], "a", "b")), "triple point 't' references "
                                                "an unknown double curve"),
            (TriplePoint("t", ("a", "b", "c")), "triple point 't' curves are "
             "not pairwise adjacent along three components")]
        for point, message in cases:
            f = self.fiber([ok, DoubleCurve("b", 7, 0),
                            DoubleCurve("c", ([1], 0), 0)], [point])
            assert validate(f) == [
                "double curve 'b' is not on exactly two components",
                "double curve 'c' references unknown component [1]",
                message]
            with pytest.raises(InvalidFiberError):
                clemens_polytope(f)


class TestComponentClasses:
    def test_rational(self):
        assert component_class(Rational(7)) == \
            MotiveClass.one() + L(1, 7) + L(2)
        assert component_betti(Rational(7)) == (1, 0, 7, 0, 1)

    def test_ruled_elliptic(self):
        cls = component_class(RuledElliptic("E", 3))
        e = MotiveClass.of_atom(E)
        assert cls == e + e.twist(-1) + L(1, 3)
        assert component_betti(RuledElliptic("E", 3)) == (1, 2, 5, 2, 1)

    def test_k3(self):
        cls = component_class(K3Smooth())
        assert cls.euler_characteristic() == 24
        assert component_betti(K3Smooth()) == (1, 0, 22, 0, 1)


class TestClemensPolytope:
    def test_tetra(self):
        cl = clemens_polytope(tetra_fiber())
        assert cl.counts == (4, 6, 4)
        assert recognize(cl) == Shape.SPHERE2

    def test_chain(self):
        cl = clemens_polytope(chain_fiber(2))
        assert cl.counts == (3, 2)
        assert recognize(cl) == Shape.INTERVAL

    def test_point(self):
        f = DegenerationFiber.of("smooth", [Component(0, K3Smooth())])
        assert recognize(clemens_polytope(f)) == Shape.POINT

    def test_invalid_rejected(self):
        f = DegenerationFiber.of(
            "bad", [Component(0, Rational(0))],
            [DoubleCurve("c", (0, 0), 0)])
        with pytest.raises(InvalidFiberError):
            clemens_polytope(f)

    def test_betti_invariant_under_relabelling(self):
        rng = random.Random(13)
        base = tetra_fiber()
        cl0 = clemens_polytope(base)
        ranks = [homology(cl0, q) for q in range(3)]
        names = ["x", "q", "zz", "m"]
        for _ in range(4):
            rng.shuffle(names)
            remap = {i: names[i] for i in range(4)}
            comps = [Component(remap[c.id], c.kind) for c in base.components]
            curves = [DoubleCurve(d.id, (remap[d.on[0]], remap[d.on[1]]),
                                  d.genus, d.curve)
                      for d in base.double_curves]
            f = DegenerationFiber.of("relabelled", comps, curves,
                                     base.triple_points)
            cl = clemens_polytope(f)
            assert [homology(cl, q) for q in range(3)] == ranks


class TestStrata:
    def test_tetra_profile_7777(self):
        y0, y1, y2 = strata_classes(tetra_fiber())
        assert y0 == 4 * MotiveClass.one() + L(1, 28) + L(2, 4)
        assert y1 == 6 * (MotiveClass.one() + L(1))
        assert y2 == 4 * MotiveClass.one()

    def test_chain_m2(self):
        f = chain_fiber(2, ends=(10, 10))
        y0, y1, y2 = strata_classes(f)
        e = MotiveClass.of_atom(E)
        assert y0 == e + e.twist(-1) + 2 * MotiveClass.one() + L(1, 20) + L(2, 2)
        assert y1 == 2 * e
        assert y2.is_zero()

    def test_no_triples(self):
        _, _, y2 = strata_classes(chain_fiber(3))
        assert y2.is_zero()


# -- an independent strata oracle: every item's class written out here and
# summed one item at a time, sharing nothing with the library but the ring

OPAQUE = MotiveClass.of_atom(OpaqueAtom("S"))


def oracle_component(kind):
    one = MotiveClass.one()
    if isinstance(kind, Rational):
        return one + L(1, kind.a) + L(2)
    if isinstance(kind, RuledElliptic):
        e = MotiveClass.of_atom(EllipticCurveAtom(kind.curve))
        return e + e.twist(-1) + L(1, kind.a)
    if isinstance(kind, K3Smooth):
        return MotiveClass.of_atom(OpaqueAtom("K3", e_poly=EPolynomial(
            {(0, 0): 1, (2, 0): 1, (1, 1): 20, (0, 2): 1, (2, 2): 1})))
    return kind.klass


def oracle_curve(d):
    if d.genus == 0:
        return MotiveClass.one() + L(1)
    return MotiveClass.of_atom(EllipticCurveAtom(d.curve))


def oracle_strata(f):
    y0 = y1 = MotiveClass.zero()
    for c in f.components:
        y0 = y0 + oracle_component(c.kind)
    for d in f.double_curves:
        y1 = y1 + oracle_curve(d)
    y2 = MotiveClass.zero()
    for _ in f.triple_points:
        y2 = y2 + MotiveClass.one()
    return (y0, y1, y2)


def oracle_open(f, c):
    """The open stratum of component ``c``: its class, minus each double
    curve on it, plus each triple point on it."""
    curves = {d.id: d for d in f.double_curves}
    cls = oracle_component(c.kind)
    for d in f.double_curves:
        if c.id in d.on:
            cls = cls - oracle_curve(d)
    for t in f.triple_points:
        if any(c.id in curves[did].on for did in t.on):
            cls = cls + MotiveClass.one()
    return cls


KIND_POOL = (Rational(0), Rational(3), RuledElliptic("E"),
             RuledElliptic("F", 2), K3Smooth(), Other(OPAQUE),
             Other(MotiveClass.one() + L(1, 2) + L(2), betti=(1, 0, 2)))


def random_fiber(rng, n):
    """A valid fiber on n components of every kind, with mixed int and str
    ids; double curves of both genera (genus 0 named or not, genus 1 over
    E or F) and triple points on some of the triangles they close."""
    ids = [rng.choice((i, "v%d" % i)) for i in rng.sample(range(100), n)]
    comps = [Component(i, rng.choice(KIND_POOL)) for i in ids]
    curve_of, curves = {}, []
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.6:
                genus = rng.choice((0, 0, 1))
                name = rng.choice(("E", "F") if genus else (None, "E", "G"))
                on = (ids[a], ids[b]) if rng.random() < 0.5 \
                    else (ids[b], ids[a])
                curve_of[a, b] = rng.choice((len(curves), "d%d" % len(curves)))
                curves.append(DoubleCurve(curve_of[a, b], on, genus, name))
    triples = []
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                pairs = [(a, b), (a, c), (b, c)]
                if all(p in curve_of for p in pairs) and rng.random() < 0.7:
                    on = [curve_of[p] for p in pairs]
                    rng.shuffle(on)
                    triples.append(TriplePoint("t%d" % len(triples),
                                               tuple(on)))
    return DegenerationFiber.of("random", comps, curves, triples)


def relabelled(f, rng):
    """The same fiber with fresh component, curve and triple-point ids."""
    comp = {c.id: "c%d" % rng.randrange(10 ** 6) for c in f.components}
    curve = {d.id: rng.randrange(10 ** 6) for d in f.double_curves}
    return DegenerationFiber.of(
        f.label, [Component(comp[c.id], c.kind) for c in f.components],
        [DoubleCurve(curve[d.id], tuple(comp[x] for x in d.on), d.genus,
                     d.curve) for d in f.double_curves],
        [TriplePoint(("t", i), tuple(curve[x] for x in t.on))
         for i, t in enumerate(f.triple_points)])


def strata_corpus():
    rng = random.Random(2011)
    fibers = [tetra_fiber(), tetra_fiber((10, 10, 8, 0)), chain_fiber(1),
              chain_fiber(4, middles=(0, 3, 1)),
              DegenerationFiber.of("smooth", [Component(0, K3Smooth())])]
    fibers += [random_fiber(rng, rng.randint(1, 7)) for _ in range(40)]
    return fibers + [relabelled(f, rng) for f in fibers] + strata_extras()


def strata_extras():
    """Relabelled sphere ladders with seeded profiles, so many distinct a;
    genus-0 curves beside genus-1 curves over two names; Kummer 2x2; a
    sphere whose components are stored out of id order."""
    from k3motive.builders import (KummerParams, build_kummer, build_type3,
                                   icosahedron, octahedron)
    from k3motive.deltaset import refine_barycentric, refine_edge_split
    from test_deltaset import shuffled

    rng = random.Random(2306)
    out = []
    for base, refine, steps in ((octahedron, refine_edge_split, 3),
                                (icosahedron, refine_barycentric, 1)):
        tri = base()
        for k in range(steps + 1):
            tri = refine(tri) if k else tri
            total = 20 + 2 * tri.n(2)
            cuts = sorted(rng.randrange(total + 1)
                          for _ in range(tri.n(0) - 1))
            out.append(build_type3(shuffled(tri, rng), [
                b - a for a, b in zip([0] + cuts, cuts + [total])]))
    comps = [Component(i, Rational(3)) for i in range(3)] \
        + [Component(3, RuledElliptic("E", 1))]
    curves = [DoubleCurve("g", (0, 1), 0), DoubleCurve("h", (1, 2), 0, "G"),
              DoubleCurve("e", (0, 3), 1, "E"),
              DoubleCurve("f", (2, 3), 1, "F"),
              DoubleCurve("e2", (3, 1), 1, "E")]
    out.append(DegenerationFiber.of(
        "both genera", comps, curves, [TriplePoint("t", ("e", "g", "e2"))]))
    out.append(build_kummer(KummerParams(2, 2)).fiber)
    octa = out[2]
    out.append(DegenerationFiber.of(
        "reversed", octa.components[::-1], octa.double_curves,
        octa.triple_points))
    return out


class TestStrataOracle:
    def test_corpus_covers_every_kind(self):
        corpus = strata_corpus()
        kinds = {c.kind for f in corpus for c in f.components}
        curves = {(d.genus, d.curve) for f in corpus for d in f.double_curves}
        assert set(KIND_POOL) <= kinds
        assert {(0, None), (0, "E"), (1, "E"), (1, "F")} <= curves
        assert all(validate(f) == [] for f in corpus)
        ladders, (both, kummer, rev) = corpus[-9:-3], corpus[-3:]
        assert max(len({c.kind.a for c in f.components})
                   for f in ladders) > 10
        assert {(d.genus, d.curve) for d in both.double_curves} \
            == {(0, None), (0, "G"), (1, "E"), (1, "F")}
        # the 2x2 grid has no generic vertex orbit: four fixed components
        assert [c.kind for c in kummer.components] == [Rational(7)] * 4
        ids = [c.id for c in rev.components]
        assert ids == sorted(ids, reverse=True)

    def test_strata_classes_equal_per_item_sums(self):
        for f in strata_corpus():
            got, ref = strata_classes(f), oracle_strata(f)
            assert got == ref
            assert [y.terms() for y in got] == [y.terms() for y in ref]

    def test_open_component_classes_equal_per_item_sums(self):
        for f in strata_corpus():
            assert open_component_classes(f) == [oracle_open(f, c)
                                                 for c in f.components]


class TestSmoothLocus:
    def test_tetra(self):
        # profile sums to 28 = 20 + 2 * 4
        cls = smooth_locus_class(tetra_fiber())
        assert cls == 4 * MotiveClass.one() + L(1, 16) + L(2, 4)

    def test_chain_m2(self):
        cls = smooth_locus_class(chain_fiber(2))
        e = MotiveClass.of_atom(E)
        expected = 2 * MotiveClass.one() - 3 * e + L(1, 20) + e.twist(-1) \
            + L(2, 2)
        assert cls == expected

    def test_single_k3(self):
        f = DegenerationFiber.of("smooth", [Component(0, K3Smooth())])
        assert smooth_locus_class(f) == component_class(K3Smooth())

    def test_matches_per_component_enumeration(self):
        for f in [tetra_fiber(), chain_fiber(3),
                  tetra_fiber((10, 10, 8, 0))]:
            total = MotiveClass.zero()
            for piece in open_component_classes(f):
                total = total + piece
            assert total == smooth_locus_class(f)

    def test_chi_24(self):
        for f in [tetra_fiber(), chain_fiber(1), chain_fiber(4)]:
            assert smooth_locus_class(f).euler_characteristic() == 24


class TestDegenerationType:
    def test_chain_is_type2(self):
        assert degeneration_type(chain_fiber(3)) == 2

    def test_tetra_is_type3(self):
        assert degeneration_type(tetra_fiber()) == 3

    def test_point_is_type1(self):
        f = DegenerationFiber.of("smooth", [Component(0, K3Smooth())])
        assert degeneration_type(f) == 1

    def test_torus_shape_rejected(self):
        # 3x3 grid torus as a fiber: valid data, non-Kulikov dual complex
        m = 3
        vid = lambda i, j: (i % m) * m + (j % m)
        comps = [Component(v, Rational(0)) for v in range(m * m)]
        curves = []
        cix = {}
        for i in range(m):
            for j in range(m):
                for kind, (a, b) in (("h", ((i, j), (i + 1, j))),
                                     ("v", ((i, j), (i, j + 1))),
                                     ("d", ((i, j), (i + 1, j + 1)))):
                    name = "%s%d%d" % (kind, i, j)
                    cix[(kind, i, j)] = name
                    curves.append(DoubleCurve(name, (vid(*a), vid(*b)), 0))
        triples = []
        for i in range(m):
            for j in range(m):
                triples.append(TriplePoint(
                    "L%d%d" % (i, j),
                    (cix[("h", i, j)], cix[("d", i, j)],
                     cix[("v", (i + 1) % m, j)])))
                triples.append(TriplePoint(
                    "U%d%d" % (i, j),
                    (cix[("v", i, j)], cix[("d", i, j)],
                     cix[("h", i, (j + 1) % m)])))
        f = DegenerationFiber.of("torus", comps, curves, triples)
        assert validate(f) == []
        with pytest.raises(NonKulikovError):
            degeneration_type(f)

    def test_wrong_decorations_rejected(self):
        # chain with a rational middle component
        comps = [Component(0, Rational(10)), Component(1, Rational(0)),
                 Component(2, Rational(10))]
        curves = [DoubleCurve("c0", (0, 1), 1, curve="E"),
                  DoubleCurve("c1", (1, 2), 1, curve="E")]
        f = DegenerationFiber.of("bad", comps, curves)
        with pytest.raises(NonKulikovError):
            degeneration_type(f)

    def test_chain_components_checked_in_stored_order(self):
        # the chain 0 - "m" - 2 with a rational interior and an
        # elliptic-ruled end: the first error in stored order is raised,
        # so storing the end first makes it the one named
        curves = [DoubleCurve("c0", (0, "m"), 1, curve="E"),
                  DoubleCurve("c1", ("m", 2), 1, curve="E")]
        comps = [Component("m", Rational(0)), Component(2, Rational(10)),
                 Component(0, RuledElliptic("E", 10))]
        f = DegenerationFiber.of("bad", comps, curves)
        assert validate(f) == []
        interior = (r"^interior chain component 'm' is not "
                    r"elliptic-ruled$")
        with pytest.raises(NonKulikovError, match=interior):
            degeneration_type(f)
        f = DegenerationFiber.of("bad", comps[::-1], curves)
        with pytest.raises(NonKulikovError,
                           match=r"^chain end 0 is not rational$"):
            degeneration_type(f)
        comps[2] = Component(0, Rational(10))
        f = DegenerationFiber.of("bad", comps, curves)
        with pytest.raises(NonKulikovError, match=interior):
            degeneration_type(f)

    def test_interval_with_genus_0_curve_rejected(self):
        f = DegenerationFiber.of(
            "bad", [Component(0, Rational(10)), Component(1, Rational(10))],
            [DoubleCurve("c", (0, 1), 0)])
        assert validate(f) == []
        with pytest.raises(NonKulikovError, match=r"^interval fiber with a "
                           r"genus-0 double curve$"):
            degeneration_type(f)

    def test_mixed_elliptic_atoms_rejected(self):
        comps = [Component(0, Rational(10)), Component(1, Rational(10))]
        curves = [DoubleCurve("c0", (0, 1), 1, curve="E1")]
        f1 = DegenerationFiber.of("ok", comps, curves)
        assert degeneration_type(f1) == 2
        comps3 = [Component(0, Rational(10)),
                  Component(1, RuledElliptic("E1")),
                  Component(2, Rational(10))]
        curves3 = [DoubleCurve("c0", (0, 1), 1, curve="E1"),
                   DoubleCurve("c1", (1, 2), 1, curve="E2")]
        f2 = DegenerationFiber.of("bad", comps3, curves3)
        with pytest.raises(NonKulikovError):
            degeneration_type(f2)

    def test_sphere_with_elliptic_curve_rejected(self):
        f = tetra_fiber()
        curves = list(f.double_curves)
        curves[0] = DoubleCurve(curves[0].id, curves[0].on, 1, curve="E")
        g = DegenerationFiber.of("bad", f.components, curves, f.triple_points)
        with pytest.raises(NonKulikovError):
            degeneration_type(g)


def chain_verdict_reference(f):
    """The type-II verdict of an interval fiber whose curves have genus 1,
    with valence counted per component id: 2, or the message of the first
    component in stored order that fails."""
    valence = Counter(cid for d in f.double_curves for cid in d.on)
    atoms = {d.curve for d in f.double_curves}
    for c in f.components:
        if valence[c.id] == 1 and not isinstance(c.kind, Rational):
            return "chain end %r is not rational" % (c.id,)
        if valence[c.id] == 2:
            if not isinstance(c.kind, RuledElliptic):
                return ("interior chain component %r is not elliptic-ruled"
                        % (c.id,))
            atoms.add(c.kind.curve)
    if len(atoms) != 1:
        return "type II chain must be ruled by a single elliptic curve"
    return 2


def chain_verdict(f):
    try:
        return degeneration_type(f)
    except NonKulikovError as e:
        return str(e)


class TestChainValence:
    """The chain check counts valence by stored position, whatever the
    component ids and their order; a per-id count gives the same verdict."""

    STYLES = {"int": lambda x: x, "string": lambda x: "v%d" % x,
              "mixed": lambda x: "v%d" % x if x % 2 else x}

    def shuffled_chains(self):
        """Seeded shuffles of the components of the chains m = 1..6 under
        each id style; every other one deals the kinds out again, and of
        the rest every other one rules one interior component over a
        second curve F."""
        from k3motive.builders import build_type2_chain

        rng = random.Random(3517)
        for m in range(1, 7):
            base = build_type2_chain(m)
            for style, name in self.STYLES.items():
                for k in range(12):
                    comps = list(base.components)
                    rng.shuffle(comps)
                    kinds = [c.kind for c in comps]
                    if k % 2:
                        rng.shuffle(kinds)
                    elif k % 4 == 2 and m > 1:
                        kinds[rng.choice([i for i, kind in enumerate(kinds)
                                          if isinstance(kind, RuledElliptic)]
                                         )] = RuledElliptic("F")
                    yield ("chain %d %s %d" % (m, style, k),
                           DegenerationFiber.of(
                               base.label,
                               [Component(name(c.id), kind)
                                for c, kind in zip(comps, kinds)],
                               [DoubleCurve(d.id, tuple(map(name, d.on)),
                                            d.genus, d.curve)
                                for d in base.double_curves]))

    def stored_order_chains(self):
        """The three fibers of
        ``test_chain_components_checked_in_stored_order``."""
        curves = [DoubleCurve("c0", (0, "m"), 1, curve="E"),
                  DoubleCurve("c1", ("m", 2), 1, curve="E")]
        comps = [Component("m", Rational(0)), Component(2, Rational(10)),
                 Component(0, RuledElliptic("E", 10))]
        yield "stored order", DegenerationFiber.of("bad", comps, curves)
        yield "reversed order", DegenerationFiber.of("bad", comps[::-1],
                                                     curves)
        comps[2] = Component(0, Rational(10))
        yield "rational end", DegenerationFiber.of("bad", comps, curves)

    def test_verdicts_equal_per_id_reference(self):
        seen = Counter()
        for name, f in [*self.shuffled_chains(), *self.stored_order_chains()]:
            assert validate(f) == [], name
            ref = chain_verdict_reference(f)
            assert chain_verdict(f) == ref, name
            seen[ref if ref == 2 else ref.split(" ")[0]] += 1
        # type 2 and each of the three messages are reached
        assert set(seen) == {2, "chain", "interior", "type"}, seen
        assert min(seen.values()) >= 10, seen


class TestEulerCount:
    def test_v_equals_f_half_plus_2(self):
        f = tetra_fiber()
        v = len(f.components)
        e = len(f.double_curves)
        faces = len(f.triple_points)
        assert v - e + faces == 2
        assert 3 * faces == 2 * e
        assert v == faces // 2 + 2


# -- the Clemens polytope against its frozenset-keyed reference -------------

def polytope_reference(f):
    """The Clemens polytope of a valid fiber as built with a frozenset of
    vertex indices per curve of each triple point, every cell numbered by
    its stored position."""
    from k3motive.deltaset import DeltaSet

    vidx = {c.id: i for i, c in enumerate(f.components)}
    eidx = {}
    edge_faces = []
    for d in f.double_curves:
        a, b = sorted((vidx[d.on[0]], vidx[d.on[1]]))
        eidx[d.id] = len(edge_faces)
        edge_faces.append((b, a))
    curve_by_id = {d.id: d for d in f.double_curves}
    tri_faces = []
    for t in f.triple_points:
        curve_pair = {}
        for did in t.on:
            d = curve_by_id[did]
            curve_pair[frozenset(vidx[c] for c in d.on)] = did
        a, b, c = sorted(set().union(*curve_pair))
        tri_faces.append((eidx[curve_pair[frozenset((b, c))]],
                          eidx[curve_pair[frozenset((a, c))]],
                          eidx[curve_pair[frozenset((a, b))]]))
    return DeltaSet(len(f.components), [edge_faces, tri_faces])


def renamed(f, name):
    """The fiber with every id x replaced by name(x), order of items kept."""
    return DegenerationFiber.of(
        f.label, [Component(name(c.id), c.kind) for c in f.components],
        [DoubleCurve(name(d.id), tuple(map(name, d.on)), d.genus, d.curve)
         for d in f.double_curves],
        [TriplePoint(name(t.id), tuple(map(name, t.on)))
         for t in f.triple_points])


def polytope_corpus():
    """Sphere ladders (each also relabelled), string and mixed ids, an
    id-ordered sphere renamed to descending, shuffled and unpadded string
    ids, curves on a shared component pair, chains and two Kummer
    documents."""
    from k3motive.builders import (KummerParams, build_kummer,
                                   build_type2_chain, build_type3,
                                   icosahedron, octahedron)
    from k3motive.deltaset import refine_barycentric, refine_edge_split
    from k3motive.serialize import fiber_from_json, fiber_to_json
    from test_deltaset import shuffled

    rng = random.Random(1113)
    corpus = {}
    for base, refine, steps in ((octahedron, refine_edge_split, 4),
                                (icosahedron, refine_barycentric, 2)):
        tri = base()
        for k in range(steps + 1):
            name = "%s^%d" % (base.__name__, k)
            corpus[name] = build_type3(tri)
            corpus[name + " relabelled"] = build_type3(shuffled(tri, rng))
            tri = refine(tri)
    octa = corpus["octahedron^1 relabelled"]
    corpus["string ids"] = renamed(octa, lambda x: "s%d" % x)
    corpus["mixed ids"] = renamed(octa, lambda x: "m%d" % x if x % 3 else x)
    corpus["random mixed ids"] = relabelled(octa, rng)
    octa = corpus["octahedron^1"]  # every item stored in id order
    n = 1 + max(x.id for x in octa.components + octa.double_curves
                + octa.triple_points)
    perm = rng.sample(range(n), n)
    corpus["descending ids"] = renamed(octa, lambda x: n - x)
    corpus["shuffled ids"] = renamed(octa, perm.__getitem__)
    corpus["unpadded string ids"] = renamed(octa, lambda x: "s%d" % x)
    comps = [Component(i, Rational(0)) for i in range(3)]
    curves = [DoubleCurve("ab", (1, 0), 0), DoubleCurve(0, (2, 0), 0),
              DoubleCurve("bc", (2, 1), 0), DoubleCurve(1, (0, 1), 0)]
    corpus["parallel curves"] = DegenerationFiber.of(
        "pillow", comps, curves, [TriplePoint("t", ("bc", 0, "ab")),
                                  TriplePoint(5, (0, 1, "bc"))])
    for m in range(1, 7):
        corpus["chain %d" % m] = build_type2_chain(m)
    for m1, m2 in ((4, 6), (18, 18)):
        fiber = build_kummer(KummerParams(m1, m2)).fiber
        corpus["kummer %dx%d" % (m1, m2)] = fiber_from_json(
            fiber_to_json(fiber))
    return corpus


class TestPolytopeReference:
    def test_faces_equal_reference(self):
        corpus = polytope_corpus()
        assert len(corpus) == 31
        for name, f in corpus.items():
            assert validate(f) == [], name
            cl = clemens_polytope(f)
            ref = polytope_reference(f)
            assert cl.counts == ref.counts \
                and nested_faces(cl) == nested_faces(ref), name
        assert clemens_polytope(corpus["octahedron^4"]).counts == \
            (1026, 3072, 2048)
        assert clemens_polytope(corpus["kummer 18x18"]).n(2) == 324

    def test_renaming_keeps_the_faces(self):
        # cells are numbered by stored position, whatever the ids
        corpus = polytope_corpus()
        faces = nested_faces(clemens_polytope(corpus["octahedron^1"]))
        for name in ("descending ids", "shuffled ids", "unpadded string ids"):
            assert nested_faces(clemens_polytope(corpus[name])) == faces, \
                name
        from k3motive.builders import build_type2_chain
        chain = clemens_polytope(build_type2_chain(20))
        assert [chain.faces(1, e) for e in range(20)] == \
            [(e + 1, e) for e in range(20)]


# -- exact values at the fiber boundary --------------------------------------

class TestExactFibers:
    def test_non_integer_a_is_a_violation(self):
        f = tetra_fiber((6.5, 7.5, 7, 7))
        assert validate(f) == ["component 0 has non-integer a 6.5",
                               "component 1 has non-integer a 7.5"]
        from k3motive.integrals import verify_fiber
        with pytest.raises(InvalidFiberError):
            verify_fiber(f)

    def test_boolean_and_float_a_on_every_surface_kind(self):
        f = DegenerationFiber.of(
            "x", [Component(0, Rational(True)),
                  Component("r", RuledElliptic("E", 1.0))])
        assert validate(f) == ["component 0 has non-integer a True",
                               "component 'r' has non-integer a 1.0"]

    def test_non_integer_genus_is_a_violation(self):
        comps = [Component(0, Rational(10)), Component(1, Rational(10))]
        for genus in (1.0, True):
            f = DegenerationFiber.of(
                "x", comps, [DoubleCurve("c", (0, 1), genus, curve="E")])
            assert validate(f) == [
                "double curve 'c' has non-integer genus %r" % (genus,)]

    def test_valid_fibers_keep_their_empty_list(self):
        for f in strata_corpus():
            assert validate(f) == []

    def test_component_class_refuses_non_integer_a(self):
        with pytest.raises(ValueError, match="6.5 is not an integer"):
            component_class(Rational(6.5))

    @pytest.mark.parametrize("m", [1.7, True, "2"])
    def test_neron_multiplicity_must_be_an_int(self, m):
        from k3motive.fibers import WeakNeronData
        with pytest.raises(ValueError,
                           match="multiplicity %r is not an integer" % m):
            WeakNeronData.of([(MotiveClass.one(), 0), (L(1), m)])

    def test_neron_items_are_kept(self):
        from k3motive.fibers import WeakNeronData
        data = WeakNeronData.of(iter([(L(1), 2), (MotiveClass.one(), -1)]))
        assert data.items == ((L(1), 2), (MotiveClass.one(), -1))


# -- the flat validation pass against the item-by-item scan ------------------

def scan_validate(f):
    """``validate`` as an item-by-item scan, kept verbatim: triple points
    against one frozenset of components per double-curve id (of two curves
    with one id, the later)."""
    out = []
    comp_ids = {c.id for c in f.components}
    if len(comp_ids) != len(f.components):
        out.append("duplicate component ids")

    for c in f.components:
        if not isinstance(c.kind, (Rational, RuledElliptic, K3Smooth, Other)):
            out.append("component %r has unknown kind %r" % (c.id, c.kind))
        elif isinstance(c.kind, (Rational, RuledElliptic)):
            if type(c.kind.a) is not int:
                out.append("component %r has non-integer a %r"
                           % (c.id, c.kind.a))
            elif c.kind.a < 0:
                out.append("component %r has negative a" % (c.id,))
        if isinstance(c.kind, Other) and c.kind.betti is not None:
            try:
                e = c.kind.klass.e_polynomial()
            except MissingRealizationError:
                continue
            b0 = e.coefficient(0, 0)
            b1 = -(e.coefficient(1, 0) + e.coefficient(0, 1))
            b2 = (e.coefficient(1, 1) + e.coefficient(2, 0)
                  + e.coefficient(0, 2))
            if (b0, b1, b2) != tuple(c.kind.betti):
                out.append("component %r Betti data disagrees with its "
                           "class" % (c.id,))

    on = {d.id: frozenset(d.on) for d in f.double_curves}
    if len(on) != len(f.double_curves):
        out.append("duplicate double-curve ids")

    for d in f.double_curves:
        if len(d.on) != 2:
            out.append("double curve %r is not on exactly two components"
                       % (d.id,))
            continue
        if d.on[0] == d.on[1]:
            out.append("self-intersecting double curve %r" % (d.id,))
        for cid in d.on:
            if cid not in comp_ids:
                out.append("double curve %r references unknown component %r"
                           % (d.id, cid))
        if type(d.genus) is not int:
            out.append("double curve %r has non-integer genus %r"
                       % (d.id, d.genus))
        elif d.genus not in (0, 1):
            out.append("double curve %r has genus %r outside {0, 1}"
                       % (d.id, d.genus))
        if d.genus == 1 and not d.curve:
            out.append("genus-1 double curve %r names no elliptic atom"
                       % (d.id,))

    if len({t.id for t in f.triple_points}) != len(f.triple_points):
        out.append("duplicate triple-point ids")

    for t in f.triple_points:
        if len(t.on) != 3 or len(set(t.on)) != 3:
            out.append("triple point %r is not on three distinct curves"
                       % (t.id,))
            continue
        if not all(map(on.__contains__, t.on)):
            out.append("triple point %r references an unknown double curve"
                       % (t.id,))
            continue
        p, q, r = map(on.__getitem__, t.on)
        if len(p | q | r) != 3 or len(p & q) != 1 or len(p & r) != 1 \
                or len(q & r) != 1:
            out.append("triple point %r curves are not pairwise adjacent "
                       "along three components" % (t.id,))
    return out


@functools.lru_cache(maxsize=None)
def flat_pass_bases():
    """Valid fibers with int, string and mixed ids, stored in and out of
    id order, by name; each test gets fresh copies."""
    from k3motive.builders import (KummerParams, build_kummer,
                                   build_type2_chain, build_type3,
                                   octahedron)
    from k3motive.deltaset import refine_edge_split
    from test_deltaset import shuffled

    rng = random.Random(2207)
    bases = {}
    tri = octahedron()
    for k in range(3):
        bases["octahedron^%d" % k] = build_type3(shuffled(tri, rng))
        tri = refine_edge_split(tri)
    octa = bases["octahedron^1"]
    bases["relabelled"] = relabelled(octa, rng)
    bases["string ids"] = renamed(octa, lambda x: "s%d" % x)
    bases["mixed ids"] = renamed(octa, lambda x: "m%d" % x if x % 3 else x)
    bases["tetra"] = tetra_fiber()
    bases["chain 1"] = build_type2_chain(1)
    bases["chain 4"] = build_type2_chain(4)
    bases["kummer 2x2"] = build_kummer(KummerParams(2, 2)).fiber
    return bases


def fresh(f, curves=None, points=None):
    """A new fiber, with an empty memo, on these curves and points."""
    return DegenerationFiber.of(
        f.label, f.components,
        f.double_curves if curves is None else curves,
        f.triple_points if points is None else points)


CORRUPTIONS = ("swap end", "repeat curve", "unknown curve", "parallel curve",
               "loop curve", "star", "shared id", "shared point id",
               "bad genus", "two or four curves")


def corrupt(f, kind, data):
    """``f`` with one corruption of its double curves or triple points, or
    None where the fiber has no room for it."""
    curves, points = list(f.double_curves), list(f.triple_points)
    comps = [c.id for c in f.components]

    def pick(seq):
        return data.draw(st.integers(0, len(seq) - 1))

    if kind == "swap end":
        i, j = pick(curves), data.draw(st.integers(0, 1))
        on = list(curves[i].on)
        on[j] = comps[pick(comps)]
        curves[i] = DoubleCurve(curves[i].id, tuple(on), curves[i].genus,
                                curves[i].curve)
    elif kind in ("repeat curve", "unknown curve", "parallel curve"):
        if not points:
            return None
        t = pick(points)
        on = list(points[t].on)
        j = data.draw(st.integers(0, 2))
        if kind == "repeat curve":
            on[j] = on[(j + 1) % 3]
        elif kind == "unknown curve":
            on[j] = "no such curve"
        else:
            d = curves[pick(curves)]
            curves.append(DoubleCurve("parallel", d.on, d.genus, d.curve))
            on[j] = "parallel"
        points[t] = TriplePoint(points[t].id, tuple(on))
    elif kind == "shared point id":
        if len(points) < 2:
            return None
        s, t = data.draw(st.lists(st.integers(0, len(points) - 1),
                                  min_size=2, max_size=2, unique=True))
        points[t] = TriplePoint(points[s].id, points[t].on)
    elif kind == "bad genus":
        i = pick(curves)
        genus, name = data.draw(st.sampled_from(
            [(2, "E"), (-1, None), (1.0, "E"), (True, "E"), (1, None),
             (1, ""), (1, "E")]))
        curves[i] = DoubleCurve(curves[i].id, curves[i].on, genus, name)
    elif kind == "two or four curves":
        if not points:
            return None
        t = pick(points)
        on = points[t].on
        on = on[:2] if data.draw(st.booleans()) else on + on[:1]
        points[t] = TriplePoint(points[t].id, on)
    elif kind == "loop curve":
        c = comps[pick(comps)]
        curves.insert(pick(curves), DoubleCurve("loop", (c, c), 0))
    elif kind == "star":
        if len(comps) < 4:
            return None
        hub, *rim = data.draw(st.lists(st.sampled_from(comps), min_size=4,
                                       max_size=4, unique=True))
        curves += [DoubleCurve(("star", x), (hub, x), 0) for x in rim]
        points.append(TriplePoint("star", tuple(("star", x) for x in rim)))
    else:  # a later curve with an id already taken, and improper
        d = curves[pick(curves)]
        c = comps[pick(comps)]
        curves.append(data.draw(st.sampled_from(
            [DoubleCurve(d.id, (c, c), 0), DoubleCurve(d.id, (c,), 0),
             DoubleCurve(d.id, (c, "no such component"), 0),
             DoubleCurve(d.id, d.on, 2), DoubleCurve(d.id, d.on, 1)])))
    return fresh(f, curves, points)


def counted_validate(f):
    """``validate(f)`` and the number of ``_scan_curves`` calls it made."""
    from k3motive import fibers

    calls = []
    scan = fibers._scan_curves
    fibers._scan_curves = lambda *a: calls.append(a) or scan(*a)
    try:
        return validate(f), len(calls)
    finally:
        fibers._scan_curves = scan


class TestFlatValidation:
    """The flat pass of ``validate`` gives the scan's list on every fiber,
    and the scan runs only where there is a violation to name."""

    SETTINGS = settings(derandomize=True, max_examples=250, deadline=None,
                        database=None)

    def test_valid_fibers_never_scan(self):
        for name, f in flat_pass_bases().items():
            g = fresh(f)
            assert scan_validate(g) == [], name
            assert counted_validate(g) == ([], 0), name
            assert "polytope" in g._memo, name

    @SETTINGS
    @given(data=st.data())
    def test_corrupted_fibers_match_the_scan(self, data):
        base = data.draw(st.sampled_from(sorted(flat_pass_bases())))
        kind = data.draw(st.sampled_from(CORRUPTIONS))
        f = corrupt(flat_pass_bases()[base], kind, data)
        if f is None:
            return
        expected = scan_validate(f)
        got, scans = counted_validate(f)
        assert got == expected, (base, kind)
        assert bool(scans) == bool(expected), (base, kind)
        assert ("polytope" in f._memo) == (not expected), (base, kind)

    def test_every_corruption_is_caught_somewhere(self):
        seen = set()

        @settings(derandomize=True, max_examples=100, deadline=None,
                  database=None)
        @given(data=st.data())
        def probe(data):
            kind = data.draw(st.sampled_from(CORRUPTIONS))
            f = corrupt(flat_pass_bases()["octahedron^1"], kind, data)
            if f is not None and scan_validate(f):
                seen.add(kind)

        probe()
        assert seen == set(CORRUPTIONS)


# -- components that share one kind --------------------------------------

class TestSharedOtherKinds:
    def test_one_violation_per_component_in_order(self):
        klass = MotiveClass.one() + L(1, 2) + L(2)
        bad = Other(klass, betti=(1, 0, 5))
        copy = Other(MotiveClass.one() + L(1, 2) + L(2), betti=(1, 0, 5))
        other = Other(MotiveClass.one() + L(1, 3) + L(2), betti=(1, 0, 3))
        f = DegenerationFiber.of("x", [
            Component("p", bad), Component(0, Rational(0)),
            Component("q", bad), Component(1, copy), Component(2, other),
            Component(3, Other(klass))])
        assert validate(f) == [
            "component 'p' Betti data disagrees with its class",
            "component 'q' Betti data disagrees with its class",
            "component 1 Betti data disagrees with its class"]
        assert validate(f) == scan_validate(fresh(f))

    def test_shared_kind_without_realization(self):
        kind = Other(OPAQUE, betti=(1, 0, 5))
        f = DegenerationFiber.of("x", [Component(0, kind),
                                       Component(1, kind)])
        assert validate(f) == []

    def test_each_distinct_class_realized_once(self, monkeypatch):
        from k3motive.builders import KummerParams, build_kummer
        from k3motive.serialize import fiber_from_json, fiber_to_json
        kummer = build_kummer(KummerParams(6, 6)).fiber
        generic = Other(MotiveClass.one() + L(1, 2) + L(2), betti=(1, 0, 2))
        special = Other(MotiveClass.one() + L(1, 6) + L(2), betti=(1, 0, 6))
        built = DegenerationFiber.of(
            "shared", [Component(c.id, special if c.kind.a == 7 else generic)
                       for c in kummer.components],
            kummer.double_curves, kummer.triple_points)
        calls = []
        realize = MotiveClass.e_polynomial
        monkeypatch.setattr(MotiveClass, "e_polynomial",
                            lambda self: calls.append(self) or realize(self))
        # 20 components on two kind objects; the decoded copy has 20
        for f in (fresh(built), fiber_from_json(fiber_to_json(built))):
            calls.clear()
            assert validate(f) == []
            assert len(calls) == 2 and calls[0] != calls[1]
