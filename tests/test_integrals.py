import random
import warnings

import pytest

from k3motive.fibers import (
    Component,
    DegenerationFiber,
    K3Smooth,
    NonKulikovError,
    Rational,
    WeakNeronData,
    component_class,
    smooth_locus_class,
)
from k3motive.integrals import (
    RamifiedParams,
    acampo_chi,
    fiber_params,
    maximally_degenerate_closed_form,
    integral_from_neron,
    integral_kulikov,
    lim_class,
    scaling_check,
    serre_hodge_check,
    closed_form_integral,
    verify_fiber,
)
from k3motive.motives import EllipticCurveAtom, MotiveClass, UnivariateLaurent

from test_fibers import chain_fiber, tetra_fiber

L = MotiveClass.lefschetz
E_ATOM = EllipticCurveAtom("E")
E = MotiveClass.of_atom(E_ATOM)


def octa_fiber(profile=None):
    from test_deltaset import octa
    from k3motive.builders import build_type3
    return build_type3(octa(), profile)


class TestClosedForms:
    def test_type3_e1_r4(self):
        p = RamifiedParams(e=1, s=3, r=4)
        assert closed_form_integral(p) == \
            4 * MotiveClass.one() + L(1, 16) + L(2, 4)

    def test_type3_e2_r5(self):
        p = RamifiedParams(e=2, s=3, r=5)
        assert closed_form_integral(p) == \
            12 * MotiveClass.one() + L(2, 12)

    def test_type2_e1_r9(self):
        p = RamifiedParams(e=1, s=2, r=9, elliptic_atom=E_ATOM)
        expected = (2 * MotiveClass.one() - 4 * E + L(1, 20)
                    + 2 * E.twist(-1) + 2 * L(2))
        assert closed_form_integral(p) == expected

    def test_non_square_r1_rejected(self):
        with pytest.raises(ValueError):
            RamifiedParams(e=1, s=2, r=8, elliptic_atom=E_ATOM)

    def test_type_1_and_zero_r_rejected(self):
        with pytest.raises(ValueError, match="^closed forms exist for "
                           "types 2 and 3 only$"):
            RamifiedParams(e=1, s=1, r=4)
        with pytest.raises(ValueError,
                           match="^discriminant r must be positive$"):
            RamifiedParams(e=1, s=3, r=0)

    def test_odd_e2r2_rejected(self):
        with pytest.raises(ValueError):
            RamifiedParams(e=1, s=3, r=5)

    def test_no_bound_on_e2r2(self):
        # the Kummer model of the proven case has r2 = m1 m2 for every even
        # grid, so no bound on e^2 r2 holds and nothing warns past 20
        from k3motive.builders import (KummerParams, build_kummer,
                                       kummer_r2_abelian)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cf = closed_form_integral(RamifiedParams(e=4, s=3, r=32))
            r2 = kummer_r2_abelian(KummerParams(8, 8))
            rep = build_kummer(KummerParams(8, 8))
        assert cf == L(1, 20 - 512) + 258 * (L(0) + L(2))
        assert r2 == (128, 64) and rep.r2_kummer == 64
        assert rep.integral == maximally_degenerate_closed_form(1, 64)

    @pytest.mark.parametrize("kwargs", [
        dict(e=True, s=3, r=8), dict(e=2.0, s=3, r=8), dict(e=1, s=3, r=8.0),
        dict(e=1, s=3.0, r=8), dict(e=1, s=2, r=4.0, elliptic_atom=E_ATOM)],
        ids=["bool e", "float e", "float r", "float s", "float r1"])
    def test_inexact_params_rejected(self, kwargs):
        bad = next(v for v in kwargs.values() if type(v) in (bool, float))
        with pytest.raises(ValueError, match="closed-form parameter %r is "
                           "not an integer" % bad):
            RamifiedParams(**kwargs)

    def test_chi_is_24_for_all_params(self):
        for e in range(1, 6):
            for r in range(1, 21):
                if (e * e * r) % 2 == 0:
                    p3 = RamifiedParams(e=e, s=3, r=r)
                    assert closed_form_integral(p3) \
                        .euler_characteristic() == 24
                root = int(r ** 0.5)
                if root * root == r:
                    p2 = RamifiedParams(e=e, s=2, r=r, elliptic_atom=E_ATOM)
                    assert closed_form_integral(p2) \
                        .euler_characteristic() == 24

    def test_conjecture_pins_type3(self):
        for e in range(1, 5):
            for r2 in range(2, 25, 2):
                assert maximally_degenerate_closed_form(e, r2) == \
                    closed_form_integral(RamifiedParams(e=e, s=3, r=r2))


class TestNeronEvaluator:
    def test_min_subtraction(self):
        a = component_class(Rational(3))
        b = component_class(Rational(5))
        data = WeakNeronData.of([(a, 2), (b, 2)])
        assert integral_from_neron(data) == a + b

    def test_twist_direction(self):
        a = MotiveClass.one()
        b = MotiveClass.one()
        data = WeakNeronData.of([(a, 0), (b, 1)])
        assert integral_from_neron(data) == MotiveClass.one() + L(-1)

    def test_shift_and_permutation_invariance(self):
        rng = random.Random(71)
        for _ in range(100):
            items = []
            for _ in range(rng.randint(1, 6)):
                cls = component_class(Rational(rng.randint(0, 9)))
                if rng.random() < 0.3:
                    cls = cls + E * rng.randint(-2, 2)
                items.append((cls, rng.randint(-5, 5)))
            base = integral_from_neron(WeakNeronData.of(items))
            shift = rng.randint(-7, 7)
            shifted = [(c, m + shift) for c, m in items]
            rng.shuffle(shifted)
            assert integral_from_neron(WeakNeronData.of(shifted)) == base

    def test_kulikov_agreement(self):
        from k3motive.fibers import open_component_classes
        f = tetra_fiber()
        items = [(cls, 0) for cls in open_component_classes(f)]
        assert integral_from_neron(WeakNeronData.of(items)) == \
            smooth_locus_class(f)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            integral_from_neron(WeakNeronData.of([]))


class TestKulikovIntegral:
    def test_tetra(self):
        assert integral_kulikov(tetra_fiber()) == \
            4 * MotiveClass.one() + L(1, 16) + L(2, 4)

    def test_chain_m1(self):
        f = chain_fiber(1)
        expected = (2 * MotiveClass.one() - 2 * E + L(1, 20) + 2 * L(2))
        assert integral_kulikov(f) == expected

    def test_octahedron(self):
        f = octa_fiber()
        assert integral_kulikov(f) == 6 * MotiveClass.one() + L(1, 12) + L(2, 6)

    def test_non_kulikov_rejected(self):
        f = DegenerationFiber.of(
            "pair", [Component(0, K3Smooth()), Component(1, K3Smooth())])
        with pytest.raises(NonKulikovError):
            integral_kulikov(f)


class TestLimClass:
    def test_tetra_expansion(self):
        f = tetra_fiber()
        p1 = MotiveClass.one() + L(1)
        expected = (4 * MotiveClass.one() + L(1, 28) + L(2, 4)) \
            - 6 * (p1 * p1) + 4 * (MotiveClass.one() + L(1) + L(2))
        assert lim_class(f) == expected

    def test_smooth_fiber(self):
        f = DegenerationFiber.of("smooth", [Component(0, K3Smooth())])
        assert lim_class(f) == component_class(K3Smooth())

    def test_chain_m1(self):
        f = chain_fiber(1)
        y0 = component_class(Rational(10)) + component_class(Rational(10))
        assert lim_class(f) == y0 - E * (MotiveClass.one() + L(1))


class TestChecks:
    def test_serre_hodge_tetra(self):
        assert serre_hodge_check(tetra_fiber()) is True

    def test_serre_hodge_chains(self):
        for m in (1, 2, 4):
            assert serre_hodge_check(chain_fiber(m)) is True

    def test_corrupted_profile_fails(self):
        bad = tetra_fiber((7, 7, 7, 9))   # sums to 30, not 28
        assert acampo_chi(bad) != 24
        assert serre_hodge_check(bad) is False

    def test_corrupted_chain_fails(self):
        bad = chain_fiber(2, ends=(10, 11))   # a-sum 21, not 20
        assert acampo_chi(bad) == 25
        assert serre_hodge_check(bad) is False

    def test_acampo_24(self):
        assert acampo_chi(tetra_fiber()) == 24
        assert acampo_chi(chain_fiber(3)) == 24
        smooth = DegenerationFiber.of("smooth", [Component(0, K3Smooth())])
        assert acampo_chi(smooth) == 24

    def test_serre_residue_value(self):
        rep = verify_fiber(tetra_fiber())
        assert rep.serre_residue == UnivariateLaurent.constant(24)


class TestScaling:
    def test_examples(self):
        assert scaling_check(RamifiedParams(e=2, s=3, r=2), 1)
        assert scaling_check(RamifiedParams(e=1, s=3, r=8), 1)
        assert scaling_check(
            RamifiedParams(e=3, s=2, r=1, elliptic_atom=E_ATOM), 1)

    def test_random_pairs(self):
        rng = random.Random(55)
        for _ in range(50):
            e = rng.randint(1, 4)
            e2 = rng.randint(1, 3)
            if rng.random() < 0.5:
                r = rng.randint(1, 6) ** 2
                p = RamifiedParams(e=e, s=2, r=r, elliptic_atom=E_ATOM)
            else:
                r = 2 * rng.randint(1, 10)
                p = RamifiedParams(e=e, s=3, r=r)
            assert scaling_check(p, e2)


class TestVerifyFiber:
    def test_tetra_report(self):
        rep = verify_fiber(tetra_fiber())
        assert rep.type_s == 3
        assert rep.r == 4
        assert rep.match is True
        assert rep.chi == 24
        assert rep.serre_ok is True

    def test_chain_report(self):
        rep = verify_fiber(chain_fiber(3))
        assert rep.type_s == 2
        assert rep.r == 9
        assert rep.match is True

    def test_smooth_report(self):
        f = DegenerationFiber.of("smooth", [Component(0, K3Smooth())])
        rep = verify_fiber(f)
        assert rep.type_s == 1
        assert rep.closed_form is None
        assert rep.match is True

    def test_internal_paths_leave_the_filters_alone(self, monkeypatch):
        # the closed forms are evaluated at e^2 r2 = 512, 36 and 432, and
        # no library path swaps the process-wide filters to hide a warning
        from k3motive.builders import build_type3, octahedron, refine_sphere
        fiber = build_type3(refine_sphere(octahedron(), 3, "edge_split"))

        def swapped(*args, **kwargs):
            raise AssertionError("a library path swapped the warning filters")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with monkeypatch.context() as m:
                m.setattr(warnings, "catch_warnings", swapped)
                rep = verify_fiber(fiber)
                md = maximally_degenerate_closed_form(3, 4)
                assert scaling_check(RamifiedParams(e=2, s=3, r=12), 3)
        assert rep.match and rep.r == 512
        assert rep.closed_form == L(1, 20 - 512) + 258 * (L(0) + L(2))
        assert md == L(1, 20 - 36) + 20 * (L(0) + L(2))

    def test_2048_faces(self):
        from k3motive.builders import build_type3, octahedron, refine_sphere
        sphere = refine_sphere(octahedron(), 4, "edge_split")
        rep = verify_fiber(build_type3(sphere))
        assert rep.match is True
        assert rep.chi == 24
        assert rep.r == 2048


def counting(counts, name, fn):
    counts[name] = 0

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def count_calls(monkeypatch, counts, name, fn):
    """Route every k3motive binding of ``fn`` through a counter."""
    import sys
    wrapper = counting(counts, name, fn)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("k3motive") \
                and getattr(mod, name, None) is fn:
            monkeypatch.setattr(mod, name, wrapper)


class CountingMemo(dict):
    """A fact memo that counts the facts written to it under the keys of
    ``counts``: each write is one run of the body that computes the fact."""

    def __init__(self, counts):
        super().__init__()
        self.counts = counts

    def __setitem__(self, key, value):
        if key in self.counts:
            self.counts[key] += 1
        super().__setitem__(key, value)


def route_counts(monkeypatch):
    """Count, from here on, each body of the one-analysis route: the
    violation scan, the polytope's Delta-set build and the strata sum of
    each fiber built from here on (as facts written to its memo), the
    recognition of each polytope (to the polytope's memo), the orientation
    pass, the Kulikov classification and the Gram; and the sparse engine,
    the boundary rows and dense identities."""
    from k3motive import deltaset, fibers, intlinalg, weightss
    from k3motive.intlinalg import IntMatrix

    counts = dict.fromkeys(("violations", "polytope", "strata", "shape"), 0)
    monkeypatch.setattr(
        fibers.DegenerationFiber, "__post_init__",
        lambda f: object.__setattr__(f, "_memo", CountingMemo(counts)))
    build = fibers.DeltaSet

    class CountedPolytope(build):
        """``fibers.DeltaSet`` whose flat builds get a counting memo."""

        __slots__ = ()

        @classmethod
        def _flat(cls, *args):
            ds = build._flat(*args)
            ds._memo = CountingMemo(counts)
            return ds

    monkeypatch.setattr(fibers, "DeltaSet", CountedPolytope)
    for name, fn in (("_sparse_reduce", intlinalg._sparse_reduce),
                     ("degeneration_type", fibers.degeneration_type),
                     ("monodromy_gram", weightss.monodromy_gram),
                     ("_orientation", deltaset._orientation),
                     ("_boundary_rows", deltaset._boundary_rows)):
        count_calls(monkeypatch, counts, name, fn)
    monkeypatch.setattr(IntMatrix, "identity", classmethod(
        counting(counts, "identity", IntMatrix.identity.__func__)))
    return counts


# one violation scan, one polytope, one recognition, one classification, one
# strata sum and one Gram per call; nothing is eliminated and no boundary row
# is built: the sphere is recognized and its Gram basis found by one shared
# orientation pass, the chain by its valences and one connectivity pass,
# with no orientation pass
ONCE = {"_sparse_reduce": 0, "violations": 1, "polytope": 1, "shape": 1,
        "degeneration_type": 1, "strata": 1, "monodromy_gram": 1,
        "_orientation": 1, "_boundary_rows": 0, "identity": 0}
CHAIN = ("monodromy_gram", "_orientation")


class TestOncePerFiber:
    def test_verify_fiber_call_counts(self, monkeypatch):
        from k3motive.builders import (build_type2_chain, build_type3,
                                       octahedron, refine_sphere)

        counts = route_counts(monkeypatch)
        # a chain has no Gram basis: r1 = m^2 comes from the H^1 row
        cases = [(build_type3("icosahedron"), ()),
                 (build_type3(refine_sphere(octahedron(), 3, "edge_split")),
                  ()),
                 (build_type2_chain(1), CHAIN),
                 (build_type2_chain(4), CHAIN)]
        for fiber, skipped in cases:
            counts.update(dict.fromkeys(counts, 0))
            report = verify_fiber(fiber)
            assert report.match and report.serre_ok and report.chi == 24
            assert counts == {k: 0 if k in skipped else n
                              for k, n in ONCE.items()}, fiber.label

    @pytest.mark.parametrize("helper, skipped", [
        (serre_hodge_check, ()),
        (fiber_params, ("strata",)),
        (acampo_chi, ("monodromy_gram",)),
        (integral_kulikov, ("monodromy_gram",)),
    ], ids=["serre_hodge_check", "fiber_params", "acampo_chi",
            "integral_kulikov"])
    def test_public_helper_call_counts(self, monkeypatch, helper, skipped):
        from k3motive.builders import build_type3

        counts = route_counts(monkeypatch)
        fiber = build_type3("icosahedron")
        counts.update(dict.fromkeys(counts, 0))  # the builder's own pass
        helper(fiber)
        assert counts == {k: 0 if k in skipped else n
                          for k, n in ONCE.items()}

    @pytest.mark.parametrize("command, family, skipped", [
        ("verify", "type3", ()),
        ("analyze", "type3", ("monodromy_gram",)),
        ("verify", "type2", CHAIN),
        ("analyze", "type2", CHAIN),
    ], ids=["verify", "analyze", "verify-type2", "analyze-type2"])
    def test_cli_call_counts(self, monkeypatch, tmp_path, capsys, command,
                             family, skipped):
        from k3motive.cli import main

        path = tmp_path / "f.json"
        shape = (["--triangulation", "icosahedron"] if family == "type3"
                 else ["--m", "3"])
        assert main(["build", family, *shape, "-o", str(path)]) == 0
        counts = route_counts(monkeypatch)
        assert main([command, str(path)]) == 0
        assert counts == {k: 0 if k in skipped else n
                          for k, n in ONCE.items()}

    def test_facts_shared_across_public_functions(self, monkeypatch):
        from k3motive.builders import build_type3
        from k3motive.fibers import degeneration_type, strata_classes
        from k3motive.weightss import monodromy_gram

        counts = route_counts(monkeypatch)
        fiber = build_type3("octahedron")
        counts.update(dict.fromkeys(counts, 0))
        assert degeneration_type(fiber) == 3
        strata = strata_classes(fiber)
        assert monodromy_gram(fiber).r_d == 8
        assert acampo_chi(fiber) == 24
        report = verify_fiber(fiber)
        # validated once, one polytope, one strata sum, recognized once
        once = ("violations", "polytope", "strata", "shape", "_orientation")
        assert {k: counts[k] for k in once} == dict.fromkeys(once, 1)
        assert counts["_sparse_reduce"] == 0
        assert strata_classes(fiber) is strata
        assert report == verify_fiber(build_type3("octahedron"))

    def test_memo_is_not_part_of_the_fiber(self):
        from k3motive.builders import build_type3
        from k3motive.fibers import DegenerationFiber, validate
        from k3motive.serialize import dumps, fiber_to_json

        analysed, fresh = build_type3("icosahedron"), build_type3("icosahedron")
        verify_fiber(analysed)
        assert analysed._memo and not fresh._memo
        assert analysed == fresh and hash(analysed) == hash(fresh)
        assert repr(analysed) == repr(fresh)
        assert analysed._fields == fresh._fields == (
            "label", "components", "double_curves", "triple_points")
        assert tuple(analysed) == tuple(fresh) and len(analysed) == 4
        assert dumps(fiber_to_json(analysed)) == dumps(fiber_to_json(fresh))
        # a fiber rebuilt from its fields starts with an empty memo
        rebuilt = DegenerationFiber(*analysed)
        assert rebuilt == analysed and rebuilt._memo == {}
        # validate hands out a copy of the stored violations
        validate(analysed).append("not a violation")
        assert validate(analysed) == []
        bad = DegenerationFiber(fresh.label, fresh.components * 2,
                                fresh.double_curves, fresh.triple_points)
        first = validate(bad)
        assert first == ["duplicate component ids"]
        first.clear()
        assert validate(bad) == ["duplicate component ids"]

    def test_build_kummer_eliminates_nothing(self, monkeypatch):
        from k3motive import intlinalg
        from k3motive.builders import KummerParams, build_kummer

        counts = {}
        count_calls(monkeypatch, counts, "_sparse_reduce",
                    intlinalg._sparse_reduce)
        rep = build_kummer(KummerParams(30, 30))
        assert rep.nerve.counts == (452, 1350, 900)
        assert counts == {"_sparse_reduce": 0}


# -- class sums against operator chains --------------------------------------

def class_sum_corpus():
    """Type III fibers on the spheres of ``recognition_corpus`` that make a
    valid fiber, chains m = 1..7, and the sphere ladder with seeded surface
    profiles."""
    from k3motive.builders import (build_type2_chain, build_type3,
                                   icosahedron, octahedron, refine_sphere)
    from k3motive.deltaset import Shape, recognize
    from k3motive.fibers import validate
    from test_deltaset import recognition_corpus

    rng = random.Random(1906)
    fibers = [build_type3(ds) for ds in recognition_corpus()
              if recognize(ds) == Shape.SPHERE2]
    fibers = [f for f in fibers if validate(f) == []]
    fibers += [build_type2_chain(m) for m in range(1, 8)]
    for base, name, steps in ((octahedron, "edge_split", 3),
                              (icosahedron, "barycentric", 1)):
        for k in range(steps + 1):
            tri = refine_sphere(base(), k, name)
            total, n = 20 + 2 * tri.n(2), tri.n(0)
            cuts = sorted(rng.sample(range(total + 1), n - 1))
            profile = [b - a for a, b in zip([0] + cuts, cuts + [total])]
            fibers.append(build_type3(tri, profile))
    return fibers


class TestClassSums:
    """Each one-pass class sum equals the binary-operator formula."""

    def test_strata_inclusion_exclusion_and_limit(self):
        from k3motive.fibers import strata_classes
        from test_fibers import oracle_strata

        corpus = class_sum_corpus()
        assert len(corpus) == 18 + 7 + 6
        one = MotiveClass.one()
        for f in corpus:
            y0, y1, y2 = oracle_strata(f)
            assert strata_classes(f) == (y0, y1, y2), f.label
            assert smooth_locus_class(f) == y0 - 2 * y1 + 3 * y2
            assert lim_class(f) == (y0 - y1 * (one + L(1))
                                    + y2 * (one + L(1) + L(2)))

    def test_closed_forms(self):
        one = MotiveClass.one()
        for e in range(1, 4):
            for m in range(1, 8):
                k = e * m
                chain = (2 * one - (k + 1) * E + 20 * L(1)
                         + (k - 1) * E * L(1) + 2 * L(2))
                assert closed_form_integral(RamifiedParams(
                    e=e, s=2, r=m * m, elliptic_atom=E_ATOM)) == chain
            for r in range(2, 40, 2):
                e2r = e * e * r
                chain = ((e2r // 2 + 2) * (one + L(2))
                         + (20 - e2r) * L(1))
                assert closed_form_integral(RamifiedParams(e=e, s=3, r=r)) == chain

    def test_integral_from_neron(self):
        from k3motive.fibers import open_component_classes

        rng = random.Random(1907)
        for f in class_sum_corpus():
            items = [(cls, rng.randint(-3, 3))
                     for cls in open_component_classes(f)]
            base = min(m for _, m in items)
            chain = MotiveClass.zero()
            for cls, m in items:
                chain = chain + cls * L(base - m)
            assert integral_from_neron(WeakNeronData.of(items)) == chain


class TestRealizationCounts:
    def test_verify_fiber_realizes_two_classes(self, monkeypatch):
        from k3motive.builders import (KummerParams, build_kummer,
                                       build_type2_chain, build_type3,
                                       octahedron, refine_sphere)

        calls = []
        e_polynomial = MotiveClass.e_polynomial
        monkeypatch.setattr(MotiveClass, "e_polynomial",
                            lambda self: calls.append(self)
                            or e_polynomial(self))
        for fiber in (build_type3(refine_sphere(octahedron(), 2,
                                                "edge_split")),
                      build_type2_chain(4),
                      build_kummer(KummerParams(4, 6)).fiber):
            calls.clear()
            report = verify_fiber(fiber)
            assert report.match and report.serre_ok and report.chi == 24
            # the integral and the limit class, once each; the closed form
            # equals the integral, so its realization is the integral's
            assert calls == [report.integral, lim_class(fiber)]
            assert report.closed_form == report.integral

    def test_acampo_chi_realizes_two_classes(self, monkeypatch):
        from k3motive.builders import build_type3

        calls = []
        e_polynomial = MotiveClass.e_polynomial
        monkeypatch.setattr(MotiveClass, "e_polynomial",
                            lambda self: calls.append(self)
                            or e_polynomial(self))
        assert acampo_chi(build_type3("icosahedron")) == 24
        assert len(calls) == 2
