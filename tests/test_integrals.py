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
    GeometricRealizabilityWarning,
    RamifiedParams,
    acampo_chi,
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

    def test_odd_e2r2_rejected(self):
        with pytest.raises(ValueError):
            RamifiedParams(e=1, s=3, r=5)

    def test_realizability_warning(self):
        with pytest.warns(GeometricRealizabilityWarning):
            closed_form_integral(RamifiedParams(e=1, s=3, r=24))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            closed_form_integral(RamifiedParams(e=1, s=3, r=20))

    def test_chi_is_24_for_all_params(self):
        for e in range(1, 6):
            for r in range(1, 21):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore",
                                          GeometricRealizabilityWarning)
                    if (e * e * r) % 2 == 0:
                        p3 = RamifiedParams(e=e, s=3, r=r)
                        assert closed_form_integral(p3) \
                            .euler_characteristic() == 24
                    root = int(r ** 0.5)
                    if root * root == r:
                        p2 = RamifiedParams(e=e, s=2, r=r,
                                            elliptic_atom=E_ATOM)
                        assert closed_form_integral(p2) \
                            .euler_characteristic() == 24

    def test_conjecture_pins_type3(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GeometricRealizabilityWarning)
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


class TestOncePerFiber:
    def test_verify_fiber_call_counts(self, monkeypatch):
        import sys
        from k3motive import deltaset, fibers, intlinalg, weightss
        from k3motive.builders import build_type3
        from k3motive.intlinalg import IntMatrix

        fiber = build_type3("icosahedron")
        # one elimination per boundary map: d1 and d2 of the polytope
        deltaset._boundary_reduction.cache_clear()
        counts = {}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name, fn in (("_sparse_reduce", intlinalg._sparse_reduce),
                         ("degeneration_type", fibers.degeneration_type),
                         ("monodromy_gram", weightss.monodromy_gram)):
            counts[name] = 0
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("k3motive") \
                        and getattr(mod, name, None) is fn:
                    monkeypatch.setattr(mod, name, counting(name, fn))
        counts["identity"] = 0
        monkeypatch.setattr(IntMatrix, "identity", classmethod(
            counting("identity", IntMatrix.identity.__func__)))

        report = verify_fiber(fiber)
        assert report.match and report.serre_ok and report.chi == 24
        assert counts == {"_sparse_reduce": 2, "degeneration_type": 1,
                          "monodromy_gram": 1, "identity": 0}
