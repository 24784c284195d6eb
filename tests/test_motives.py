import random

import pytest

from k3motive.motives import (
    EPolynomial,
    EllipticCurveAtom,
    MissingRealizationError,
    MotiveClass,
    OpaqueAtom,
    POINT,
    UnivariateLaurent,
    UnsupportedProductError,
)

L = MotiveClass.lefschetz
E = EllipticCurveAtom("E")


def E_class(power=0, coeff=1):
    return MotiveClass.of_atom(E, power, coeff)


def random_class(rng):
    out = MotiveClass.zero()
    for _ in range(rng.randint(0, 5)):
        power = rng.randint(-3, 3)
        coeff = rng.randint(-4, 4)
        if rng.random() < 0.5:
            out = out + L(power, coeff)
        else:
            out = out + E_class(power, coeff)
    return out


class TestAddition:
    def test_doubling(self):
        one = MotiveClass.one()
        assert one + one == 2 * one

    def test_cancellation(self):
        assert (E_class() + (-1) * E_class()).is_zero()

    def test_type2_assembly(self):
        # the m = 2 chain integral, assembled from its Tate and curve parts
        m = 2
        tate_part = 2 * MotiveClass.one() + L(1, 20) + L(2, 2)
        curve_part = E_class(0, -(m + 1)) + E_class(0, m - 1).twist(-1)
        total = tate_part + curve_part
        assert total.coefficient(POINT, 0) == 2
        assert total.coefficient(POINT, 1) == 20
        assert total.coefficient(POINT, 2) == 2
        assert total.coefficient(E, 0) == -3
        assert total.coefficient(E, 1) == 1


class TestMultiplication:
    def test_lefschetz_powers(self):
        assert L(1) * L(1) == L(2)

    def test_curve_times_p1(self):
        p1 = MotiveClass.one() + L(1)
        assert E_class() * p1 == E_class(0) + E_class(1)

    def test_curve_times_curve_rejected(self):
        with pytest.raises(UnsupportedProductError):
            E_class() * E_class()

    def test_opaque_times_curve_rejected(self):
        k3 = MotiveClass.of_atom(OpaqueAtom("K3"))
        with pytest.raises(UnsupportedProductError):
            k3 * E_class()


class TestTateTwist:
    def test_twist_sign_convention(self):
        # [Z](n) = [Z] * L^(-n): twisting Z(0) by -1 multiplies by L
        assert MotiveClass.one().twist(-1) == L(1)
        assert MotiveClass.one().twist(1) == L(-1)

    def test_twist_elliptic(self):
        assert E_class().twist(-1) == E_class(1)

    def test_twist_inverse_pairs(self):
        rng = random.Random(3)
        for _ in range(20):
            a = random_class(rng)
            n = rng.randint(-4, 4)
            assert a.twist(n).twist(-n) == a

    def test_tate_constructor(self):
        assert MotiveClass.tate(-1) == L(1)
        assert MotiveClass.tate(0) == MotiveClass.one()


class TestRingLaws:
    def test_randomized(self):
        rng = random.Random(17)
        p1 = MotiveClass.one() + L(1)
        for _ in range(40):
            a, b, c = (random_class(rng) for _ in range(3))
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            # distributivity over a point-based factor
            t = L(rng.randint(-2, 2), rng.randint(-3, 3))
            assert (a + b) * t == a * t + b * t
            assert a * t == t * a
            assert a * p1 == a + a.twist(-1)


class TestEPolynomial:
    def test_lefschetz(self):
        assert L(1).e_polynomial() == EPolynomial.monomial(1, 1)

    def test_elliptic_curve(self):
        # Hodge diamond of an elliptic curve, with the sign of odd cohomology
        expected = EPolynomial({(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 1})
        assert E_class().e_polynomial() == expected

    def test_type3_example(self):
        cls = 4 * MotiveClass.one() + L(1, 16) + L(2, 4)
        expected = EPolynomial({(0, 0): 4, (1, 1): 16, (2, 2): 4})
        assert cls.e_polynomial() == expected

    def test_ring_homomorphism(self):
        rng = random.Random(29)
        for _ in range(30):
            a = random_class(rng)
            t = L(rng.randint(-2, 2), rng.randint(-3, 3))
            assert (a * t).e_polynomial() == a.e_polynomial() * t.e_polynomial()
            b = random_class(rng)
            assert (a + b).e_polynomial() == a.e_polynomial() + b.e_polynomial()

    def test_undeclared_opaque(self):
        blank = MotiveClass.of_atom(OpaqueAtom("mystery"))
        with pytest.raises(MissingRealizationError):
            blank.e_polynomial()


class TestEulerCharacteristic:
    def test_tate_classes(self):
        assert L(5).euler_characteristic() == 1
        assert MotiveClass.one().euler_characteristic() == 1

    def test_elliptic_vanishes(self):
        assert E_class().euler_characteristic() == 0
        assert E_class(1).euler_characteristic() == 0

    def test_matches_e_polynomial(self):
        rng = random.Random(31)
        for _ in range(30):
            a = random_class(rng)
            assert a.euler_characteristic() == a.e_polynomial().at_one()


class TestSerreReduce:
    def test_defining_relation(self):
        assert not (L(1) - MotiveClass.one()).serre_reduce()

    def test_type3_value(self):
        cls = 4 * MotiveClass.one() + L(1, 16) + L(2, 4)
        assert cls.serre_reduce() == UnivariateLaurent.constant(24)

    def test_elliptic(self):
        expected = UnivariateLaurent({0: 2, 1: -1, -1: -1})
        assert E_class().serre_reduce() == expected

    def test_twist_invariance(self):
        rng = random.Random(37)
        for _ in range(25):
            a = random_class(rng)
            n = rng.randint(-4, 4)
            assert a.twist(n).serre_reduce() == a.serre_reduce()


class TestPointCount:
    def test_type3_example(self):
        cls = 4 * MotiveClass.one() + L(1, 16) + L(2, 4)
        counts = cls.point_count()
        assert counts == UnivariateLaurent({0: 4, 1: 16, 2: 4})
        assert counts.at_one() == 24

    def test_point(self):
        assert MotiveClass.one().point_count() == UnivariateLaurent.constant(1)

    def test_declared_curve_count(self):
        assert E_class().point_count({"E": 11}) == UnivariateLaurent.constant(11)

    def test_missing_count(self):
        with pytest.raises(MissingRealizationError):
            E_class().point_count()


class TestCanonicalOrder:
    def test_terms_sorted(self):
        a = E_class(2) + L(-1) + MotiveClass.one() + E_class(-1)
        keys = [(atom.kind_rank, atom.name, p) for atom, p, _ in a.terms()]
        assert keys == sorted(keys)

    def test_no_zero_coefficients_stored(self):
        a = L(1) + L(1, -1) + E_class()
        assert a == E_class()
        assert len(a.terms()) == 1


class TestHashAndEquality:
    """The three term types share one base: equality is type and terms,
    and the hash does not depend on the order terms were inserted in."""

    F = EllipticCurveAtom("F")
    K3 = OpaqueAtom("K3", e_poly=EPolynomial.monomial(2, 2))

    @pytest.mark.parametrize("make, terms", [
        (EPolynomial, {(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 1}),
        (UnivariateLaurent, {-2: 3, 0: 1, 5: -7}),
        (MotiveClass, {(POINT, 0): 1, (E, 1): 2, (K3, -1): 4, (F, 0): -1}),
    ], ids=["epolynomial", "univariate", "motive-class"])
    def test_insertion_order_does_not_matter(self, make, terms):
        forward = make(terms)
        backward = make(dict(reversed(list(terms.items()))))
        summed = make()
        for k, c in reversed(list(terms.items())):
            summed = summed + make({k: c})
        assert forward == backward == summed
        assert hash(forward) == hash(backward) == hash(summed)
        assert len({forward, backward, summed}) == 1

    def test_the_three_ones_are_pairwise_unequal(self):
        ones = [MotiveClass.one(), EPolynomial.one(),
                UnivariateLaurent.constant(1)]
        for i, a in enumerate(ones):
            for b in ones[i + 1:]:
                assert a != b and b != a

    def test_equal_other_kinds_are_one_counter_key(self):
        from collections import Counter
        from k3motive.fibers import Other
        a = MotiveClass.one() + E_class(1) + MotiveClass.of_atom(self.K3)
        b = MotiveClass.of_atom(self.K3) + E_class(1) + MotiveClass.one()
        assert Counter([Other(a), Other(b)]) == Counter({Other(a): 2})

    @pytest.mark.parametrize("left, right", [
        (E, F), (F, E), (E, E), (K3, E), (E, K3), (K3, K3)],
        ids=["E*F", "F*E", "E*E", "K3*E", "E*K3", "K3*K3"])
    def test_products_of_two_non_point_atoms_raise(self, left, right):
        a = MotiveClass.one() + MotiveClass.of_atom(left)
        b = L(2) + MotiveClass.of_atom(right, 1)
        with pytest.raises(UnsupportedProductError,
                           match="outside the supported fragment"):
            a * b

    def test_public_methods_hold_on_mixed_atoms(self):
        # atoms of different kinds cannot be ordered against each other
        a = MotiveClass.one() + E_class() + MotiveClass.of_atom(self.K3, -1)
        assert [t[0] for t in a.terms()] == [POINT, E, self.K3]
        assert repr(a) == "+1*1 +1*[E] +1*[K3](1)"
        assert a.euler_characteristic() == 2
        assert a.serre_reduce() == UnivariateLaurent({-1: -1, 0: 4, 1: -1})
        assert a.twist(1) - a.twist(1) == MotiveClass.zero()
        assert hash(a) == hash(a.twist(0)) and not a.is_zero()
