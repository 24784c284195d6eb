import random
import re

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

    @pytest.mark.parametrize("count", [1.7, True, "5"])
    @pytest.mark.parametrize("atom, kind", [
        (EllipticCurveAtom("E"), "elliptic"), (OpaqueAtom("E"), "opaque")],
        ids=["elliptic", "opaque"])
    def test_non_int_count_refused(self, atom, kind, count):
        # a count is refused, not truncated or parsed
        cls = MotiveClass.of_atom(atom, 1, 2)
        with pytest.raises(ValueError, match="point count %s of %s atom 'E' "
                           "is not an integer" % (re.escape(repr(count)),
                                                  kind)):
            cls.point_count({"E": count})
        assert cls.point_count({"E": 5}) == UnivariateLaurent({1: 10})


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


# -- one linear-combination primitive ---------------------------------------

def oracle_sum(pairs):
    """Sum of n * x over (n, x) pairs, read off the public ``terms`` of each
    class into a plain dict, zero coefficients dropped."""
    out = {}
    for n, x in pairs:
        for atom, power, coeff in x.terms():
            out[atom, power] = out.get((atom, power), 0) + n * coeff
    return {k: c for k, c in out.items() if c}


def stored(x):
    return {(atom, power): coeff for atom, power, coeff in x.terms()}


class TestCombine:
    def test_against_a_plain_dict(self):
        rng = random.Random(1901)
        for _ in range(200):
            pairs = [(rng.randint(-3, 3), random_class(rng))
                     for _ in range(rng.randint(0, 6))]
            got = MotiveClass._combine(pairs)
            assert stored(got) == oracle_sum(pairs)
            assert all(got.terms()) and 0 not in stored(got).values()
            again = MotiveClass(oracle_sum(pairs))
            assert got == again and hash(got) == hash(again)

    def test_operators_against_a_plain_dict(self):
        rng = random.Random(1902)
        for _ in range(200):
            a, b = random_class(rng), random_class(rng)
            n = rng.randint(-4, 4)
            routes = {
                "+": (a + b, [(1, a), (1, b)]),
                "-": (a - b, [(1, a), (-1, b)]),
                "neg": (-a, [(-1, a)]),
                "*n": (a * n, [(n, a)]),
                "n*": (n * a, [(n, a)]),
            }
            for name, (got, pairs) in routes.items():
                assert stored(got) == oracle_sum(pairs), name
                assert 0 not in stored(got).values(), name
                combined = MotiveClass._combine(pairs)
                assert got == combined and hash(got) == hash(combined), name
                assert type(got) is MotiveClass, name

    def test_full_cancellation(self):
        rng = random.Random(1903)
        for _ in range(50):
            a = random_class(rng)
            for zero in (a - a, a + (-a), a * 0, 0 * a,
                         MotiveClass._combine([(2, a), (-1, a), (-1, a)])):
                assert zero.is_zero() and zero.terms() == []
                assert zero == MotiveClass.zero()
                assert hash(zero) == hash(MotiveClass.zero())

    @pytest.mark.parametrize("make, key", [
        (EPolynomial, lambda rng: (rng.randint(-2, 2), rng.randint(-2, 2))),
        (UnivariateLaurent, lambda rng: rng.randint(-3, 3)),
    ], ids=["epolynomial", "univariate"])
    def test_laurent_sums_against_a_plain_dict(self, make, key):
        rng = random.Random(1904)
        for _ in range(100):
            xs = [make({key(rng): rng.randint(-3, 3) for _ in range(4)})
                  for _ in range(3)]
            ns = [rng.randint(-2, 2) for _ in xs]
            plain = {}
            for n, x in zip(ns, xs):
                for k, c in x.items():
                    plain[k] = plain.get(k, 0) + n * c
            plain = {k: c for k, c in plain.items() if c}
            got = make._combine(zip(ns, xs))
            assert dict(got.items()) == plain
            chained = ns[0] * xs[0] + ns[1] * xs[1] - (-ns[2]) * xs[2]
            assert got == chained == make(plain)
            assert hash(got) == hash(chained) == hash(make(plain))


class TestMixedTypes:
    """Arithmetic across the term types, or with a float or a boolean, is
    refused by Python's own TypeError."""

    @pytest.mark.parametrize("op", [
        lambda: UnivariateLaurent.constant(2) + EPolynomial.one(),
        lambda: EPolynomial.one() + MotiveClass.one(),
        lambda: EPolynomial.one() - UnivariateLaurent.constant(1),
        lambda: MotiveClass.one() + 1,
        lambda: 1 + MotiveClass.one(),
        lambda: MotiveClass.one() - 1,
        lambda: MotiveClass.one() * 2.5,
        lambda: 2.5 * MotiveClass.one(),
        lambda: MotiveClass.one() * True,
        lambda: MotiveClass.one() * EPolynomial.one(),
        lambda: EPolynomial.one() * UnivariateLaurent.constant(1),
    ], ids=["laurent+epoly", "epoly+class", "epoly-laurent", "class+1",
            "1+class", "class-1", "class*2.5", "2.5*class", "class*True",
            "class*epoly", "epoly*laurent"])
    def test_refused(self, op):
        with pytest.raises(TypeError):
            op()

    def test_int_multiples_still_work(self):
        assert 3 * MotiveClass.one() == MotiveClass.one() * 3 == L(0, 3)
        assert 2 * EPolynomial.one() == EPolynomial.monomial(0, 0, 2)
        assert UnivariateLaurent.constant(2) * -1 == \
            UnivariateLaurent.constant(-2)


class TestExactValues:
    @pytest.mark.parametrize("make, bad", [
        (lambda: MotiveClass({(POINT, 0): 1.5}), 1.5),
        (lambda: MotiveClass.lefschetz(1, 0.5), 0.5),
        (lambda: MotiveClass.lefschetz(0.5), 0.5),
        (lambda: MotiveClass.lefschetz(True), True),
        (lambda: MotiveClass.of_atom(E, 0, True), True),
        (lambda: MotiveClass.tate(1, 2.0), 2.0),
        (lambda: EPolynomial({(0, 0.5): 1}), 0.5),
        (lambda: EPolynomial.monomial(1, 1, 2.0), 2.0),
        (lambda: UnivariateLaurent.constant(True), True),
        (lambda: UnivariateLaurent({0.5: 1}), 0.5),
    ], ids=["class-coeff", "lefschetz-coeff", "lefschetz-power",
            "lefschetz-bool", "atom-bool", "tate-coeff", "epoly-power",
            "epoly-coeff", "laurent-bool", "laurent-power"])
    def test_constructors_refuse_non_int(self, make, bad):
        with pytest.raises(ValueError, match="coefficient or power %s is "
                           "not an integer" % bad):
            make()

    @pytest.mark.parametrize("n", [1.5, True, -0.5])
    def test_twist_refuses_non_int(self, n):
        with pytest.raises(ValueError, match="twist %s is not an integer"
                           % n):
            (MotiveClass.one() + E_class()).twist(n)
        with pytest.raises(ValueError, match="not an integer"):
            MotiveClass.tate(n)

    def test_int_values_are_kept(self):
        assert MotiveClass({(POINT, 0): 0}).is_zero()
        assert repr(MotiveClass.lefschetz(1, 2)) == "+2*L"
        assert MotiveClass.tate(2, 3) == L(-2, 3)
        assert MotiveClass.one().twist(-1) == L(1)


class TestPointSingleton:
    def test_copies_and_pickles_are_point_itself(self):
        import copy
        import pickle

        cls = E_class(1, 2) + L(2, -3)
        for dup in (copy.copy(cls), copy.deepcopy(cls),
                    pickle.loads(pickle.dumps(cls))):
            assert dup == cls and hash(dup) == hash(cls)
            assert all(a is POINT for a, _, _ in dup.terms()
                       if a.kind_rank == 0)
        assert copy.deepcopy(POINT) is POINT
        assert pickle.loads(pickle.dumps(POINT)) is POINT
