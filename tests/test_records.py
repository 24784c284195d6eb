import copy
import pickle

import pytest

import k3motive
from k3motive import (
    Census,
    CokernelStructure,
    Component,
    CycleVector,
    DegenerationFiber,
    DeltaSet,
    DoubleCurve,
    EllipticCurveAtom,
    IntegralReport,
    IntMatrix,
    K3Smooth,
    KummerParams,
    KummerReport,
    MonodromyGram,
    MotiveClass,
    OpaqueAtom,
    Other,
    RamifiedParams,
    Rational,
    RuledElliptic,
    SpectralRow,
    TriplePoint,
    WeakNeronData,
    build_type3,
    smith_normal_form,
    verify_fiber,
)
from k3motive._record import Record

L = MotiveClass.lefschetz()
E = EllipticCurveAtom("E")

# one value of each record class, built each time, and its repr
EXAMPLES = {
    Census: (lambda: Census(2, 4), "Census(generic=2, special=4)"),
    CokernelStructure: (lambda: CokernelStructure(1, (2, 6)),
                        "CokernelStructure(free_rank=1, torsion=(2, 6))"),
    Component: (lambda: Component(0, Rational(1)),
                "Component(id=0, kind=Rational(a=1))"),
    CycleVector: (lambda: CycleVector(1, (1, -1, 0)),
                  "CycleVector(dimension=1, coefficients=(1, -1, 0))"),
    DegenerationFiber: (
        lambda: DegenerationFiber.of(
            "f", [Component("a", Rational(1)), Component("b", K3Smooth())],
            [DoubleCurve("ab", ("a", "b"), 0)]),
        "DegenerationFiber(label='f', components=(Component(id='a', "
        "kind=Rational(a=1)), Component(id='b', kind=K3Smooth())), "
        "double_curves=(DoubleCurve(id='ab', on=('a', 'b'), genus=0, "
        "curve=None, self_intersections=None),), triple_points=())"),
    DoubleCurve: (lambda: DoubleCurve("c", ("a", "b"), 1, "E", (0, 0)),
                  "DoubleCurve(id='c', on=('a', 'b'), genus=1, curve='E', "
                  "self_intersections=(0, 0))"),
    EllipticCurveAtom: (lambda: EllipticCurveAtom("E"), "[E]"),
    IntegralReport: (
        lambda: IntegralReport("f", 3, 2, L, None, True, L.e_polynomial(),
                               24, L.e_polynomial().serre(), True),
        "IntegralReport(label='f', type_s=3, r=2, integral=+1*L, "
        "closed_form=None, match=True, e_poly=+1*uv, chi=24, "
        "serre_residue=+1, serre_ok=True)"),
    K3Smooth: (lambda: K3Smooth(), "K3Smooth()"),
    KummerParams: (lambda: KummerParams(2, 4), "KummerParams(m1=2, m2=4)"),
    KummerReport: (
        lambda: KummerReport(DegenerationFiber.of("t", [Component(0, Rational(1))]),
                             DeltaSet(1), Census(1, 0), 2, 4, L),
        "KummerReport(fiber=DegenerationFiber(label='t', components="
        "(Component(id=0, kind=Rational(a=1)),), double_curves=(), "
        "triple_points=()), nerve=DeltaSet(counts=(1,)), component_census="
        "Census(generic=1, special=0), r2_abelian=2, r2_kummer=4, "
        "integral=+1*L)"),
    MonodromyGram: (
        lambda: MonodromyGram((CycleVector(2, (1, 1)),), IntMatrix([[2]]), 2),
        "MonodromyGram(basis=(CycleVector(dimension=2, coefficients=(1, 1)),), "
        "gram=IntMatrix([[2]]), r_d=2)"),
    OpaqueAtom: (lambda: OpaqueAtom("X", count_symbol="x"), "[X]"),
    Other: (lambda: Other(L, (1, 0, 1)), "Other(klass=+1*L, betti=(1, 0, 1))"),
    RamifiedParams: (lambda: RamifiedParams(1, 2, 4, E),
                     "RamifiedParams(e=1, s=2, r=4, elliptic_atom=[E])"),
    Rational: (lambda: Rational(3), "Rational(a=3)"),
    RuledElliptic: (lambda: RuledElliptic("E", 1),
                    "RuledElliptic(curve='E', a=1)"),
    k3motive.SmithDecomposition: (
        lambda: smith_normal_form(IntMatrix([[2, 4]])),
        "SmithDecomposition(U=IntMatrix([[1]]), S=IntMatrix([[2, 0]]), "
        "V=IntMatrix([[1, -2], [0, 1]]), diagonal=(2,))"),
    SpectralRow: (lambda: SpectralRow(0, (2,), ()),
                  "SpectralRow(q=0, modules=(2,), differentials=())"),
    TriplePoint: (lambda: TriplePoint(7, (1, 2, 3)),
                  "TriplePoint(id=7, on=(1, 2, 3))"),
    WeakNeronData: (lambda: WeakNeronData.of([(L, 1)]),
                    "WeakNeronData(items=((+1*L, 1),))"),
}
RECORDS = sorted(EXAMPLES, key=lambda cls: cls.__name__)

# the keyword arguments that each __post_init__ refuses
REFUSED = [
    (KummerParams, {"m1": 3, "m2": 4}),
    (KummerParams, {"m1": 2.0, "m2": 4}),
    (RamifiedParams, {"e": 0, "s": 3, "r": 2}),
    (RamifiedParams, {"e": 1, "s": 2, "r": 4}),
    (SpectralRow, {"q": 0, "modules": (-1,), "differentials": ()}),
    (SpectralRow, {"q": 0, "modules": (1, 1), "differentials": ()}),
]


def test_every_exported_record_has_an_example():
    exported = {getattr(k3motive, name) for name in k3motive.__all__}
    assert {x for x in exported
            if isinstance(x, type) and issubclass(x, Record)} == set(EXAMPLES)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
class TestRecords:
    def test_equal_only_within_its_class(self, cls):
        rec = EXAMPLES[cls][0]()
        assert type(rec) is cls and rec._fields == tuple(
            cls.__annotations__)
        assert rec == EXAMPLES[cls][0]() and not rec != EXAMPLES[cls][0]()
        # a twin class with the same field names
        twin = type(cls.__name__, (Record,),
                    {"__annotations__": dict.fromkeys(cls._fields)})(*rec)
        for other in (tuple(rec), list(rec), twin):
            assert rec != other and other != rec
            assert not rec == other and not other == rec

    def test_hash_is_the_hash_of_its_fields(self, cls):
        rec = EXAMPLES[cls][0]()
        fields = tuple(getattr(rec, name) for name in cls._fields)
        assert fields == tuple(rec)
        assert hash(rec) == hash(fields)

    def test_repr_is_pinned(self, cls):
        build, text = EXAMPLES[cls]
        assert repr(build()) == text

    def test_assignment_and_deletion_refused(self, cls):
        rec = EXAMPLES[cls][0]()
        for name in cls._fields + ("_other",):
            with pytest.raises(AttributeError):
                setattr(rec, name, 1)
            with pytest.raises(AttributeError):
                delattr(rec, name)
        assert rec == EXAMPLES[cls][0]()

    def test_copy_deepcopy_and_pickle_round_trip(self, cls):
        rec = EXAMPLES[cls][0]()
        for twin in (copy.copy(rec), copy.deepcopy(rec),
                     pickle.loads(pickle.dumps(rec))):
            assert type(twin) is cls and twin == rec
            assert repr(twin) == repr(rec)

    def test_missing_or_unknown_field_refused(self, cls):
        rec = EXAMPLES[cls][0]()
        with pytest.raises(TypeError):
            cls(*rec, unknown=1)
        if cls._fields:
            with pytest.raises(TypeError):
                cls(**dict(zip(cls._fields[1:], rec[1:])))
        assert cls(*rec) == cls(**dict(zip(cls._fields, rec))) == rec


@pytest.mark.parametrize("cls, kwargs", REFUSED)
def test_post_init_checks_fire_both_ways(cls, kwargs):
    with pytest.raises(ValueError):
        cls(**kwargs)
    with pytest.raises(ValueError):
        cls(*kwargs.values())


def test_census_is_no_kummer_params():
    assert Census(2, 4) != KummerParams(2, 4)
    assert tuple(Census(2, 4)) == tuple(KummerParams(2, 4))
    assert len({Census(2, 4), KummerParams(2, 4), (2, 4)}) == 3


def test_fiber_memo_is_fresh_or_copied():
    fiber = build_type3("octahedron")
    verify_fiber(fiber)
    assert fiber._memo
    with pytest.raises(AttributeError):
        fiber._memo = {}
    with pytest.raises(AttributeError):
        del fiber._memo
    for twin in (DegenerationFiber(*fiber),
                 DegenerationFiber(**dict(zip(fiber._fields, fiber)))):
        assert twin == fiber and twin._memo == {}
    deep = copy.deepcopy(fiber)
    assert deep == fiber and deep._memo is not fiber._memo
    assert deep._memo.keys() == fiber._memo.keys()
    verify_fiber(deep)
    assert pickle.loads(pickle.dumps(fiber)) == fiber
