import copy
import functools
import json
import pickle
import random

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
    build_kummer,
    build_type2_chain,
    build_type3,
    octahedron,
    refine_sphere,
    smith_normal_form,
    validate,
    verify_fiber,
)
from k3motive._record import Record
from k3motive.builders import _nerve_fiber
from k3motive.serialize import dumps, fiber_from_json, fiber_to_json

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


# -- fibers held as columns --------------------------------------------------

RECORD_FIELDS = ("components", "double_curves", "triple_points")


def unbuilt(fiber):
    """Has none of the fiber's record tuples been built?"""
    return not set(RECORD_FIELDS) & vars(fiber).keys()


@functools.lru_cache(maxsize=None)
def column_corpus():
    """(fiber, reference) pairs by name: the nerve fiber of every
    2-dimensional complex of the recognition corpus, Kummer grids and
    relabelled spheres, each with the same fiber built record by record by
    the constructors from the nerve; chains, with the chain itself."""
    from test_deltaset import recognition_corpus, shuffled

    out = {}
    for i, ds in enumerate(recognition_corpus()):
        if ds.dim == 2:
            kinds = tuple(Rational(v % 3) for v in ds.simplices(0))
            out["corpus %d" % i] = (
                _nerve_fiber("corpus %d" % i, kinds, ds),
                nerve_reference("corpus %d" % i, kinds, ds))
    for m1, m2 in ((2, 2), (4, 6), (8, 18)):
        rep = build_kummer(KummerParams(m1, m2))
        out["kummer %dx%d" % (m1, m2)] = (rep.fiber, nerve_reference(
            rep.fiber.label, [Rational(c.kind.a) for c in rep.fiber.components],
            rep.nerve))
    rng = random.Random(4411)
    for k in range(3):
        tri = shuffled(refine_sphere(octahedron(), k, "edge_split"), rng)
        profile = [rng.randint(0, 3) for _ in tri.simplices(0)]
        profile[0] += 20 + 2 * tri.n(2) - sum(profile)
        out["sphere %d" % k] = (build_type3(tri, profile), nerve_reference(
            "type3_f%d" % tri.n(2), [Rational(a) for a in profile], tri))
    for m in range(1, 6):
        out["chain %d" % m] = (build_type2_chain(m),) * 2
    return out


def nerve_reference(label, kinds, nerve):
    """The nerve fiber built record by record: a component per vertex, a
    double curve per edge on its (low, high) ends, a triple point per
    triangle on its faces."""
    return DegenerationFiber.of(
        label, [Component(v, kind) for v, kind in enumerate(kinds)],
        [DoubleCurve(e, nerve.faces(1, e)[::-1], 0)
         for e in nerve.simplices(1)],
        [TriplePoint(t, nerve.faces(2, t)) for t in nerve.simplices(2)])


def three_builds(fiber):
    """The fiber built from its columns, from constructor-built records and
    by decoding its document."""
    columns = DegenerationFiber._of_columns(fiber.label, *fiber._cols)
    records = DegenerationFiber.of(
        fiber.label, [Component(*c) for c in fiber.components],
        [DoubleCurve(*d) for d in fiber.double_curves],
        [TriplePoint(*t) for t in fiber.triple_points])
    return columns, records, fiber_from_json(fiber_to_json(fiber))


class TestColumnFibers:
    def test_builds_agree(self):
        assert len(column_corpus()) == 78
        for name, (fiber, reference) in column_corpus().items():
            builds = (fiber, reference) + three_builds(fiber)
            assert all(unbuilt(f) for f in builds[2::2]), name
            first = builds[0]
            for f in builds:
                assert type(f) is DegenerationFiber, name
                assert f == first and first == f and not f != first, name
                assert hash(f) == hash(first) == hash(tuple(first)), name
                assert repr(f) == repr(first), name
                assert tuple(f) == tuple(first) and len(f) == 4, name
                assert f[1:] == first[1:] and f[-1] == first.triple_points
                assert None not in f and first.components in f
                assert f.index(first.double_curves) == 2, name
                assert f.count(first.label) == 1 and f + () == tuple(first)
                assert 2 * f == f + tuple(f) == tuple(first) * 2, name
                assert () + f == f + () and f <= first and not f < first
                assert dumps(fiber_to_json(f)) == dumps(fiber_to_json(first))

    def test_copies_and_fields(self):
        valid = 0
        for name, (fiber, _) in column_corpus().items():
            f = DegenerationFiber._of_columns(fiber.label, *fiber._cols)
            assert f._fields == ("label",) + RECORD_FIELDS
            # only the scan of an invalid fiber builds its records
            valid += not validate(f)
            was = unbuilt(f)
            assert was == (not f._memo["violations"]), name
            twins = (copy.copy(f), copy.deepcopy(f),
                     pickle.loads(pickle.dumps(f)))
            # copies keep the columns; equality builds the records
            assert [unbuilt(t) for t in twins + (f,)] == [was] * 4, name
            for twin in twins:
                assert type(twin) is DegenerationFiber, name
                assert twin._memo.keys() == f._memo.keys(), name
                assert twin == f and repr(twin) == repr(f), name
            assert copy.deepcopy(f)._memo is not f._memo
            rebuilt = DegenerationFiber(*f)
            assert rebuilt == f and rebuilt._memo == {}, name
            assert tuple.__getitem__(rebuilt, 1) is f.components, name
            assert DegenerationFiber(**dict(zip(f._fields, f))) == f, name
        assert valid == 61

    def test_a_changed_column_is_another_fiber(self):
        fiber = build_type3("octahedron")
        cols = fiber._cols
        for i, column in enumerate(cols):
            changed = list(cols)
            changed[i] = tuple(column[::-1]) if len(set(column)) > 1 \
                else (Rational(9),) * len(column)
            other = DegenerationFiber._of_columns(fiber.label, *changed)
            assert other != fiber and not other == fiber, cols._fields[i]
        assert DegenerationFiber._of_columns("x", *cols) != fiber

    def test_verify_leaves_records_unbuilt(self):
        from k3motive.serialize import dumps as encode

        fibers = [build_type3(refine_sphere(octahedron(), 2, "edge_split")),
                  build_kummer(KummerParams(4, 6)).fiber]
        fibers += [fiber_from_json(json.loads(encode(fiber_to_json(f))))
                   for f in fibers + [build_type2_chain(3)]]
        for f in fibers:
            assert unbuilt(f) and f._memo == {}
            rep = verify_fiber(f)
            assert rep.match and rep.chi == 24 and unbuilt(f), f.label
            fiber_to_json(f)
            assert unbuilt(f), f.label
        assert [verify_fiber(f).type_s for f in fibers] == [3, 3, 3, 3, 2]

    def test_builders_and_decoder_leave_the_memo_empty(self):
        built = [build_type3("icosahedron"),
                 build_type3(refine_sphere(octahedron(), 1, "edge_split")),
                 build_kummer(KummerParams(6, 6)).fiber]
        for f in built + [fiber_from_json(fiber_to_json(f)) for f in built]:
            assert f._memo == {} and unbuilt(f), f.label


@pytest.mark.parametrize("cls", [Component, DoubleCurve, Rational,
                                 TriplePoint], ids=lambda cls: cls.__name__)
def test_column_records_match_constructed(cls):
    """The records a column-built fiber builds on first access (and the
    builders' kinds) equal constructor-built ones in every respect."""
    pairs = []
    for fiber, ref in column_corpus().values():
        if fiber is not ref:  # nerve-built
            got = DegenerationFiber._of_columns(fiber.label, *fiber._cols)
            assert unbuilt(got)
            if cls is Rational:
                pairs += zip([c.kind for c in got.components],
                             [c.kind for c in ref.components])
            else:
                field = {Component: "components", DoubleCurve: "double_curves",
                         TriplePoint: "triple_points"}[cls]
                pairs += zip(getattr(got, field), getattr(ref, field))
    assert len(pairs) > 1000
    for rec, ref in pairs:
        assert type(rec) is cls and rec == ref and not rec != ref
        assert hash(rec) == hash(ref) and repr(rec) == repr(ref)
        for name in cls._fields:
            assert getattr(rec, name) == getattr(ref, name)
    for rec, ref in pairs[:50]:
        for twin in (copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
            assert type(twin) is cls and twin == ref
            assert repr(twin) == repr(ref)
