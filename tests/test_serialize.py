import copy
import enum
import hashlib
import json
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

jsonschema = pytest.importorskip("jsonschema")

from k3motive.cli import main
from k3motive.builders import build_kummer, build_type2_chain, build_type3, \
    KummerParams, octahedron
from k3motive.fibers import component_class, K3Smooth, open_component_classes
from k3motive.intlinalg import IntMatrix, smith_normal_form
from k3motive.motives import (EPolynomial, EllipticCurveAtom, MotiveClass,
                              OpaqueAtom)
from k3motive.serialize import (
    delta_from_json,
    delta_to_json,
    dumps,
    fiber_from_json,
    fiber_to_json,
    matrix_from_json,
    matrix_to_json,
    motive_from_json,
    motive_to_json,
    neron_from_json,
    neron_to_json,
    smith_to_json,
)
from k3motive.fibers import WeakNeronData

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"


def schema_validator(name):
    from referencing import Registry, Resource
    store = {}
    for p in SCHEMA_DIR.glob("*.schema.json"):
        doc = json.loads(p.read_text())
        store[doc["$id"]] = doc
    registry = Registry().with_resources(
        (sid, Resource.from_contents(doc)) for sid, doc in store.items())
    return jsonschema.Draft7Validator(store[name], registry=registry)


class TestMatrixJson:
    def test_roundtrip(self):
        a = IntMatrix([[2, 0], [0, 3]])
        doc = matrix_to_json(a)
        assert doc == {"rows": 2, "cols": 2, "entries": ["2", "0", "0", "3"]}
        assert matrix_from_json(doc) == a
        schema_validator("matrix.schema.json").validate(doc)

    def test_big_entries_survive(self):
        big = 2 ** 200 + 1
        a = IntMatrix([[big]])
        assert matrix_from_json(matrix_to_json(a)) == a

    def test_smith_document(self):
        doc = smith_to_json(smith_normal_form(IntMatrix([[2, 0], [0, 3]])))
        assert doc["diagonal"] == ["1", "6"]

    def test_entries_of_any_length(self):
        # past 4300 digits, Python's own int() and str() refuse decimals
        for digits in (599, 600, 601, 4299, 4301, 5000, 20000):
            sevens = 7 * (10 ** digits - 1) // 9
            a = IntMatrix([[sevens, -sevens], [-10 ** digits, 0]])
            doc = matrix_to_json(a)
            assert doc["entries"] == ["7" * digits, "-" + "7" * digits,
                                      "-1" + "0" * digits, "0"]
            assert matrix_from_json(doc) == a
            dec = smith_normal_form(IntMatrix([[sevens]]))
            assert smith_to_json(dec)["diagonal"] == ["7" * digits]
        assert matrix_from_json(
            {"rows": 1, "cols": 1, "entries": ["-000" + "7" * 5000]}
        ) == IntMatrix([[-7 * (10 ** 5000 - 1) // 9]])


class TestMotiveJson:
    def test_canonical_order_and_roundtrip(self):
        e = MotiveClass.of_atom(EllipticCurveAtom("E"))
        cls = 2 * MotiveClass.one() - 3 * e + MotiveClass.lefschetz(1, 20) \
            + e.twist(-1) + MotiveClass.lefschetz(2, 2)
        doc = motive_to_json(cls)
        schema_validator("motive_class.schema.json").validate(doc)
        assert motive_from_json(doc) == cls
        atoms = [t["atom"] for t in doc]
        assert atoms == sorted(atoms, key=lambda a: (a != "point", a))

    def test_byte_stable(self):
        e = MotiveClass.of_atom(EllipticCurveAtom("E"))
        one_way = 2 * MotiveClass.one() + e - e + MotiveClass.lefschetz(1)
        other_way = MotiveClass.lefschetz(1) + MotiveClass.one() * 2
        assert dumps(motive_to_json(one_way)) == dumps(motive_to_json(other_way))

    def test_opaque_atoms_of_one_name_are_byte_stable(self):
        # distinct atoms that tie on (kind, name, power) are ordered by
        # their realizations, so both insertion orders give the same bytes
        a = OpaqueAtom("X", e_poly=EPolynomial.one())
        b = OpaqueAtom("X", e_poly=EPolynomial.monomial(1, 1))
        c = OpaqueAtom("X", e_poly=EPolynomial.one(), count_symbol="x")
        d = OpaqueAtom("X")
        keys = [(a, 0), (b, 0), (c, 0), (d, 0), (b, 1), (a, -1)]
        forward = MotiveClass(dict(zip(keys, range(1, 7))))
        backward = MotiveClass(dict(reversed(list(zip(keys, range(1, 7))))))
        assert forward == backward and hash(forward) == hash(backward)
        text = dumps(motive_to_json(forward))
        assert dumps(motive_to_json(backward)) == text
        assert [(t[0], t[1]) for t in forward.terms()] == [
            (a, -1), (d, 0), (a, 0), (c, 0), (b, 0), (b, 1)]
        back = motive_from_json(json.loads(text))
        assert back == forward and dumps(motive_to_json(back)) == text

    def test_opaque_roundtrip(self):
        cls = component_class(K3Smooth())
        doc = motive_to_json(cls)
        back = motive_from_json(doc)
        assert back == cls
        assert back.euler_characteristic() == 24

    def test_repeated_monomials_are_summed(self):
        # as repeated class terms are: [[0,0,"1"],[0,0,"2"]] is 3, not 2
        term = {"atom": "opaque:X", "lefschetz_power": 0, "coeff": "1"}
        for e_poly, e in (([[0, 0, "1"], [0, 0, "2"]], {(0, 0): 3}),
                          ([[1, 1, "2"], [0, 0, "1"], [1, 1, "-2"]],
                           {(0, 0): 1})):
            doc = [dict(term, e_polynomial=e_poly)]
            schema_validator("motive_class.schema.json").validate(doc)
            (atom, _, _), = motive_from_json(doc).terms()
            assert dict(atom.e_poly.items()) == e, e_poly
        doc = [term, dict(term, coeff="2")]  # one atom, one power
        assert motive_from_json(doc) == 3 * motive_from_json(doc[:1])


class TestDeltaJson:
    def test_roundtrip(self):
        tri = octahedron()
        doc = delta_to_json(tri)
        schema_validator("delta_set.schema.json").validate(doc)
        assert delta_from_json(doc) == tri

    def test_vertices_only(self):
        from k3motive.deltaset import DeltaSet
        ds = DeltaSet(3)
        assert delta_from_json(delta_to_json(ds)) == ds


def delta_from_json_nested(doc):
    """The Delta-set decoder before its flat route, kept verbatim: a tuple
    per face list, then the nested constructor."""
    from k3motive.deltaset import DeltaSet
    from k3motive.serialize import _array, _ints, _keys

    _keys(doc, ("dims", "boundary"))
    dims = _ints(_array(doc["dims"], "dims"), "dims")
    levels = [[_ints(_array(fs, "face list"), "face list")
               for fs in _array(level, "boundary level")]
              for level in _array(doc["boundary"], "boundary")]
    if not dims or any(x < 0 for x in dims) \
            or list(dims[1:]) != [len(level) for level in levels]:
        raise ValueError("dims %r disagree with the boundary levels, of "
                         "lengths %r" % (list(dims), list(map(len, levels))))
    return DeltaSet(dims[0], levels)


def malformed_delta_docs():
    """Seeded documents of valid Delta-sets with one to three entries
    broken: face ids, face lists, levels, the boundary and the dims."""
    from k3motive.builders import icosahedron, tetrahedron, torus_grid
    from k3motive.deltaset import DeltaSet
    from test_deltaset import small_complexes

    rng = random.Random(5150)
    bases = [tetrahedron(), octahedron(), icosahedron(), torus_grid(2, 3),
             DeltaSet(3), DeltaSet(0)] + list(small_complexes().values())
    bases = [json.loads(json.dumps(delta_to_json(ds))) for ds in bases]
    junk = [1.0, True, False, "1", None, -1, 10 ** 30, {}, 3, "ab", (0, 1)]
    docs = list(bases)
    for _ in range(900):
        doc = copy.deepcopy(rng.choice(bases))
        for _ in range(rng.randint(1, 3)):
            levels = doc["boundary"]
            if not isinstance(levels, list) \
                    or not isinstance(doc["dims"], list):
                break
            where = rng.random()
            if where < 0.08:
                doc["dims"] = rng.choice(
                    [doc["dims"][:-1], doc["dims"] + [0], [-1] + doc["dims"],
                     [2.0] + doc["dims"][1:], "dims", []])
            elif where < 0.12 or not levels:
                doc["boundary"] = rng.choice([levels + [[]], levels[:-1],
                                              {}, 7, [7] + levels])
            elif where < 0.2:
                levels[rng.randrange(len(levels))] = rng.choice(junk)
            else:
                level = rng.choice(levels)
                if not isinstance(level, list) or not level:
                    continue
                i = rng.randrange(len(level))
                fs = level[i]
                if where < 0.35 or not isinstance(fs, list) or not fs:
                    level[i] = rng.choice(
                        [rng.choice(junk), fs[:-1] if isinstance(fs, list)
                         else [], (fs if isinstance(fs, list) else []) + [0],
                         list(reversed(fs)) if isinstance(fs, list) else fs])
                else:
                    fs[rng.randrange(len(fs))] = rng.choice(
                        junk + [0, 1, 2, 5, 40])
        docs.append(doc)
    return docs


def decoded(decode, doc):
    """The counts and levels, or the type and message of what decoding
    raised."""
    try:
        ds = decode(doc)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return ds.counts, ds._levels


class TestDeltaJsonRoutes:
    def test_flat_route_matches_the_nested_one(self):
        docs = malformed_delta_docs()
        outcomes = [decoded(delta_from_json, copy.deepcopy(d)) for d in docs]
        assert outcomes == [decoded(delta_from_json_nested, d) for d in docs]
        # the corpus reaches every kind of message, and valid documents
        messages = Counter(o[1].split(" ")[0] if o[0] is ValueError
                           else "ok" for o in outcomes)
        assert min(messages.values()) >= 10, messages
        assert set(messages) == {
            "ok", "dims", "face", "simplex", "simplicial", "boundary"}, messages

    def test_flat_route_builds_no_tuple_per_simplex(self, monkeypatch):
        from k3motive import serialize
        from k3motive.builders import torus_grid

        doc = json.loads(json.dumps(delta_to_json(torus_grid(8, 8))))
        calls = []
        ints = serialize._ints
        monkeypatch.setattr(serialize, "_ints",
                            lambda *a: calls.append(a) or ints(*a))
        assert delta_from_json(doc) == torus_grid(8, 8)
        assert len(calls) == 1  # the dims alone


class TestFiberJson:
    def test_roundtrips(self):
        fibers = [build_type2_chain(3), build_type3("tetrahedron"),
                  build_kummer(KummerParams(2, 4)).fiber]
        validator = schema_validator("fiber.schema.json")
        for f in fibers:
            doc = fiber_to_json(f)
            validator.validate(doc)
            assert fiber_from_json(doc) == f

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            fiber_from_json({"label": "x", "components":
                             [{"id": 0, "kind": "weird"}],
                             "double_curves": [], "triple_points": []})

    @pytest.mark.parametrize("where", ["component", "curve", "curve_on",
                                       "triple", "triple_on"])
    @pytest.mark.parametrize("bad", [[1], 1.5, True, None])
    def test_ids_must_be_strings_or_integers(self, where, bad):
        doc = fiber_to_json(build_type3("tetrahedron"))
        target = {"component": (doc["components"][0], "id"),
                  "curve": (doc["double_curves"][0], "id"),
                  "curve_on": (doc["double_curves"][0]["on"], 0),
                  "triple": (doc["triple_points"][0], "id"),
                  "triple_on": (doc["triple_points"][0]["on"], 0)}[where]
        target[0][target[1]] = bad
        assert not schema_validator("fiber.schema.json").is_valid(doc)
        with pytest.raises(ValueError):
            fiber_from_json(doc)

    def test_self_intersection_decoration(self):
        from k3motive.fibers import Component, DegenerationFiber, \
            DoubleCurve, Rational, validate
        f = DegenerationFiber.of(
            "dec", [Component(0, Rational(10)), Component(1, Rational(10))],
            [DoubleCurve("c", (0, 1), 1, "E", self_intersections=(2, -2))])
        assert validate(f) == []
        doc = fiber_to_json(f)
        schema_validator("fiber.schema.json").validate(doc)
        assert doc["double_curves"][0]["self_intersections"] == [2, -2]
        assert fiber_from_json(doc) == f

    def test_on_of_another_length_round_trips(self):
        # such a fiber is decoded into records, as its ``on`` has no flat
        # column, and written back off them
        from k3motive.fibers import validate
        base = fiber_to_json(build_type3("octahedron"))
        for kind, on in (("double_curves", [0, 1, 2]), ("double_curves", [0]),
                         ("triple_points", [0, 1]),
                         ("triple_points", [0, 1, 2, 3])):
            doc = copy.deepcopy(base)
            doc[kind][5]["on"] = on
            f = fiber_from_json(doc)
            assert dumps(fiber_to_json(f)) == dumps(doc)
            words = "exactly two components" if kind == "double_curves" \
                else "three distinct curves"
            assert validate(f)[0].endswith(words), (kind, on)


class TestNeronJson:
    def test_roundtrip(self):
        f = build_type3("octahedron")
        data = WeakNeronData.of((c, 1) for c in open_component_classes(f))
        doc = neron_to_json(data)
        assert neron_from_json(doc) == data


class Hue(enum.IntEnum):
    RED = 1
    BLUE = -7


def json_dumps(x) -> str:
    """The reference: json's own indented, key-sorted encoder."""
    return json.dumps(x, indent=2, sort_keys=True) + "\n"


def outcome(encode, x):
    """The text, or the type and message of what encoding raised."""
    try:
        return encode(x)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


SCALARS = (st.text() | st.integers()
           | st.integers(10 ** 600, 10 ** 1200).flatmap(
               lambda n: st.sampled_from([n, -n]))
           | st.floats(allow_nan=True, allow_infinity=True)
           | st.booleans() | st.none() | st.sampled_from(Hue))
TREES = st.recursive(SCALARS, lambda inner: (
    st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=4)
    | st.dictionaries(st.integers(), inner, max_size=3)
    | st.dictionaries(st.text() | st.integers(), inner, max_size=2)),
    max_leaves=25)


class TestDumps:
    """``dumps`` writes exactly the bytes of ``json_dumps``."""

    @settings(derandomize=True, max_examples=300, deadline=None,
              database=None)
    @given(TREES)
    def test_same_bytes_as_json(self, x):
        assert outcome(dumps, x) == outcome(json_dumps, x)

    def test_edge_values(self):
        for x in [{}, [], (), "", "\u00e9\x00\n\"\\\ud800", 10 ** 1000,
                  -(10 ** 1000), float("nan"), float("-inf"), -0.0, Hue.BLUE,
                  True, None, [[], {}, [[]]], {"a": {}, "b": [()]},
                  {"k": [1, True, 2]}, [1.5, "x", None], {2: [{"a": 1}]},
                  {"x": {1: {"y": [1, 2.5]}}}]:
            assert dumps(x) == json_dumps(x), x

    def test_kummer_30x30_build_document(self, tmp_path):
        out = tmp_path / "k.json"
        assert main(["build", "kummer", "--m1", "30", "--m2", "30",
                     "-o", str(out)]) == 0
        text = out.read_text()
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "38a858633c95d9a2e618740023ad6b09b17ee40d06af9c4584fcaf7fba882583"
        doc = json.loads(text)
        assert dumps(doc) == json_dumps(doc) == text

    def test_mixed_verify_all_report(self, tmp_path):
        d = tmp_path / "fibers"
        d.mkdir()
        for name, args in [("a", ["type2", "--m", "3"]),
                           ("b", ["type3", "--triangulation", "octahedron"]),
                           ("c", ["kummer", "--m1", "4", "--m2", "6"])]:
            assert main(["build", *args, "-o", str(d / (name + ".json"))]) == 0
        report = tmp_path / "all.json"
        assert main(["verify", "--all", str(d), "--report",
                     str(report)]) == 0
        text = report.read_text()
        doc = json.loads(text)
        assert [r["fiber_label"] for r in doc] == \
            ["type2_m3", "type3_f8", "kummer_4x6"]
        assert dumps(doc) == json_dumps(doc) == text

    def test_deep_nesting_goes_to_json(self):
        deep = 1
        for _ in range(600):
            deep = [deep]
        assert dumps(deep) == json_dumps(deep)

    def test_cycle_raises_as_json_does(self):
        loop = [1]
        loop.append(loop)
        with pytest.raises(ValueError, match="^Circular reference detected$"):
            dumps(loop)
