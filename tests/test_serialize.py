import json
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from k3motive.builders import build_kummer, build_type2_chain, build_type3, \
    KummerParams, octahedron
from k3motive.fibers import component_class, K3Smooth, open_component_classes
from k3motive.intlinalg import IntMatrix, smith_normal_form
from k3motive.motives import EllipticCurveAtom, MotiveClass
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

    def test_opaque_roundtrip(self):
        cls = component_class(K3Smooth())
        doc = motive_to_json(cls)
        back = motive_from_json(doc)
        assert back == cls
        assert back.euler_characteristic() == 24


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


class TestNeronJson:
    def test_roundtrip(self):
        f = build_type3("octahedron")
        data = WeakNeronData.of((c, 1) for c in open_component_classes(f))
        doc = neron_to_json(data)
        assert neron_from_json(doc) == data
