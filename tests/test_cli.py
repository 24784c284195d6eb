import json
from pathlib import Path

import pytest

from k3motive.cli import main
from k3motive.serialize import dumps, fiber_to_json, motive_to_json
from k3motive.builders import build_type3
from k3motive.fibers import Component, DegenerationFiber, Rational

from test_serialize import schema_validator


def run(args):
    return main(args)


def write(path, doc):
    Path(path).write_text(dumps(doc), encoding="utf-8")


class TestBuildVerifyRoundtrip:
    def test_type3_octahedron(self, tmp_path, capsys):
        out = tmp_path / "f.json"
        report = tmp_path / "r.json"
        assert run(["build", "type3", "--triangulation", "octahedron",
                    "-o", str(out)]) == 0
        assert run(["verify", str(out), "--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        schema_validator("verify_report.schema.json").validate(doc)
        assert doc["match"] is True
        assert doc["s"] == 3 and doc["r"] == 8
        assert doc["chi"] == 24
        assert doc["serre_ok"] is True
        assert doc["neron_match"] is True

    def test_type2_chain(self, tmp_path):
        out = tmp_path / "f.json"
        report = tmp_path / "r.json"
        assert run(["build", "type2", "--m", "4", "--a-profile",
                    "5,2,3,4,6", "-o", str(out)]) == 0
        assert run(["verify", str(out), "--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["s"] == 2 and doc["r"] == 16

    def test_kummer(self, tmp_path):
        out = tmp_path / "f.json"
        report = tmp_path / "r.json"
        assert run(["build", "kummer", "--m1", "2", "--m2", "4",
                    "-o", str(out)]) == 0
        built = json.loads(out.read_text())
        assert built["kummer"]["census"] == {"generic": 2, "special": 4}
        assert run(["verify", str(out), "--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        schema_validator("verify_report.schema.json").validate(doc)
        assert doc["match"] is True and doc["r"] == 8

    def test_deterministic_outputs(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        ra, rb = tmp_path / "ra.json", tmp_path / "rb.json"
        aa, ab = tmp_path / "aa.json", tmp_path / "ab.json"
        for out, rep, ana in ((a, ra, aa), (b, rb, ab)):
            assert run(["build", "type3", "--triangulation", "icosahedron",
                        "-o", str(out)]) == 0
            assert run(["analyze", str(out), "--report", str(ana)]) == 0
            assert run(["verify", str(out), "--report", str(rep)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert aa.read_bytes() == ab.read_bytes()
        assert ra.read_bytes() == rb.read_bytes()

    def test_triangulation_from_file(self, tmp_path):
        from k3motive.builders import octahedron
        from k3motive.serialize import delta_to_json
        tri_path = tmp_path / "tri.json"
        write(tri_path, delta_to_json(octahedron()))
        out = tmp_path / "f.json"
        report = tmp_path / "r.json"
        assert run(["build", "type3", "--triangulation",
                    "file:" + str(tri_path), "-o", str(out)]) == 0
        assert run(["verify", str(out), "--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["r"] == 8 and doc["match"] is True

    def test_closed_form_at_e(self, tmp_path):
        out = tmp_path / "f.json"
        report = tmp_path / "r.json"
        assert run(["build", "type3", "--triangulation", "tetrahedron",
                    "-o", str(out)]) == 0
        assert run(["verify", str(out), "--e", "2", "--report",
                    str(report)]) == 0
        doc = json.loads(report.read_text())
        assert "closed_form_at_e" in doc
        # e = 2, r2 = 4: coefficients (10, 4, 10)
        from k3motive.serialize import motive_from_json
        from k3motive.motives import MotiveClass, POINT
        scaled = motive_from_json(doc["closed_form_at_e"])
        assert scaled.coefficient(POINT, 0) == 10
        assert scaled.coefficient(POINT, 1) == 4


class TestAnalyze:
    def test_valid_fiber(self, tmp_path):
        out = tmp_path / "f.json"
        report = tmp_path / "a.json"
        run(["build", "type2", "--m", "2", "-o", str(out)])
        assert run(["analyze", str(out), "--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        schema_validator("analyze_report.schema.json").validate(doc)
        assert doc["valid"] is True
        assert doc["polytope"]["shape"] == "interval"
        assert doc["type_s"] == 2
        assert doc["chi"] == 24

    def test_broken_fiber_exit1(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        write(bad, {"label": "broken",
                    "components": [{"id": 0, "kind": "rational", "a": 1}],
                    "double_curves": [{"id": "c", "on": [0, 0], "genus": 0}],
                    "triple_points": []})
        assert run(["analyze", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "self-intersecting" in err

    def test_analyze_report_schema_on_invalid(self, tmp_path):
        bad = tmp_path / "broken.json"
        report = tmp_path / "r.json"
        write(bad, {"label": "broken",
                    "components": [{"id": 0, "kind": "rational", "a": 1}],
                    "double_curves": [{"id": "c", "on": [0, 0], "genus": 0}],
                    "triple_points": []})
        assert run(["analyze", str(bad), "--report", str(report)]) == 1
        doc = json.loads(report.read_text())
        schema_validator("analyze_report.schema.json").validate(doc)
        assert doc["valid"] is False


class TestSnf:
    def test_diag_2_3(self, tmp_path, capsys):
        m = tmp_path / "m.json"
        write(m, {"rows": 2, "cols": 2, "entries": ["2", "0", "0", "3"]})
        assert run(["snf", str(m)]) == 0
        out = capsys.readouterr().out
        assert "diagonal: 1 6" in out

    def test_report_contains_transforms(self, tmp_path):
        m = tmp_path / "m.json"
        r = tmp_path / "r.json"
        write(m, {"rows": 1, "cols": 2, "entries": ["4", "6"]})
        assert run(["snf", str(m), "--report", str(r)]) == 0
        doc = json.loads(r.read_text())
        assert doc["diagonal"] == ["2"]
        assert set(doc) == {"U", "S", "V", "diagonal"}

    def test_malformed_matrix_exit2(self, tmp_path):
        m = tmp_path / "m.json"
        write(m, {"rows": 2, "cols": 2, "entries": ["1"]})
        assert run(["snf", str(m)]) == 2

    def test_missing_file_exit2(self, tmp_path):
        assert run(["snf", str(tmp_path / "nope.json")]) == 2


class TestVerifyFailures:
    def test_mismatched_expectations_exit1(self, tmp_path):
        out = tmp_path / "f.json"
        run(["build", "type3", "--triangulation", "tetrahedron",
             "-o", str(out)])
        doc = json.loads(out.read_text())
        doc["expectations"]["closed_form"] = motive_to_json(
            __import__("k3motive").MotiveClass.one())
        write(out, doc)
        assert run(["verify", str(out)]) == 1

    def test_corrupted_profile_exit1(self, tmp_path):
        f = build_type3("tetrahedron")
        comps = [Component(c.id, Rational(c.kind.a + (1 if c.id == 0 else 0)))
                 for c in f.components]
        bad = DegenerationFiber.of("bad", comps, f.double_curves,
                                   f.triple_points)
        path = tmp_path / "bad.json"
        write(path, fiber_to_json(bad))
        assert run(["verify", str(path)]) == 1

    def test_invalid_json_exit2(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json", encoding="utf-8")
        assert run(["verify", str(path)]) == 2

    @pytest.mark.parametrize("command", ["verify", "analyze"])
    @pytest.mark.parametrize("doc", [[1, 2], {"fiber": 5}])
    def test_non_object_document_exit2(self, tmp_path, capsys, command, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad fiber document")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["verify", "analyze"])
    def test_unhashable_id_exit2(self, tmp_path, capsys, command):
        path = tmp_path / "bad.json"
        write(path, {"components": [{"id": [1], "kind": "k3"}]})
        assert run([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad fiber document")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("corrupt, block", [
        (lambda doc: doc.update(neron=5), "neron"),
        (lambda doc: doc.update(expectations=5), "expectations"),
        (lambda doc: doc["expectations"]["closed_form"][0].pop(
            "lefschetz_power"), "expectations"),
    ], ids=["neron-not-a-list", "expectations-not-an-object",
            "closed-form-without-power"])
    def test_malformed_block_exit2(self, tmp_path, capsys, corrupt, block):
        path = tmp_path / "f.json"
        run(["build", "type3", "--triangulation", "tetrahedron",
             "-o", str(path)])
        doc = json.loads(path.read_text())
        corrupt(doc)
        write(path, doc)
        capsys.readouterr()
        assert run(["verify", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad %s block" % block)
        assert err.count("\n") == 1

    def test_non_kulikov_without_neron_exit2(self, tmp_path):
        path = tmp_path / "pair.json"
        write(path, {"label": "pair",
                     "components": [{"id": 0, "kind": "k3"},
                                    {"id": 1, "kind": "k3"}],
                     "double_curves": [], "triple_points": []})
        assert run(["verify", str(path)]) == 2


class TestVerifyAll:
    def test_directory(self, tmp_path, capsys):
        d = tmp_path / "fibers"
        d.mkdir()
        run(["build", "type3", "--triangulation", "tetrahedron",
             "-o", str(d / "a_tetra.json")])
        run(["build", "type2", "--m", "2", "-o", str(d / "b_chain.json")])
        report = tmp_path / "all.json"
        assert run(["verify", "--all", str(d), "--report",
                    str(report)]) == 0
        docs = json.loads(report.read_text())
        assert len(docs) == 2
        assert [d_["fiber_label"] for d_ in docs] == \
            ["type3_f4", "type2_m2"]
