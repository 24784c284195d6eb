import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from k3motive.cli import main
from k3motive.intlinalg import IntMatrix
from k3motive.serialize import (
    dumps,
    fiber_to_json,
    matrix_from_json,
    matrix_to_json,
    motive_to_json,
)
from k3motive.builders import build_type3
from k3motive.fibers import Component, DegenerationFiber, K3Smooth, Rational

from test_serialize import schema_validator


MISSING = object()  # a key to delete from a document

# decoder refusals of fiber documents that fiber.schema.json accepts
SCHEMA_LAXER = {"betti entry 2.0 is not an integer"}

# a class term whose opaque atom declares no E-polynomial
OPAQUE = {"atom": "opaque:X", "lefschetz_power": 0, "coeff": "1"}


def run(args):
    return main(args)


def write(path, doc):
    Path(path).write_text(dumps(doc), encoding="utf-8")


def test_cli_loads_no_rational_arithmetic():
    # the library is integer-only: no Fraction or Decimal module behind it
    src = str(Path(__import__("k3motive").__file__).parents[1])
    code = ("import sys, k3motive.cli; "
            "print(sorted({'fractions', 'decimal'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out == "[]\n"


@pytest.mark.parametrize("module", ["dataclasses", "inspect"])
def test_cli_loads_no_introspection(module):
    # records are plain tuples: starting the CLI compiles no dataclass and
    # imports none of inspect's dependencies (ast, dis, tokenize)
    src = str(Path(__import__("k3motive").__file__).parents[1])
    code = ("import sys; bare = %r in sys.modules; import k3motive.cli; "
            "print(bare, %r in sys.modules)" % (module, module))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    if out.startswith("True"):
        pytest.skip("the bare interpreter already loads %s" % module)
    assert out == "False False\n"


def test_cli_raises_no_warning(tmp_path):
    # r2 = 64 for the Kummer 8 x 8 document and e^2 r2 = 80 for the
    # icosahedron at e = 2: no bound on e^2 r2 holds, so nothing warns even
    # when every warning is an error
    src = str(Path(__import__("k3motive").__file__).parents[1])
    kummer, ico = tmp_path / "k.json", tmp_path / "i.json"
    for argv in (["build", "kummer", "--m1", "8", "--m2", "8", "-o", kummer],
                 ["verify", "--e", "3", kummer],
                 ["build", "type3", "--triangulation", "icosahedron",
                  "-o", ico],
                 ["verify", "--e", "2", ico]):
        out = subprocess.run(
            [sys.executable, "-W", "error", "-m", "k3motive", *map(str, argv)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src})
        assert (out.returncode, out.stderr) == (0, ""), argv


@pytest.mark.parametrize("entry", [
    ["-m", "k3motive"],
    ["-c", "from k3motive.__main__ import run; run()"],
], ids=["module", "console-script"])
def test_closed_stdout_exits2_without_traceback(tmp_path, entry):
    # the process entry points writing to a pipe nobody reads: an I/O
    # failure (exit 2), not a mismatch (exit 1), and no traceback on stderr
    src = str(Path(__import__("k3motive").__file__).parents[1])
    # stdout buffered, as by default: the write fails only at the flush
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    for name in ("tetrahedron", "octahedron", "icosahedron"):
        assert run(["build", "type3", "--triangulation", name,
                    "-o", str(tmp_path / (name + ".json"))]) == 0
    # --help leaves main through argparse's SystemExit, not a return
    for argv in (["verify", "--all", str(tmp_path)], ["--help"]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            out = subprocess.run(
                [sys.executable, *entry, *argv],
                stdout=write_end, stderr=subprocess.PIPE,
                text=True, env={**env, "PYTHONPATH": src})
        finally:
            os.close(write_end)
        assert (out.returncode, out.stderr) == (2, ""), argv


class TestRepeatedMain:
    """``main`` called many times in one process: each call is independent
    of the calls before it."""

    def test_default_e_after_explicit_e(self, tmp_path):
        doc, r3, r1 = (tmp_path / n for n in ("f.json", "r3.json", "r1.json"))
        assert run(["build", "type3", "--triangulation", "octahedron",
                    "-o", str(doc)]) == 0
        assert run(["verify", "--e", "3", str(doc), "--report",
                    str(r3)]) == 0
        assert run(["verify", str(doc), "--report", str(r1)]) == 0
        assert json.loads(r3.read_text())["e"] == 3
        report = json.loads(r1.read_text())
        assert report["e"] == 1 and "closed_form_at_e" not in report

    def test_in_process_builds_match_a_subprocess(self, tmp_path):
        src = str(Path(__import__("k3motive").__file__).parents[1])
        a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
        argv = ["build", "type3", "--triangulation", "icosahedron", "-o"]
        assert run(argv + [str(a)]) == 0
        assert run(argv + [str(b)]) == 0
        subprocess.run([sys.executable, "-m", "k3motive", *argv, str(c)],
                       check=True, capture_output=True,
                       env={**os.environ, "PYTHONPATH": src})
        assert a.read_bytes() == b.read_bytes() == c.read_bytes()

    def test_valid_call_after_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--e", "x"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith(
            "error: argument --e: invalid int value: 'x'\n"), err
        doc = tmp_path / "f.json"
        assert run(["build", "type3", "--triangulation", "tetrahedron",
                    "-o", str(doc)]) == 0
        assert run(["verify", str(doc)]) == 0

    def test_help_twice(self, capsys):
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["--help"])
            assert exc.value.code == 0
            texts.append(capsys.readouterr())
        assert texts[0] == texts[1]
        assert texts[0].out.startswith("usage: k3motive ") and \
            texts[0].err == ""


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

    @pytest.mark.parametrize("tri", [[1, 2], {"dims": [3], "boundary": 5}],
                             ids=["list", "int-boundary"])
    def test_malformed_triangulation_file_exit2(self, tmp_path, capsys,
                                                tri):
        tri_path = tmp_path / "tri.json"
        write(tri_path, tri)
        assert run(["build", "type3", "--triangulation",
                    "file:" + str(tri_path), "-o",
                    str(tmp_path / "f.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad triangulation: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("change, why", [
        ({"dims": [4.9, "6", True]}, "dims entry 4.9 is not an integer"),
        ({"dims": "4"}, "dims '4' is not an array"),
        ({"dims": [-4, 6, 4]}, "dims [-4, 6, 4] disagree"),
        ({"dims": []}, "dims [] disagree"),
        ({"boundary": [[[1, 0.5]]]}, "face list entry 0.5 is not an integer"),
        ({"boundary": [None]}, "boundary level None is not an array"),
        ({"dims": None}, "dims None is not an array"),
        ({"dims": MISSING}, "missing required keys: dims"),
        ({"extra": 1}, "unexpected keys: extra"),
    ], ids=["mixed-dims", "string-dims", "negative-count", "empty-dims",
            "float-face", "null-level", "null-dims", "missing-dims",
            "extra-key"])
    def test_delta_set_follows_schema(self, tmp_path, capsys, change, why):
        # jsonschema refuses each document too
        from k3motive.builders import tetrahedron
        from k3motive.serialize import delta_to_json
        doc = delta_to_json(tetrahedron())
        judge = schema_validator("delta_set.schema.json")
        assert judge.is_valid(doc)
        for key, value in change.items():
            if value is MISSING:
                del doc[key]
            else:
                doc[key] = value
        assert not judge.is_valid(doc)
        tri_path = tmp_path / "tri.json"
        write(tri_path, doc)
        assert run(["build", "type3", "--triangulation",
                    "file:" + str(tri_path), "-o",
                    str(tmp_path / "f.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad triangulation: " + why)
        assert err.count("\n") == 1

    @pytest.mark.parametrize("dims", [[4, 5, 4], [4, 6, 4, 1], [4, 6]],
                             ids=["short-level", "extra-count",
                                  "missing-count"])
    def test_delta_set_dims_match_levels(self, tmp_path, capsys, dims):
        # the schema cannot tie dims to the level lengths (its description
        # says so); the decoder refuses the disagreement
        from k3motive.builders import tetrahedron
        from k3motive.serialize import delta_to_json
        doc = dict(delta_to_json(tetrahedron()), dims=dims)
        assert schema_validator("delta_set.schema.json").is_valid(doc)
        tri_path = tmp_path / "tri.json"
        write(tri_path, doc)
        assert run(["build", "type3", "--triangulation",
                    "file:" + str(tri_path), "-o",
                    str(tmp_path / "f.json")]) == 2
        err = capsys.readouterr().err
        assert err == ("error: bad triangulation: dims %r disagree with the "
                       "boundary levels, of lengths [6, 4]\n" % (dims,))

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

    def test_counts_build_no_records(self, tmp_path, monkeypatch, capsys):
        # analyze reads the counts off the polytope, padded where a chain or
        # a lone component drops its empty levels, and build kummer counts
        # its components off the columns: neither builds a record tuple
        from k3motive import cli
        from k3motive.builders import build_type1_smooth

        fibers = []  # the built Kummer fiber, then each analyzed fiber

        def load(path, _load=cli._load_fiber):
            doc, fiber = _load(path)
            fibers.append(fiber)
            return doc, fiber

        def kummer(p, _build=cli.build_kummer):
            report = _build(p)
            fibers.append(report.fiber)
            return report

        monkeypatch.setattr(cli, "_load_fiber", load)
        monkeypatch.setattr(cli, "build_kummer", kummer)
        write(tmp_path / "type1.json", fiber_to_json(build_type1_smooth()))
        builds = {"type2": ["type2", "--m", "3"],
                  "type3": ["type3", "--triangulation", "icosahedron"],
                  "kummer": ["kummer", "--m1", "4", "--m2", "6"]}
        for name, args in builds.items():
            assert run(["build", *args, "-o",
                        str(tmp_path / (name + ".json"))]) == 0
        assert "(kummer, 14 components)" in capsys.readouterr().out
        counts = {}
        for name in ("type1", *builds):
            report = tmp_path / (name + ".report.json")
            assert run(["analyze", str(tmp_path / (name + ".json")),
                        "--report", str(report)]) == 0
            counts[name] = json.loads(report.read_text())["counts"]
        assert not any(vars(f).keys() & {"components", "double_curves",
                                         "triple_points"} for f in fibers)
        assert counts == {
            name: {field: len(getattr(f, field)) for field in
                   ("components", "double_curves", "triple_points")}
            for name, f in zip(("type1", *builds), fibers[1:])}
        assert [c["triple_points"] for c in counts.values()] == [0, 0, 20, 24]

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

    def test_entry_of_5000_digits(self, tmp_path, capsys):
        # more digits than Python's int() and str() convert by default
        doc = {"rows": 1, "cols": 1, "entries": ["7" * 5000]}
        schema_validator("matrix.schema.json").validate(doc)
        m = tmp_path / "m.json"
        r = tmp_path / "r.json"
        write(m, doc)
        assert run(["snf", str(m), "--report", str(r)]) == 0
        assert capsys.readouterr().out == "diagonal: %s\n" % ("7" * 5000)
        report = json.loads(r.read_text())
        assert report["S"] == doc
        assert matrix_from_json(report["S"]) == matrix_from_json(doc)
        assert report["diagonal"] == doc["entries"]
        assert report["U"] == report["V"] == {"rows": 1, "cols": 1,
                                              "entries": ["1"]}

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

    def test_neron_mismatch_exit1(self, tmp_path, capsys):
        # the Kulikov route matches its closed form; only the weak Neron
        # sum, one item short, disagrees, and stderr names that check
        out = tmp_path / "f.json"
        report = tmp_path / "r.json"
        run(["build", "type3", "--triangulation", "octahedron",
             "-o", str(out)])
        doc = json.loads(out.read_text())
        doc["neron"].pop()
        write(out, doc)
        capsys.readouterr()
        assert run(["verify", str(out), "--report", str(report)]) == 1
        rep = json.loads(report.read_text())
        assert rep["match"] is True and rep["neron_match"] is False
        assert capsys.readouterr().err == "  failed check: neron_match\n"

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
        write(path, {"label": "bad", "components": [{"id": [1], "kind": "k3"}],
                     "double_curves": [], "triple_points": []})
        assert run([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad fiber document")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["verify", "analyze"])
    def test_matrix_document_exit2(self, tmp_path, capsys, command):
        # a matrix is no fiber: the four fiber keys are required, not
        # defaulted to an empty fiber of chi 0
        path = tmp_path / "matrix.json"
        write(path, matrix_to_json(IntMatrix.from_flat(
            7, 9, [(3 * k) % 11 - 5 for k in range(63)])))
        assert run([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad fiber document: missing required "
                              "keys: label, components, double_curves, "
                              "triple_points")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("doc, why", [
        ({"rows": 1, "cols": 1, "entries": [1.5]}, "entry 1.5 is not"),
        ({"rows": 1, "cols": 1, "entries": [True]}, "entry True is not"),
        ({"rows": 1, "cols": 1, "entries": [3]}, "entry 3 is not"),
        ({"rows": 1, "cols": 1, "entries": ["1_000"]}, "entry '1_000'"),
        ({"rows": 1, "cols": 1, "entries": [" 3"]}, "entry ' 3'"),
        ({"rows": 1, "cols": 1, "entries": ["3\n"]}, "entry '3\\n'"),
        ({"rows": 1, "cols": 1, "entries": "7"}, "entries '7' is not"),
        ({"rows": -1, "cols": 2, "entries": ["1", "2"]}, "shape -1 x 2"),
        ({"rows": 1.0, "cols": 1, "entries": ["1"]}, "rows 1.0 is not"),
        ({"rows": True, "cols": 1, "entries": ["1"]}, "rows True is not"),
        ({"rows": 1, "cols": "1", "entries": ["1"]}, "cols '1' is not"),
        ({"rows": 1, "cols": 1, "entries": ["4"], "rank": 7},
         "unexpected keys: rank"),
    ], ids=["float-entry", "bool-entry", "int-entry", "underscore-entry",
            "space-entry", "newline-entry", "entries-a-string",
            "negative-rows", "float-rows", "bool-rows", "string-cols",
            "extra-key"])
    def test_malformed_matrix_fields_exit2(self, tmp_path, capsys, doc, why):
        # matrix documents follow docs/schemas/matrix.schema.json: nothing
        # is truncated or coerced by int().  The schema rejects each of
        # them but 1.0, which JSON Schema reads as the integer 1
        assert schema_validator("matrix.schema.json").is_valid(doc) \
            is isinstance(doc["rows"], float)
        path = tmp_path / "m.json"
        write(path, doc)
        assert run(["snf", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad matrix document: " + why)
        assert err.count("\n") == 1

    @pytest.mark.parametrize("key", ["rows", "cols", "entries"])
    def test_matrix_missing_key_exit2(self, tmp_path, capsys, key):
        # a missing key is named, not shown as a bare KeyError repr
        doc = {"rows": 1, "cols": 1, "entries": ["1"]}
        del doc[key]
        path = tmp_path / "m.json"
        write(path, doc)
        assert run(["snf", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: bad matrix document: missing required keys: %s\n" % key)

    @pytest.mark.parametrize("corrupt, message", [
        (lambda doc: doc.update(neron=5),
         "neron block: neron 5 is not an array"),
        (lambda doc: doc.update(expectations=5), "expectations block"),
        (lambda doc: doc["expectations"]["closed_form"][0].pop(
            "lefschetz_power"), "expectations block"),
        (lambda doc: doc.update(neron="ab"),
         "neron block: neron 'ab' is not an array"),
        (lambda doc: doc.update(neron={"class": []}),
         "neron block: neron {'class': []} is not an array"),
    ], ids=["neron-not-a-list", "expectations-not-an-object",
            "closed-form-without-power", "neron-string", "neron-object"])
    def test_malformed_block_exit2(self, tmp_path, capsys, corrupt, message):
        path = tmp_path / "f.json"
        run(["build", "type3", "--triangulation", "tetrahedron",
             "-o", str(path)])
        doc = json.loads(path.read_text())
        corrupt(doc)
        write(path, doc)
        capsys.readouterr()
        assert run(["verify", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad %s" % message)
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["verify", "analyze"])
    @pytest.mark.parametrize("corrupt, message", [
        (lambda doc: [d.update(curve=5) for d in doc["double_curves"]],
         "curve name 5 is not a string"),
        (lambda doc: [c.update(curve=5) for c in doc["components"]
                      if c["kind"] == "ruled_elliptic"],
         "curve name 5 is not a string"),
        (lambda doc: doc["double_curves"][0].update(on="01"),
         "on '01' is not an array"),
        (lambda doc: doc["components"][0].update(a=2.5),
         "a 2.5 is not an integer"),
        (lambda doc: doc["components"][0].update(a="3"),
         "a '3' is not an integer"),
        (lambda doc: doc["double_curves"][0].update(genus=True),
         "genus True is not an integer"),
        (lambda doc: doc["components"][0].update(
            {"kind": "other", "class": [], "betti": [1, 0, 2.0]}),
         "betti entry 2.0 is not an integer"),
        (lambda doc: doc["double_curves"][0].update(
            self_intersections=[[1], 2]),
         "self_intersections entry [1] is not an integer"),
        (lambda doc: doc["components"][0].pop("kind"),
         "missing required keys: kind"),
        (lambda doc: doc["components"][0].pop("a"),
         "missing required keys: a"),
        (lambda doc: doc["components"][1].pop("curve"),
         "missing required keys: curve"),
        (lambda doc: doc["components"][0].update(
            {"kind": "other", "betti": [1, 0, 2]}),
         "missing required keys: class"),
        (lambda doc: doc["double_curves"][0].pop("genus"),
         "missing required keys: genus"),
        (lambda doc: doc["double_curves"][0].pop("on"),
         "missing required keys: on"),
        (lambda doc: doc["triple_points"].append({"id": "t0"}),
         "missing required keys: on"),
        (lambda doc: doc["components"].__setitem__(0, 5),
         "document 5 is not an object"),
        (lambda doc: doc.update(label=5), "label 5 is not a string"),
        (lambda doc: doc.update(label=None), "label None is not a string"),
        (lambda doc: doc.update(components=5), "components 5 is not an array"),
        (lambda doc: doc.update(components="ab"),
         "components 'ab' is not an array"),
        (lambda doc: doc.update(double_curves={}),
         "double_curves {} is not an array"),
        (lambda doc: doc.update(triple_points=5),
         "triple_points 5 is not an array"),
        (lambda doc: doc["components"][0].update(colour="red"),
         "unexpected keys: colour"),
        (lambda doc: doc["double_curves"][0].update(colour="red"),
         "unexpected keys: colour"),
        (lambda doc: doc["triple_points"].append(
            {"id": "t0", "on": [0, 1, 2], "genus": 0}),
         "unexpected keys: genus"),
        (lambda doc: doc["double_curves"][0].update(
            self_intersections=[1, 2, 3]),
         "self_intersections [1, 2, 3] does not have 2 entries"),
        (lambda doc: doc["components"][0].update(
            {"kind": "other", "class": [], "betti": [1, 0]}),
         "betti [1, 0] does not have 3 entries"),
        (lambda doc: doc["components"][0].update(
            {"kind": "other", "class": [dict(OPAQUE, e_polynomial=[[0, 0]])]}),
         "e_polynomial entry [0, 0] does not have 3 entries"),
        (lambda doc: doc["components"][0].update(
            {"kind": "other", "class": [dict(OPAQUE, e_polynomial=["001"])]}),
         "e_polynomial entry '001' is not an array"),
    ], ids=["double-curve-name", "component-curve-name", "on-string",
            "a-float", "a-string", "genus-bool", "betti-float",
            "self-intersections-nested", "component-without-kind",
            "rational-without-a", "ruled-without-curve",
            "other-without-class", "double-curve-without-genus",
            "double-curve-without-on", "triple-point-without-on",
            "component-not-an-object", "label-int", "label-null",
            "components-int", "components-string", "double-curves-object",
            "triple-points-int", "component-extra-key",
            "double-curve-extra-key", "triple-point-extra-key",
            "self-intersections-three", "betti-two", "epoly-entry-two",
            "epoly-entry-string"])
    def test_fiber_field_types_exit2(self, tmp_path, capsys, command,
                                     corrupt, message):
        path = tmp_path / "f.json"
        run(["build", "type2", "--m", "3", "-o", str(path)])
        doc = json.loads(path.read_text())
        corrupt(doc["fiber"])
        # the schema refuses the fiber too, but where it is laxer than the
        # decoder: draft 7 counts 2.0 as an integer
        assert schema_validator("fiber.schema.json").is_valid(
            doc["fiber"]) is (message in SCHEMA_LAXER)
        write(path, doc)
        capsys.readouterr()
        assert run([command, str(path), "--report",
                    str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err == "error: bad fiber document: %s\n" % message
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("corrupt, violation", [
        (lambda doc: doc["double_curves"][0].update(genus=2), "genus"),
        (lambda doc: doc["components"][0].update(a=-1), "negative a"),
    ], ids=["genus-2", "negative-a"])
    def test_integer_out_of_range_exit1(self, tmp_path, capsys, corrupt,
                                        violation):
        # integers of the right type reach validate, which checks ranges
        path = tmp_path / "f.json"
        run(["build", "type2", "--m", "3", "-o", str(path)])
        doc = json.loads(path.read_text())
        corrupt(doc["fiber"])
        write(path, doc)
        capsys.readouterr()
        assert run(["verify", str(path)]) == 1
        assert violation in capsys.readouterr().err

    @pytest.mark.parametrize("command, fiber", [
        ("verify", "single"), ("analyze", "single"), ("analyze", "chain-end"),
    ])
    def test_opaque_atom_without_e_polynomial_exit2(self, tmp_path, capsys,
                                                     command, fiber):
        # a schema-valid class whose E-polynomial is asked for: one line,
        # no traceback and no report
        path, report = tmp_path / "f.json", tmp_path / "r.json"
        other = {"kind": "other", "class": [OPAQUE]}
        if fiber == "single":
            doc = {"label": "x", "components": [dict(other, id=0)],
                   "double_curves": [], "triple_points": []}
        else:  # a type II chain whose first end is the opaque component
            run(["build", "type2", "--m", "3", "-o", str(path)])
            doc = json.loads(path.read_text())["fiber"]
            comp = doc["components"][0]
            comp.pop("a")
            comp.update(other)
        assert schema_validator("fiber.schema.json").is_valid(doc)
        write(path, doc)
        capsys.readouterr()
        assert run([command, str(path), "--report", str(report)]) == 2
        assert capsys.readouterr().err == \
            "error: opaque atom 'X' has no declared E-polynomial\n"
        assert not report.exists()

    def test_opaque_atom_does_not_stop_the_batch(self, tmp_path, capsys):
        write(tmp_path / "a.json", {
            "label": "x", "components": [{"id": 0, "kind": "other",
                                          "class": [OPAQUE]}],
            "double_curves": [], "triple_points": []})
        run(["build", "type3", "--triangulation", "tetrahedron",
             "-o", str(tmp_path / "b.json")])
        capsys.readouterr()
        assert run(["verify", "--all", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert err == "error: %s: opaque atom 'X' has no declared " \
            "E-polynomial\n" % (tmp_path / "a.json")
        assert out.startswith("%s: s=3 r=4 match=True" % (tmp_path / "b.json"))

    def test_non_kulikov_without_neron_exit2(self, tmp_path):
        path = tmp_path / "pair.json"
        write(path, {"label": "pair",
                     "components": [{"id": 0, "kind": "k3"},
                                    {"id": 1, "kind": "k3"}],
                     "double_curves": [], "triple_points": []})
        assert run(["verify", str(path)]) == 2


    @pytest.mark.parametrize("block, path", [
        ("neron", ("neron", 0, "class")),
        ("expectations", ("expectations", "closed_form")),
    ], ids=["neron", "closed-form"])
    @pytest.mark.parametrize("corrupt, why", [
        (lambda c: c[0].update(lefschetz_power=1.7),
         "lefschetz_power 1.7 is not an integer"),
        (lambda c: c[0].update(lefschetz_power=True),
         "lefschetz_power True is not an integer"),
        (lambda c: c[0].update(lefschetz_power="1"),
         "lefschetz_power '1' is not an integer"),
        (lambda c: c[0].update(coeff="1_0"),
         "coeff '1_0' is not a decimal string"),
        (lambda c: c[0].update(coeff=" 1"),
         "coeff ' 1' is not a decimal string"),
        (lambda c: c[0].update(coeff=1), "coeff 1 is not a decimal string"),
        (lambda c: c[0].update(power=1), "unexpected term keys: power"),
        (lambda c: c[0].update(atom="elliptic:"),
         "unknown atom tag 'elliptic:'"),
        (lambda c: c[0].update(atom=5), "unknown atom tag 5"),
        (lambda c: c[0].update(atom="opaque:X", e_polynomial=[[0, 0, 1]]),
         "e_polynomial coeff 1 is not a decimal string"),
        (lambda c: c[0].update(atom="opaque:X",
                               e_polynomial=[[0.5, 0, "1"]]),
         "u power 0.5 is not an integer"),
        (lambda c: c[0].update(atom="opaque:X", count_symbol=5),
         "count_symbol 5 is not a string"),
        (lambda c: c.__setitem__(0, "point"),
         "class term 'point' is not an object"),
        (lambda c: {"atom": "point"}, "class {'atom': 'point'} is not an"),
    ], ids=["float-power", "bool-power", "string-power", "underscore-coeff",
            "space-coeff", "int-coeff", "extra-key", "empty-curve-name",
            "int-atom", "int-epoly-coeff", "float-epoly-power",
            "int-count-symbol", "term-a-string", "class-an-object"])
    def test_malformed_class_terms_exit2(self, tmp_path, capsys, block, path,
                                         corrupt, why):
        # class documents follow docs/schemas/motive_class.schema.json:
        # nothing is coerced by int(), and a key it does not list is refused
        file = tmp_path / "f.json"
        run(["build", "type3", "--triangulation", "tetrahedron",
             "-o", str(file)])
        doc = json.loads(file.read_text())
        *outer, last = path
        parent = doc
        for key in outer:
            parent = parent[key]
        judge = schema_validator("motive_class.schema.json")
        assert judge.is_valid(parent[last])
        parent[last] = corrupt(parent[last]) or parent[last]
        assert not judge.is_valid(parent[last])
        write(file, doc)
        capsys.readouterr()
        assert run(["verify", str(file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad %s block: %s" % (block, why))
        assert err.count("\n") == 1

    @pytest.mark.parametrize("multiplicity", [True, 1.5, "1"],
                             ids=["bool", "float", "string"])
    def test_malformed_neron_multiplicity_exit2(self, tmp_path, capsys,
                                                multiplicity):
        # a multiplicity is a JSON integer, as for any integer field
        assert not jsonschema.Draft7Validator(
            {"type": "integer"}).is_valid(multiplicity)
        file = tmp_path / "f.json"
        run(["build", "type3", "--triangulation", "tetrahedron",
             "-o", str(file)])
        doc = json.loads(file.read_text())
        doc["neron"][0]["multiplicity"] = multiplicity
        write(file, doc)
        capsys.readouterr()
        assert run(["verify", str(file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad neron block: multiplicity %r is "
                              "not an integer" % (multiplicity,))
        assert err.count("\n") == 1

    @pytest.mark.parametrize("key", ["class", "multiplicity"])
    def test_neron_entry_missing_key_exit2(self, tmp_path, capsys, key):
        file = tmp_path / "f.json"
        run(["build", "type3", "--triangulation", "tetrahedron",
             "-o", str(file)])
        doc = json.loads(file.read_text())
        del doc["neron"][0][key]
        write(file, doc)
        capsys.readouterr()
        assert run(["verify", str(file)]) == 2
        assert capsys.readouterr().err == (
            "error: bad neron block: missing required keys: %s\n" % key)

    def test_neron_entry_extra_key_exit2(self, tmp_path, capsys):
        file = tmp_path / "f.json"
        run(["build", "type3", "--triangulation", "tetrahedron",
             "-o", str(file)])
        doc = json.loads(file.read_text())
        doc["neron"][0]["colour"] = "red"
        write(file, doc)
        capsys.readouterr()
        assert run(["verify", str(file)]) == 2
        assert capsys.readouterr().err == (
            "error: bad neron block: unexpected keys: colour\n")


class TestBuildArguments:
    @pytest.mark.parametrize("argv", [
        ["type2", "--m", "2"], ["type2"],
        ["type3", "--triangulation", "tetrahedron"], ["type3"],
        ["kummer", "--m1", "64", "--m2", "64"], ["kummer", "--m1", "64"],
    ], ids=["type2", "type2-without-m", "type3",
            "type3-without-triangulation", "kummer", "kummer-without-m2"])
    def test_build_without_out_exit2_before_building(self, monkeypatch,
                                                     capsys, argv):
        # the output path is checked first: nothing is built without one
        def no_build(*args, **kwargs):
            raise AssertionError("built a fiber with nowhere to write it")
        for name in ("build_type2_chain", "build_type3", "build_kummer"):
            monkeypatch.setattr("k3motive.cli." + name, no_build)
        assert run(["build", *argv]) == 2
        assert capsys.readouterr().err == "error: build requires --out\n"


class TestVerifyE:
    @pytest.mark.parametrize("batch", [False, True], ids=["file", "all"])
    @pytest.mark.parametrize("e", ["0", "-3"])
    def test_e_below_one_exit2(self, tmp_path, capsys, e, batch):
        # verify_report.schema.json has e >= 1; a smooth fiber, which has no
        # closed form to evaluate at e, is refused all the same
        d = tmp_path / "fibers"
        d.mkdir()
        write(d / "smooth.json", fiber_to_json(DegenerationFiber.of(
            "smooth", [Component(0, K3Smooth())])))
        report = tmp_path / "r.json"
        target = ["--all", str(d)] if batch else [str(d / "smooth.json")]
        assert run(["verify", *target, "--e", e, "--report",
                    str(report)]) == 2
        assert capsys.readouterr() == (
            "", "error: --e must be at least 1, got %s\n" % e)
        assert not report.exists()


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

    def test_malformed_document_does_not_stop_the_batch(self, tmp_path,
                                                         capsys):
        d = tmp_path / "fibers"
        d.mkdir()
        run(["build", "type2", "--m", "2", "-o", str(d / "a_chain.json")])
        kummer = d / "b_kummer.json"
        run(["build", "kummer", "--m1", "4", "--m2", "6", "-o", str(kummer)])
        doc = json.loads(kummer.read_text())
        doc["expectations"]["s"] = 4
        write(kummer, doc)
        run(["build", "type3", "--triangulation", "octahedron",
             "-o", str(d / "c_octa.json")])
        report = tmp_path / "all.json"
        capsys.readouterr()
        assert run(["verify", "--all", str(d), "--report",
                    str(report)]) == 2
        out, err = capsys.readouterr()
        assert [line.split(": ")[0] for line in out.splitlines()
                if " s=" in line] == [str(d / "a_chain.json"),
                                      str(d / "c_octa.json")]
        assert err.startswith("error: %s: " % kummer)
        assert err.count("\n") == 1
        docs = json.loads(report.read_text())
        assert [d_["fiber_label"] for d_ in docs] == \
            ["type2_m2", "type3_f8"]

    def test_failed_checks_in_order(self, tmp_path, capsys):
        # tetrahedron documents that each fail several checks: every failed
        # check gets its own stderr line, in a fixed order, under the
        # document's summary line
        d = tmp_path / "fibers"
        d.mkdir()
        tetra, chain = tmp_path / "t.json", tmp_path / "c.json"
        run(["build", "type3", "--triangulation", "tetrahedron",
             "-o", str(tetra)])
        run(["build", "type2", "--m", "3", "-o", str(chain)])
        foreign = json.loads(chain.read_text())["expectations"]

        def neron_and_r(doc):
            doc["neron"][0]["multiplicity"] = 1
            doc["expectations"]["r"] = 5

        def profile_plus_one(doc):
            doc["fiber"]["components"][0]["a"] += 1

        for name, corrupt in (
                ("a_neron_r", neron_and_r),
                ("b_foreign", lambda doc: doc.update(expectations=foreign)),
                ("c_self_intersecting",
                 lambda doc: doc["fiber"]["double_curves"][0].update(
                     on=[0, 0])),
                ("d_profile", profile_plus_one)):
            doc = json.loads(tetra.read_text())
            corrupt(doc)
            write(d / (name + ".json"), doc)
        path = {p.stem: str(p) for p in d.iterdir()}
        out_lines = [
            "%s: s=3 r=4 match=True chi=24 serre_ok=True" % path["a_neron_r"],
            "%s: s=3 r=4 match=False chi=24 serre_ok=True" % path["b_foreign"],
            "%s: INVALID (3 violations)" % path["c_self_intersecting"],
            "%s: s=3 r=4 match=False chi=25 serre_ok=False"
            % path["d_profile"]]
        err_lines = [
            "  mismatch: expectations give s = 3, r = 5",
            "  failed check: neron_match",
            "  mismatch: integral differs from the closed form",
            "  mismatch: expectations give s = 2, r = 9",
            "  violation: self-intersecting double curve 0",
            "  violation: triple point 0 curves are not pairwise adjacent "
            "along three components",
            "  violation: triple point 1 curves are not pairwise adjacent "
            "along three components",
            "  mismatch: integral differs from the closed form",
            "  failed check: neron_match",
            "  failed check: chi = 25, not 24",
            "  failed check: serre_ok"]

        def cls(*coeffs):
            return [{"atom": "point", "coeff": str(c), "lefschetz_power": p}
                    for p, c in enumerate(coeffs)]

        def checked(match, chi, serre_ok, neron_match, integral):
            return {"fiber_label": "type3_f4", "e": 1, "s": 3, "r": 4,
                    "integral": integral, "closed_form": cls(4, 16, 4),
                    "match": match, "chi": chi, "serre_ok": serre_ok,
                    "neron_match": neron_match}

        reports = [
            checked(True, 24, True, False, cls(4, 16, 4)),
            checked(False, 24, True, True, cls(4, 16, 4)),
            {"fiber_label": "type3_f4", "match": False,
             "violations": [line[len("  violation: "):]
                            for line in err_lines[4:7]]},
            checked(False, 25, False, False, cls(4, 17, 4))]
        report = tmp_path / "all.json"
        capsys.readouterr()
        assert run(["verify", "--all", str(d), "--report",
                    str(report)]) == 1
        out, err = capsys.readouterr()
        assert out.splitlines() == out_lines
        assert err.splitlines() == err_lines
        assert json.loads(report.read_text()) == reports

        # a malformed document is named on stderr, in its place in the
        # batch, and makes the exit code 2
        doc = json.loads(tetra.read_text())
        doc["neron"] = 5
        write(d / "b_neron_5.json", doc)
        assert run(["verify", "--all", str(d), "--report",
                    str(report)]) == 2
        out, err = capsys.readouterr()
        assert out.splitlines() == out_lines
        err = err.splitlines()
        assert err[:4] + err[5:] == err_lines
        assert err[4].startswith("error: %s: bad neron block: "
                                 % (d / "b_neron_5.json"))
        assert json.loads(report.read_text()) == reports

    @pytest.fixture
    def built(self, tmp_path):
        d = tmp_path / "fibers"
        d.mkdir()
        doc = d / "tetra.json"
        assert run(["build", "type3", "--triangulation", "tetrahedron",
                    "-o", str(doc)]) == 0
        return d, doc

    @pytest.mark.parametrize("order", ["file-first", "all-first"])
    def test_input_file_and_all_exit2(self, tmp_path, capsys, built, order):
        d, doc = built
        argv = [str(doc), "--all", str(d)]
        if order == "all-first":
            argv = argv[1:] + argv[:1]
        report = tmp_path / "r.json"
        capsys.readouterr()
        assert run(["verify", *argv, "--report", str(report)]) == 2
        assert capsys.readouterr() == (
            "", "error: verify takes an input file or --all DIR, not both\n")
        assert not report.exists()

    def test_all_naming_a_file_exit2(self, tmp_path, capsys, built):
        _, doc = built
        report = tmp_path / "r.json"
        capsys.readouterr()
        assert run(["verify", "--all", str(doc), "--report",
                    str(report)]) == 2
        assert capsys.readouterr() == (
            "", "error: --all %s is not a directory\n" % doc)
        assert not report.exists()

    def test_all_naming_no_path_exit2(self, tmp_path, capsys):
        missing = tmp_path / "nowhere"
        report = tmp_path / "r.json"
        assert run(["verify", "--all", str(missing), "--report",
                    str(report)]) == 2
        assert capsys.readouterr() == (
            "", "error: --all %s does not exist\n" % missing)
        assert not report.exists()


class TestCrossCheckFailures:
    @pytest.mark.parametrize("exc", [
        ArithmeticError("monodromy Gram determinant 7 disagrees with the "
                        "triple point count 8"),
        AssertionError("not a cycle"),
    ], ids=["arithmetic", "assertion"])
    def test_exit1_with_one_line(self, tmp_path, capsys, monkeypatch, exc):
        path = tmp_path / "f.json"
        run(["build", "type3", "--triangulation", "tetrahedron",
             "-o", str(path)])
        capsys.readouterr()

        def fail(fiber):
            raise exc

        monkeypatch.setattr("k3motive.cli.verify_fiber", fail)
        assert run(["verify", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == "error: cross-check failed: %s: %s\n" % (
            type(exc).__name__, exc)


@pytest.fixture
def kummer_doc(tmp_path):
    """A built Kummer 4x6 document, a type-III Kulikov fiber with a weak
    Neron block and expectations."""
    path = tmp_path / "kummer.json"
    assert run(["build", "kummer", "--m1", "4", "--m2", "6",
                "-o", str(path)]) == 0
    return path


class TestNeronFallback:
    """The Kummer document's Neron and expectations blocks: a Kulikov fiber
    now, so verify checks the Neron sum against the model's integral."""

    def test_wrong_closed_form_exit1(self, tmp_path, kummer_doc):
        doc = json.loads(kummer_doc.read_text())
        doc["expectations"]["closed_form"] = motive_to_json(
            __import__("k3motive").MotiveClass.one())
        write(kummer_doc, doc)
        report = tmp_path / "r.json"
        assert run(["verify", str(kummer_doc), "--report",
                    str(report)]) == 1
        out = json.loads(report.read_text())
        schema_validator("verify_report.schema.json").validate(out)
        assert out["match"] is False

    def test_missing_neron_item_exit1(self, tmp_path, capsys,
                                      kummer_doc):
        doc = json.loads(kummer_doc.read_text())
        doc["neron"].pop()
        write(kummer_doc, doc)
        report = tmp_path / "r.json"
        capsys.readouterr()
        assert run(["verify", str(kummer_doc), "--report",
                    str(report)]) == 1
        out = json.loads(report.read_text())
        schema_validator("verify_report.schema.json").validate(out)
        assert out["match"] is True and out["neron_match"] is False
        # match, chi and serre_ok hold: only the neron_match line prints
        assert capsys.readouterr().err == "  failed check: neron_match\n"

    @pytest.mark.parametrize("update", [
        {"r": "x"}, {"r": 0}, {"r": True}, {"s": True}, {"s": 4},
        {"s": "3"}, {"s": None},
    ], ids=["r-string", "r-zero", "r-bool", "s-bool", "s-4", "s-string",
            "s-null"])
    def test_expectations_outside_schema_exit2(self, capsys, kummer_doc,
                                               update):
        doc = json.loads(kummer_doc.read_text())
        doc["expectations"].update(update)
        write(kummer_doc, doc)
        capsys.readouterr()
        assert run(["verify", str(kummer_doc), "--e", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad expectations block: s = ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("update", [{"s": 2}, {"r": 5}, {"r": None}],
                             ids=["s-2", "r-5", "r-null"])
    def test_expectations_other_than_the_model_exit1(self, tmp_path, capsys,
                                                     kummer_doc, update):
        # within the schema, but not the model's s = 3, r = 24: the report
        # still holds the model's values, and stderr names the expectations
        doc = json.loads(kummer_doc.read_text())
        doc["expectations"].update(update)
        write(kummer_doc, doc)
        report = tmp_path / "r.json"
        capsys.readouterr()
        assert run(["verify", str(kummer_doc), "--report",
                    str(report)]) == 1
        out = json.loads(report.read_text())
        schema_validator("verify_report.schema.json").validate(out)
        assert (out["s"], out["r"], out["match"]) == (3, 24, True)
        expected = dict({"s": 3, "r": 24}, **update)
        assert capsys.readouterr().err == (
            "  mismatch: expectations give s = %s, r = %s\n"
            % (expected["s"], expected["r"]))

