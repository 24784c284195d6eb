"""Command-line entry point.

Subcommands: ``build`` (emit an example fiber plus its expectations),
``analyze`` (validate and summarize a fiber), ``verify`` (compare the
integral against the closed form) and ``snf`` (Smith normal form of a
matrix).  Exit codes: 0 on success and, for verify, a full match; 1 on
validation violations, a mismatch (the integral against the expected closed
form, or the expected s and r against the model's) or a failed internal
cross-check (two routes to the same invariant disagree); 2 on malformed
input, including expectations outside the report schema and a fiber of no
Kulikov type, or I/O failure.  ``verify`` decides each document from one
list of failed checks: exit 1 when it is not empty, and one stderr line per
entry.  Under ``--all`` it reports a malformed document on stderr, verifies
the rest and then exits 2; ``verify`` given both an input file and
``--all``, or ``--all`` naming a file or a missing path, exits 2.

``main(argv)`` may be called any number of times in one process: the calls
share one argument parser, built at import, and each gets its own namespace.
As a process (``python -m k3motive`` or the ``k3motive`` script, both
``k3motive.__main__.run``), output to a closed pipe exits 2 without a
traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .builders import (
    KummerParams,
    build_kummer,
    build_type2_chain,
    build_type3,
)
from .fibers import (
    InvalidFiberError,
    NonKulikovError,
    WeakNeronData,
    clemens_polytope,
    degeneration_type,
    open_component_classes,
    smooth_locus_class,
    strata_classes,
    validate,
)
from .integrals import (
    RamifiedParams,
    closed_form_integral,
    integral_from_neron,
    verify_fiber,
)
from .intlinalg import smith_normal_form
from .deltaset import euler_characteristic, recognize
from .motives import EllipticCurveAtom
from .serialize import (
    delta_from_json,
    delta_to_json,
    dumps,
    fiber_from_json,
    fiber_to_json,
    int_to_decimal,
    matrix_from_json,
    motive_from_json,
    motive_to_json,
    neron_from_json,
    neron_to_json,
    smith_to_json,
)


class InputError(Exception):
    """Malformed input: maps to exit code 2."""


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputError("cannot read %s: %s" % (path, exc)) from exc


def _write_json(path: str | None, doc) -> None:
    if path is None:
        return
    try:
        Path(path).write_text(dumps(doc), encoding="utf-8")
    except OSError as exc:
        raise InputError("cannot write %s: %s" % (path, exc)) from exc


def _parse_profile(text: str | None):
    if text is None:
        return None
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise InputError("bad --a-profile %r" % (text,)) from exc


def _decode(what: str, decode, doc):
    """``decode(doc)``, with malformed input turned into an InputError."""
    try:
        return decode(doc)
    except (AttributeError, KeyError, ValueError, TypeError) as exc:
        raise InputError("bad %s: %s" % (what, exc)) from exc


def _load_fiber(path: str):
    """Read a fiber document, bare or wrapped as ``{"fiber": ...}``; returns
    the outer document and the decoded fiber."""
    doc = _load_json(path)
    fiber_doc = doc.get("fiber", doc) if isinstance(doc, dict) else doc
    if not isinstance(fiber_doc, dict):
        raise InputError("bad fiber document %s: expected a JSON object, "
                         "got %s" % (path, type(fiber_doc).__name__))
    return doc, _decode("fiber document", fiber_from_json, fiber_doc)


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

def _cmd_build(args) -> int:
    if args.out is None:
        raise InputError("build requires --out")
    profile = _parse_profile(args.a_profile)
    doc, neron = {}, None
    if args.family == "type2":
        if args.m is None:
            raise InputError("build type2 requires --m")
        fiber = build_type2_chain(args.m, profile)
        params = RamifiedParams(e=1, s=2, r=args.m * args.m,
                                elliptic_atom=EllipticCurveAtom("E"))
    elif args.family == "type3":
        if args.triangulation is None:
            raise InputError("build type3 requires --triangulation")
        tri = args.triangulation  # a built-in name, or file:PATH
        if tri.startswith("file:"):
            tri = _decode("triangulation", delta_from_json,
                          _load_json(tri[len("file:"):]))
        fiber = build_type3(tri, profile)
        params = RamifiedParams(e=1, s=3, r=len(fiber._cols.point_ids))
    else:  # kummer
        if args.m1 is None or args.m2 is None:
            raise InputError("build kummer requires --m1 and --m2")
        report = build_kummer(KummerParams(args.m1, args.m2))
        fiber, neron = report.fiber, report.neron_data()
        params = RamifiedParams(e=1, s=3, r=report.r2_kummer)
        doc["kummer"] = {
            "m1": args.m1, "m2": args.m2,
            "census": {"generic": report.component_census.generic,
                       "special": report.component_census.special},
            "r2_abelian": report.r2_abelian,
            "r2_kummer": report.r2_kummer,
            "nerve": delta_to_json(report.nerve),
            "integral": motive_to_json(report.integral),
        }
    if neron is None:
        neron = WeakNeronData.of(
            (cls, 0) for cls in open_component_classes(fiber))
    doc.update({
        "fiber": fiber_to_json(fiber),
        "expectations": {
            "family": args.family, "s": params.s, "r": params.r,
            "closed_form": motive_to_json(closed_form_integral(params))},
        "neron": neron_to_json(neron),
    })
    _write_json(args.out, doc)
    print("wrote %s (%s, %d components)" %
          (args.out, args.family, len(fiber._cols.kinds)))
    return 0


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _cmd_analyze(args) -> int:
    _, fiber = _load_fiber(args.input)
    violations = validate(fiber)
    report = {"label": fiber.label, "valid": not violations,
              "violations": violations}
    if violations:
        for v in violations:
            print("violation: %s" % v, file=sys.stderr)
        _write_json(args.report, report)
        return 1
    cl = clemens_polytope(fiber)
    shape = recognize(cl)
    euler = euler_characteristic(cl)
    strata = strata_classes(fiber)
    smooth = smooth_locus_class(fiber)
    type_s = type_error = None
    try:
        type_s = degeneration_type(fiber)
    except NonKulikovError as exc:
        type_error = str(exc)
    report.update({
        # the polytope's counts, padded: a Delta-set drops empty top levels
        "counts": dict(zip(("components", "double_curves", "triple_points"),
                           (*cl.counts, 0, 0))),
        "polytope": {"shape": shape.value, "counts": list(cl.counts),
                     "euler": euler},
        "type_s": type_s,
        "type_error": type_error,
        "strata": [motive_to_json(y) for y in strata],
        "smooth_locus": motive_to_json(smooth),
        "chi": smooth.euler_characteristic(),
    })
    print("label: %s" % fiber.label)
    print("polytope: %s %r, chi = %d" %
          (shape.value, tuple(cl.counts), euler))
    print("type: %s" % (type_s if type_s is not None
                        else "non-Kulikov (%s)" % type_error))
    print("smooth locus class: %s" % smooth)
    print("chi: %d" % report["chi"])
    _write_json(args.report, report)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _verify_one(path: str, e: int):
    """The report on one document and its failed-check lines, in order: the
    violations of an invalid fiber, or else each mismatch and failed check;
    the document verifies when there are none."""
    doc, fiber = _load_fiber(path)
    neron_doc = doc.get("neron")
    neron = None if neron_doc is None else \
        _decode("neron block", neron_from_json, neron_doc)
    expectations = doc.get("expectations")
    if expectations is not None and not isinstance(expectations, dict):
        raise InputError("bad expectations block: expected a JSON object")
    expected = expected_sr = None
    if expectations is not None:
        if "closed_form" in expectations:
            expected = _decode("expectations block", motive_from_json,
                               expectations["closed_form"])
        expected_sr = s, r = expectations.get("s"), expectations.get("r")
        # the verify-report schema's ranges; type() also rules out booleans
        if type(s) is not int or s not in (1, 2, 3) or r is not None and (
                type(r) is not int or r < 1):
            raise InputError("bad expectations block: s = %r, r = %r (need s "
                             "in 1..3, r >= 1 or null)" % (s, r))
    violations = validate(fiber)
    if violations:
        return ({"fiber_label": fiber.label, "violations": violations,
                 "match": False}, ["violation: %s" % v for v in violations])

    try:
        rep = verify_fiber(fiber)
    except NonKulikovError as exc:
        raise InputError("fiber matches no Kulikov type: %s" % exc) from exc
    s, r, integral, closed = rep.type_s, rep.r, rep.integral, rep.closed_form
    match = rep.match and (expected is None or closed is None
                           or expected == closed)
    report = {"fiber_label": fiber.label, "e": e, "s": s, "r": r,
              "integral": motive_to_json(integral),
              "closed_form": None if closed is None
              else motive_to_json(closed),
              "match": match, "chi": rep.chi, "serre_ok": rep.serre_ok}
    if neron is not None:
        report["neron_match"] = integral_from_neron(neron) == integral

    if e != 1 and s in (2, 3):
        # a type-2 fiber's double curves are genus 1, each naming its curve
        atom = EllipticCurveAtom(fiber.double_curves[0].curve) \
            if s == 2 else None
        report["closed_form_at_e"] = motive_to_json(closed_form_integral(
            RamifiedParams(e=e, s=s, r=r, elliptic_atom=atom)))

    checks = (
        ("mismatch: integral differs from the closed form", match),
        ("mismatch: expectations give s = %s, r = %s"
         % (expected_sr or (s, r)), expected_sr in (None, (s, r))),
        ("failed check: neron_match", report.get("neron_match", True)),
        ("failed check: chi = %s, not 24" % rep.chi, rep.chi == 24),
        ("failed check: serre_ok", rep.serre_ok))
    return report, [line for line, ok in checks if not ok]


def _cmd_verify(args) -> int:
    if args.e < 1:  # verify_report.schema.json: e >= 1
        raise InputError("--e must be at least 1, got %d" % args.e)
    if args.all is not None:
        if args.input is not None:
            raise InputError("verify takes an input file or --all DIR, "
                             "not both")
        if not Path(args.all).exists():
            raise InputError("--all %s does not exist" % args.all)
        if Path(args.all).is_file():
            raise InputError("--all %s is not a directory" % args.all)
        paths = sorted(str(p) for p in Path(args.all).glob("*.json"))
        if not paths:
            raise InputError("no .json files under %s" % args.all)
    elif args.input is None:
        raise InputError("verify requires an input file or --all DIR")
    else:
        paths = [args.input]
    reports, worst = [], 0
    for path in paths:
        try:
            report, failed = _verify_one(path, args.e)
        except InputError as exc:
            if args.all is None:
                raise
            # one malformed document does not stop the batch
            print("error: %s: %s" % (path, exc), file=sys.stderr)
            worst = 2
            continue
        reports.append(report)
        if "violations" in report:
            print("%s: INVALID (%d violations)"
                  % (path, len(report["violations"])))
        else:
            print("%s: s=%s r=%s match=%s chi=%s serre_ok=%s" % (path, *(
                report[k] for k in ("s", "r", "match", "chi", "serre_ok"))))
        for line in failed:
            print("  " + line, file=sys.stderr)
        worst = max(worst, 1 if failed else 0)
    _write_json(args.report, reports[0] if args.all is None else reports)
    return worst


# ---------------------------------------------------------------------------
# snf
# ---------------------------------------------------------------------------

def _cmd_snf(args) -> int:
    a = _decode("matrix document", matrix_from_json, _load_json(args.input))
    dec = smith_normal_form(a)
    print("diagonal: %s" % (" ".join(map(int_to_decimal, dec.diagonal))
                            or "-"))
    _write_json(args.report, smith_to_json(dec))
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="k3motive",
        description="Motivic integrals and dual-complex invariants of "
                    "semi-stable K3 degenerations")
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="emit an example fiber as JSON")
    b.add_argument("family", choices=["type2", "type3", "kummer"])
    b.add_argument("--m", type=int, help="chain length (type2)")
    b.add_argument("--m1", type=int, help="first Kummer valuation")
    b.add_argument("--m2", type=int, help="second Kummer valuation")
    b.add_argument("--triangulation",
                   help="tetrahedron|octahedron|icosahedron|file:PATH")
    b.add_argument("--a-profile", dest="a_profile",
                   help="comma-separated surface invariants")
    b.add_argument("--out", "-o", help="output path for the fiber document")
    b.set_defaults(func=_cmd_build)

    a = sub.add_parser("analyze", help="validate and summarize a fiber")
    a.add_argument("input")
    a.add_argument("--report", help="write the full JSON report here")
    a.set_defaults(func=_cmd_analyze)

    v = sub.add_parser("verify",
                       help="compare the integral against the closed form")
    v.add_argument("input", nargs="?")
    v.add_argument("--all", help="verify every .json file in a directory")
    v.add_argument("--report", help="write the full JSON report here")
    v.add_argument("--e", type=int, default=1,
                   help="ramification index for closed-form evaluation")
    v.set_defaults(func=_cmd_verify)

    s = sub.add_parser("snf", help="Smith normal form of a matrix")
    s.add_argument("input")
    s.add_argument("--report", help="write U, S, V and the diagonal here")
    s.set_defaults(func=_cmd_snf)
    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except InvalidFiberError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (InputError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (ArithmeticError, AssertionError) as exc:
        # two routes disagree: a mismatch, not malformed input
        print("error: cross-check failed: %s: %s"
              % (type(exc).__name__, exc), file=sys.stderr)
        return 1

