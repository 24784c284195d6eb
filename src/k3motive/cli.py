"""Command-line entry point.

Subcommands: ``build`` (emit an example fiber plus its expectations),
``analyze`` (validate and summarize a fiber), ``verify`` (compare the
integral against the closed form) and ``snf`` (Smith normal form of a
matrix).  Exit codes: 0 on success and, for verify, a full match; 1 on
validation violations or a mismatch; 2 on malformed input or I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

from .builders import (
    BUILTIN_SPHERES,
    KummerParams,
    build_kummer,
    build_type2_chain,
    build_type3,
)
from .fibers import (
    InvalidFiberError,
    NonKulikovError,
    WeakNeronData,
    _inclusion_exclusion,
    _kulikov_type,
    clemens_polytope,
    open_component_classes,
    strata_classes,
    validate,
)
from .integrals import (
    GeometricRealizabilityWarning,
    RamifiedParams,
    _quiet_closed_form,
    integral_from_neron,
    closed_form_integral,
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
    warnings.simplefilter("default", GeometricRealizabilityWarning)
    profile = _parse_profile(args.a_profile)
    if args.family == "type2":
        if args.m is None:
            raise InputError("build type2 requires --m")
        fiber = build_type2_chain(args.m, profile)
        params = RamifiedParams(e=1, s=2, r=args.m * args.m,
                                elliptic_atom=EllipticCurveAtom("E"))
        closed = closed_form_integral(params)
        expectations = {"family": "type2", "s": 2, "r": args.m * args.m,
                        "closed_form": motive_to_json(closed)}
        neron = WeakNeronData.of(
            (cls, 0) for cls in open_component_classes(fiber))
        doc = {"fiber": fiber_to_json(fiber), "expectations": expectations,
               "neron": neron_to_json(neron)}
    elif args.family == "type3":
        if args.triangulation is None:
            raise InputError("build type3 requires --triangulation")
        name = args.triangulation
        if name.startswith("file:"):
            tri = delta_from_json(_load_json(name[len("file:"):]))
        elif name in BUILTIN_SPHERES:
            tri = BUILTIN_SPHERES[name]()
        else:
            raise InputError("unknown triangulation %r" % (name,))
        fiber = build_type3(tri, profile)
        r2 = len(fiber.triple_points)
        closed = _quiet_closed_form(RamifiedParams(e=1, s=3, r=r2))
        expectations = {"family": "type3", "s": 3, "r": r2,
                        "closed_form": motive_to_json(closed)}
        neron = WeakNeronData.of(
            (cls, 0) for cls in open_component_classes(fiber))
        doc = {"fiber": fiber_to_json(fiber), "expectations": expectations,
               "neron": neron_to_json(neron)}
    else:  # kummer
        if args.m1 is None or args.m2 is None:
            raise InputError("build kummer requires --m1 and --m2")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GeometricRealizabilityWarning)
            report = build_kummer(KummerParams(args.m1, args.m2))
            closed = closed_form_integral(
                RamifiedParams(e=1, s=3, r=report.r2_kummer))
        expectations = {"family": "kummer", "s": 3, "r": report.r2_kummer,
                        "closed_form": motive_to_json(closed)}
        doc = {
            "fiber": fiber_to_json(report.fiber),
            "expectations": expectations,
            "neron": neron_to_json(report.neron_data()),
            "kummer": {
                "m1": args.m1, "m2": args.m2,
                "census": {"generic": report.component_census.generic,
                           "special": report.component_census.special},
                "r2_abelian": report.r2_abelian,
                "r2_kummer": report.r2_kummer,
                "nerve": delta_to_json(report.nerve),
                "integral": motive_to_json(report.integral),
            },
        }
    if args.out is None:
        raise InputError("build requires --out")
    _write_json(args.out, doc)
    print("wrote %s (%s, %d components)" %
          (args.out, doc["expectations"]["family"],
           len(doc["fiber"]["components"])))
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
    smooth = _inclusion_exclusion(strata)
    try:
        type_s = _kulikov_type(fiber, shape)
        type_error = None
    except NonKulikovError as exc:
        type_s = None
        type_error = str(exc)
    report.update({
        "counts": {"components": len(fiber.components),
                   "double_curves": len(fiber.double_curves),
                   "triple_points": len(fiber.triple_points)},
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
    doc, fiber = _load_fiber(path)
    neron_doc = doc.get("neron")
    neron = None if neron_doc is None else \
        _decode("neron block", neron_from_json, neron_doc)
    expectations = doc.get("expectations")
    if expectations is not None and not isinstance(expectations, dict):
        raise InputError("bad expectations block: expected a JSON object")
    expected = None
    if expectations is not None and "closed_form" in expectations:
        expected = _decode("expectations block", motive_from_json,
                           expectations["closed_form"])
    violations = validate(fiber)
    if violations:
        return ({"fiber_label": fiber.label, "violations": violations,
                 "match": False}, 1)

    neron_integral = None if neron is None else integral_from_neron(neron)

    report = {"fiber_label": fiber.label, "e": e}
    exit_code = 0
    try:
        rep = verify_fiber(fiber)
        integral = rep.integral
        report.update({
            "s": rep.type_s,
            "r": rep.r,
            "integral": motive_to_json(integral),
            "closed_form": motive_to_json(rep.closed_form)
            if rep.closed_form is not None else None,
            "match": rep.match,
            "chi": rep.chi,
            "serre_ok": rep.serre_ok,
        })
        if not (rep.match and rep.serre_ok and rep.chi == 24):
            exit_code = 1
    except NonKulikovError as exc:
        if neron_integral is None or expectations is None:
            raise InputError(
                "fiber matches no Kulikov type and the document lacks the "
                "weak Neron data and expectations needed for the fallback "
                "route: %s" % exc) from exc
        if expected is None:
            raise InputError("expectations block carries no closed form")
        integral = neron_integral
        closed = expected
        match = integral == closed
        chi = integral.euler_characteristic()
        serre_ok = integral.serre_reduce() == closed.serre_reduce()
        report.update({
            "s": expectations.get("s"),
            "r": expectations.get("r"),
            "integral": motive_to_json(integral),
            "closed_form": motive_to_json(closed),
            "match": match,
            "chi": chi,
            "serre_ok": serre_ok,
        })
        if not (match and chi == 24):
            exit_code = 1

    if neron_integral is not None:
        neron_match = neron_integral == motive_from_json(report["integral"])
        report["neron_match"] = neron_match
        if not neron_match:
            exit_code = 1

    if expected is not None and report.get("closed_form") is not None:
        if expected != motive_from_json(report["closed_form"]):
            report["match"] = False
            exit_code = 1

    if e != 1 and report.get("s") in (2, 3) and report.get("r"):
        atom = EllipticCurveAtom(fiber.double_curves[0].curve) \
            if report["s"] == 2 else None
        scaled = _quiet_closed_form(RamifiedParams(
            e=e, s=report["s"], r=report["r"], elliptic_atom=atom))
        report["closed_form_at_e"] = motive_to_json(scaled)

    return (report, exit_code)


def _cmd_verify(args) -> int:
    paths = []
    if args.all is not None:
        paths = sorted(str(p) for p in Path(args.all).glob("*.json"))
        if not paths:
            raise InputError("no .json files under %s" % args.all)
    else:
        if args.input is None:
            raise InputError("verify requires an input file or --all DIR")
        paths = [args.input]
    reports = []
    worst = 0
    for path in paths:
        report, code = _verify_one(path, args.e)
        worst = max(worst, code)
        reports.append(report)
        if "violations" in report:
            print("%s: INVALID (%d violations)"
                  % (path, len(report["violations"])))
            for v in report["violations"]:
                print("  violation: %s" % v, file=sys.stderr)
        else:
            print("%s: s=%s r=%s match=%s chi=%s serre_ok=%s"
                  % (path, report.get("s"), report.get("r"),
                     report.get("match"), report.get("chi"),
                     report.get("serre_ok")))
            if not report.get("match"):
                print("  mismatch: integral differs from the closed form",
                      file=sys.stderr)
    payload = reports[0] if args.all is None else reports
    _write_json(args.report, payload)
    return worst


# ---------------------------------------------------------------------------
# snf
# ---------------------------------------------------------------------------

def _cmd_snf(args) -> int:
    a = _decode("matrix document", matrix_from_json, _load_json(args.input))
    dec = smith_normal_form(a)
    print("diagonal: %s" % (" ".join(str(d) for d in dec.diagonal) or "-"))
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


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (InvalidFiberError,) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
