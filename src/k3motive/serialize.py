"""JSON encodings of the package's value types.

All potentially large integers (matrix entries, class coefficients) are
written as decimal strings so nothing is ever squeezed through a 64-bit
reader.  Motive-class terms are emitted in the canonical order (atom kind,
then name, then power), which makes the serialization byte-stable for equal
classes; ``dumps`` pins the formatting.
"""

from __future__ import annotations

import json

from .deltaset import DeltaSet
from .fibers import (
    Component,
    DegenerationFiber,
    DoubleCurve,
    K3Smooth,
    Other,
    Rational,
    RuledElliptic,
    TriplePoint,
    WeakNeronData,
)
from .intlinalg import IntMatrix, SmithDecomposition
from .motives import (
    EPolynomial,
    EllipticCurveAtom,
    MotiveClass,
    OpaqueAtom,
    _PointAtom,
)


def dumps(obj) -> str:
    """Canonical JSON text: sorted keys, fixed indentation, trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def matrix_to_json(a: IntMatrix) -> dict:
    return {"rows": a.rows, "cols": a.cols,
            "entries": [str(x) for x in a.flat()]}


def matrix_from_json(doc: dict) -> IntMatrix:
    rows, cols = int(doc["rows"]), int(doc["cols"])
    entries = [int(x) for x in doc["entries"]]
    return IntMatrix.from_flat(rows, cols, entries)


def smith_to_json(dec: SmithDecomposition) -> dict:
    return {"U": matrix_to_json(dec.U), "S": matrix_to_json(dec.S),
            "V": matrix_to_json(dec.V),
            "diagonal": [str(d) for d in dec.diagonal]}


# ---------------------------------------------------------------------------
# motive classes
# ---------------------------------------------------------------------------

def _epoly_to_json(e: EPolynomial) -> list:
    return [[pu, pv, str(c)] for (pu, pv), c in e.items()]


def _epoly_from_json(doc) -> EPolynomial:
    return EPolynomial({(int(pu), int(pv)): int(c) for pu, pv, c in doc})


def motive_to_json(cls: MotiveClass) -> list:
    out = []
    for atom, power, coeff in cls.terms():
        if isinstance(atom, _PointAtom):
            entry = {"atom": "point"}
        elif isinstance(atom, EllipticCurveAtom):
            entry = {"atom": "elliptic:" + atom.name}
        elif isinstance(atom, OpaqueAtom):
            entry = {"atom": "opaque:" + atom.name}
            if atom.e_poly is not None:
                entry["e_polynomial"] = _epoly_to_json(atom.e_poly)
            if atom.count_symbol is not None:
                entry["count_symbol"] = atom.count_symbol
        else:
            raise TypeError("unknown atom %r" % (atom,))
        entry["lefschetz_power"] = power
        entry["coeff"] = str(coeff)
        out.append(entry)
    return out


def motive_from_json(doc) -> MotiveClass:
    from .motives import POINT
    total = MotiveClass.zero()
    for entry in doc:
        name = entry["atom"]
        if name == "point":
            atom = POINT
        elif name.startswith("elliptic:"):
            atom = EllipticCurveAtom(name[len("elliptic:"):])
        elif name.startswith("opaque:"):
            e_poly = entry.get("e_polynomial")
            atom = OpaqueAtom(
                name[len("opaque:"):],
                e_poly=_epoly_from_json(e_poly) if e_poly is not None else None,
                count_symbol=entry.get("count_symbol"))
        else:
            raise ValueError("unknown atom tag %r" % (name,))
        total = total + MotiveClass.of_atom(
            atom, int(entry["lefschetz_power"]), int(entry["coeff"]))
    return total


# ---------------------------------------------------------------------------
# Delta-sets
# ---------------------------------------------------------------------------

def delta_to_json(ds: DeltaSet) -> dict:
    return {"dims": list(ds.counts),
            "boundary": [[list(ds.faces(q, s)) for s in ds.simplices(q)]
                         for q in range(1, ds.dim + 1)]}


def delta_from_json(doc: dict) -> DeltaSet:
    dims = [int(x) for x in doc["dims"]]
    boundary = doc.get("boundary", [])
    return DeltaSet(dims[0] if dims else 0, boundary)


# ---------------------------------------------------------------------------
# fibers
# ---------------------------------------------------------------------------

def fiber_to_json(f: DegenerationFiber) -> dict:
    comps = []
    for c in f.components:
        if isinstance(c.kind, Rational):
            comps.append({"id": c.id, "kind": "rational", "a": c.kind.a})
        elif isinstance(c.kind, RuledElliptic):
            comps.append({"id": c.id, "kind": "ruled_elliptic",
                          "curve": c.kind.curve, "a": c.kind.a})
        elif isinstance(c.kind, K3Smooth):
            comps.append({"id": c.id, "kind": "k3"})
        elif isinstance(c.kind, Other):
            entry = {"id": c.id, "kind": "other",
                     "class": motive_to_json(c.kind.klass)}
            if c.kind.betti is not None:
                entry["betti"] = list(c.kind.betti)
            comps.append(entry)
        else:
            raise TypeError("unknown component kind %r" % (c.kind,))
    curves = []
    for d in f.double_curves:
        entry = {"id": d.id, "on": list(d.on), "genus": d.genus}
        if d.curve is not None:
            entry["curve"] = d.curve
        if d.self_intersections is not None:
            entry["self_intersections"] = list(d.self_intersections)
        curves.append(entry)
    triples = [{"id": t.id, "on": list(t.on)} for t in f.triple_points]
    return {"label": f.label, "components": comps, "double_curves": curves,
            "triple_points": triples}


def _id(x):
    """A component, double-curve or triple-point id: a string or an integer."""
    if isinstance(x, bool) or not isinstance(x, (str, int)):
        raise ValueError("id %r is neither a string nor an integer" % (x,))
    return x


def fiber_from_json(doc: dict) -> DegenerationFiber:
    comps = []
    for entry in doc.get("components", []):
        kind_tag = entry["kind"]
        if kind_tag == "rational":
            kind = Rational(int(entry["a"]))
        elif kind_tag == "ruled_elliptic":
            kind = RuledElliptic(entry["curve"], int(entry.get("a", 0)))
        elif kind_tag == "k3":
            kind = K3Smooth()
        elif kind_tag == "other":
            betti = entry.get("betti")
            kind = Other(motive_from_json(entry["class"]),
                         betti=tuple(betti) if betti is not None else None)
        else:
            raise ValueError("unknown component kind %r" % (kind_tag,))
        comps.append(Component(_id(entry["id"]), kind))
    curves = []
    for e in doc.get("double_curves", []):
        selfint = e.get("self_intersections")
        curves.append(DoubleCurve(
            _id(e["id"]), tuple(map(_id, e["on"])), int(e["genus"]),
            e.get("curve"),
            tuple(selfint) if selfint is not None else None))
    triples = [TriplePoint(_id(e["id"]), tuple(map(_id, e["on"])))
               for e in doc.get("triple_points", [])]
    return DegenerationFiber.of(doc.get("label", ""), comps, curves, triples)


def neron_to_json(data: WeakNeronData) -> list:
    return [{"class": motive_to_json(cls), "multiplicity": m}
            for cls, m in data.items]


def neron_from_json(doc) -> WeakNeronData:
    return WeakNeronData.of(
        (motive_from_json(e["class"]), int(e["multiplicity"])) for e in doc)


# ---------------------------------------------------------------------------
# spectral rows
# ---------------------------------------------------------------------------

def spectral_row_to_json(row) -> dict:
    return {"q": row.q, "modules": list(row.modules),
            "differentials": [matrix_to_json(d) for d in row.differentials]}


def spectral_row_from_json(doc) -> "SpectralRow":
    from .weightss import SpectralRow
    return SpectralRow(
        q=int(doc["q"]), modules=tuple(int(x) for x in doc["modules"]),
        differentials=tuple(matrix_from_json(d)
                            for d in doc["differentials"]))


def e2_report_to_json(report) -> list:
    """Rows of {position, betti, torsion} entries for an e2_report result."""
    return [[{"position": i, "betti": betti, "torsion": list(torsion)}
             for i, (betti, torsion) in enumerate(row)] for row in report]
