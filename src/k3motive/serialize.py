"""JSON encodings of the package's value types.

All potentially large integers (matrix entries, class coefficients) are
written as decimal strings so nothing is ever squeezed through a 64-bit
reader; matrix entries may have any number of digits.  Motive-class terms
are emitted in the canonical order (atom kind, then name, then power), which
makes the serialization byte-stable for equal classes; ``dumps`` pins the
formatting.
"""

from __future__ import annotations

import json
import re

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
    POINT,
    _PointAtom,
)


def dumps(obj) -> str:
    """Canonical JSON text: sorted keys, fixed indentation, trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

_DECIMAL = re.compile(r"-?[0-9]+")


# Since Python 3.10.7, int() and str() refuse decimals of more digits than
# sys.get_int_max_str_digits(): 4300 by default, 640 at the least.  These
# two convert 600 digits at a time.

def int_to_decimal(x: int) -> str:
    """``str(x)`` at any length."""
    if x.bit_length() <= 1990:  # under 600 digits
        return str(x)
    if x < 0:
        return "-" + int_to_decimal(-x)
    k = x.bit_length() * 3 // 20  # at most half the digits
    hi, lo = divmod(x, 10 ** k)
    return int_to_decimal(hi) + int_to_decimal(lo).rjust(k, "0")


def _decimal(x, what: str) -> int:
    """A decimal-string field (a matrix entry, a class coefficient)."""
    if not (isinstance(x, str) and _DECIMAL.fullmatch(x)):
        raise ValueError("%s %r is not a decimal string" % (what, x))
    return decimal_to_int(x)


def decimal_to_int(text: str) -> int:
    """``int(text)`` for a decimal string of any length."""
    if len(text) <= 600:
        return int(text)
    k = len(text) // 2
    hi, lo = decimal_to_int(text[:-k]), decimal_to_int(text[-k:])
    return hi * 10 ** k + (-lo if text.startswith("-") else lo)


def matrix_to_json(a: IntMatrix) -> dict:
    return {"rows": a.rows, "cols": a.cols,
            "entries": [int_to_decimal(x) for x in a.flat()]}


def matrix_from_json(doc: dict) -> IntMatrix:
    """A matrix document as ``docs/schemas/matrix.schema.json`` has it: a
    non-negative integer shape, the entries as decimal strings, no other
    key."""
    _keys(doc, ("rows", "cols", "entries"))
    rows, cols = _int(doc["rows"], "rows"), _int(doc["cols"], "cols")
    if rows < 0 or cols < 0:
        raise ValueError("shape %d x %d is negative" % (rows, cols))
    return IntMatrix.from_flat(rows, cols, [
        _decimal(x, "entry") for x in _array(doc["entries"], "entries")])


def smith_to_json(dec: SmithDecomposition) -> dict:
    return {"U": matrix_to_json(dec.U), "S": matrix_to_json(dec.S),
            "V": matrix_to_json(dec.V),
            "diagonal": [int_to_decimal(d) for d in dec.diagonal]}


# ---------------------------------------------------------------------------
# motive classes
# ---------------------------------------------------------------------------

def _epoly_to_json(e: EPolynomial) -> list:
    return [[pu, pv, str(c)] for (pu, pv), c in e.items()]


def _epoly_from_json(doc) -> EPolynomial:
    return EPolynomial({(_int(pu, "u power"), _int(pv, "v power")):
                        _decimal(c, "e_polynomial coeff")
                        for pu, pv, c in _array(doc, "e_polynomial")})


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


_TERM_KEYS = {"atom", "lefschetz_power", "coeff", "e_polynomial",
              "count_symbol"}


def _atom(entry):
    """The atom of a class term; an opaque one with its realizations."""
    tag, e_poly, symbol = (entry["atom"], entry.get("e_polynomial"),
                           entry.get("count_symbol"))
    kind, _, name = (tag if isinstance(tag, str) else "").partition(":")
    if symbol is not None and not isinstance(symbol, str):
        raise ValueError("count_symbol %r is not a string" % (symbol,))
    e_poly = None if e_poly is None else _epoly_from_json(e_poly)
    if tag == "point":
        return POINT
    if kind == "elliptic" and name:
        return EllipticCurveAtom(name)
    if kind == "opaque" and name:
        return OpaqueAtom(name, e_poly=e_poly, count_symbol=symbol)
    raise ValueError("unknown atom tag %r" % (tag,))


def motive_from_json(doc) -> MotiveClass:
    """A class as ``docs/schemas/motive_class.schema.json`` has it: integer
    powers, decimal-string coefficients, no term key the schema omits."""
    terms: dict = {}
    for entry in _array(doc, "class"):
        if not isinstance(entry, dict):
            raise ValueError("class term %r is not an object" % (entry,))
        extra = sorted(set(entry) - _TERM_KEYS)
        if extra:
            raise ValueError("unexpected term keys: %s" % ", ".join(extra))
        key = (_atom(entry), _int(entry["lefschetz_power"], "lefschetz_power"))
        terms[key] = terms.get(key, 0) + _decimal(entry["coeff"], "coeff")
    return MotiveClass(terms)


# ---------------------------------------------------------------------------
# Delta-sets
# ---------------------------------------------------------------------------

def delta_to_json(ds: DeltaSet) -> dict:
    return {"dims": list(ds.counts),
            "boundary": [[list(ds.faces(q, s)) for s in ds.simplices(q)]
                         for q in range(1, ds.dim + 1)]}


def delta_from_json(doc: dict) -> DeltaSet:
    """A Delta-set as ``docs/schemas/delta_set.schema.json`` has it: both
    keys and no other, integer counts and face ids, and ``dims`` the vertex
    count followed by the length of each boundary level."""
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


def _int(x, what: str) -> int:
    """An integer field of a fiber document: a JSON integer, not a boolean."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError("%s %r is not an integer" % (what, x))
    return x


def _array(doc, what: str) -> list:
    """A required JSON array."""
    if not isinstance(doc, list):
        raise ValueError("%s %r is not an array" % (what, doc))
    return doc


def _ints(doc, what: str) -> tuple[int, ...] | None:
    """An optional array of integers (``betti``, ``self_intersections``)."""
    if doc is None:
        return None
    return tuple(_int(x, what + " entry") for x in _array(doc, what))


def _keys(doc, keys: tuple[str, ...], exact: bool = True) -> None:
    """Refuse a document that is no object or lacks one of ``keys`` and,
    if ``exact``, one with any other key."""
    if not isinstance(doc, dict):
        raise ValueError("document %r is not an object" % (doc,))
    missing = [k for k in keys if k not in doc]
    if missing:
        raise ValueError("missing required keys: %s" % ", ".join(missing))
    extra = sorted(set(doc) - set(keys)) if exact else ()
    if extra:
        raise ValueError("unexpected keys: %s" % ", ".join(extra))


def _on(entry) -> tuple:
    """The ``on`` ids of a double curve or triple point: a JSON array."""
    return tuple(map(_id, _array(entry["on"], "on")))


def _curve(name) -> str:
    """The elliptic-curve name of a component or double curve: a string."""
    if not isinstance(name, str):
        raise ValueError("curve name %r is not a string" % (name,))
    return name


def fiber_from_json(doc: dict) -> DegenerationFiber:
    """Decode a fiber document.  Its four keys are required; other keys (a
    bare document may carry ``neron`` and ``expectations``) are ignored."""
    _keys(doc, ("label", "components", "double_curves", "triple_points"),
          exact=False)
    comps = []
    for entry in doc["components"]:
        _keys(entry, ("id", "kind"), exact=False)
        kind_tag = entry["kind"]
        if kind_tag == "rational":
            _keys(entry, ("a",), exact=False)
            kind = Rational(_int(entry["a"], "a"))
        elif kind_tag == "ruled_elliptic":
            _keys(entry, ("curve",), exact=False)
            kind = RuledElliptic(_curve(entry["curve"]),
                                 _int(entry.get("a", 0), "a"))
        elif kind_tag == "k3":
            kind = K3Smooth()
        elif kind_tag == "other":
            _keys(entry, ("class",), exact=False)
            kind = Other(motive_from_json(entry["class"]),
                         betti=_ints(entry.get("betti"), "betti"))
        else:
            raise ValueError("unknown component kind %r" % (kind_tag,))
        comps.append(Component(_id(entry["id"]), kind))
    curves = []
    for e in doc["double_curves"]:
        _keys(e, ("id", "on", "genus"), exact=False)
        curves.append(DoubleCurve(
            _id(e["id"]), _on(e), _int(e["genus"], "genus"),
            _curve(e["curve"]) if "curve" in e else None,
            _ints(e.get("self_intersections"), "self_intersections")))
    triples = []
    for e in doc["triple_points"]:
        _keys(e, ("id", "on"), exact=False)
        triples.append(TriplePoint(_id(e["id"]), _on(e)))
    return DegenerationFiber.of(doc["label"], comps, curves, triples)


def neron_to_json(data: WeakNeronData) -> list:
    return [{"class": motive_to_json(cls), "multiplicity": m}
            for cls, m in data.items]


def neron_from_json(doc) -> WeakNeronData:
    items = []
    for e in doc:
        _keys(e, ("class", "multiplicity"), exact=False)
        items.append((motive_from_json(e["class"]),
                      _int(e["multiplicity"], "multiplicity")))
    return WeakNeronData.of(items)


# ---------------------------------------------------------------------------
# spectral rows
# ---------------------------------------------------------------------------

def spectral_row_to_json(row) -> dict:
    return {"q": row.q, "modules": list(row.modules),
            "differentials": [matrix_to_json(d) for d in row.differentials]}


def spectral_row_from_json(doc) -> "SpectralRow":
    """A spectral row: its three keys and no other, an integer ``q`` and
    integer ``modules``."""
    from .weightss import SpectralRow
    _keys(doc, ("q", "modules", "differentials"))
    return SpectralRow(
        q=_int(doc["q"], "q"),
        modules=_ints(_array(doc["modules"], "modules"), "modules"),
        differentials=tuple(map(matrix_from_json, _array(
            doc["differentials"], "differentials"))))


def e2_report_to_json(report) -> list:
    """Rows of {position, betti, torsion} entries for an e2_report result."""
    return [[{"position": i, "betti": betti, "torsion": list(torsion)}
             for i, (betti, torsion) in enumerate(row)] for row in report]
