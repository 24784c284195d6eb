"""JSON encodings of the package's value types.

All potentially large integers (matrix entries, class coefficients) are
written as decimal strings so nothing is ever squeezed through a 64-bit
reader; matrix entries may have any number of digits.  Motive-class terms
are emitted in the canonical order (atom kind, then name, then power), which
makes the serialization byte-stable for equal classes; ``dumps`` pins the
formatting: the bytes of ``json.dumps(obj, indent=2, sort_keys=True)`` and a
newline, written without the pure-Python encoder that ``indent`` selects in
``json`` (the containers and exact scalars of a document are joined here;
any other value goes through ``json`` itself).
"""

from __future__ import annotations

import json
import re
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _str

from .deltaset import DeltaSet, _chunks
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


_LITERALS = {True: "true", False: "false", None: "null"}
_SCALAR = {str: _str, int: int.__repr__, bool: _LITERALS.__getitem__,
           type(None): _LITERALS.__getitem__}
_STR = {str}


def dumps(obj) -> str:
    """Canonical JSON text: sorted keys, fixed indentation, trailing newline.

    Exactly ``json.dumps(obj, indent=2, sort_keys=True) + "\n"``.  Dicts with
    only ``str`` keys, lists, tuples, strings, exact ``int``s, booleans and
    ``None`` are written here, with json's own C string escaper; any other
    value (a float, an ``int`` subclass, a dict with a non-string key) is
    written by ``json.dumps`` and indented to its place, which is exact since
    JSON text holds no raw newline inside a string.  An object nested too
    deep for this writer (a cyclic one among them) is handed whole to
    ``json.dumps``, which raises as it would.
    """
    try:
        return _write(obj, "\n") + "\n"
    except RecursionError:
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write(x, nl: str) -> str:
    """The JSON text of ``x``, its inner lines prefixed by ``nl``."""
    t, inner = type(x), nl + "  "
    if t is dict and set(map(type, x)) <= _STR:  # mixed keys: json raises
        items = []
        for k in sorted(x):
            v = x[k]
            scalar = _SCALAR.get(type(v))
            items.append(_str(k) + ": " + (scalar(v) if scalar is not None
                                           else _write(v, inner)))
        return "{" + inner + ("," + inner).join(items) + nl + "}" if x else "{}"
    if t is list or t is tuple:
        kinds = set(map(type, x))
        scalar = _SCALAR.get(kinds.pop()) if len(kinds) == 1 else None
        items = map(scalar, x) if scalar is not None \
            else [_write(v, inner) for v in x]
        return "[" + inner + ("," + inner).join(items) + nl + "]" if x else "[]"
    scalar = _SCALAR.get(t)
    if scalar is not None:
        return scalar(x)
    return json.dumps(x, indent=2, sort_keys=True).replace("\n", nl)


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
    """Entries [u power, v power, coeff]; a repeated monomial is summed."""
    terms: dict = {}
    for entry in _array(doc, "e_polynomial"):
        pu, pv, c = _array(entry, "e_polynomial entry", 3)
        key = (_int(pu, "u power"), _int(pv, "v power"))
        terms[key] = terms.get(key, 0) + _decimal(c, "e_polynomial coeff")
    return EPolynomial(terms)


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
            "boundary": [list(map(list, _chunks(level, q + 1)))
                         for q, level in enumerate(ds._levels, start=1)]}


def delta_from_json(doc: dict) -> DeltaSet:
    """A Delta-set as ``docs/schemas/delta_set.schema.json`` has it: both
    keys and no other, integer counts and face ids, and ``dims`` the vertex
    count followed by the length of each boundary level."""
    _keys(doc, ("dims", "boundary"))
    dims = _ints(_array(doc["dims"], "dims"), "dims")
    levels = _array(doc["boundary"], "boundary")
    # each level in one flat pass; where one fails, face list by face list,
    # which names the first failure
    flat = [list(chain.from_iterable(level)) if isinstance(level, list)
            and all(map(isinstance, level, repeat(list))) else None
            for level in levels]
    if None in flat or set(map(type, chain.from_iterable(flat))) - {int}:
        flat = None
        levels = [[_ints(_array(fs, "face list"), "face list")
                   for fs in _array(level, "boundary level")]
                  for level in levels]
    if not dims or any(x < 0 for x in dims) \
            or list(dims[1:]) != [len(level) for level in levels]:
        raise ValueError("dims %r disagree with the boundary levels, of "
                         "lengths %r" % (list(dims), list(map(len, levels))))
    if flat is not None and all(set(map(len, level)) <= {q + 1} for q, level
                                in enumerate(levels, start=1)):
        return DeltaSet._flat(dims[0], flat)
    return DeltaSet(dims[0], levels)  # its scan names a bad face count


# ---------------------------------------------------------------------------
# fibers
# ---------------------------------------------------------------------------

def fiber_to_json(f: DegenerationFiber) -> dict:
    """The fiber's document, written from its columns; an ``on`` is read
    off the records only where some record's does not hold two (three)
    ids."""
    cols = f._cols
    comps = []
    for cid, kind in zip(cols.component_ids, cols.kinds):
        if isinstance(kind, Rational):
            comps.append({"id": cid, "kind": "rational", "a": kind.a})
        elif isinstance(kind, RuledElliptic):
            comps.append({"id": cid, "kind": "ruled_elliptic",
                          "curve": kind.curve, "a": kind.a})
        elif isinstance(kind, K3Smooth):
            comps.append({"id": cid, "kind": "k3"})
        elif isinstance(kind, Other):
            entry = {"id": cid, "kind": "other",
                     "class": motive_to_json(kind.klass)}
            if kind.betti is not None:
                entry["betti"] = list(kind.betti)
            comps.append(entry)
        else:
            raise TypeError("unknown component kind %r" % (kind,))
    on = cols.curve_on
    curves = []
    for cid, ends, genus, name, si in zip(
            cols.curve_ids, (d.on for d in f.double_curves) if on is None
            else zip(on[0::2], on[1::2]), cols.genus, cols.names,
            cols.self_intersections):
        entry = {"id": cid, "on": list(ends), "genus": genus}
        if name is not None:
            entry["curve"] = name
        if si is not None:
            entry["self_intersections"] = list(si)
        curves.append(entry)
    on = cols.point_on
    triples = [{"id": pid, "on": list(sides)} for pid, sides in zip(
        cols.point_ids, (t.on for t in f.triple_points) if on is None
        else zip(on[0::3], on[1::3], on[2::3]))]
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


def _array(doc, what: str, n: int | None = None) -> list:
    """A required JSON array, of exactly n entries where n is given."""
    if not isinstance(doc, list):
        raise ValueError("%s %r is not an array" % (what, doc))
    if n is not None and len(doc) != n:
        raise ValueError("%s %r does not have %d entries" % (what, doc, n))
    return doc


def _ints(doc, what: str, n: int | None = None) -> tuple[int, ...] | None:
    """An optional array of integers (``betti``, ``self_intersections``)."""
    if doc is None:
        return None
    return tuple(_int(x, what + " entry") for x in _array(doc, what, n))


def _keys(doc, keys: tuple[str, ...], optional=()) -> None:
    """Refuse a document that is no object, lacks one of ``keys`` or has
    a key in neither ``keys`` nor ``optional`` (None: any key may appear)."""
    if not isinstance(doc, dict):
        raise ValueError("document %r is not an object" % (doc,))
    missing = [k for k in keys if k not in doc]
    if missing:
        raise ValueError("missing required keys: %s" % ", ".join(missing))
    extra = () if optional is None else sorted(set(doc) - {*keys, *optional})
    if extra:
        raise ValueError("unexpected keys: %s" % ", ".join(extra))


def _on(entry) -> tuple:
    """The ``on`` ids of a double curve or triple point: a JSON array."""
    return tuple(map(_id, _array(entry["on"], "on")))


def _string(x, what: str) -> str:
    """A string field of a fiber document: the label, a curve name."""
    if not isinstance(x, str):
        raise ValueError("%s %r is not a string" % (what, x))
    return x


def fiber_from_json(doc: dict) -> DegenerationFiber:
    """A fiber document as ``docs/schemas/fiber.schema.json`` has it: a
    string label, three arrays, entries with only the schema's keys; other
    top-level keys (``neron``, ``expectations``) are ignored.  The entries
    are decoded into columns, which make the fiber unless some ``on`` holds
    other than two (three) ids; that fiber is made of records."""
    _keys(doc, ("label", "components", "double_curves", "triple_points"),
          None)
    ids, kinds = [], []
    for entry in _array(doc["components"], "components"):
        _keys(entry, ("id", "kind"), ("a", "curve", "class", "betti"))
        kind_tag = entry["kind"]
        if kind_tag == "rational":
            _keys(entry, ("a",), None)
            kind = Rational(_int(entry["a"], "a"))
        elif kind_tag == "ruled_elliptic":
            _keys(entry, ("curve",), None)
            kind = RuledElliptic(_string(entry["curve"], "curve name"),
                                 _int(entry.get("a", 0), "a"))
        elif kind_tag == "k3":
            kind = K3Smooth()
        elif kind_tag == "other":
            _keys(entry, ("class",), None)
            kind = Other(motive_from_json(entry["class"]),
                         betti=_ints(entry.get("betti"), "betti", 3))
        else:
            raise ValueError("unknown component kind %r" % (kind_tag,))
        kinds.append(kind)
        ids.append(_id(entry["id"]))
    curves = []  # (id, on, genus, curve, self_intersections) per entry
    for e in _array(doc["double_curves"], "double_curves"):
        _keys(e, ("id", "on", "genus"), ("curve", "self_intersections"))
        curves.append((
            _id(e["id"]), _on(e), _int(e["genus"], "genus"),
            _string(e["curve"], "curve name") if "curve" in e else None,
            _ints(e.get("self_intersections"), "self_intersections", 2)))
    points = []
    for e in _array(doc["triple_points"], "triple_points"):
        _keys(e, ("id", "on"))
        points.append((_id(e["id"]), _on(e)))
    label = _string(doc["label"], "label")
    curves, points = list(zip(*curves)) or [()] * 5, \
        list(zip(*points)) or [()] * 2
    if set(map(len, curves[1])) - {2} or set(map(len, points[1])) - {3}:
        return DegenerationFiber.of(label, map(Component, ids, kinds),
                                    map(DoubleCurve, *curves),
                                    map(TriplePoint, *points))
    return DegenerationFiber._of_columns(
        label, tuple(ids), tuple(kinds), curves[0],
        tuple(chain.from_iterable(curves[1])), *curves[2:], points[0],
        tuple(chain.from_iterable(points[1])))


def neron_to_json(data: WeakNeronData) -> list:
    return [{"class": motive_to_json(cls), "multiplicity": m}
            for cls, m in data.items]


def neron_from_json(doc) -> WeakNeronData:
    items = []
    for e in _array(doc, "neron"):
        _keys(e, ("class", "multiplicity"))
        items.append((motive_from_json(e["class"]),
                      _int(e["multiplicity"], "multiplicity")))
    return WeakNeronData.of(items)
