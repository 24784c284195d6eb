"""Combinatorial model of a strictly semi-stable surface degeneration.

A fiber is a list of surface components with coarse cohomological types,
double curves of genus 0 or 1 joining pairs of them, and triple points
sitting on compatible triples of double curves.  ``clemens_polytope`` turns
this into the dual Delta-set, ``strata_classes`` and ``smooth_locus_class``
produce Grothendieck-ring classes, and ``degeneration_type`` recognizes the
three Kulikov shapes.

A fiber holds its strata as columns (``_Columns``): the component ids and
kinds; the curve ids, one flat ``on`` of two component ids per curve, the
genera, names and self-intersections; the point ids and one flat ``on`` of
three curve ids per point.  The nerve builder and the JSON decoder hand
their columns to ``DegenerationFiber._of_columns``, and the records of
``components``, ``double_curves`` and ``triple_points`` are built on first
access.  A fiber built from records keeps them and reads its columns off
them once; a flat ``on`` is then None if some record's ``on`` does not hold
exactly two (three) ids.  ``validate``, the polytope, the strata, the open
component classes and the Kulikov type read the columns; the records are
read only by ``_scan_curves``, which names violations, and by
``fiber_to_json`` where a flat ``on`` is None.

Each fact is computed once per fiber and kept on it: ``validate`` stores the
violations and, for a fiber whose curves and triple points pass, the Clemens
polytope it checked them on (whose shape its own memo keeps), which
``clemens_polytope`` and ``open_component_classes`` read; ``strata_classes``
stores the strata.  So the public functions are the only route and calling
them again costs a lookup.

Multiplicities are kept out of the fiber: Kulikov fibers are reduced, and
the multiplicities that the general weak Neron evaluation needs live in
``WeakNeronData``.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Sized
from functools import cached_property
from itertools import chain, compress, count, repeat
from operator import attrgetter, eq
from typing import Iterable

from ._record import Record
from .deltaset import DeltaSet, Shape, _chunks, _take, recognize
from .intlinalg import _int_rows
from .motives import (
    EPolynomial,
    EllipticCurveAtom,
    MissingRealizationError,
    MotiveClass,
    OpaqueAtom,
    POINT,
)


class InvalidFiberError(ValueError):
    """Raised when an operation requires a fiber that fails validation."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid fiber: " + "; ".join(self.violations))


class NonKulikovError(ValueError):
    """The fiber matches none of the three Kulikov shapes."""


# ---------------------------------------------------------------------------
# component kinds
# ---------------------------------------------------------------------------

class Rational(Record):
    """Rational surface with class 1 + a*L + L^2."""

    a: int


class RuledElliptic(Record):
    """Elliptic-ruled surface with class [E](1 + L) + a*L over a named curve."""

    curve: str
    a: int = 0


class K3Smooth(Record):
    """A smooth K3 surface (type I special fiber)."""


class Other(Record):
    """Escape hatch: an explicitly given class, optionally with Betti data."""

    klass: MotiveClass
    betti: tuple[int, int, int] | None = None


ComponentKind = Rational | RuledElliptic | K3Smooth | Other


class Component(Record):
    id: object
    kind: ComponentKind


class DoubleCurve(Record):
    id: object
    on: tuple
    genus: int
    curve: str | None = None
    # optional decoration: self-intersection numbers on the two adjacent
    # components, in the order of ``on``; never required by any evaluator
    self_intersections: tuple | None = None


class TriplePoint(Record):
    id: object
    on: tuple


_ID, _ON, _KIND = attrgetter("id"), attrgetter("on"), attrgetter("kind")
_A, _GENUS, _NAME = attrgetter("a"), attrgetter("genus"), attrgetter("curve")


# a fiber's strata as columns (see the module docstring)
_Columns = namedtuple("_Columns", "component_ids kinds curve_ids curve_on "
                      "genus names self_intersections point_ids point_on")


def _flat_on(items, n: int) -> tuple | None:
    """The ``on`` ids of these curves or points in one flat tuple, if each
    ``on`` holds exactly n ids, else None."""
    ons = list(map(_ON, items))
    if all(isinstance(on, Sized) and len(on) == n for on in ons):
        return tuple(chain.from_iterable(ons))
    return None


def _stratum(i: int, build):
    """The records of one stratum: those the record constructor stored, or
    else built from the columns on first access."""
    def records(f):
        stored = tuple.__getitem__(f, i)
        return build(f._cols) if stored is None else stored
    return cached_property(records)


class DegenerationFiber(Record):
    """Logically immutable; the ``_memo`` dict and the columns are not
    fields, so equality, hashing, repr and the JSON see only the four fields
    below, as records.  A fiber from ``_of_columns`` stores None in place of
    each record tuple until it is built."""

    label: str
    components: tuple = _stratum(1, lambda c: tuple(
        map(Component, c.component_ids, c.kinds)))
    double_curves: tuple = _stratum(2, lambda c: tuple(map(
        DoubleCurve, c.curve_ids, zip(c.curve_on[0::2], c.curve_on[1::2]),
        c.genus, c.names, c.self_intersections)))
    triple_points: tuple = _stratum(3, lambda c: tuple(map(
        TriplePoint, c.point_ids,
        zip(c.point_on[0::3], c.point_on[1::3], c.point_on[2::3]))))

    def __post_init__(self):
        object.__setattr__(self, "_memo", {})

    @classmethod
    def of(cls, label, components, double_curves=(), triple_points=()):
        return cls(label=label, components=tuple(components),
                   double_curves=tuple(double_curves),
                   triple_points=tuple(triple_points))

    @classmethod
    def _of_columns(cls, label, *columns) -> "DegenerationFiber":
        """The fiber on these columns, given in ``_Columns`` order with each
        ``on`` flat; its records are built on first access."""
        f = tuple.__new__(cls, (label, None, None, None))
        f.__dict__["_cols"] = _Columns(*columns)
        f.__post_init__()
        return f

    @cached_property
    def _cols(self) -> _Columns:
        """The columns, read once off the records of a record-built fiber."""
        comps, curves, points = tuple.__getitem__(self, slice(1, 4))
        return _Columns(
            tuple(map(_ID, comps)), tuple(map(_KIND, comps)),
            tuple(map(_ID, curves)), _flat_on(curves, 2),
            tuple(map(_GENUS, curves)), tuple(map(_NAME, curves)),
            tuple(map(attrgetter("self_intersections"), curves)),
            tuple(map(_ID, points)), _flat_on(points, 3))

    # the fields as records, wherever a tuple would read its items
    def __iter__(self):
        return iter((self.label, self.components, self.double_curves,
                     self.triple_points))

    def __eq__(self, other):
        return type(other) is type(self) and tuple(self) == tuple(other)

    def __getnewargs__(self):
        # the stored fields; the columns, the records built since and the
        # memo travel in the instance dict
        return tuple.__getitem__(self, slice(None))


# the other tuple methods that read the items, on the fields as records
for _name in ("__hash__", "__getitem__", "__contains__", "__add__", "__mul__",
              "__rmul__", "__lt__", "__le__", "__gt__", "__ge__", "count",
              "index"):
    setattr(DegenerationFiber, _name, lambda f, *args, _method=getattr(
        tuple, _name): _method(tuple(f), *(
            tuple(x) if isinstance(x, DegenerationFiber) else x
            for x in args)))
DegenerationFiber.__radd__ = lambda f, other: other + tuple(f)
del _name


class WeakNeronData(Record):
    """Pairs (component class, multiplicity of the relative form on it)."""

    items: tuple

    @classmethod
    def of(cls, items: Iterable[tuple[MotiveClass, int]]) -> "WeakNeronData":
        items = tuple(items)
        _int_rows(((m for _, m in items),), "multiplicity")
        return cls(items=tuple((c, m) for c, m in items))


_K3_EPOLY = EPolynomial({(0, 0): 1, (2, 0): 1, (1, 1): 20, (0, 2): 1, (2, 2): 1})
K3_ATOM = OpaqueAtom("K3", e_poly=_K3_EPOLY)

_L = MotiveClass.lefschetz
_RATIONAL_CURVE = MotiveClass({(POINT, 0): 1, (POINT, 1): 1})  # 1 + L


def component_class(kind: ComponentKind) -> MotiveClass:
    if isinstance(kind, Rational):
        return MotiveClass({(POINT, 0): 1, (POINT, 1): kind.a, (POINT, 2): 1})
    if isinstance(kind, RuledElliptic):
        e = EllipticCurveAtom(kind.curve)
        return MotiveClass({(e, 0): 1, (e, 1): 1, (POINT, 1): kind.a})
    if isinstance(kind, K3Smooth):
        return MotiveClass.of_atom(K3_ATOM)
    if isinstance(kind, Other):
        return kind.klass
    raise TypeError("unknown component kind %r" % (kind,))


def component_betti(kind: ComponentKind) -> tuple[int, int, int, int, int]:
    """Betti numbers b_0..b_4 of the (smooth projective) component."""
    if isinstance(kind, Rational):
        return (1, 0, kind.a, 0, 1)
    if isinstance(kind, RuledElliptic):
        return (1, 2, kind.a + 2, 2, 1)
    if isinstance(kind, K3Smooth):
        return (1, 0, 22, 0, 1)
    if isinstance(kind, Other):
        if kind.betti is None:
            raise MissingRealizationError("component has no Betti data")
        b0, b1, b2 = kind.betti
        return (b0, b1, b2, b1, b0)
    raise TypeError("unknown component kind %r" % (kind,))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate(f: DegenerationFiber) -> list[str]:
    """All invariant violations, as human-readable strings; [] means valid.

    The double curves and triple points are checked by building the
    Clemens polytope in ``_incidence``, which the memo keeps as
    ``polytope``; only when that fails does ``_scan_curves`` walk them one
    by one, to name every violation in its words and order."""
    if "violations" in f._memo:
        return list(f._memo["violations"])
    out: list[str] = []
    cols = f._cols
    index = dict(zip(cols.component_ids, count()))
    if len(index) != len(cols.component_ids):
        out.append("duplicate component ids")

    # rational kinds whose a are non-negative ints pass every kind check
    kinds = cols.kinds
    a = list(map(_A, kinds)) if set(map(type, kinds)) <= {Rational} else [-1]
    checked = not (set(map(type, a)) - {int}) and min(a, default=0) >= 0
    realized: dict = {}  # an Other class -> its (b0, b1, b2), or None
    for cid, kind in () if checked else zip(cols.component_ids, kinds):
        if not isinstance(kind, ComponentKind):
            out.append("component %r has unknown kind %r" % (cid, kind))
        elif isinstance(kind, (Rational, RuledElliptic)):
            if type(kind.a) is not int:
                out.append("component %r has non-integer a %r"
                           % (cid, kind.a))
            elif kind.a < 0:
                out.append("component %r has negative a" % (cid,))
        if isinstance(kind, Other) and kind.betti is not None:
            klass = kind.klass
            if klass not in realized:
                try:
                    e = klass.e_polynomial()
                except MissingRealizationError:
                    realized[klass] = None
                else:
                    realized[klass] = (
                        e.coefficient(0, 0),
                        -(e.coefficient(1, 0) + e.coefficient(0, 1)),
                        e.coefficient(1, 1) + e.coefficient(2, 0)
                        + e.coefficient(0, 2))
            if realized[klass] not in (None, tuple(kind.betti)):
                out.append("component %r Betti data disagrees with its "
                           "class" % (cid,))

    polytope = _incidence(cols, index)
    if polytope is None:
        out += _scan_curves(f, index)
    else:
        f._memo["polytope"] = polytope
    f._memo["violations"] = out
    return list(out)


def _incidence(cols: _Columns, index: dict) -> DeltaSet | None:
    """The Clemens polytope, each simplex numbered by its stored position,
    if every double curve and triple point passes the checks of
    ``_scan_curves``, else None.

    Each flat ``on`` resolves to positions in one pass: component ids
    through ``index`` (id to stored position), curve ids through their own.
    An edge's faces are its high and its low end.  The curves of a triple
    point on components a < b < c have the ends ab, ac, bc, so one sort per
    triple point finds them; a triangle's faces, where face j misses the
    j-th least vertex, are bc, ac, ab.  That its three curves meet pairwise
    along three components is then the polytope's simplicial identities:
    high(ac) = high(bc), high(ab) = low(bc) and low(ab) = low(ac)."""
    genus = cols.genus
    if cols.curve_on is None or cols.point_on is None \
            or set(map(type, genus)) - {int} or set(genus) - {0, 1} \
            or not all(compress(cols.names, genus)):
        return None
    curves = dict(zip(cols.curve_ids, count()))
    if len(curves) != len(genus) \
            or len(set(cols.point_ids)) != len(cols.point_ids):
        return None
    try:
        ends, sides = _take(index, cols.curve_on), _take(curves, cols.point_on)
    except (KeyError, TypeError):  # an unknown or an unhashable id
        return None
    u, v = ends[0::2], ends[1::2]
    if any(map(eq, u, v)):
        return None
    edges = [0] * len(ends)
    edges[0::2] = [a if a > b else b for a, b in zip(u, v)]
    edges[1::2] = [b if a > b else a for a, b in zip(u, v)]
    keys = list(zip(edges[1::2], edges[0::2], count()))  # (low, high, i)
    tris = []
    for ab, ac, bc in map(sorted, _chunks(_take(keys, sides), 3)):
        tris += bc[2], ac[2], ab[2]
    try:
        return DeltaSet._flat(len(cols.kinds), [edges, tris])
    except ValueError:  # a simplicial identity fails
        return None


def _id_set(on) -> frozenset | None:
    """The ids in ``on`` as a set, or None if ``on`` holds an unhashable id
    (no stratum's) or holds no ids at all."""
    try:
        return frozenset(on)
    except TypeError:
        return None


def _scan_curves(f: DegenerationFiber, index: dict) -> list[str]:
    """The violations of the double curves and triple points, item by item:
    triple points against one set of components per double-curve id (of
    two curves with one id, the later)."""
    out: list[str] = []
    on = {d.id: _id_set(d.on) for d in f.double_curves}
    if len(on) != len(f.double_curves):
        out.append("duplicate double-curve ids")

    for d in f.double_curves:
        if not isinstance(d.on, Sized) or len(d.on) != 2:
            out.append("double curve %r is not on exactly two components"
                       % (d.id,))
            continue
        if d.on[0] == d.on[1]:
            out.append("self-intersecting double curve %r" % (d.id,))
        for cid in d.on:
            # an unhashable id is no component's
            if _id_set((cid,)) is None or cid not in index:
                out.append("double curve %r references unknown component %r"
                           % (d.id, cid))
        if type(d.genus) is not int:
            out.append("double curve %r has non-integer genus %r"
                       % (d.id, d.genus))
        elif d.genus not in (0, 1):
            out.append("double curve %r has genus %r outside {0, 1}"
                       % (d.id, d.genus))
        if d.genus == 1 and not d.curve:
            out.append("genus-1 double curve %r names no elliptic atom"
                       % (d.id,))

    if len({t.id for t in f.triple_points}) != len(f.triple_points):
        out.append("duplicate triple-point ids")

    for t in f.triple_points:
        ids = _id_set(t.on)
        if not isinstance(t.on, Sized) or len(t.on) != 3 \
                or ids is not None and len(ids) != 3:
            out.append("triple point %r is not on three distinct curves"
                       % (t.id,))
            continue
        if ids is None or not all(map(on.__contains__, t.on)):
            out.append("triple point %r references an unknown double curve"
                       % (t.id,))
            continue
        p, q, r = map(on.__getitem__, t.on)
        if None in (p, q, r) or len(p | q | r) != 3 or len(p & q) != 1 \
                or len(p & r) != 1 or len(q & r) != 1:
            out.append("triple point %r curves are not pairwise adjacent "
                       "along three components" % (t.id,))
    return out


def _require_valid(f: DegenerationFiber) -> None:
    if validate(f):
        raise InvalidFiberError(f._memo["violations"])


# ---------------------------------------------------------------------------
# the dual complex and strata classes
# ---------------------------------------------------------------------------

def clemens_polytope(f: DegenerationFiber) -> DeltaSet:
    """Dual Delta-set: vertices are components, edges double curves,
    triangles triple points, each numbered by its stored position.

    ``validate`` builds it (see ``_incidence``) and the memo keeps it."""
    _require_valid(f)
    return f._memo["polytope"]


def strata_classes(f: DegenerationFiber
                   ) -> tuple[MotiveClass, MotiveClass, MotiveClass]:
    """Classes of the strata: all components, all double curves, all
    triple points.  N rational components sum to N(1 + L^2) + (sum of a) L
    (``_require_valid`` checked each a), other fibers to one multiple per
    component kind; the genus-0 curves to n0(1 + L) and the genus-1 curves
    to one multiple per curve name, which fixes their class."""
    if "strata" in f._memo:
        return f._memo["strata"]
    _require_valid(f)
    cols = f._cols
    kinds, genus = cols.kinds, cols.genus
    if set(map(type, kinds)) == {Rational}:
        n, a = len(kinds), sum(map(_A, kinds))
        y0 = MotiveClass._pruned({(POINT, 0): n, (POINT, 1): a, (POINT, 2): n})
    else:
        y0 = MotiveClass._combine((n, component_class(k))
                                  for k, n in Counter(kinds).items())
    # each genus is 0 or 1, so the genus-1 names are those under a true genus
    names = list(compress(cols.names, genus))
    n0 = len(genus) - len(names)
    y1 = {(POINT, 0): n0, (POINT, 1): n0}  # n0 (1 + L)
    if names:
        for name, n in Counter(names).items():
            y1[EllipticCurveAtom(name), 0] = n
    f._memo["strata"] = (y0, MotiveClass._pruned(y1), MotiveClass._pruned(
        {(POINT, 0): len(cols.point_ids)}))
    return f._memo["strata"]


def smooth_locus_class(f: DegenerationFiber) -> MotiveClass:
    """Inclusion-exclusion class of the smooth locus of the fiber."""
    return MotiveClass._combine(zip((1, -2, 3), strata_classes(f)))


def open_component_classes(f: DegenerationFiber) -> list[MotiveClass]:
    """Open stratum of each component, summed in one pass from its whole
    class, its count of triple points (a triangle's vertices are both ends
    of its face 2 and the high end of its face 0) and its count of curve
    sides (an edge's two ends) per (genus, curve name); one whole class per
    distinct kind.

    Summing these is an independent route to ``smooth_locus_class`` (each
    double curve lies on two components, each triple point on three).
    """
    cols = f._cols
    # padded: a Delta-set drops its empty top levels
    edges, tris = (*clemens_polytope(f)._levels, (), ())[:2]
    high, low = edges[0::2], edges[1::2]
    points = Counter(chain(_take(high, tris[2::3]), _take(low, tris[2::3]),
                           _take(high, tris[0::3])))
    sides = Counter(zip(high, cols.genus, cols.names))
    sides.update(zip(low, cols.genus, cols.names))
    whole = {k: component_class(k) for k in set(cols.kinds)}
    one = _L(0)
    pairs = [[(1, whole[k]), (points[v], one)]
             for v, k in enumerate(cols.kinds)]
    for (v, genus, name), n in sides.items():
        pairs[v].append((-n, _RATIONAL_CURVE if genus == 0 else
                         MotiveClass.of_atom(EllipticCurveAtom(name))))
    return list(map(MotiveClass._combine, pairs))


def degeneration_type(f: DegenerationFiber) -> int:
    """Kulikov type: 1 (smooth), 2 (chain), 3 (sphere); raises otherwise."""
    polytope = clemens_polytope(f)
    shape = recognize(polytope)
    cols = f._cols
    if shape == Shape.POINT:
        return 1
    if shape == Shape.INTERVAL:
        if any(g != 1 for g in cols.genus):
            raise NonKulikovError("interval fiber with a genus-0 double curve")
        valence = Counter(polytope._levels[0])
        atoms = set(cols.names)
        for i, (cid, kind) in enumerate(zip(cols.component_ids, cols.kinds)):
            if valence[i] == 1 and not isinstance(kind, Rational):
                raise NonKulikovError("chain end %r is not rational" % (cid,))
            if valence[i] == 2:
                if not isinstance(kind, RuledElliptic):
                    raise NonKulikovError(
                        "interior chain component %r is not elliptic-ruled"
                        % (cid,))
                atoms.add(kind.curve)
        if len(atoms) != 1:
            raise NonKulikovError(
                "type II chain must be ruled by a single elliptic curve")
        return 2
    if shape == Shape.SPHERE2:
        if not all(map(isinstance, cols.kinds, repeat(Rational))):
            cid = next(cid for cid, kind in zip(cols.component_ids, cols.kinds)
                       if not isinstance(kind, Rational))
            raise NonKulikovError(
                "sphere fiber with non-rational component %r" % (cid,))
        if any(cols.genus):  # each genus is 0 or 1
            raise NonKulikovError("sphere fiber with a genus-1 double curve")
        return 3
    raise NonKulikovError("Clemens polytope is neither a point, an interval "
                          "nor a 2-sphere")
