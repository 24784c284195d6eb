"""Combinatorial model of a strictly semi-stable surface degeneration.

A fiber is a list of surface components with coarse cohomological types,
double curves of genus 0 or 1 joining pairs of them, and triple points
sitting on compatible triples of double curves.  ``clemens_polytope`` turns
this into the dual Delta-set, ``strata_classes`` and ``smooth_locus_class``
produce Grothendieck-ring classes, and ``degeneration_type`` recognizes the
three Kulikov shapes.

Each fact is computed once per fiber and kept on it: ``validate`` stores the
violations, ``clemens_polytope`` the polytope (whose shape its own memo
keeps) and ``strata_classes`` the strata, so the public functions are the
only route and calling them again costs a lookup.

Multiplicities are kept out of the fiber: Kulikov fibers are reduced, and
the multiplicities that the general weak Neron evaluation needs live in
``WeakNeronData``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable

from .deltaset import DeltaSet, Shape, recognize
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

@dataclass(frozen=True)
class Rational:
    """Rational surface with class 1 + a*L + L^2."""

    a: int


@dataclass(frozen=True)
class RuledElliptic:
    """Elliptic-ruled surface with class [E](1 + L) + a*L over a named curve."""

    curve: str
    a: int = 0


@dataclass(frozen=True)
class K3Smooth:
    """A smooth K3 surface (type I special fiber)."""


@dataclass(frozen=True)
class Other:
    """Escape hatch: an explicitly given class, optionally with Betti data."""

    klass: MotiveClass
    betti: tuple[int, int, int] | None = None


ComponentKind = Rational | RuledElliptic | K3Smooth | Other


@dataclass(frozen=True)
class Component:
    id: object
    kind: ComponentKind


@dataclass(frozen=True)
class DoubleCurve:
    id: object
    on: tuple
    genus: int
    curve: str | None = None
    # optional decoration: self-intersection numbers on the two adjacent
    # components, in the order of ``on``; never required by any evaluator
    self_intersections: tuple | None = None


@dataclass(frozen=True)
class TriplePoint:
    id: object
    on: tuple


@dataclass(frozen=True)
class DegenerationFiber:
    """Logically immutable; the ``_memo`` dict is not a field, so equality,
    hashing, repr and the JSON see only the four fields below."""

    label: str
    components: tuple
    double_curves: tuple
    triple_points: tuple

    def __post_init__(self):
        object.__setattr__(self, "_memo", {})

    @classmethod
    def of(cls, label, components, double_curves=(), triple_points=()):
        return cls(label=label, components=tuple(components),
                   double_curves=tuple(double_curves),
                   triple_points=tuple(triple_points))


@dataclass(frozen=True)
class WeakNeronData:
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


def curve_class(curve: DoubleCurve) -> MotiveClass:
    if curve.genus == 0:
        return MotiveClass({(POINT, 0): 1, (POINT, 1): 1})
    return MotiveClass.of_atom(EllipticCurveAtom(curve.curve))


def _id_key(x):
    return (isinstance(x, str), x)


def _by_id(items) -> list:
    """``items`` in the id order of ``_id_key``, by a C-level key."""
    key = attrgetter("id")
    kinds = set(map(type, map(key, items)))
    if len(kinds) > 1 and any(issubclass(k, str) for k in kinds):
        rest = [x for x in items if not isinstance(x.id, str)]
        strs = [x for x in items if isinstance(x.id, str)]
        return sorted(rest, key=key) + sorted(strs, key=key)
    return sorted(items, key=key)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate(f: DegenerationFiber) -> list[str]:
    """All invariant violations, as human-readable strings; [] means valid.
    Triple points are checked against one frozenset of components per
    double-curve id (of two curves with one id, the later)."""
    if "violations" in f._memo:
        return list(f._memo["violations"])
    out: list[str] = []
    comp_ids = {c.id for c in f.components}
    if len(comp_ids) != len(f.components):
        out.append("duplicate component ids")

    for c in f.components:
        if not isinstance(c.kind, ComponentKind):
            out.append("component %r has unknown kind %r" % (c.id, c.kind))
        elif isinstance(c.kind, (Rational, RuledElliptic)):
            if type(c.kind.a) is not int:
                out.append("component %r has non-integer a %r"
                           % (c.id, c.kind.a))
            elif c.kind.a < 0:
                out.append("component %r has negative a" % (c.id,))
        if isinstance(c.kind, Other) and c.kind.betti is not None:
            try:
                e = c.kind.klass.e_polynomial()
            except MissingRealizationError:
                continue
            b0 = e.coefficient(0, 0)
            b1 = -(e.coefficient(1, 0) + e.coefficient(0, 1))
            b2 = (e.coefficient(1, 1) + e.coefficient(2, 0)
                  + e.coefficient(0, 2))
            if (b0, b1, b2) != tuple(c.kind.betti):
                out.append("component %r Betti data disagrees with its "
                           "class" % (c.id,))

    on = {d.id: frozenset(d.on) for d in f.double_curves}
    if len(on) != len(f.double_curves):
        out.append("duplicate double-curve ids")

    for d in f.double_curves:
        if len(d.on) != 2:
            out.append("double curve %r is not on exactly two components"
                       % (d.id,))
            continue
        if d.on[0] == d.on[1]:
            out.append("self-intersecting double curve %r" % (d.id,))
        for cid in d.on:
            if cid not in comp_ids:
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
        if len(t.on) != 3 or len(set(t.on)) != 3:
            out.append("triple point %r is not on three distinct curves"
                       % (t.id,))
            continue
        if not all(map(on.__contains__, t.on)):
            out.append("triple point %r references an unknown double curve"
                       % (t.id,))
            continue
        p, q, r = map(on.__getitem__, t.on)
        if len(p | q | r) != 3 or len(p & q) != 1 or len(p & r) != 1 \
                or len(q & r) != 1:
            out.append("triple point %r curves are not pairwise adjacent "
                       "along three components" % (t.id,))
    f._memo["violations"] = out
    return list(out)


def _require_valid(f: DegenerationFiber) -> None:
    if validate(f):
        raise InvalidFiberError(f._memo["violations"])


# ---------------------------------------------------------------------------
# the dual complex and strata classes
# ---------------------------------------------------------------------------

def clemens_polytope(f: DegenerationFiber) -> DeltaSet:
    """Dual Delta-set: vertices are components, edges double curves,
    triangles triple points, ordered by the fixed total order on ids.

    Each curve is kept once, as (minus its vertex-index sum, edge index).
    The curves of a triple point on vertices a < b < c sum to b + c, a + c,
    a + b: half the total less a sum is the vertex a curve misses, and face
    j misses the j-th least vertex, so the faces are the curves in ascending
    key order."""
    if "polytope" in f._memo:
        return f._memo["polytope"]
    _require_valid(f)
    vidx = {c.id: i for i, c in enumerate(_by_id(f.components))}
    edge_faces, curve = [], {}
    for d in _by_id(f.double_curves):
        a, b = vidx[d.on[0]], vidx[d.on[1]]
        curve[d.id] = (-a - b, len(edge_faces))
        edge_faces.append((a, b) if a > b else (b, a))
    tri_faces = []
    for t in _by_id(f.triple_points):
        (_, e0), (_, e1), (_, e2) = sorted(map(curve.__getitem__, t.on))
        tri_faces.append((e0, e1, e2))
    f._memo["polytope"] = DeltaSet(len(vidx), [edge_faces, tri_faces])
    return f._memo["polytope"]


def strata_classes(f: DegenerationFiber
                   ) -> tuple[MotiveClass, MotiveClass, MotiveClass]:
    """Classes of the strata: all components, all double curves, all
    triple points, as one multiple per component kind and per (genus, curve
    name), which fixes the class of a curve."""
    if "strata" in f._memo:
        return f._memo["strata"]
    _require_valid(f)
    kinds = Counter(map(attrgetter("kind"), f.components))
    keys = list(map(attrgetter("genus", "curve"), f.double_curves))
    rep = dict(zip(keys, f.double_curves))
    f._memo["strata"] = (
        MotiveClass._combine((n, component_class(kind))
                             for kind, n in kinds.items()),
        MotiveClass._combine((n, curve_class(rep[key]))
                             for key, n in Counter(keys).items()),
        _L(0, len(f.triple_points)))
    return f._memo["strata"]


def smooth_locus_class(f: DegenerationFiber) -> MotiveClass:
    """Inclusion-exclusion class of the smooth locus of the fiber."""
    return MotiveClass._combine(zip((1, -2, 3), strata_classes(f)))


def open_component_classes(f: DegenerationFiber) -> list[MotiveClass]:
    """Open stratum of each component, from its count of curve sides per
    (genus, curve name) and of triple points; one class per distinct kind.

    Summing these is an independent route to ``smooth_locus_class`` (each
    double curve lies on two components, each triple point on three).
    """
    _require_valid(f)
    on = {d.id: d.on for d in f.double_curves}
    rep = {(d.genus, d.curve): d for d in f.double_curves}
    cut = {key: curve_class(d) for key, d in rep.items()}
    whole = {k: component_class(k) for k in {c.kind for c in f.components}}
    sides = Counter((cid, d.genus, d.curve)
                    for d in f.double_curves for cid in d.on)
    points = Counter(cid for t in f.triple_points
                     for cid in set().union(*(on[i] for i in t.on)))
    opened = {c.id: whole[c.kind] + _L(0, points[c.id]) for c in f.components}
    for (cid, genus, curve), n in sides.items():
        opened[cid] = opened[cid] - n * cut[genus, curve]
    return [opened[c.id] for c in f.components]


def degeneration_type(f: DegenerationFiber) -> int:
    """Kulikov type: 1 (smooth), 2 (chain), 3 (sphere); raises otherwise."""
    shape = recognize(clemens_polytope(f))
    if shape == Shape.POINT:
        return 1
    if shape == Shape.INTERVAL:
        if any(d.genus != 1 for d in f.double_curves):
            raise NonKulikovError("interval fiber with a genus-0 double curve")
        valence = Counter(cid for d in f.double_curves for cid in d.on)
        atoms = {d.curve for d in f.double_curves}
        for c in sorted(f.components, key=lambda c: _id_key(c.id)):
            if valence[c.id] == 1 and not isinstance(c.kind, Rational):
                raise NonKulikovError("chain end %r is not rational" % (c.id,))
            if valence[c.id] == 2:
                if not isinstance(c.kind, RuledElliptic):
                    raise NonKulikovError(
                        "interior chain component %r is not elliptic-ruled"
                        % (c.id,))
                atoms.add(c.kind.curve)
        if len(atoms) != 1:
            raise NonKulikovError(
                "type II chain must be ruled by a single elliptic curve")
        return 2
    if shape == Shape.SPHERE2:
        for c in f.components:
            if not isinstance(c.kind, Rational):
                raise NonKulikovError(
                    "sphere fiber with non-rational component %r" % (c.id,))
        if any(d.genus != 0 for d in f.double_curves):
            raise NonKulikovError("sphere fiber with a genus-1 double curve")
        return 3
    raise NonKulikovError("Clemens polytope is neither a point, an interval "
                          "nor a 2-sphere")
