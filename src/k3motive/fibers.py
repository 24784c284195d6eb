"""Combinatorial model of a strictly semi-stable surface degeneration.

A fiber is a list of surface components with coarse cohomological types,
double curves of genus 0 or 1 joining pairs of them, and triple points
sitting on compatible triples of double curves.  ``clemens_polytope`` turns
this into the dual Delta-set, ``strata_classes`` and ``smooth_locus_class``
produce Grothendieck-ring classes, and ``degeneration_type`` recognizes the
three Kulikov shapes.

Multiplicities are kept out of the fiber: Kulikov fibers are reduced, and
the multiplicities that the general weak Neron evaluation needs live in
``WeakNeronData``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .deltaset import DeltaSet, Shape, recognize
from .motives import (
    EPolynomial,
    EllipticCurveAtom,
    MissingRealizationError,
    MotiveClass,
    OpaqueAtom,
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
    label: str
    components: tuple
    double_curves: tuple
    triple_points: tuple

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
        return cls(items=tuple((c, int(m)) for c, m in items))


_K3_EPOLY = EPolynomial({(0, 0): 1, (2, 0): 1, (1, 1): 20, (0, 2): 1, (2, 2): 1})
K3_ATOM = OpaqueAtom("K3", e_poly=_K3_EPOLY)

_L = MotiveClass.lefschetz


def component_class(kind: ComponentKind) -> MotiveClass:
    if isinstance(kind, Rational):
        return MotiveClass.one() + _L(1, kind.a) + _L(2)
    if isinstance(kind, RuledElliptic):
        e = MotiveClass.of_atom(EllipticCurveAtom(kind.curve))
        return e + e.twist(-1) + _L(1, kind.a)
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
        return MotiveClass.one() + _L(1)
    return MotiveClass.of_atom(EllipticCurveAtom(curve.curve))


def _id_key(x):
    return (isinstance(x, str), x)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate(f: DegenerationFiber) -> list[str]:
    """All invariant violations, as human-readable strings; [] means valid."""
    out: list[str] = []
    comp_ids = [c.id for c in f.components]
    if len(set(comp_ids)) != len(comp_ids):
        out.append("duplicate component ids")
    comp_by_id = {c.id: c for c in f.components}

    for c in f.components:
        if isinstance(c.kind, Rational) and c.kind.a < 0:
            out.append("component %r has negative a" % (c.id,))
        if isinstance(c.kind, RuledElliptic) and c.kind.a < 0:
            out.append("component %r has negative a" % (c.id,))
        if isinstance(c.kind, Other) and c.kind.betti is not None:
            try:
                e = c.kind.klass.e_polynomial()
            except MissingRealizationError:
                e = None
            if e is not None:
                b0 = e.coefficient(0, 0)
                b1 = -(e.coefficient(1, 0) + e.coefficient(0, 1))
                b2 = (e.coefficient(1, 1) + e.coefficient(2, 0)
                      + e.coefficient(0, 2))
                if (b0, b1, b2) != tuple(c.kind.betti):
                    out.append("component %r Betti data disagrees with its "
                               "class" % (c.id,))

    curve_ids = [d.id for d in f.double_curves]
    if len(set(curve_ids)) != len(curve_ids):
        out.append("duplicate double-curve ids")
    curve_by_id = {d.id: d for d in f.double_curves}

    for d in f.double_curves:
        if len(d.on) != 2:
            out.append("double curve %r is not on exactly two components"
                       % (d.id,))
            continue
        if d.on[0] == d.on[1]:
            out.append("self-intersecting double curve %r" % (d.id,))
        for cid in d.on:
            if cid not in comp_by_id:
                out.append("double curve %r references unknown component %r"
                           % (d.id, cid))
        if d.genus not in (0, 1):
            out.append("double curve %r has genus %r outside {0, 1}"
                       % (d.id, d.genus))
        if d.genus == 1 and not d.curve:
            out.append("genus-1 double curve %r names no elliptic atom"
                       % (d.id,))

    triple_ids = [t.id for t in f.triple_points]
    if len(set(triple_ids)) != len(triple_ids):
        out.append("duplicate triple-point ids")

    for t in f.triple_points:
        if len(t.on) != 3 or len(set(t.on)) != 3:
            out.append("triple point %r is not on three distinct curves"
                       % (t.id,))
            continue
        if any(did not in curve_by_id for did in t.on):
            out.append("triple point %r references an unknown double curve"
                       % (t.id,))
            continue
        pairs = [set(curve_by_id[did].on) for did in t.on]
        touched = set().union(*pairs)
        shared_ok = all(len(pairs[i] & pairs[j]) == 1
                        for i in range(3) for j in range(i + 1, 3))
        if len(touched) != 3 or not shared_ok:
            out.append("triple point %r curves are not pairwise adjacent "
                       "along three components" % (t.id,))
    return out


def _require_valid(f: DegenerationFiber) -> None:
    violations = validate(f)
    if violations:
        raise InvalidFiberError(violations)


# ---------------------------------------------------------------------------
# the dual complex and strata classes
# ---------------------------------------------------------------------------

def clemens_polytope(f: DegenerationFiber) -> DeltaSet:
    """Dual Delta-set: vertices are components, edges double curves,
    triangles triple points, ordered by the fixed total order on ids."""
    _require_valid(f)
    comp_order = sorted((c.id for c in f.components), key=_id_key)
    vidx = {cid: i for i, cid in enumerate(comp_order)}
    curves = sorted(f.double_curves, key=lambda d: _id_key(d.id))
    eidx = {}
    edge_faces = []
    for d in curves:
        a, b = sorted((vidx[d.on[0]], vidx[d.on[1]]))
        eidx[d.id] = len(edge_faces)
        edge_faces.append((b, a))
    curve_by_id = {d.id: d for d in f.double_curves}
    tri_faces = []
    for t in sorted(f.triple_points, key=lambda t: _id_key(t.id)):
        curve_pair = {}
        for did in t.on:
            d = curve_by_id[did]
            curve_pair[frozenset(vidx[c] for c in d.on)] = did
        a, b, c = sorted(set().union(*curve_pair))
        tri_faces.append((eidx[curve_pair[frozenset((b, c))]],
                          eidx[curve_pair[frozenset((a, c))]],
                          eidx[curve_pair[frozenset((a, b))]]))
    return DeltaSet(len(comp_order), [edge_faces, tri_faces])


def strata_classes(f: DegenerationFiber
                   ) -> tuple[MotiveClass, MotiveClass, MotiveClass]:
    """Classes of the strata: all components, all double curves, all
    triple points."""
    _require_valid(f)
    y0 = MotiveClass.zero()
    for c in f.components:
        y0 = y0 + component_class(c.kind)
    y1 = MotiveClass.zero()
    for d in f.double_curves:
        y1 = y1 + curve_class(d)
    y2 = MotiveClass.one() * len(f.triple_points)
    return (y0, y1, y2)


def smooth_locus_class(f: DegenerationFiber) -> MotiveClass:
    """Inclusion-exclusion class of the smooth locus of the fiber."""
    return _inclusion_exclusion(strata_classes(f))


def _inclusion_exclusion(strata) -> MotiveClass:
    y0, y1, y2 = strata
    return y0 - 2 * y1 + 3 * y2


def open_component_classes(f: DegenerationFiber) -> list[MotiveClass]:
    """Open stratum of each component, enumerated directly per component.

    Summing these is an independent route to ``smooth_locus_class`` (each
    double curve lies on two components, each triple point on three).
    """
    _require_valid(f)
    curve_by_id = {d.id: d for d in f.double_curves}
    triple_comps = []
    for t in f.triple_points:
        comps = set()
        for did in t.on:
            comps.update(curve_by_id[did].on)
        triple_comps.append(comps)
    out = []
    for c in f.components:
        cls = component_class(c.kind)
        for d in f.double_curves:
            if c.id in d.on:
                cls = cls - curve_class(d)
        for comps in triple_comps:
            if c.id in comps:
                cls = cls + MotiveClass.one()
        out.append(cls)
    return out


def degeneration_type(f: DegenerationFiber) -> int:
    """Kulikov type: 1 (smooth), 2 (chain), 3 (sphere); raises otherwise."""
    return _kulikov_type(f, recognize(clemens_polytope(f)))


def _kulikov_type(f: DegenerationFiber, shape: Shape) -> int:
    """The Kulikov type of a valid fiber whose Clemens polytope has the
    given shape."""
    if shape == Shape.POINT:
        return 1
    if shape == Shape.INTERVAL:
        comp_order = sorted((c.id for c in f.components), key=_id_key)
        valence = {cid: 0 for cid in comp_order}
        for d in f.double_curves:
            for cid in d.on:
                valence[cid] += 1
        by_id = {c.id: c for c in f.components}
        atoms = set()
        for d in f.double_curves:
            if d.genus != 1:
                raise NonKulikovError(
                    "interval fiber with a genus-0 double curve")
            atoms.add(d.curve)
        for cid, deg in valence.items():
            kind = by_id[cid].kind
            if deg == 1 and not isinstance(kind, Rational):
                raise NonKulikovError("chain end %r is not rational" % (cid,))
            if deg == 2:
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
        for c in f.components:
            if not isinstance(c.kind, Rational):
                raise NonKulikovError(
                    "sphere fiber with non-rational component %r" % (c.id,))
        for d in f.double_curves:
            if d.genus != 0:
                raise NonKulikovError(
                    "sphere fiber with a genus-1 double curve")
        return 3
    raise NonKulikovError("Clemens polytope is neither a point, an interval "
                          "nor a 2-sphere")
