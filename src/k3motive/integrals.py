"""Motivic-integral evaluators and identity checkers.

``integral_from_neron`` evaluates the defining weak-Neron-model formula;
``integral_kulikov`` specializes it to a reduced Kulikov fiber, where the
integral is the class of the smooth locus.  ``closed_form_integral``
evaluates the two closed forms for chain (s = 2) and sphere (s = 3)
degenerations at ramification index e, and ``verify_fiber`` runs the whole
comparison for a fiber, reading the discriminant off the combinatorics.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import isqrt

from .deltaset import DeltaSet, recognize
from .fibers import (
    DegenerationFiber,
    WeakNeronData,
    _inclusion_exclusion,
    _kulikov_type,
    _polytope,
    _require_valid,
    _strata,
    strata_classes,
)
from .motives import EllipticCurveAtom, EPolynomial, MotiveClass, UnivariateLaurent
from .weightss import _monodromy_composition, _monodromy_gram


class GeometricRealizabilityWarning(UserWarning):
    """The closed form is evaluable but no geometric fiber realizes it."""


_L = MotiveClass.lefschetz


@dataclass(frozen=True)
class RamifiedParams:
    """Input to the closed forms: ramification index, type and discriminant."""

    e: int
    s: int
    r: int
    elliptic_atom: EllipticCurveAtom | None = None

    def __post_init__(self):
        if self.e < 1:
            raise ValueError("ramification index must be positive")
        if self.s not in (2, 3):
            raise ValueError("closed forms exist for types 2 and 3 only")
        if self.r < 1:
            raise ValueError("discriminant r must be positive")
        if self.s == 2:
            if isqrt(self.r) ** 2 != self.r:
                raise ValueError("type 2 requires a perfect square r1")
            if self.elliptic_atom is None:
                raise ValueError("type 2 requires the elliptic atom")
        if self.s == 3 and (self.e * self.e * self.r) % 2:
            raise ValueError("type 3 requires e^2 r2 even")


def closed_form_integral(p: RamifiedParams) -> MotiveClass:
    """The closed-form integral for a degenerate K3 after a degree-e
    extension.

    Type 2:  2 - (e sqrt(r1) + 1)[E] + 20 L + (e sqrt(r1) - 1)[E](-1) + 2 L^2.
    Type 3:  (e^2 r2 / 2 + 2)(1 + L^2) + (20 - e^2 r2) L.

    Values with e^2 r2 > 20 remain evaluable as virtual classes but cannot
    come from a geometric fiber (the icosahedron saturates the bound), so
    they only raise a warning.
    """
    if p.s == 2:
        k = p.e * isqrt(p.r)
        e_cls = MotiveClass.of_atom(p.elliptic_atom)
        return (2 * MotiveClass.one() - (k + 1) * e_cls + _L(1, 20)
                + (k - 1) * e_cls.twist(-1) + 2 * _L(2))
    e2r = p.e * p.e * p.r
    if e2r > 20:
        warnings.warn(
            "e^2 r2 = %d exceeds 20: the class is virtual, no geometric "
            "fiber realizes it" % e2r, GeometricRealizabilityWarning,
            stacklevel=2)
    half = e2r // 2
    return ((half + 2) * MotiveClass.one() + _L(1, 20 - e2r)
            + (half + 2) * _L(2))


def _quietly(fn, *args):
    """``fn(*args)`` with the realizability warning silenced."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GeometricRealizabilityWarning)
        return fn(*args)


def _quiet_closed_form(p: RamifiedParams | None) -> MotiveClass | None:
    """``closed_form_integral`` with the realizability warning silenced;
    None for a smooth fiber, which has no closed form."""
    return None if p is None else _quietly(closed_form_integral, p)


def maximally_degenerate_closed_form(e: int, r2: int) -> MotiveClass:
    """The conjectural formula for maximally degenerate K3 surfaces over an
    arbitrary complete discrete valuation field; shape-identical to the
    type 3 closed form, to which it delegates."""
    if e < 1 or r2 < 1 or (e * e * r2) % 2:
        raise ValueError("need e >= 1 and e^2 r2 even positive")
    return _quiet_closed_form(RamifiedParams(e=e, s=3, r=r2))


def integral_from_neron(data: WeakNeronData) -> MotiveClass:
    """Sum of component classes twisted by their normalized multiplicities.

    Invariant under adding a constant to every multiplicity and under
    permuting the items.
    """
    if not data.items:
        raise ValueError("weak Neron data must be nonempty")
    base = min(m for _, m in data.items)
    out = MotiveClass.zero()
    for cls, m in data.items:
        out = out + cls.twist(m - base)
    return out


def integral_kulikov(f: DegenerationFiber) -> MotiveClass:
    """The integral of a Kulikov fiber: all multiplicities vanish, so it is
    the class of the smooth locus."""
    _require_valid(f)
    _kulikov(f)
    return _inclusion_exclusion(_strata(f))


def lim_class(f: DegenerationFiber) -> MotiveClass:
    """Alternating sum of strata classes with partial Tate-twist sums:
    sum_j (-1)^j [Y^(j)] (1 + L + ... + L^j)."""
    return _limit_sum(strata_classes(f))


def _limit_sum(y) -> MotiveClass:
    out = partial = MotiveClass.zero()
    for j, stratum in enumerate(y):
        partial = partial + _L(j)
        out = out + (-1) ** j * (stratum * partial)
    return out


def _kulikov(f: DegenerationFiber) -> tuple[int, DeltaSet]:
    """Kulikov type and Clemens polytope of a valid fiber."""
    cl = _polytope(f)
    return _kulikov_type(f, recognize(cl)), cl


def _params_for_type(f: DegenerationFiber, s: int, cl: DeltaSet
                     ) -> RamifiedParams | None:
    """The closed-form parameters of a fiber of Kulikov type ``s``."""
    if s == 1:
        return None
    if s == 2:
        m = len(f.double_curves)
        r1 = _monodromy_composition(m)[1]
        atom = EllipticCurveAtom(f.double_curves[0].curve)
        return RamifiedParams(e=1, s=2, r=r1, elliptic_atom=atom)
    r2 = len(f.triple_points)
    mg = _monodromy_gram(cl)
    if mg.r_d != r2:
        raise ArithmeticError(
            "monodromy Gram determinant %d disagrees with the triple point "
            "count %d" % (mg.r_d, r2))
    return RamifiedParams(e=1, s=3, r=r2)


def _checked_chi(integral: MotiveClass, lim: MotiveClass) -> int:
    """Euler characteristic of the integral, asserted against the limit
    class."""
    chi = integral.euler_characteristic()
    if chi != lim.euler_characteristic():
        raise ArithmeticError("strata routes disagree on the Euler "
                              "characteristic")
    return chi


def fiber_params(f: DegenerationFiber) -> RamifiedParams | None:
    """Read the closed-form parameters off a Kulikov fiber (None for a
    smooth fiber).

    For a chain, r1 = m^2 comes from the cokernel of the monodromy
    composition on the explicit H^1 row; for a sphere, r2 is the triple
    point count, confirmed against the monodromy Gram determinant.
    """
    _require_valid(f)
    return _params_for_type(f, *_kulikov(f))


def acampo_chi(f: DegenerationFiber) -> int:
    """Euler characteristic of the integral; 24 exactly for honest K3
    fibers.  The limit-class route must agree, and is asserted."""
    _require_valid(f)
    _kulikov(f)
    strata = _strata(f)
    return _checked_chi(_inclusion_exclusion(strata), _limit_sum(strata))


def serre_hodge_check(f: DegenerationFiber) -> bool:
    """Does the integral have the Serre reduction of the limit cohomology?

    The reduction of the integral is compared both with the reduction of
    the strata-assembled limit class and with the reduction of the closed
    form for the fiber's type; a corrupted surface profile fails the second
    comparison.
    """
    return verify_fiber(f).serre_ok


def scaling_check(p: RamifiedParams, e_further: int) -> bool:
    """Base-change consistency of the closed forms: evaluating at
    ramification e * e' equals evaluating at e' with r scaled by e^2."""
    if e_further < 1:
        raise ValueError("ramification index must be positive")
    scaled = RamifiedParams(e=e_further, s=p.s, r=p.e * p.e * p.r,
                            elliptic_atom=p.elliptic_atom)
    total = RamifiedParams(e=p.e * e_further, s=p.s, r=p.r,
                           elliptic_atom=p.elliptic_atom)
    return _quiet_closed_form(total) == _quiet_closed_form(scaled)


@dataclass(frozen=True)
class IntegralReport:
    """Everything the verification pipeline derives from one fiber."""

    label: str
    type_s: int
    r: int | None
    integral: MotiveClass
    closed_form: MotiveClass | None
    match: bool
    e_poly: EPolynomial
    chi: int
    serre_residue: UnivariateLaurent
    serre_ok: bool


def verify_fiber(f: DegenerationFiber) -> IntegralReport:
    """Full comparison for one fiber at ramification index 1.

    ``match`` is exact structural equality of classes; no realization-level
    comparison is accepted as a proxy.
    """
    _require_valid(f)
    return _verify_valid(f)


def _verify_valid(f: DegenerationFiber) -> IntegralReport:
    """``verify_fiber`` of a fiber already known to be valid."""
    s, cl = _kulikov(f)
    strata = _strata(f)
    integral = _inclusion_exclusion(strata)
    params = _params_for_type(f, s, cl)
    closed = _quiet_closed_form(params)
    lim = _limit_sum(strata)
    reduced = integral.serre_reduce()
    # serre_ok compares the reduction with the limit class's and, unless the
    # fiber is smooth, with the closed form's
    return IntegralReport(
        label=f.label, type_s=s, r=params.r if params else None,
        integral=integral, closed_form=closed,
        match=closed is None or integral == closed,
        e_poly=integral.e_polynomial(), chi=_checked_chi(integral, lim),
        serre_residue=reduced, serre_ok=reduced == lim.serre_reduce() and (
            closed is None or reduced == closed.serre_reduce()))
