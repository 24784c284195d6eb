"""Motivic-integral evaluators and identity checkers.

``integral_from_neron`` evaluates the defining weak-Neron-model formula;
``integral_kulikov`` specializes it to a reduced Kulikov fiber, where the
integral is the class of the smooth locus.  ``closed_form_integral``
evaluates the two closed forms for chain (s = 2) and sphere (s = 3)
degenerations at ramification index e, and ``verify_fiber`` runs the whole
comparison for a fiber, reading the discriminant off the combinatorics.

Every evaluator reads the fiber through the public functions of ``fibers``
and ``weightss``; the violations, polytope and strata they share are kept on
the fiber, so each is computed once however many evaluators ask.
"""

from __future__ import annotations

from math import isqrt

from ._record import Record
from .fibers import (
    DegenerationFiber,
    WeakNeronData,
    degeneration_type,
    smooth_locus_class,
    strata_classes,
)
from .intlinalg import _int_rows
from .motives import (
    EllipticCurveAtom,
    EPolynomial,
    MotiveClass,
    POINT,
    UnivariateLaurent,
)
from .weightss import _monodromy_composition, monodromy_gram


class GeometricRealizabilityWarning(UserWarning):
    """Never raised: no bound on e^2 r2 holds (the Kummer model has r2 =
    4096 at 64 x 64); kept importable for code that filters it."""


class RamifiedParams(Record):
    """Input to the closed forms: ramification index, type and discriminant."""

    e: int
    s: int
    r: int
    elliptic_atom: EllipticCurveAtom | None = None

    def __post_init__(self):
        _int_rows([(self.e, self.s, self.r)], "closed-form parameter")
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
    """
    if p.s == 2:
        k, e = p.e * isqrt(p.r), p.elliptic_atom
        return MotiveClass({(POINT, 0): 2, (e, 0): -(k + 1), (POINT, 1): 20,
                            (e, 1): k - 1, (POINT, 2): 2})
    e2r = p.e * p.e * p.r
    return MotiveClass({(POINT, 0): e2r // 2 + 2, (POINT, 1): 20 - e2r,
                        (POINT, 2): e2r // 2 + 2})


def maximally_degenerate_closed_form(e: int, r2: int) -> MotiveClass:
    """The conjectural formula for maximally degenerate K3 surfaces over an
    arbitrary complete discrete valuation field; shape-identical to the
    type 3 closed form, whose checks and evaluator it shares."""
    return closed_form_integral(RamifiedParams(e=e, s=3, r=r2))


def integral_from_neron(data: WeakNeronData) -> MotiveClass:
    """Sum of component classes twisted by their normalized multiplicities.

    Invariant under adding a constant to every multiplicity and under
    permuting the items.
    """
    if not data.items:
        raise ValueError("weak Neron data must be nonempty")
    base = min(m for _, m in data.items)
    return MotiveClass._combine((1, cls.twist(m - base))
                                for cls, m in data.items)


def integral_kulikov(f: DegenerationFiber) -> MotiveClass:
    """The integral of a Kulikov fiber: all multiplicities vanish, so it is
    the class of the smooth locus."""
    degeneration_type(f)
    return smooth_locus_class(f)


def lim_class(f: DegenerationFiber) -> MotiveClass:
    """Alternating sum of strata classes with partial Tate-twist sums:
    sum_j (-1)^j [Y^(j)] (1 + L + ... + L^j).

    Each term c [A] L^p of [Y^(j)] adds (-1)^j c at the powers p .. p + j
    of one dict, which is pruned once."""
    out: dict = {}
    for j, stratum in enumerate(strata_classes(f)):
        sign = -1 if j % 2 else 1
        for (a, p), c in stratum._terms.items():
            for q in range(p, p + j + 1):
                out[a, q] = out.get((a, q), 0) + sign * c
    return MotiveClass._pruned(out)


def _checked_chi(integral: EPolynomial, lim: EPolynomial) -> int:
    """Euler characteristic read off the E-polynomial of the integral,
    asserted against the E-polynomial of the limit class."""
    chi = integral.at_one()
    if chi != lim.at_one():
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
    s = degeneration_type(f)
    if s == 1:
        return None
    cols = f._cols
    if s == 2:
        r1 = _monodromy_composition(len(cols.curve_ids))[1]
        atom = EllipticCurveAtom(cols.names[0])
        return RamifiedParams(e=1, s=2, r=r1, elliptic_atom=atom)
    r2 = len(cols.point_ids)
    mg = monodromy_gram(f)
    if mg.r_d != r2:
        raise ArithmeticError(
            "monodromy Gram determinant %d disagrees with the triple point "
            "count %d" % (mg.r_d, r2))
    return RamifiedParams(e=1, s=3, r=r2)


def acampo_chi(f: DegenerationFiber) -> int:
    """Euler characteristic of the integral; 24 exactly for honest K3
    fibers.  The limit-class route must agree, and is asserted."""
    degeneration_type(f)
    return _checked_chi(smooth_locus_class(f).e_polynomial(),
                        lim_class(f).e_polynomial())


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
    scaled = RamifiedParams(e=e_further, s=p.s, r=p.e * p.e * p.r,
                            elliptic_atom=p.elliptic_atom)
    total = RamifiedParams(e=p.e * e_further, s=p.s, r=p.r,
                           elliptic_atom=p.elliptic_atom)
    return closed_form_integral(total) == closed_form_integral(scaled)


class IntegralReport(Record):
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
    params = fiber_params(f)
    integral = smooth_locus_class(f)
    closed = None if params is None else closed_form_integral(params)
    match = closed is None or integral == closed
    e_poly, e_lim = integral.e_polynomial(), lim_class(f).e_polynomial()
    reduced = e_poly.serre()
    # serre_ok compares the reduction with the limit class's and, unless the
    # fiber is smooth, with the closed form's; a closed form equal to the
    # integral has its reduction, so that is realized only on a mismatch
    return IntegralReport(
        label=f.label, type_s=params.s if params else 1,
        r=params.r if params else None,
        integral=integral, closed_form=closed, match=match,
        e_poly=e_poly, chi=_checked_chi(e_poly, e_lim),
        serre_residue=reduced, serre_ok=reduced == e_lim.serre() and (
            match or reduced == closed.serre_reduce()))
