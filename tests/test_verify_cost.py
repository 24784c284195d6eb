"""The fixed cost of a verify: the one-pass limit class and the skipped
realizations against the earlier twisted-sum route, and a budget of
Python-level calls per fresh ``verify_fiber``."""

import copy
import cProfile
import random

import pytest

from k3motive.builders import (KummerParams, build_kummer, build_type2_chain,
                               build_type3, icosahedron, octahedron,
                               refine_sphere, tetrahedron)
from k3motive.deltaset import relabel
from k3motive.fibers import (Component, DegenerationFiber, DoubleCurve,
                             K3Smooth, Other, Rational, RuledElliptic,
                             smooth_locus_class, strata_classes)
from k3motive.integrals import (IntegralReport, _checked_chi,
                                closed_form_integral, fiber_params, lim_class,
                                verify_fiber)
from k3motive.motives import (EllipticCurveAtom, EPolynomial, MotiveClass,
                              OpaqueAtom, POINT)

from test_fibers import chain_fiber, tetra_fiber


# -- the earlier route, kept verbatim as the oracle ---------------------------

def twisted_sum_lim_class(f: DegenerationFiber) -> MotiveClass:
    """Alternating sum of strata classes with partial Tate-twist sums:
    sum_j (-1)^j [Y^(j)] (1 + L + ... + L^j)."""
    return MotiveClass._combine(((-1) ** j, stratum.twist(-i))
                                for j, stratum in enumerate(strata_classes(f))
                                for i in range(j + 1))


def oracle_verify_fiber(f: DegenerationFiber) -> IntegralReport:
    """``verify_fiber`` with the twisted-sum limit class, realizing the
    closed form on every fiber that has one."""
    params = fiber_params(f)
    integral = smooth_locus_class(f)
    closed = None if params is None else closed_form_integral(params)
    e_poly = integral.e_polynomial()
    e_lim = twisted_sum_lim_class(f).e_polynomial()
    reduced = e_poly.serre()
    return IntegralReport(
        label=f.label, type_s=params.s if params else 1,
        r=params.r if params else None,
        integral=integral, closed_form=closed,
        match=closed is None or integral == closed,
        e_poly=e_poly, chi=_checked_chi(e_poly, e_lim),
        serre_residue=reduced, serre_ok=reduced == e_lim.serre() and (
            closed is None or reduced == closed.serre_reduce()))


# -- the corpus ---------------------------------------------------------------

def _profile(rng, parts, total):
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _relabelled(rng, tri):
    perms = []
    for q in range(tri.dim + 1):
        p = list(range(tri.n(q)))
        rng.shuffle(p)
        perms.append(p)
    return relabel(tri, perms)


E, F = EllipticCurveAtom("E"), EllipticCurveAtom("F")
OPAQUE = OpaqueAtom("Z", e_poly=EPolynomial({(0, 0): 1, (1, 1): 3,
                                              (2, 0): -1}))
OTHER = Other(MotiveClass({(POINT, 0): 2, (E, 1): -1, (OPAQUE, -1): 3}))


def kulikov_corpus():
    """Chains m = 1..6 with seeded profiles, the three spheres, the
    octahedron edge-split^1..3 and barycentric^1, relabelled, with seeded
    profiles, and the Kummer 4 x 6 fiber."""
    rng = random.Random(3901)
    out = [build_type2_chain(m, _profile(rng, m + 1, 20))
           for m in range(1, 7)]
    tris = [tetrahedron(), octahedron(), icosahedron()]
    tris += [refine_sphere(octahedron(), k, "edge_split") for k in (1, 2, 3)]
    tris.append(refine_sphere(octahedron(), 1, "barycentric"))
    for tri in tris:
        tri = _relabelled(rng, tri)
        out.append(build_type3(tri, _profile(rng, tri.n(0),
                                             20 + 2 * tri.n(2))))
    out.append(build_kummer(KummerParams(4, 6)).fiber)
    return out


def kinds_corpus():
    """Fibers with ``RuledElliptic``, ``K3Smooth`` and ``Other`` kinds, an
    opaque atom with an E-polynomial, and genus-1 curves of two names; only
    the first three are Kulikov fibers."""
    chain = [Component(0, Rational(3)), Component(1, RuledElliptic("E", 4)),
             Component(2, Rational(13))]
    two_names = [Component(0, Rational(2)), Component(1, OTHER),
                 Component(2, RuledElliptic("F", 1)),
                 Component(3, K3Smooth())]
    return [
        DegenerationFiber.of("k3", [Component(0, K3Smooth())]),
        DegenerationFiber.of("other", [Component("x", OTHER)]),
        DegenerationFiber.of("ruled", chain, [
            DoubleCurve("a", (0, 1), 1, "E"),
            DoubleCurve("b", (1, 2), 1, "E")]),
        DegenerationFiber.of("two-names", two_names, [
            DoubleCurve("a", (0, 1), 1, "E"),
            DoubleCurve("b", (1, 2), 1, "F"),
            DoubleCurve("c", (2, 3), 0),
            DoubleCurve("d", (3, 0), 1, "E")]),
    ]


def corrupted_fibers():
    """A sphere and a chain whose profiles miss the closed form."""
    return [tetra_fiber((7, 7, 7, 9)), chain_fiber(3, ends=(10, 11))]


def _outcome(fn, f):
    try:
        return fn(f)
    except ValueError as e:
        return type(e), str(e)


class TestAgainstTheTwistedSum:
    def test_lim_class(self):
        for f in kulikov_corpus() + kinds_corpus() + corrupted_fibers():
            assert lim_class(f) == twisted_sum_lim_class(f), f.label

    def test_every_report_field(self):
        corpus = kulikov_corpus() + kinds_corpus() + corrupted_fibers()
        assert len(corpus) == 6 + 7 + 1 + 4 + 2
        reports = 0
        for f in corpus:
            theirs = _outcome(oracle_verify_fiber, copy.deepcopy(f))
            ours = _outcome(verify_fiber, f)
            assert ours == theirs, f.label
            if isinstance(ours, IntegralReport):
                reports += 1
                assert ours._fields == IntegralReport._fields
                for name in IntegralReport._fields:
                    assert getattr(ours, name) == getattr(theirs, name), name
        assert reports == len(corpus) - 1  # two names: no Kulikov type

    def test_a_mismatch_still_compares_the_closed_form(self, monkeypatch):
        serre_reduce = MotiveClass.serre_reduce
        reduced = []
        monkeypatch.setattr(MotiveClass, "serre_reduce", lambda self: (
            reduced.append(self) or serre_reduce(self)))
        for f in corrupted_fibers():
            reduced.clear()
            rep = verify_fiber(f)
            assert not rep.match and not rep.serre_ok
            assert reduced == [rep.closed_form], f.label
            assert rep == oracle_verify_fiber(copy.deepcopy(f))


# -- the call budget ----------------------------------------------------------

def python_calls(fn, arg) -> int:
    """The Python-level calls of ``fn(arg)`` as cProfile counts them: each
    generator or comprehension resume counts, C functions do not."""
    prof = cProfile.Profile()
    prof.runcall(fn, arg)
    prof.create_stats()
    return sum(stat[1] for (path, _, _), stat in prof.stats.items()
               if path != "~")


BUDGET = [
    ("octahedron", lambda: build_type3(octahedron()), 120),
    ("icosahedron", lambda: build_type3(icosahedron()), 120),
    ("edge-split^3", lambda: build_type3(refine_sphere(octahedron(), 3,
                                                       "edge_split")), 120),
    ("chain m = 6", lambda: build_type2_chain(6), 332),
]


class TestCallBudget:
    @pytest.mark.parametrize("make, bound", [b[1:] for b in BUDGET],
                             ids=[b[0] for b in BUDGET])
    def test_fresh_verify(self, make, bound):
        fiber = make()
        verify_fiber(copy.deepcopy(fiber))  # first-use caches of the runtime
        calls = python_calls(verify_fiber, copy.deepcopy(fiber))
        assert calls <= bound

    def test_no_twist(self, monkeypatch):
        twists = []
        twist = MotiveClass.twist
        monkeypatch.setattr(MotiveClass, "twist", lambda self, n: (
            twists.append(n) or twist(self, n)))
        for _, make, _ in BUDGET:
            assert verify_fiber(make()).match
        assert twists == []
