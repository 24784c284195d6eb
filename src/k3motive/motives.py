"""Symbolic arithmetic in the localized Grothendieck ring of varieties.

Classes are stored decomposed over a small set of atoms -- the point, named
elliptic curves, and user-declared opaque atoms -- each multiplied by an
integer power of the Lefschetz class L = [A^1].  With the Tate-twist
convention [Z](n) = [Z] * L^(-n), the stored power of a term DECREASES by n
under a twist by n; that sign is fixed here once and covered by a dedicated
test, since every closed-form evaluation in the package depends on it.

Multiplication is deliberately partial: products where neither atom is the
point are rejected (the class algebra needed would exceed what we can
certify), except that distributing over point-based factors is of course
fine.  Four realizations are provided: the two-variable E-polynomial, the
Euler characteristic, the reduction modulo (uv - 1) killing the Tate twist,
and point counting as a polynomial in q with its residue at q = 1.

``EPolynomial``, ``UnivariateLaurent`` and ``MotiveClass`` share one sparse
term base, ``_Terms``: a pruned {key: coefficient} dict with equality and an
order-free hash.  One primitive, ``_combine``, sums n * x over (int n, value
x) pairs in one dict and prunes zeros once; sum, difference, negation and
integer multiples are its special cases.  A subclass gives the product of
two keys (exponents add in the Laurent polynomials; in a class the Lefschetz
powers add and a point atom takes on the other factor's atom) and the powers
in its keys.  Coefficients and powers are ``int``s, refused otherwise with
ValueError; arithmetic with another type returns NotImplemented (``*`` also
takes an ``int``), so Python raises TypeError.  Values of two different
types never compare equal.
"""

from __future__ import annotations

from itertools import chain
from typing import Mapping

from ._record import Record
from .intlinalg import _int_rows


class UnsupportedProductError(ValueError):
    """Product of two classes leaves the supported fragment of the ring."""


class MissingRealizationError(KeyError):
    """An opaque atom lacks the data needed for a requested realization."""


# ---------------------------------------------------------------------------
# sparse terms and Laurent polynomials
# ---------------------------------------------------------------------------

class _Terms:
    """Finite Z-linear combination of keys, stored as a pruned
    {key: coefficient} dict; a subclass says how keys multiply and which
    parts of a key are powers."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping | None = None):
        terms = terms or {}
        _int_rows((terms.values(), self._powers(terms)),
                  "coefficient or power")
        self._terms = {k: c for k, c in terms.items() if c}

    @classmethod
    def _pruned(cls, out: dict):
        """A value from a dict of integer coefficients, without the check."""
        new = object.__new__(cls)
        new._terms = {k: c for k, c in out.items() if c}
        return new

    @classmethod
    def _combine(cls, pairs):
        """Sum of n * x over (int n, value x) pairs, in one dict."""
        out: dict = {}
        for n, x in pairs:
            for k, c in x._terms.items():
                out[k] = out.get(k, 0) + n * c
        return cls._pruned(out)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._combine(((1, self), (1, other)))

    def __neg__(self):
        return self._combine(((-1, self),))

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._combine(((1, self), (-1, other)))

    def __mul__(self, other):
        if type(other) is int:
            return self._combine(((other, self),))
        if type(other) is not type(self):
            return NotImplemented
        out = {}
        for k, c in self._terms.items():
            for k2, c2 in other._terms.items():
                e = self._add_exponents(k, k2)
                out[e] = out.get(e, 0) + c * c2
        return self._pruned(out)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))


class _Laurent(_Terms):
    """Integer Laurent polynomial: its exponents are ordered."""

    __slots__ = ()

    def items(self):
        return sorted(self._terms.items())

    def at_one(self) -> int:
        """Value at 1 (for an E-polynomial, the Euler characteristic)."""
        return sum(self._terms.values())


class EPolynomial(_Laurent):
    """Bivariate Laurent polynomial in u, v with integer coefficients."""

    __slots__ = ()

    _powers = staticmethod(chain.from_iterable)

    @staticmethod
    def _add_exponents(a, b):
        return (a[0] + b[0], a[1] + b[1])

    @classmethod
    def monomial(cls, pu: int, pv: int, coeff: int = 1) -> "EPolynomial":
        return cls({(pu, pv): coeff})

    @classmethod
    def one(cls) -> "EPolynomial":
        return cls({(0, 0): 1})

    def coefficient(self, pu: int, pv: int) -> int:
        return self._terms.get((pu, pv), 0)

    def serre(self) -> "UnivariateLaurent":
        """Image under uv = 1: substitute v = u^(-1)."""
        out: dict[int, int] = {}
        for (a, b), c in self._terms.items():
            out[a - b] = out.get(a - b, 0) + c
        return UnivariateLaurent._pruned(out)

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        bits = []
        for (a, b), c in sorted(self._terms.items()):
            pow_ = ("u^%d" % a if a not in (0, 1) else "u" if a == 1 else "") + \
                   ("v^%d" % b if b not in (0, 1) else "v" if b == 1 else "")
            bits.append(("%+d" % c) + ("*" + pow_ if pow_ else ""))
        return " ".join(bits)


class UnivariateLaurent(_Laurent):
    """Laurent polynomial in a single variable with integer coefficients.

    Used both for the quotient modulo (uv - 1), a Laurent polynomial in u
    alone, and for point counts, a polynomial in q.
    """

    __slots__ = ()

    _powers = staticmethod(iter)

    @staticmethod
    def _add_exponents(a, b):
        return a + b

    @classmethod
    def monomial(cls, power: int, coeff: int = 1) -> "UnivariateLaurent":
        return cls({power: coeff})

    @classmethod
    def constant(cls, value: int) -> "UnivariateLaurent":
        return cls({0: value})

    def coefficient(self, power: int) -> int:
        return self._terms.get(power, 0)

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        return " ".join("%+d*x^%d" % (c, p) if p else "%+d" % c
                        for p, c in sorted(self._terms.items()))


# ---------------------------------------------------------------------------
# atoms
# ---------------------------------------------------------------------------

_E_POINT = EPolynomial.one()
_E_CURVE = EPolynomial({(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 1})


class _PointAtom:
    """The singleton ``POINT``: equal to itself only, and its own copy."""

    __slots__ = ()
    kind_rank = 0
    name = ""

    def __reduce__(self) -> str:
        return "POINT"

    def e_polynomial(self) -> EPolynomial:
        return _E_POINT

    def count(self, atom_counts) -> int:
        return 1

    def __repr__(self) -> str:
        return "POINT"


POINT = _PointAtom()


class EllipticCurveAtom(Record):
    """A named elliptic curve; Hodge diamond 1 / 1 1 / 1."""

    name: str
    kind_rank = 1

    def e_polynomial(self) -> EPolynomial:
        return _E_CURVE

    def count(self, atom_counts) -> int:
        return _declared_count(atom_counts, self.name, "elliptic", self.name)

    def __repr__(self) -> str:
        return "[%s]" % self.name


class OpaqueAtom(Record):
    """A user-declared class with explicitly given realizations."""

    name: str
    e_poly: EPolynomial | None = None
    count_symbol: str | None = None
    kind_rank = 2

    def e_polynomial(self) -> EPolynomial:
        if self.e_poly is None:
            raise MissingRealizationError(
                "opaque atom %r has no declared E-polynomial" % self.name)
        return self.e_poly

    def count(self, atom_counts) -> int:
        key = self.count_symbol if self.count_symbol is not None else self.name
        return _declared_count(atom_counts, key, "opaque", self.name)

    def __repr__(self) -> str:
        return "[%s]" % self.name


Atom = _PointAtom | EllipticCurveAtom | OpaqueAtom


def _declared_count(atom_counts, key: str, kind: str, name: str) -> int:
    """The point count declared under ``key``; it must be an ``int``."""
    if atom_counts is None or key not in atom_counts:
        raise MissingRealizationError(
            "no point count declared for %s atom %r" % (kind, name))
    n = atom_counts[key]
    if type(n) is not int:
        raise ValueError("point count %r of %s atom %r is not an integer"
                         % (n, kind, name))
    return n


# ---------------------------------------------------------------------------
# motive classes
# ---------------------------------------------------------------------------

class MotiveClass(_Terms):
    """Finite Z-linear combination of (atom, Lefschetz power) basis terms.

    The term (POINT, n) is L^n = Z(-n); negative powers are allowed since
    the ring is localized at L.
    """

    __slots__ = ()
    # the base's functions, bound here too: perfbench/tracer.py wraps them
    __add__, __neg__, __sub__, __mul__, __rmul__ = (
        _Terms.__add__, _Terms.__neg__, _Terms.__sub__, _Terms.__mul__,
        _Terms.__rmul__)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "MotiveClass":
        return cls()

    @classmethod
    def one(cls) -> "MotiveClass":
        return cls({(POINT, 0): 1})

    @classmethod
    def lefschetz(cls, power: int = 1, coeff: int = 1) -> "MotiveClass":
        """coeff * L^power."""
        return cls({(POINT, power): coeff})

    @classmethod
    def tate(cls, n: int, coeff: int = 1) -> "MotiveClass":
        """coeff * Z(n) = coeff * L^(-n)."""
        return cls.lefschetz(0, coeff).twist(n)

    @classmethod
    def of_atom(cls, atom: Atom, power: int = 0, coeff: int = 1) -> "MotiveClass":
        return cls({(atom, power): coeff})

    # -- ring structure -----------------------------------------------

    _powers = staticmethod(lambda keys: (p for _, p in keys))

    @staticmethod
    def _add_exponents(a, b):
        """L-powers add; a point atom takes on the other factor's atom."""
        (a1, p1), (a2, p2) = a, b
        if isinstance(a1, _PointAtom):
            return (a2, p1 + p2)
        if isinstance(a2, _PointAtom):
            return (a1, p1 + p2)
        raise UnsupportedProductError(
            "product %r * %r is outside the supported fragment" % (a1, a2))

    def twist(self, n: int) -> "MotiveClass":
        """Tate twist by n: multiply by L^(-n), so stored powers drop by n."""
        if type(n) is not int:
            raise ValueError("twist %r is not an integer" % (n,))
        return MotiveClass._pruned({(a, p - n): c
                                    for (a, p), c in self._terms.items()})

    # -- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, atom: Atom, power: int) -> int:
        return self._terms.get((atom, power), 0)

    def terms(self) -> list[tuple[Atom, int, int]]:
        """Canonically ordered (atom, power, coeff) triples.

        Order: atom kind, then atom name, then power ascending -- the same
        order the JSON serialization uses, so it is byte-stable.
        """
        return sorted(((a, p, c) for (a, p), c in self._terms.items()),
                      key=lambda t: (t[0].kind_rank, t[0].name, t[1]))

    # -- realizations -------------------------------------------------

    def e_polynomial(self) -> EPolynomial:
        out: dict = {}
        for (a, p), c in self._terms.items():
            for (u, v), d in a.e_polynomial()._terms.items():
                out[u + p, v + p] = out.get((u + p, v + p), 0) + c * d
        return EPolynomial._pruned(out)

    def euler_characteristic(self) -> int:
        return self.e_polynomial().at_one()

    def serre_reduce(self) -> UnivariateLaurent:
        """Image in the quotient by (Z(1) - Z), i.e. the E-polynomial with
        uv = 1, written as a Laurent polynomial in u alone."""
        return self.e_polynomial().serre()

    def point_count(self, atom_counts: Mapping[str, int] | None = None
                    ) -> UnivariateLaurent:
        """Point count as a (Laurent) polynomial in q; its value at q = 1 is
        the classical Serre invariant representative mod (q - 1)."""
        out: dict[int, int] = {}
        for (a, p), c in self._terms.items():
            out[p] = out.get(p, 0) + c * a.count(atom_counts)
        return UnivariateLaurent._pruned(out)

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        bits = []
        for atom, power, coeff in self.terms():
            if isinstance(atom, _PointAtom):
                base = "L^%d" % power if power not in (0, 1) else \
                    ("L" if power == 1 else "1")
            else:
                base = repr(atom) + ("(%d)" % -power if power else "")
            bits.append("%+d*%s" % (coeff, base))
        return " ".join(bits)
