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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping


class UnsupportedProductError(ValueError):
    """Product of two classes leaves the supported fragment of the ring."""


class MissingRealizationError(KeyError):
    """An opaque atom lacks the data needed for a requested realization."""


# ---------------------------------------------------------------------------
# Laurent polynomials
# ---------------------------------------------------------------------------

def _prune(terms):
    return {k: c for k, c in terms.items() if c}


class _Laurent:
    """Integer Laurent polynomial stored as a pruned {exponent: coefficient}
    dict; a subclass says how exponents add under multiplication."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping | None = None):
        self._terms = _prune(dict(terms or {}))

    def items(self):
        return sorted(self._terms.items())

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __add__(self, other):
        out = dict(self._terms)
        for k, c in other._terms.items():
            out[k] = out.get(k, 0) + c
        return type(self)(out)

    def __neg__(self):
        return type(self)({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return type(self)({k: c * other for k, c in self._terms.items()})
        out = {}
        for k, c in self._terms.items():
            for k2, c2 in other._terms.items():
                e = self._add_exponents(k, k2)
                out[e] = out.get(e, 0) + c * c2
        return type(self)(out)

    __rmul__ = __mul__

    def at_one(self) -> int:
        """Value at 1 (for an E-polynomial, the Euler characteristic)."""
        return sum(self._terms.values())

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._terms.items())))


class EPolynomial(_Laurent):
    """Bivariate Laurent polynomial in u, v with integer coefficients."""

    __slots__ = ()

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
        return UnivariateLaurent(out)

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

_E_CURVE = EPolynomial({(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 1})


@dataclass(frozen=True)
class _PointAtom:
    kind_rank = 0
    name = ""

    def e_polynomial(self) -> EPolynomial:
        return EPolynomial.one()

    def count(self, atom_counts) -> int:
        return 1

    def __repr__(self) -> str:
        return "POINT"


POINT = _PointAtom()


@dataclass(frozen=True)
class EllipticCurveAtom:
    """A named elliptic curve; Hodge diamond 1 / 1 1 / 1."""

    name: str
    kind_rank = 1

    def e_polynomial(self) -> EPolynomial:
        return _E_CURVE

    def count(self, atom_counts) -> int:
        if atom_counts is None or self.name not in atom_counts:
            raise MissingRealizationError(
                "no point count declared for elliptic atom %r" % self.name)
        return int(atom_counts[self.name])

    def __repr__(self) -> str:
        return "[%s]" % self.name


@dataclass(frozen=True)
class OpaqueAtom:
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
        if atom_counts is None or key not in atom_counts:
            raise MissingRealizationError(
                "no point count declared for opaque atom %r" % self.name)
        return int(atom_counts[key])

    def __repr__(self) -> str:
        return "[%s]" % self.name


Atom = _PointAtom | EllipticCurveAtom | OpaqueAtom


def _atom_key(atom: Atom) -> tuple:
    return (atom.kind_rank, atom.name)


# ---------------------------------------------------------------------------
# motive classes
# ---------------------------------------------------------------------------

class MotiveClass:
    """Finite Z-linear combination of (atom, Lefschetz power) basis terms.

    The term (POINT, n) is L^n = Z(-n); negative powers are allowed since
    the ring is localized at L.  No zero coefficients are ever stored, so
    equality of classes is literal dictionary equality.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[Atom, int], int] | None = None):
        self._terms = _prune(dict(terms or {}))

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
        return cls({(POINT, -n): coeff})

    @classmethod
    def of_atom(cls, atom: Atom, power: int = 0, coeff: int = 1) -> "MotiveClass":
        return cls({(atom, power): coeff})

    # -- ring structure -----------------------------------------------

    def __add__(self, other: "MotiveClass") -> "MotiveClass":
        out = dict(self._terms)
        for k, c in other._terms.items():
            out[k] = out.get(k, 0) + c
        return MotiveClass(out)

    def __neg__(self) -> "MotiveClass":
        return MotiveClass({k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "MotiveClass") -> "MotiveClass":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return MotiveClass({k: c * other for k, c in self._terms.items()})
        out: dict[tuple[Atom, int], int] = {}
        for (a1, p1), c1 in self._terms.items():
            for (a2, p2), c2 in other._terms.items():
                if a1 is POINT or isinstance(a1, _PointAtom):
                    key = (a2, p1 + p2)
                elif a2 is POINT or isinstance(a2, _PointAtom):
                    key = (a1, p1 + p2)
                else:
                    raise UnsupportedProductError(
                        "product %r * %r is outside the supported fragment"
                        % (a1, a2))
                out[key] = out.get(key, 0) + c1 * c2
        return MotiveClass(out)

    __rmul__ = __mul__

    def twist(self, n: int) -> "MotiveClass":
        """Tate twist by n: multiply by L^(-n), so stored powers drop by n."""
        return MotiveClass({(a, p - n): c for (a, p), c in self._terms.items()})

    # -- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, atom: Atom, power: int) -> int:
        return self._terms.get((atom, power), 0)

    def atoms(self) -> set:
        return {a for (a, _) in self._terms}

    def terms(self) -> list[tuple[Atom, int, int]]:
        """Canonically ordered (atom, power, coeff) triples.

        Order: atom kind, then atom name, then power ascending -- the same
        order the JSON serialization uses, so it is byte-stable.
        """
        return sorted(((a, p, c) for (a, p), c in self._terms.items()),
                      key=lambda t: (_atom_key(t[0]), t[1]))

    # -- realizations -------------------------------------------------

    def e_polynomial(self) -> EPolynomial:
        out = EPolynomial()
        for (a, p), c in self._terms.items():
            out = out + a.e_polynomial() * EPolynomial.monomial(p, p, c)
        return out

    def euler_characteristic(self) -> int:
        return self.e_polynomial().at_one()

    def serre_reduce(self) -> UnivariateLaurent:
        """Image in the quotient by (Z(1) - Z), i.e. the E-polynomial with
        uv = 1, written as a Laurent polynomial in u alone."""
        out = UnivariateLaurent()
        for (a, p), c in self._terms.items():
            out = out + a.e_polynomial().serre() * c
        return out

    def point_count(self, atom_counts: Mapping[str, int] | None = None
                    ) -> UnivariateLaurent:
        """Point count as a (Laurent) polynomial in q; its value at q = 1 is
        the classical Serre invariant representative mod (q - 1)."""
        out: dict[int, int] = {}
        for (a, p), c in self._terms.items():
            n = a.count(atom_counts)
            out[p] = out.get(p, 0) + c * n
        return UnivariateLaurent(out)

    # -- plumbing -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MotiveClass) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._terms.items(),
                                 key=lambda kv: (_atom_key(kv[0][0]), kv[0][1]))))

    def __bool__(self) -> bool:
        return bool(self._terms)

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
