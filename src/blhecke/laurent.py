"""Exact group-algebra and rational-fragment arithmetic over the lattice Y.

`LaurentPoly` is the group algebra C[Y] at desk scale (sparse map from
integer exponent vectors to scalars).  `RationalElt` is the fragment of the
fraction field with denominators kept as factored multisets of binomials
1 - c Z^mu: every denominator produced by the commutation coefficients and
their Weyl twists is of this shape, so multivariate GCD is never needed.

Coefficients are in the normal form of `scalars.as_scalar` (integral values
`int`, other rationals `Fraction`, extension values `QuadExt`), and sums and
products of ints stay ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .coxeter import WeylElement
from .errors import PoleAtCharacter
from .rootdata import IntVec
from .scalars import ONE, Scalar, as_scalar, is_zero, scalar_key, scalar_sqrt
from .scalars import inv as scalar_inv


class LaurentPoly:
    """Finite scalar combination of monomials Z^lambda, lambda in Z^rank."""

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms: dict[IntVec, Scalar] | None = None):
        self.rank = rank
        clean: dict[IntVec, Scalar] = {}
        if terms:
            for exp, coeff in terms.items():
                coeff = as_scalar(coeff)
                if coeff:
                    clean[tuple(int(x) for x in exp)] = coeff
        self.terms = clean

    @staticmethod
    def _raw(rank: int, terms: dict[IntVec, Scalar]) -> "LaurentPoly":
        """Internal: terms already have tuple keys and exact scalar values."""
        out = object.__new__(LaurentPoly)
        out.rank = rank
        out.terms = {e: c for e, c in terms.items() if c}
        return out

    @staticmethod
    def zero(rank: int) -> "LaurentPoly":
        return LaurentPoly._raw(rank, {})

    @staticmethod
    def one(rank: int) -> "LaurentPoly":
        return LaurentPoly._raw(rank, {(0,) * rank: 1})

    @staticmethod
    def monomial(exp, coeff=1) -> "LaurentPoly":
        exp = tuple(int(x) for x in exp)
        return LaurentPoly(len(exp), {exp: coeff})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for exp, c in other.terms.items():
            prev = out.get(exp)
            out[exp] = c if prev is None else prev + c
        return LaurentPoly._raw(self.rank, out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._raw(self.rank, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[IntVec, Scalar] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                prev = out.get(e)
                c = c1 * c2
                out[e] = c if prev is None else prev + c
        return LaurentPoly._raw(self.rank, out)

    def scale(self, c: Scalar) -> "LaurentPoly":
        c = as_scalar(c)
        if not c:
            return LaurentPoly.zero(self.rank)
        return LaurentPoly._raw(self.rank, {e: v * c for e, v in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.rank == other.rank and self.terms == other.terms

    def __hash__(self):
        return hash((self.rank, self.key()))

    def key(self):
        return tuple(sorted((e, scalar_key(c)) for e, c in self.terms.items()))

    def apply_matrix(self, w: WeylElement) -> "LaurentPoly":
        out: dict[IntVec, Scalar] = {}
        for e, c in self.terms.items():
            img = w.apply(e)
            prev = out.get(img)
            out[img] = c if prev is None else prev + c
        return LaurentPoly._raw(self.rank, out)

    def constant_value(self) -> Scalar | None:
        """The scalar c if self == c * Z^0, else None."""
        if not self.terms:
            return 0
        if len(self.terms) == 1:
            (exp, c), = self.terms.items()
            if not any(exp):
                return c
        return None

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in sorted(self.terms.items()):
            bits.append(f"{c}*Z^{e}")
        return " + ".join(bits)


@dataclass(frozen=True)
class BinomialFactor:
    """The binomial 1 - scale * Z^direction (direction nonzero)."""

    scale: Scalar
    direction: IntVec

    @staticmethod
    def make(scale, direction) -> "BinomialFactor":
        return BinomialFactor(as_scalar(scale), tuple(int(x) for x in direction))

    def expand(self, rank: int) -> LaurentPoly:
        return LaurentPoly(rank, {(0,) * rank: 1, self.direction: -self.scale})

    def twist(self, w: WeylElement) -> "BinomialFactor":
        return BinomialFactor(self.scale, w.apply(self.direction))

    @property
    def sort_key(self):
        return (self.direction, scalar_key(self.scale))

    def split(self) -> list["BinomialFactor"]:
        """Factor 1 - c Z^(2 mu) into (1 - a Z^mu)(1 + a Z^mu), recursively, when
        a = sqrt(c) exists in the working field, so that either half can cancel."""
        if math.gcd(*self.direction) % 2 == 0:
            root = scalar_sqrt(self.scale)
            if root is not None:
                half = tuple(x // 2 for x in self.direction)
                return BinomialFactor(root, half).split() + BinomialFactor(-root, half).split()
        return [self]

    def __repr__(self):
        return f"(1 - {self.scale}*Z^{self.direction})"


def times_binomials(p: LaurentPoly, factors) -> LaurentPoly:
    """p times the binomials 1 - c Z^mu, expanded one at a time in order."""
    for f in factors:
        p = p * f.expand(p.rank)
    return p


def divide_binomial(poly: LaurentPoly, factor: BinomialFactor) -> LaurentPoly | None:
    """Exact quotient poly / (1 - c Z^mu), or None when division is inexact.

    The numerator is treated as a univariate polynomial in t = Z^mu over
    monomials transverse to mu; synthetic division per residue class.
    """
    if poly.is_zero:
        return poly
    if len(poly.terms) < 2:
        return None  # a nonzero monomial is never a binomial multiple
    mu = factor.direction
    c = factor.scale
    terms = poly.terms
    j = next(k for k, x in enumerate(mu) if x)
    classes: dict[IntVec, dict[int, Scalar]] = {}
    for exp, coeff in terms.items():
        k = exp[j] // mu[j]
        base = tuple(a - k * b for a, b in zip(exp, mu))
        classes.setdefault(base, {})[k] = coeff
    out: dict[IntVec, Scalar] = {}
    for base, coeffs in classes.items():
        lo = min(coeffs)
        hi = max(coeffs)
        deg = hi - lo
        p = [coeffs.get(lo + t, 0) for t in range(deg + 1)]
        if deg == 0:
            return None  # a single power of t is never divisible by 1 - c t
        q: list[Scalar] = [p[0]]
        for t in range(1, deg):
            q.append(p[t] + c * q[t - 1])
        if not is_zero(p[deg] + c * q[deg - 1]):
            return None
        for t, coeff in enumerate(q):
            if not is_zero(coeff):
                exp = tuple(a + (lo + t) * b for a, b in zip(base, mu))
                out[exp] = coeff
    return LaurentPoly(poly.rank, out)


class RationalElt:
    """Laurent numerator over a multiset of binomial denominator factors.

    Instances are always reduced: no stored factor exactly divides the
    numerator.  Equality is decided over the least common denominator: each
    numerator is multiplied only by the factors the other side does not share,
    never by the full expanded denominator.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den=()):
        num, factors = _reduce(num, [g for f in den for g in f.split()])
        self.num = num
        self.den = tuple(sorted(factors, key=lambda f: f.sort_key))

    # -- constructors ------------------------------------------------------
    @staticmethod
    def from_poly(p: LaurentPoly) -> "RationalElt":
        return RationalElt(p)

    @staticmethod
    def from_scalar(c, rank: int) -> "RationalElt":
        return RationalElt(LaurentPoly(rank, {(0,) * rank: as_scalar(c)}))

    @staticmethod
    def monomial(exp, coeff=1) -> "RationalElt":
        return RationalElt(LaurentPoly.monomial(exp, coeff))

    @property
    def rank(self) -> int:
        return self.num.rank

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other: "RationalElt") -> "RationalElt":
        if not isinstance(other, RationalElt):
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.den == other.den:
            return RationalElt(self.num + other.num, self.den)
        left, right, den = self._over_common(other)
        return RationalElt(left + right, den)

    def _over_common(self, other: "RationalElt") -> tuple[LaurentPoly, LaurentPoly, tuple]:
        """Both numerators over the common denominator (shared factors once,
        plus each side's own), and that denominator: cross-multiply only by
        the factors the other side does not share."""
        rest_self = list(self.den)
        rest_other = []
        for f in other.den:
            try:
                rest_self.remove(f)
            except ValueError:
                rest_other.append(f)
        left, right = times_binomials(self.num, rest_other), times_binomials(other.num, rest_self)
        return left, right, self.den + tuple(rest_other)

    def __neg__(self) -> "RationalElt":
        return RationalElt._raw(-self.num, self.den)

    def __sub__(self, other: "RationalElt") -> "RationalElt":
        return self + (-other)

    def __mul__(self, other: "RationalElt") -> "RationalElt":
        if not isinstance(other, RationalElt):
            return NotImplemented
        return RationalElt(self.num * other.num, self.den + other.den)

    def scale(self, c: Scalar) -> "RationalElt":
        if is_zero(as_scalar(c)):
            return RationalElt(LaurentPoly.zero(self.rank))
        return RationalElt._raw(self.num.scale(c), self.den)

    @staticmethod
    def _raw(num: LaurentPoly, den: tuple) -> "RationalElt":
        out = object.__new__(RationalElt)
        out.num = num
        out.den = den
        return out

    def __eq__(self, other):
        if not isinstance(other, RationalElt):
            return NotImplemented
        if self.den == other.den:
            return self.num == other.num
        left, right, _ = self._over_common(other)
        return left == right

    def __hash__(self):
        # equal elements have equal values wherever both denominators are
        # nonzero, so hash the value at one fixed generic character
        point = Character(tuple(Fraction(101 + 2 * k) for k in range(self.rank)))
        if any(is_zero(point.of_factor(f)) for f in self.den):
            return hash(self.rank)
        return hash((self.rank, scalar_key(evaluate(point, self))))

    # -- structure ----------------------------------------------------------
    def is_polynomial(self) -> LaurentPoly | None:
        if not self.den:
            return self.num
        return None

    def twist(self, w: WeylElement) -> "RationalElt":
        """The Weyl twist ^w: exponents lambda -> w(lambda) everywhere.  A lattice
        automorphism keeps a reduced element reduced and split factors split."""
        den = tuple(sorted((f.twist(w) for f in self.den), key=lambda f: f.sort_key))
        return RationalElt._raw(self.num.apply_matrix(w), den)

    def constant_value(self) -> Scalar | None:
        if self.den:
            return None
        return self.num.constant_value()

    def __repr__(self):
        if not self.den:
            return repr(self.num)
        return f"({self.num!r}) / {list(self.den)}"


def _reduce(num: LaurentPoly, factors: list[BinomialFactor]) -> tuple[LaurentPoly, list[BinomialFactor]]:
    """Divide out every factor that divides num, each tried once on the quotient
    so far: a factor that does not divide p divides no quotient of p."""
    if num.is_zero:
        return num, []
    remaining = []
    for f in factors:
        q = divide_binomial(num, f)
        if q is None:
            remaining.append(f)
        else:
            num = q
    return num, remaining


@dataclass(frozen=True)
class Character:
    """Group morphism Y -> field units, stored by its values on the basis."""

    values: tuple[Scalar, ...]

    @staticmethod
    def make(values) -> "Character":
        vals = tuple(as_scalar(v) for v in values)
        if any(is_zero(v) for v in vals):
            raise ValueError("character values must be nonzero")
        return Character(vals)

    @staticmethod
    def trivial(rank: int) -> "Character":
        return Character(tuple([ONE] * rank))

    @property
    def rank(self) -> int:
        return len(self.values)

    def of_vector(self, exp) -> Scalar:
        out: Scalar = ONE
        for v, e in zip(self.values, exp):
            e = int(e)
            if e > 0:
                out = out * v ** e
            elif e < 0:
                out = out * scalar_inv(v) ** (-e)
        return out

    def of_poly(self, p: LaurentPoly) -> Scalar:
        out: Scalar = Fraction(0)
        for exp, c in p.terms.items():
            out = out + c * self.of_vector(exp)
        return out

    def of_factor(self, f: BinomialFactor) -> Scalar:
        return 1 - f.scale * self.of_vector(f.direction)

    def is_trivial(self) -> bool:
        return all(v == 1 for v in self.values)

    def twist(self, w: WeylElement) -> "Character":
        """(w . tau)(lambda) = tau(w^{-1} lambda)."""
        cols = tuple(zip(*w.y_inv))  # column j = w^{-1}(e_j)
        return Character(tuple(self.of_vector(col) for col in cols))

    def __repr__(self):
        return f"Character{self.values}"


def evaluate(tau: Character, x: RationalElt) -> Scalar:
    """Value of a reduced rational element at a character; the membership test
    for the local ring at tau."""
    out = tau.of_poly(x.num)
    for f in x.den:
        v = tau.of_factor(f)
        if is_zero(v):
            raise PoleAtCharacter(f"denominator factor {f} vanishes at {tau}", factor=f)
        out = out * scalar_inv(v)
    return out

