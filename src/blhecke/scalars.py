"""Exact coefficient scalars: rationals, optionally extended by one square root.

The reference field is Q: integral values are `int`, other rationals
`Fraction` (see `as_scalar`).  A quadratic extension Q(sqrt(d)) for one
rational non-square d (sqrt(q) for a non-square q, or i for d = -1) is
`QuadExt`.  Arithmetic mixes them and collapses back to `Fraction` when
sqrt(d) cancels, so pure-rational computations never pay for the extension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import IncompatibleData

Scalar = Union[int, Fraction, "QuadExt"]

ZERO = Fraction(0)
ONE = Fraction(1)


def rational_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of a rational, or None if it is not a square.

    >>> rational_sqrt(Fraction(9, 4))
    Fraction(3, 2)
    >>> rational_sqrt(Fraction(2)) is None
    True
    """
    if x < 0:
        return None
    n, d = x.numerator, x.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def quadext(a, b, d) -> Scalar:
    """Build a + b*sqrt(d), collapsing to a Fraction when possible.  With
    d = p/q = f^2 d0 / q^2 for a square-free integer d0, this is
    a + (b f / q) sqrt(d0), so Q(sqrt(8)) and Q(sqrt(2)) are one field."""
    a, b, d = Fraction(a), Fraction(b), Fraction(d)
    if b == 0 or d == 0:
        return a
    f, d0 = _square_part(d.numerator * d.denominator)
    b = b * f / d.denominator
    return a + b if d0 == 1 else QuadExt(a, b, Fraction(d0))


def _square_part(n: int) -> tuple[int, int]:
    """(f, d0) with n = f^2 d0 and d0 square-free, for n != 0.  Trial division
    stops once k^3 exceeds the cofactor, whose prime factors are then at
    least k and at most two, so it is square-free unless it is a square."""
    f, d0, rest, k = 1, -1 if n < 0 else 1, abs(n), 2
    while k * k * k <= rest:
        e = 0
        while rest % k == 0:
            rest //= k
            e += 1
        f, d0, k = f * k ** (e // 2), d0 * k ** (e % 2), k + 1
    r = math.isqrt(rest)
    return (f * r, d0) if r * r == rest else (f, d0 * rest)


@dataclass(frozen=True)
class QuadExt:
    """a + b*sqrt(d) with a, b, d rational, d not a rational square, b != 0."""

    a: Fraction
    b: Fraction
    d: Fraction

    def _coerce(self, other):
        if isinstance(other, QuadExt):
            if other.d != self.d:
                raise IncompatibleData("mixed quadratic extensions: sqrt(%s) vs sqrt(%s)" % (self.d, other.d))
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt(Fraction(other), ZERO, self.d)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _in_field(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _in_field(self.a - o.a, self.b - o.b, self.d)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _in_field(o.a - self.a, o.b - self.b, self.d)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _in_field(self.a * other, self.b * other, self.d)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _in_field(
            self.a * o.a + self.b * o.b * self.d,
            self.a * o.b + self.b * o.a,
            self.d,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        n = self.a * self.a - self.b * self.b * self.d
        # n == 0 would force d to be a rational square, excluded by invariant
        return QuadExt(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.b == 0:
            return _in_field(self.a / o.a, self.b / o.a, self.d)
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        """Square and multiply from the lowest bit: t**1 is t itself, and t**n
        takes no square after the last bit."""
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return ONE
        result: Scalar | None = None
        base: Scalar = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def __eq__(self, other):
        if isinstance(other, QuadExt):
            return self.a == other.a and self.b == other.b and self.d == other.d
        if isinstance(other, (int, Fraction)):
            return False  # b != 0 means the value is not rational
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return True  # never zero: b != 0

    def __complex__(self):
        if self.d >= 0:
            return complex(float(self.a) + float(self.b) * math.sqrt(float(self.d)))
        return complex(float(self.a), float(self.b) * math.sqrt(-float(self.d)))

    def __repr__(self):
        return f"({self.a}+{self.b}*sqrt({self.d}))"


def _in_field(a: Fraction, b: Fraction, d: Fraction) -> Scalar:
    """a + b*sqrt(d) for rational a, b and the d of a `QuadExt`, which is
    known not to be a square: `quadext` without its conversions and checks."""
    return a if b == 0 else QuadExt(a, b, d)


def as_scalar(x) -> Scalar:
    """Normal form of an exact scalar: integral values are `int` (much cheaper
    than Fraction, and mixing exactly with it), other rationals `Fraction`,
    extension values `QuadExt`."""
    if isinstance(x, (int, QuadExt)):
        return x
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def is_zero(x: Scalar) -> bool:
    return not isinstance(x, QuadExt) and x == 0


def inv(x: Scalar) -> Scalar:
    """Exact multiplicative inverse (never float division), in the normal
    form of `as_scalar` for an `int`: +-1 stays an `int`."""
    if isinstance(x, QuadExt):
        return x.inverse()
    if isinstance(x, int):
        return x if x == 1 or x == -1 else Fraction(1, x)
    return 1 / x


def scalar_sqrt(x: Scalar):
    """Square root of x inside Q or Q(sqrt(d)), or None if unavailable."""
    if isinstance(x, QuadExt):
        # solve (u + v*sqrt(d))^2 = a + b*sqrt(d): uv = b/2, u^2 + d v^2 = a;
        # u^2 is a root of t^2 - a t + d b^2/4
        disc = x.a * x.a - x.d * x.b * x.b
        rdisc = rational_sqrt(disc)
        if rdisc is None:
            return None
        for u2 in ((x.a + rdisc) / 2, (x.a - rdisc) / 2):
            u = rational_sqrt(u2) if u2 >= 0 else None
            if u is not None and u != 0:
                v = x.b / (2 * u)
                if u2 + x.d * v * v == x.a:
                    return quadext(u, v, x.d)
        return None
    x = Fraction(x)
    if x >= 0:
        return rational_sqrt(x)
    return None


def sign_real(x: Scalar) -> int:
    """Exact sign of a real scalar (rational, or quadratic with d > 0)."""
    if isinstance(x, QuadExt):
        if x.d < 0:
            raise ValueError("sign of a non-real scalar")
        if x.a >= 0 and x.b >= 0:
            return 1
        if x.a <= 0 and x.b <= 0:
            return -1
        # signs differ; compare a^2 against b^2 d
        lead = 1 if x.a > 0 else -1
        return lead if x.a * x.a > x.b * x.b * x.d else -lead
    return (x > 0) - (x < 0)


def is_real(x: Scalar) -> bool:
    return not isinstance(x, QuadExt) or x.d > 0


def is_positive_real(x: Scalar) -> bool:
    if not is_real(x):
        return False
    return sign_real(x) > 0


def abs_gt_one(x: Scalar) -> bool:
    """Exact test |x| > 1 (modulus in the complex embedding)."""
    if isinstance(x, QuadExt) and x.d < 0:
        return x.a * x.a - x.d * x.b * x.b > 1
    return sign_real(x - 1) > 0 or sign_real(x + 1) < 0


def scalar_key(x: Scalar):
    """Deterministic sort key usable across Fraction and QuadExt."""
    if isinstance(x, QuadExt):
        return (1, x.a, x.b, x.d)
    return (0, Fraction(x), ZERO, ZERO)
