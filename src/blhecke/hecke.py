"""The Bernstein-Lusztig-Hecke algebra on the basis T_w with rational
coefficients on the right, plus the intertwiner family F_w, the zeta
denominators, and the modified intertwiners attached to reflections.

The defining commutation is the single-difference form adopted in the design
notes: theta * T_s = T_s * (^s theta) + Omega_s(theta) with
Omega_s(theta) = Q_s^T (theta - ^s theta).  Consistency of this relation with
the quadratic relation forces the intertwiner normalization F_s = T_s - Q_s^T
(the sign that makes theta * F_w = F_w * ^(w^-1) theta and F_s^2 = zeta_s ^s
zeta_s exact identities); see the repository notes for the worked derivation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .coxeter import (
    CONE_POSITIVE,
    CONE_UNDETERMINED,
    WeylElement,
    WeylGroup,
    bruhat_leq,
    coroot_of_reflection,
    inversion_coroots,
)
from .errors import IncompatibleData
from .laurent import BinomialFactor, LaurentPoly, RationalElt, times_binomials
from .memo import ALGEBRA_CAP, ALGEBRA_TABLE_CAP, COLUMN_CAP, SERIES_CAP, STABILIZER_CAP, THETA_MATRIX_CAP, Memo
from .rootdata import Coroot, ParameterSet, RootGeneratingSystem
from .scalars import ONE, Scalar
from .scalars import inv as scalar_inv

# process-level, so equal algebras share their memos (see the memo module)
_algebra_memos = Memo(ALGEBRA_TABLE_CAP)


@dataclass(frozen=True)
class HeckeAlgebra:
    """Context object: one root generating system with one parameter set."""

    system: RootGeneratingSystem
    params: ParameterSet

    @cached_property
    def group(self) -> WeylGroup:
        return WeylGroup(self.system)

    @cached_property
    def _cache(self) -> dict[str, Memo]:
        """The memos of (system, params), shared by equal algebras (see the memo module)."""
        names = ("q", "omega", "f", "fhat", "zeta", "sigma")
        return _algebra_memos.once(
            (self.system, self.params), lambda: {**{n: Memo(ALGEBRA_CAP) for n in names}, "series": Memo(SERIES_CAP)}
        )

    def character_memos(self, tau) -> dict[str, Memo]:
        """The memos of one character in the `series` table: its stabilizer's
        tests and its series' theta-matrices and columns (see the memo module)."""
        return self._cache["series"].once(tau, lambda: {
            "stabilizer": Memo(STABILIZER_CAP), "theta": Memo(THETA_MATRIX_CAP), "column": Memo(COLUMN_CAP)})

    # -- element constructors ------------------------------------------------
    def zero(self) -> "HeckeElt":
        return HeckeElt(self, {})

    def one(self) -> "HeckeElt":
        return self.T(self.group.identity)

    def T(self, w: WeylElement) -> "HeckeElt":
        return HeckeElt(self, {w: RationalElt.from_scalar(ONE, self.system.rank)})

    def theta(self, x: RationalElt | LaurentPoly) -> "HeckeElt":
        if isinstance(x, LaurentPoly):
            x = RationalElt.from_poly(x)
        return HeckeElt(self, {self.group.identity: x})

    def monomial(self, exp, coeff=ONE) -> "HeckeElt":
        return self.theta(RationalElt.monomial(exp, coeff))

    # -- structural coefficients ---------------------------------------------
    def q_s(self, i: int) -> RationalElt:
        """Q_s^T for a simple generator: the commutation coefficient."""
        return self._cache["q"].once(i, lambda: self.q_r(self.system.simple_coroot(i)))

    def q_r(self, coroot: Coroot) -> RationalElt:
        """Q^T_r = ^w(Q^T_s) for the reflection r = w s w^{-1} at a coroot a:
        ((s^2-1) + s(s'-s'^-1) Z^-a) / (1-Z^-a)(1+Z^-a)."""
        c = coroot.abs()
        rank = self.system.rank
        s, sp = self.sigma_r(c)
        neg = tuple(-x for x in self.system.coroot_to_y(c.coords))
        num = LaurentPoly(rank, {(0,) * rank: s * s - 1, neg: s * (sp - scalar_inv(sp))})
        return RationalElt(num, (BinomialFactor.make(ONE, neg), BinomialFactor.make(-ONE, neg)))

    def sigma_r(self, coroot: Coroot) -> tuple[Scalar, Scalar]:
        """(sigma, sigma') of the simple orbit representative of a coroot."""
        return self.sigma_values(coroot)[:2]

    def sigma_values(self, coroot: Coroot) -> tuple[Scalar, Scalar, Scalar, Scalar]:
        """(s, s', s s', -s/s') with (s, s') = sigma_r: the last two are the
        values of tau(alpha^vee) where the zeta numerator vanishes."""
        c = coroot.abs()

        def make():
            _, i = self.group.coroot_data(c)
            s, sp = self.params.sigma[i], self.params.sigma_prime[i]
            return s, sp, s * sp, -s * scalar_inv(sp)

        return self._cache["sigma"].once(c, make)

    def omega(self, i: int, theta: RationalElt) -> RationalElt:
        """Omega_s(theta) = Q_s^T (theta - ^s theta); polynomial on polynomials."""
        poly = theta.is_polynomial()
        if poly is None:
            return self._omega(i, theta)
        out = RationalElt.from_scalar(0, self.system.rank)
        cache = self._cache["omega"]
        for exp, coeff in poly.terms.items():
            hit = cache.once((i, exp), lambda: self._omega(i, RationalElt.monomial(exp)))
            out = out + (hit if coeff == 1 else hit.scale(coeff))  # 0 + hit is hit itself
        return out

    def _omega(self, i: int, theta: RationalElt) -> RationalElt:
        return self.q_s(i) * (theta - theta.twist(self.group.simple(i)))

    def zeta(self, coroot: Coroot) -> RationalElt:
        """zeta_r = sigma_r^2 - Q_r^T = (1 - s s' Z^-a)(1 + (s/s') Z^-a) / ((1 - Z^-a)(1 + Z^-a))
        at a = alpha_r^vee, reduced (the pairs that cancel are in the `stabilizer` docstring)."""
        return self._zeta_pair(coroot.abs())[0]

    def zeta_inverse(self, coroot: Coroot) -> RationalElt:
        """zeta_r^{-1}, reduced, from the same four binomials swapped."""
        return self._zeta_pair(coroot.abs())[1]

    def _zeta_pair(self, c: Coroot) -> tuple[RationalElt, RationalElt]:
        def make() -> tuple[RationalElt, RationalElt]:
            _, _, r1, r2 = self.sigma_values(c)
            neg = tuple(-x for x in self.system.coroot_to_y(c.coords))
            num = (BinomialFactor.make(r1, neg), BinomialFactor.make(r2, neg))
            den = (BinomialFactor.make(ONE, neg), BinomialFactor.make(-ONE, neg))
            one = LaurentPoly.one(self.system.rank)
            return RationalElt(times_binomials(one, num), den), RationalElt(times_binomials(one, den), num)

        return self._cache["zeta"].once(c, make)

    # -- intertwiners ----------------------------------------------------------
    def f_s(self, i: int) -> "HeckeElt":
        """F_s = T_s - Q_s^T for a simple generator."""
        return HeckeElt(
            self,
            {
                self.group.simple(i): RationalElt.from_scalar(ONE, self.system.rank),
                self.group.identity: -self.q_s(i),
            },
        )

    def f_w(self, w: WeylElement) -> "HeckeElt":
        """Intertwiner along the canonical reduced word; word-independent."""
        def make() -> HeckeElt:
            out = self.one()
            for i in w.word:
                out = out * self.f_s(i)
            return out

        return self._cache["f"].once(w, make)

    def f_reflection(self, coroot: Coroot) -> "HeckeElt":
        """Normalized intertwiner for the reflection r at a positive coroot:
        F_r rescaled by prod_{beta in N(r), beta != alpha_r} zeta_beta^{-1}.

        The rescaling restores F_r^2 = zeta_r ^r zeta_r (automatic for simple
        reflections, where it is empty), which the quadratic relation of the
        modified intertwiners requires.
        """
        c = coroot.abs()

        def make() -> HeckeElt:
            r = self.group.reflection(c)
            out = self.f_w(r)
            for beta in inversion_coroots(r):
                if beta != c:
                    out = out * self.theta(self.zeta_inverse(beta))
            return out

        return self._cache["fhat"].once(c, make)

    def k_tilde(self, reflection_or_coroot) -> "HeckeElt":
        """Modified intertwiner of a reflection: normalized F plus Q^T."""
        if isinstance(reflection_or_coroot, Coroot):
            c = reflection_or_coroot.abs()
        else:
            c = coroot_of_reflection(reflection_or_coroot)
        return self.f_reflection(c) + self.theta(self.q_r(c))

    def k_plain(self, reflection_or_coroot) -> "HeckeElt":
        """The un-shifted modified intertwiner: k_tilde minus sigma_r^2."""
        if isinstance(reflection_or_coroot, Coroot):
            c = reflection_or_coroot.abs()
        else:
            c = coroot_of_reflection(reflection_or_coroot)
        s, _ = self.sigma_r(c)
        return self.k_tilde(c) - self.theta(RationalElt.from_scalar(s * s, self.system.rank))

    def k_tilde_word(self, reflections) -> "HeckeElt":
        """Product of modified intertwiners along a word of reflections.

        Reducedness is a property of the ambient character's reflection
        subgroup; callers that know the character validate it (see the
        stabilizer module) before multiplying.
        """
        out = self.one()
        for r in reflections:
            out = out * self.k_tilde(r)
        return out


class HeckeElt:
    """Finite sum of T_w with rational coefficients on the right."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: HeckeAlgebra, coeffs: dict[WeylElement, RationalElt]):
        self.algebra = algebra
        self.coeffs = {w: c for w, c in coeffs.items() if not c.is_zero}

    def items(self):
        return sorted(self.coeffs.items(), key=lambda wc: wc[0].sort_key)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def support(self) -> tuple[WeylElement, ...]:
        return tuple(sorted(self.coeffs, key=lambda w: w.sort_key))

    def __add__(self, other: "HeckeElt") -> "HeckeElt":
        self._check(other)
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            out[w] = out[w] + c if w in out else c
        return HeckeElt(self.algebra, out)

    def __neg__(self) -> "HeckeElt":
        return HeckeElt(self.algebra, {w: -c for w, c in self.coeffs.items()})

    def __sub__(self, other: "HeckeElt") -> "HeckeElt":
        return self + (-other)

    def times_fn(self, theta: RationalElt) -> "HeckeElt":
        """Right multiplication by a rational function."""
        return HeckeElt(self.algebra, {w: c * theta for w, c in self.coeffs.items()})

    def scale(self, c: Scalar) -> "HeckeElt":
        return HeckeElt(self.algebra, {w: x.scale(c) for w, x in self.coeffs.items()})

    def _check(self, other: "HeckeElt") -> None:
        if self.algebra != other.algebra:
            raise IncompatibleData("elements of different Hecke algebras")

    def __mul__(self, other: "HeckeElt") -> "HeckeElt":
        self._check(other)
        alg = self.algebra
        out = alg.zero()
        for u, theta_u in self.coeffs.items():
            for v, theta_v in other.coeffs.items():
                part = HeckeElt(alg, _left_T(alg, u, _push_through(alg, theta_u, v).coeffs))
                out = out + part.times_fn(theta_v)
        return out

    def __eq__(self, other):
        if not isinstance(other, HeckeElt):
            return NotImplemented
        if self.algebra != other.algebra:
            return False
        if set(self.coeffs) != set(other.coeffs):
            return False
        return all(self.coeffs[w] == other.coeffs[w] for w in self.coeffs)

    def __hash__(self):
        # coefficients hash by value, so equal elements hash equally
        return hash(frozenset((w, hash(c)) for w, c in self.coeffs.items()))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"T[{w!r}]*({c!r})" for w, c in self.items())


def _left_T_gen(alg: HeckeAlgebra, i: int, coeffs: dict, scale=RationalElt.scale) -> dict:
    """Left multiplication by T_{s_i} of an element in normal form; scale(c, k)
    is c times the scalar k (`operator.mul` for scalar coefficients)."""
    out: dict = {}
    sigma2 = alg.params.sigma[i] ** 2

    def acc(w, c):
        if w in out:
            out[w] = out[w] + c
        else:
            out[w] = c

    for w, c in coeffs.items():
        sw = w.left_simple(i)
        if i in w.left_descents:
            # l(sw) = l(w) - 1: T_s T_w = (sigma^2-1) T_w + sigma^2 T_sw
            acc(w, scale(c, sigma2 - 1))
            acc(sw, scale(c, sigma2))
        else:
            acc(sw, c)
    return out


def _left_T(alg: HeckeAlgebra, u: WeylElement, coeffs: dict, scale=RationalElt.scale) -> dict:
    """Left multiplication by T_u, one generator of u's word at a time."""
    for i in reversed(u.word):
        coeffs = _left_T_gen(alg, i, coeffs, scale)
    return coeffs


def _push_through(alg: HeckeAlgebra, theta: RationalElt, v: WeylElement) -> "HeckeElt":
    """Normal form of theta * T_v via theta*T_s = T_s*^s(theta) + Omega_s(theta)."""
    if theta.is_zero:
        return alg.zero()
    if v.is_identity or theta.constant_value() is not None:
        return HeckeElt(alg, {v: theta})
    i = v.word[0]
    s = alg.group.simple(i)
    rest = v.left_simple(i)
    main = _push_through(alg, theta.twist(s), rest)
    main = HeckeElt(alg, _left_T_gen(alg, i, main.coeffs))
    corr = alg.omega(i, theta)
    if not corr.is_zero:
        main = main + _push_through(alg, corr, rest)
    return main


@dataclass(frozen=True)
class Membership:
    """Membership verdict: in the polynomial subalgebra, and in the
    Iwahori-Hecke subalgebra (None when a Tits-cone query is undetermined)."""

    in_blh: bool
    in_ih: bool | None


def membership(h: HeckeElt, dominance_cap: int | None = None) -> Membership:
    group = h.algebra.group
    in_ih: bool | None = True
    for _, c in h.coeffs.items():
        poly = c.is_polynomial()
        if poly is None:
            return Membership(False, False)
        if in_ih is False:
            continue
        for exp in poly.terms:
            res = group.tits_cone(exp, dominance_cap)
            if res.status == CONE_UNDETERMINED:
                in_ih = None
            elif res.status != CONE_POSITIVE:
                in_ih = False
                break
    return Membership(True, in_ih)


def max_supp(h: HeckeElt) -> tuple[WeylElement, ...]:
    """Bruhat-maximal elements of the support."""
    supp = list(h.coeffs)
    out = []
    for w in supp:
        if not any(v != w and bruhat_leq(w, v) for v in supp):
            out.append(w)
    return tuple(sorted(out, key=lambda w: w.sort_key))
