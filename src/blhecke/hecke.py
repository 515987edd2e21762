"""The Bernstein-Lusztig-Hecke algebra on the basis T_w with rational
coefficients on the right, plus the intertwiner family F_w, the zeta
denominators, and the modified intertwiners attached to reflections.

The defining commutation is the single-difference form adopted in the design
notes: theta * T_s = T_s * (^s theta) + Omega_s(theta) with
Omega_s(theta) = Q_s^T (theta - ^s theta).  Consistency of this relation with
the quadratic relation forces the intertwiner normalization F_s = T_s - Q_s^T
(the sign that makes theta * F_w = F_w * ^(w^-1) theta and F_s^2 = zeta_s ^s
zeta_s exact identities); see the repository notes for the worked derivation.

A product h * T_v theta_v multiplies all of h on the right by each letter s of v's canonical word,
T_x phi T_s = T_x Omega_s(phi) + T_x T_s ^s(phi): Omega_s(phi) and ^s(phi) in one pass (`omega_twist`,
none for a constant phi), T_x T_s by the quadratic relation on xs and the descent (l(xs) < l(x) iff
x(alpha_i^vee) < 0), both kept on x; then by theta_v, a scaling if constant and no work if it is 1.
One coefficient per T_x is kept, so like terms merge after every letter: Z^(e_1) T_w
on affine A1 takes l(l-1) + 1 Omega calls, l = l(w), where a recursion without merging takes 2^(l+1) - 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .coxeter import WeylElement, WeylGroup, bruhat_leq, inversion_coroots
from .errors import IncompatibleData, NotInBLH
from .laurent import BinomialFactor, LaurentPoly, RationalElt, times_binomials
from .memo import ALGEBRA_TABLE_CAP, SERIES_CAP, Memo
from .rootdata import Coroot, ParameterSet, RootGeneratingSystem
from .scalars import ONE, Scalar, as_scalar
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
    def _unit(self) -> RationalElt:
        return RationalElt.from_scalar(ONE, self.system.rank)

    @cached_property
    def _sigma2(self) -> tuple[Scalar, ...]:
        return tuple(s ** 2 for s in self.params.sigma)

    @cached_property
    def _cache(self) -> dict[str, Memo]:
        """The memos of (system, params), shared by equal algebras (see the memo module)."""
        return _algebra_memos.once((self.system, self.params), lambda: {
            **{n: Memo() for n in ("q", "f", "fhat", "zeta", "sigma", "omega")}, "series": Memo(SERIES_CAP)})

    def character_memos(self, tau) -> dict[str, Memo]:
        """The memos of one character in the `series` table: its stabilizer's
        tests and its series' theta-matrices and columns (see the memo module)."""
        return self._cache["series"].once(tau, lambda: {
            "stabilizer": Memo(), "theta": Memo(), "column": Memo()})

    # -- element constructors ------------------------------------------------
    def zero(self) -> "HeckeElt":
        return HeckeElt(self, {})

    def one(self) -> "HeckeElt":
        return self.T(self.group.identity)

    def T(self, w: WeylElement) -> "HeckeElt":
        return HeckeElt(self, {self._check_element(w): self._unit})

    def _check_element(self, w: WeylElement) -> WeylElement:
        if w.system is not self.system and w.system != self.system:
            raise IncompatibleData(f"the element {w!r} of another Weyl group in this algebra")
        return w

    def theta(self, x: RationalElt | LaurentPoly) -> "HeckeElt":
        if isinstance(x, LaurentPoly):
            x = RationalElt.from_poly(x)
        return HeckeElt(self, {self.group.identity: self.check_rank(x)})

    def check_rank(self, x):
        if x.rank != self.system.rank:
            raise IncompatibleData(f"a {type(x).__name__} of rank {x.rank} in an algebra of rank {self.system.rank}")
        return x

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
            return s, sp, as_scalar(s * sp), as_scalar(-s * scalar_inv(sp))

        return self._cache["sigma"].once(c, make)

    def omega(self, i: int, theta: RationalElt) -> RationalElt:
        """Omega_s(theta) = Q_s^T (theta - ^s theta), the first of `omega_twist`."""
        return self.omega_twist(i, theta)[0]

    def omega_twist(self, i: int, theta: RationalElt) -> tuple[RationalElt, RationalElt]:
        """(Omega_s(theta), ^s theta); on a polynomial, one pass over the walks of its terms c Z^lam
        (`omega_walk`, a function of n = alpha_s(lam)), whose last points Z^(lam + |n| step) are ^s Z^lam."""
        poly = self.check_rank(theta).is_polynomial()
        if poly is None:
            return self.q_s(i) * (theta - (twisted := theta.twist(self.group.simple(i)))), twisted
        out, twisted = {}, {}
        for lam, c in poly.terms.items():
            step, n, coeffs = self.omega_walk(i, lam)
            for j, cj in coeffs.items():
                mu = tuple(x + j * a for x, a in zip(lam, step))
                out[mu] = out.get(mu, 0) + c * cj
            twisted[tuple(x + n * a for x, a in zip(lam, step))] = c
        omega = LaurentPoly._raw(self.system.rank, {mu: as_scalar(c) for mu, c in out.items()})
        return RationalElt._raw(omega, ()), RationalElt._raw(LaurentPoly._raw(self.system.rank, twisted), ())

    def omega_walk(self, i: int, lam: tuple) -> tuple[tuple, int, dict[int, Scalar]]:
        """(step, |n|, {j: c_j}) with Omega_s(Z^lam) = sum_j c_j Z^(lam + j step), memoized by (i, n), n = alpha_s(lam):
        Omega_s(Z^lam) = Z^lam Q_s^T (1 - Z^(|n| step)) (`principal` docstring) is Z^lam times a function of n alone."""
        n = self.system.root_pairing(i, lam)

        def make():
            step = tuple(-a if n > 0 else a for a in self.system.simple_coroots[i])
            path = {tuple(x + j * a for x, a in zip(lam, step)): j for j in range(abs(n) + 1)}
            poly = self._omega(i, RationalElt.monomial(lam)).is_polynomial()
            if poly is None or not poly.terms.keys() <= path.keys():
                raise NotInBLH(f"Omega_{i}(Z^{lam}) is not a polynomial on the walk from Z^{lam} to its s_{i}-twist")
            return step, abs(n), {path[mu]: c for mu, c in poly.terms.items()}

        return self._cache["omega"].once((i, n), make)

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
        return self.T(self.group.simple(i)) - self.theta(self.q_s(i))

    def f_w(self, w: WeylElement) -> "HeckeElt":
        """Intertwiner along the canonical reduced word; word-independent."""
        def make() -> HeckeElt:
            out = self.one()
            for i in w.word:
                out = out * self.f_s(i)
            return out

        return self._cache["f"].once(self._check_element(w), make)

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

    def k_tilde(self, coroot: Coroot) -> "HeckeElt":
        """Modified intertwiner of the reflection at +-coroot: normalized F plus Q^T."""
        c = coroot.abs()
        return self.f_reflection(c) + self.theta(self.q_r(c))

    def k_plain(self, coroot: Coroot) -> "HeckeElt":
        """The un-shifted modified intertwiner: k_tilde minus sigma_r^2."""
        s, _ = self.sigma_r(coroot)
        return self.k_tilde(coroot) - self.theta(RationalElt.from_scalar(s * s, self.system.rank))

    def k_tilde_word(self, coroots) -> "HeckeElt":
        """Product of modified intertwiners along a word of reflection coroots.

        Reducedness is a property of the ambient character's reflection
        subgroup; callers that know the character validate it (see the
        stabilizer module) before multiplying.
        """
        out = self.one()
        for c in coroots:
            out = out * self.k_tilde(c)
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
            _add(out, w, c)
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
        """self * T_v * theta_v for each term of other, by the module docstring's rule."""
        self._check(other)
        alg = self.algebra
        out: dict = {}
        for v, theta_v in other.coeffs.items():
            coeffs = self.coeffs
            for i in v.word:
                coeffs = _right_T_gen(alg, i, coeffs)
            const = theta_v.constant_value()
            for x, c in coeffs.items():
                _add(out, x, c if const == 1 else c * theta_v if const is None else c.scale(const))
        return HeckeElt(alg, out)

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


def _add(out: dict, w: WeylElement, c) -> None:
    out[w] = out[w] + c if w in out else c


def _right_T_gen(alg: HeckeAlgebra, i: int, coeffs: dict[WeylElement, RationalElt]) -> dict:
    """Right multiplication by T_s, s = s_i, of an element in normal form (module docstring)."""
    out: dict = {}
    sigma2 = alg._sigma2[i]
    for x, phi in coeffs.items():
        if phi.constant_value() is None:
            omega, phi = alg.omega_twist(i, phi)
            _add(out, x, omega)
        if i in x.right_descents:
            # l(xs) = l(x) - 1: T_x T_s = (sigma^2-1) T_x + sigma^2 T_xs
            _add(out, x, phi.scale(sigma2 - 1))
            _add(out, x.right_simple(i), phi.scale(sigma2))
        else:
            _add(out, x.right_simple(i), phi)
    return out


def _left_T_gen(alg: HeckeAlgebra, i: int, coeffs: dict) -> dict:
    """Left multiplication by T_{s_i} of a map w -> scalar, by the quadratic relation."""
    out: dict = {}
    sigma2 = alg.params.sigma[i] ** 2
    for w, c in coeffs.items():
        sw = w.left_simple(i)
        if i in w.left_descents:
            # l(sw) = l(w) - 1: T_s T_w = (sigma^2-1) T_w + sigma^2 T_sw
            _add(out, w, c * (sigma2 - 1))
            _add(out, sw, c * sigma2)
        else:
            _add(out, sw, c)
    return out


def _left_T(alg: HeckeAlgebra, u: WeylElement, coeffs: dict) -> dict:
    """Left multiplication by T_u, one generator of u's word at a time."""
    for i in reversed(u.word):
        coeffs = _left_T_gen(alg, i, coeffs)
    return coeffs


def max_supp(h: HeckeElt) -> tuple[WeylElement, ...]:
    """Bruhat-maximal elements of the support."""
    return tuple(w for w in h.support() if not any(v != w and bruhat_leq(w, v) for v in h.coeffs))
