"""The principal series module of a character: evaluation, weight spaces,
intertwining operators, the extended action of the tau-local algebra, and
the nilpotency-depth statistic.

Vectors are finite coefficient maps on Weyl group elements (coordinates with
respect to the T_w-translates of the cyclic vector).  All linear algebra is
exact and restricted to Bruhat lower sets, which the lattice-algebra action
preserves, so truncated computations are exact, not approximate.

In `LowerSet.sorted()` order (by length) every lattice-element matrix is
upper triangular, with the w-twist of tau on the diagonal: theta.T_w v lies
in the span of the T_u v with u <= w, and u < w implies l(u) < l(w).  So the
weight-space kernels are solved by back substitution, in the basis Gaussian
elimination of the stacked equations gives (`linalg.triangular_kernel`).

The lattice action is computed on evaluated scalars (the Bernstein-Lusztig
presentation; Lusztig, JAMS 1989, section 3).  The column Z^lambda T_w v,
a map u -> scalar, comes from Z^lambda v = tau(lambda) v and, for w = s w'
with s the first letter of w's canonical word,

    Z^lambda T_w v = T_s (Z^(s lambda) T_w' v) + sum_mu c_mu Z^mu T_w' v,

where Omega_s(Z^lambda) = sum_mu c_mu Z^mu and T_s acts on the T_u v by the
quadratic relation (`hecke._left_T_gen`).  This is exact: it is the
commutation the algebra's product pushes through, and as Omega_s keeps
polynomials polynomial, tau may be applied at the bottom of the recursion
rather than at the end (as `act` does), on memoized columns.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul

from .coxeter import WeylElement, bruhat_lower_closure
from .errors import (
    DecompositionFailure,
    DomainNotLowerSet,
    NotInBLH,
    NotInGenWeightSpace,
    NotInItgSpan,
    NotInKTau,
    NotInRTau,
    NotInUC,
    PoleAtCharacter,
)
from .hecke import HeckeAlgebra, HeckeElt, _left_T, _left_T_gen
from .laurent import Character, LaurentPoly, RationalElt, evaluate, times_binomials
from .linalg import mat_pow, mat_vec, rref, triangular_kernel
from .memo import Memo
from .scalars import ONE, Scalar, as_scalar, is_zero
from .scalars import inv as scalar_inv
from .stabilizer import TauStabilizer

NEG_INF = float("-inf")


class ModuleVector:
    """Finite scalar coefficient map w -> a_w over one character."""

    __slots__ = ("character", "coeffs")

    def __init__(self, character: Character, coeffs: dict[WeylElement, Scalar]):
        self.character = character
        self.coeffs = {w: s for w, c in coeffs.items() if not is_zero(s := as_scalar(c))}

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def items(self):
        return sorted(self.coeffs.items(), key=lambda wc: wc[0].sort_key)

    def support(self) -> tuple[WeylElement, ...]:
        return tuple(sorted(self.coeffs, key=lambda w: w.sort_key))

    def __add__(self, other: "ModuleVector") -> "ModuleVector":
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            out[w] = out.get(w, 0) + c
        return ModuleVector(self.character, out)

    def __neg__(self) -> "ModuleVector":
        return ModuleVector(self.character, {w: -c for w, c in self.coeffs.items()})

    def __sub__(self, other: "ModuleVector") -> "ModuleVector":
        return self + (-other)

    def scale(self, c: Scalar) -> "ModuleVector":
        return ModuleVector(self.character, {w: v * c for w, v in self.coeffs.items()})

    def __eq__(self, other):
        if not isinstance(other, ModuleVector):
            return NotImplemented
        return self.character == other.character and self.coeffs == other.coeffs

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"{c}*T[{w!r}]v" for w, c in self.items())


@dataclass(frozen=True)
class LowerSet:
    """Finite set of Weyl elements closed downward under the Bruhat order."""

    elements: frozenset[WeylElement]

    @staticmethod
    def closure(elements) -> "LowerSet":
        return LowerSet(bruhat_lower_closure(elements))

    @staticmethod
    def validated(elements) -> "LowerSet":
        elems = frozenset(elements)
        if bruhat_lower_closure(elems) != elems:
            raise DomainNotLowerSet("domain is not closed under the Bruhat order")
        return LowerSet(elems)

    def sorted(self) -> tuple[WeylElement, ...]:
        return tuple(sorted(self.elements, key=lambda w: w.sort_key))

    def __contains__(self, w: WeylElement) -> bool:
        return w in self.elements

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class PrincipalSeries:
    """The induced module of one character, with its exact toolkit."""

    algebra: HeckeAlgebra
    tau: Character

    def v(self) -> ModuleVector:
        return ModuleVector(self.tau, {self.algebra.group.identity: ONE})

    def vector(self, coeffs: dict[WeylElement, Scalar]) -> ModuleVector:
        return ModuleVector(self.tau, coeffs)

    # -- evaluation and the plain action ------------------------------------
    def ev(self, h: HeckeElt) -> ModuleVector:
        """Coefficient-wise evaluation at tau (pole raises with context)."""
        out: dict[WeylElement, Scalar] = {}
        for w, c in h.coeffs.items():
            try:
                out[w] = evaluate(self.tau, c)
            except PoleAtCharacter as exc:
                raise PoleAtCharacter(
                    f"coefficient of T[{w!r}] has a pole at tau: {exc}", factor=exc.factor, word=w.word
                ) from exc
        return ModuleVector(self.tau, out)

    def act(self, h: HeckeElt, x: ModuleVector) -> ModuleVector:
        """Module action of a polynomial-coefficient element: the general path,
        which lifts x, multiplies and evaluates (the scalar engine's reference)."""
        if any(c.is_polynomial() is None for c in h.coeffs.values()):
            raise NotInBLH("action requires polynomial coefficients")
        lift = HeckeElt(
            self.algebra,
            {w: RationalElt.from_scalar(ONE, self.algebra.system.rank).scale(c) for w, c in x.coeffs.items()},
        )
        return self.ev(h * lift)

    def act_poly(self, p: LaurentPoly, x: ModuleVector) -> ModuleVector:
        """p.x, summed from the memoized columns."""
        out: dict[WeylElement, Scalar] = {}
        for lam, c in p.terms.items():
            for w, a in x.coeffs.items():
                _add_scaled(out, self._column(lam, w), c * a)
        return ModuleVector(self.tau, out)

    def _column(self, lam: tuple, w: WeylElement) -> dict[WeylElement, Scalar]:
        """Z^lam T_w v as a map u -> scalar, by the recursion of the module
        docstring; memoized per series, so callers must not mutate it."""
        def make() -> dict[WeylElement, Scalar]:
            if w.is_identity:
                return {w: as_scalar(self.tau.of_vector(lam))}
            alg = self.algebra
            i = w.word[0]
            rest = w.left_simple(i)
            out = _left_T_gen(alg, i, self._column(alg.group.simple(i).apply(lam), rest), mul)
            corr = alg.omega(i, RationalElt.monomial(lam)).is_polynomial()
            if corr is None:
                raise NotInBLH(f"Omega_{i}(Z^{lam}) is not a polynomial")
            for mu, c in corr.terms.items():
                _add_scaled(out, self._column(mu, rest), c)
            return {u: s for u, c in out.items() if not is_zero(s := as_scalar(c))}

        return self._memos["column"].once((lam, w), make)

    @cached_property
    def _memos(self) -> dict[str, Memo]:
        """The memos of tau in the algebra's memos; the series reads `theta` and `column`."""
        return self.algebra.character_memos(self.tau)

    # -- weight spaces ---------------------------------------------------------
    def _basis_generators(self) -> list[tuple]:
        rank = self.algebra.system.rank
        gens = []
        for j in range(rank):
            for sign in (1, -1):
                exp = [0] * rank
                exp[j] = sign
                gens.append(tuple(exp))
        return gens

    def _theta_matrix(self, exp: tuple, dom: tuple[WeylElement, ...]):
        """Matrix of the Z^exp action on the span of a lower set, column j the
        image of T_{dom[j]} v; cached and shared, so callers must not mutate it."""
        def make() -> list:
            index = {w: k for k, w in enumerate(dom)}
            m = [[Fraction(0)] * len(dom) for _ in dom]
            for j, w in enumerate(dom):
                for v, c in self._column(exp, w).items():
                    if v not in index:
                        raise DomainNotLowerSet("action left the domain; not a lower set")
                    m[index[v]][j] = c
            return m

        return _matrix_cache(self).once((exp, dom), make)

    def _shifted_matrices(self, eigen: Character, dom: tuple[WeylElement, ...]) -> list:
        """theta - eigen(theta) on the span of dom, for each generator
        theta = Z^(+-e_j); fresh matrices, upper triangular in dom's order."""
        mats = []
        for exp in self._basis_generators():
            lam = eigen.of_vector(exp)
            shifted = [list(row) for row in self._theta_matrix(exp, dom)]
            for i, row in enumerate(shifted):
                row[i] -= lam
            mats.append(shifted)
        return mats

    def weight_space(self, eigen: Character, dom: LowerSet) -> list[ModuleVector]:
        """Exact basis of the eigen-character weight space supported in dom:
        the n_cap = 1 case of `generalized_weight_space`."""
        return self._kernel_basis(eigen, dom, 1)

    def generalized_weight_space(self, eigen: Character, dom: LowerSet, n_cap: int) -> list[ModuleVector]:
        """Common kernel of the n_cap-th powers of the shifted generators,
        in the basis of the module docstring."""
        return self._kernel_basis(eigen, dom, n_cap)

    def _kernel_basis(self, eigen: Character, dom: LowerSet, n_cap: int) -> list[ModuleVector]:
        dom_sorted = dom.sorted()
        if not dom_sorted:
            return []
        mats = [mat_pow(m, n_cap) for m in self._shifted_matrices(eigen, dom_sorted)]
        basis = triangular_kernel(mats, len(dom_sorted))
        return [ModuleVector(self.tau, dict(zip(dom_sorted, vec))) for vec in basis]

    # -- intertwiners ------------------------------------------------------------
    def psi(self, w_r: WeylElement) -> "Intertwiner":
        """Endomorphism sending h.v to h.(F_{w_r}(tau).v), for w_r in the R-group."""
        if not self.stabilizer().in_r_group(w_r):
            raise NotInRTau(f"{w_r!r} fails the R-group conditions at tau")
        target = self.ev(self.algebra.f_w(w_r))
        return Intertwiner(self, w_r, target)

    # -- the tau-local module structure ---------------------------------------
    def stabilizer(self) -> TauStabilizer:
        """The one stabilizer of tau this series owns, so its memo is shared."""
        return self._stabilizer

    @cached_property
    def _stabilizer(self) -> TauStabilizer:
        return TauStabilizer(self.algebra, self.tau)

    def itg_basis(self, ell_bound: int, coroot_bound: int) -> list[ModuleVector]:
        """Evaluated modified intertwiners over the relative-length ball; the
        triangular basis of the subsystem part of the generalized weight space."""
        stab = self.stabilizer()
        uc = stab.u_c(coroot_bound)
        if not uc.ok:
            raise NotInUC(f"zeta numerator vanishes at tau (witness {uc.witness})", witness=uc.witness)
        out = []
        for w in stab.subgroup_ball(ell_bound, coroot_bound):
            out.append(self.ev(stab.k_tilde_of(w)))
        return out

    def _k_coordinates(self, x: ModuleVector, stab: TauStabilizer) -> dict[WeylElement, Scalar]:
        """Coordinates of x in the evaluated modified-intertwiner basis."""
        residue = x
        coords: dict[WeylElement, Scalar] = {}
        while not residue.is_zero:
            w = max(residue.support(), key=lambda v: v.sort_key)
            if not stab.in_reflection_subgroup(w):
                raise NotInItgSpan(f"support element {w!r} outside the reflection subgroup")
            basis_vec = self.ev(stab.k_tilde_of(w))
            lead = basis_vec.coeffs.get(w)
            c = residue.coeffs[w] * scalar_inv(lead)
            coords[w] = c
            residue = residue - basis_vec.scale(c)
        return coords

    def k_act(self, k: HeckeElt, x: ModuleVector) -> ModuleVector:
        """Extended action of the tau-local algebra on the subsystem part.

        Lift x through polynomial representatives, multiply, decompose in the
        K~ basis, and evaluate the tau-local coefficients.
        """
        stab = self.stabilizer()
        coords = self._k_coordinates(x, stab)
        h = self.algebra.zero()
        for w, c in coords.items():
            h = h + self._poly_rep(stab, w).scale(c)
        prod = k * h
        out = ModuleVector(self.tau, {})
        while not prod.is_zero:
            supp = prod.support()
            w = max(supp, key=lambda v: v.sort_key)
            if not stab.in_reflection_subgroup(w):
                raise NotInKTau(f"leading support {w!r} outside the reflection subgroup")
            ktw = stab.k_tilde_of(w)
            theta = prod.coeffs[w] * stab.k_lead_inverse(w)
            try:
                val = evaluate(self.tau, theta)
            except PoleAtCharacter as exc:
                raise DecompositionFailure(f"coefficient of K~[{w!r}] has a pole at tau: {exc}") from exc
            prod = prod - ktw.times_fn(theta)
            if w in prod.coeffs:
                raise DecompositionFailure(f"leading coefficient of K~[{w!r}] did not cancel")
            if not is_zero(val):
                out = out + self.ev(ktw).scale(val)
        return out

    def _poly_rep(self, stab: TauStabilizer, w: WeylElement) -> HeckeElt:
        """Polynomial representative K~_w g_w / tau(g_w) with the same value at tau.

        g_w is a least common multiple of the coefficient denominators (max
        multiplicity per distinct binomial factor), which keeps the clearing
        polynomial small while matching the construction's value at tau.
        """
        ktw = stab.k_tilde_of(w)
        needed: Counter = Counter()
        for _, c in ktw.items():
            needed |= Counter(c.den)
        factors = sorted(needed.elements(), key=lambda f: f.sort_key)
        g = times_binomials(LaurentPoly.one(self.algebra.system.rank), factors)
        rep = ktw.times_fn(RationalElt.from_poly(g))
        return rep.scale(scalar_inv(self.tau.of_poly(g)))

    # -- statistics ------------------------------------------------------------
    def ord_tau(self, x: ModuleVector) -> int:
        """Least k with every k-fold product of vanishing lattice elements
        killing x, by iterated spans of the 2*rank shifted generators."""
        if x.is_zero:
            return 0
        dom = LowerSet.closure(x.support()).sorted()
        n = len(dom)
        mats = self._shifted_matrices(self.tau, dom)
        current = [[x.coeffs.get(w, Fraction(0)) for w in dom]]
        k = 0
        while current:
            k += 1
            if k > n + 1:
                raise NotInGenWeightSpace("span iteration failed to vanish")
            span, pivots = rref([mat_vec(m, vec) for vec in current for m in mats])
            current = span[:len(pivots)]
        return k

    def stats(self, x: ModuleVector) -> "VectorStats":
        """Support, relative length, leading term and its breadth, in the
        evaluated modified-intertwiner coordinates."""
        stab = self.stabilizer()
        coords = self._k_coordinates(x, stab)
        if not coords:
            return VectorStats((), NEG_INF, ModuleVector(self.tau, {}), 0)
        ell = {w: stab.ell_tau(w) for w in coords}
        top = max(ell.values())
        leading = ModuleVector(self.tau, {})
        count = 0
        for w, c in coords.items():
            if ell[w] == top:
                leading = leading + self.ev(stab.k_tilde_of(w)).scale(c)
                count += 1
        supp = tuple(sorted(coords, key=lambda w: w.sort_key))
        return VectorStats(supp, top, leading, count)


@dataclass(frozen=True)
class VectorStats:
    supp: tuple[WeylElement, ...]
    ell_tau: int | float
    leading_term: ModuleVector
    n_tau: int


class Intertwiner:
    """The module endomorphism determined by a weight vector image of v."""

    def __init__(self, series: PrincipalSeries, w_r: WeylElement, target: ModuleVector):
        self.series = series
        self.w_r = w_r
        self.target = target

    def __call__(self, x: ModuleVector) -> ModuleVector:
        """Sum of c T_w.target over the terms c T_w v of x, by the scalar T_s rule."""
        out: dict[WeylElement, Scalar] = {}
        for w, c in x.coeffs.items():
            _add_scaled(out, _left_T(self.series.algebra, w, self.target.coeffs, mul), c)
        return ModuleVector(self.series.tau, out)


def _add_scaled(out: dict, vec: dict, c: Scalar) -> None:
    """out += c * vec, coefficient by coefficient."""
    for u, a in vec.items():
        out[u] = out.get(u, 0) + c * a


def _matrix_cache(series: PrincipalSeries) -> Memo:
    """The theta-matrices of a series by (exponent, domain)."""
    return series._memos["theta"]
