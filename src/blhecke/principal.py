"""The principal series module of a character: evaluation, weight spaces,
intertwining operators, the extended action of the tau-local algebra, and
the nilpotency-depth statistic.

Vectors are finite coefficient maps on Weyl group elements (coordinates with
respect to the T_w-translates of the cyclic vector).  All linear algebra is
exact and restricted to Bruhat balls (the elements of length <= L,
`WeylGroup.ball`).  A ball is a lower set for the Bruhat order, since u <= w
implies l(u) <= l(w), and the lattice-algebra action preserves the span of a
lower set, so truncated computations are exact, not approximate.

In the ball's order (by length; `WeylGroup.ball`) every lattice-element matrix
is upper triangular, with the w-twist of tau on the diagonal: theta.T_w v lies
in the span of the T_u v with u <= w, and u < w implies l(u) < l(w).  So the
weight-space kernels are solved by back substitution, in the basis Gaussian
elimination of the stacked equations gives (`linalg.triangular_kernel`).

The queries act by the rank generators Z^(e_j) - chi(e_j) of the maximal
ideal of a character chi: Z^(-e_j) - chi(e_j)^(-1) is -chi(e_j)^(-1) Z^(-e_j)
(Z^(e_j) - chi(e_j)), and Z^(-e_j) acts invertibly on the span of a lower set
(a finite-dimensional C[Y]-submodule) and commutes with Z^(e_j).  So the n-th
powers of the two shifted matrices differ by a unit factor: the same kernel and
the same zero diagonal entries, hence the same canonical basis from
`triangular_kernel` as all 2*rank Z^(+-e_j) give.  The k-fold products of
either set generate the k-th power of the ideal, so `ord_tau` stops at the same k.

The kernels are solved on a leading block of the ball only.  A kernel vector's
last nonzero position u has a zero diagonal entry (u . tau)(e_j) - chi(e_j) in
every shifted generator, and in its powers, so u . tau = chi.  Let c be the
last such position of the ball.  Every prefix of the ball is a lower set (it
holds every element of smaller length), so the span of the first c + 1
elements is invariant and the blocks there are the powers' leading blocks;
the rows after c vanish on it.  So `triangular_kernel` meets the same pivots
and the same small system on that prefix, and returns the same basis.  When
chi = tau and only the identity fixes tau (a regular character), c = 0 and
the basis is [v].

`ord_tau` spans the shifted images of coefficient maps (`_apply`, then `rref`
over the union U of the supports met) and fails before the k-th span when
k > |U|: if ord x = K, the prefixes of a nonzero (K-1)-fold product on x are
independent (the missing factors kill all but the lowest term of a dependence),
so |U| >= k at every step; and U lies in the closure of x's support.

The lattice action is computed on evaluated scalars (the Bernstein-Lusztig
presentation; Lusztig, JAMS 1989, section 3) from the generator columns
Z^(+-e_k) T_w v, maps u -> scalar, into which `_apply` factors any Z^mu.  For
w = s w' with s = s_i the first letter of w's canonical word, n = alpha_i(lambda)
and step = -sign(n) alpha_i^vee, so that s lambda = lambda + |n| step,

    Z^lambda T_w v = T_s v_|n| + sum_j c_j v_j,  v_0 = Z^lambda T_w' v,  v_j = Z^step v_(j-1),

with T_s acting by the quadratic relation (`hecke._left_T_gen`) and Omega_s(Z^lambda)
= Z^lambda Q_s^T (1 - Z^(|n| step)) = sum_j c_j Z^(lambda + j step), 0 <= j <= |n|:
Q_s^T is a rational function of Z^step finite at 0 and at infinity (`omega_walk`
checks each j).  Where lambda + j step is 0 or some +-e_k, v_j is read from the
columns instead.  From lambda = +-e_k the walk reads only generator columns
Z^(+-e_k) T_u v, u <= w': at most 2 * rank per element.  This is exact, and as
Omega_s keeps polynomials polynomial, tau is applied at the bottom of the walk,
`coxeter.walk_down`, which goes down to the first left factor whose column is held.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .coxeter import WeylElement, walk_down
from .errors import (
    DecompositionFailure,
    DomainNotLowerSet,
    IncompatibleData,
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
from .linalg import mat_pow, rref, triangular_kernel
from .memo import Memo
from .scalars import ONE, ZERO, Scalar, as_scalar, is_zero
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
        _in_series(other, self.character)
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
class PrincipalSeries:
    """The induced module of one character, with its exact toolkit."""

    algebra: HeckeAlgebra
    tau: Character

    def v(self) -> ModuleVector:
        return ModuleVector(self.tau, {self.algebra.group.identity: ONE})

    def vector(self, coeffs: dict[WeylElement, Scalar]) -> ModuleVector:
        return _in_series(ModuleVector(self.tau, coeffs), self.tau, self.algebra.system)

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
        _in_series(x, self.tau, self.algebra.system)
        if any(c.is_polynomial() is None for c in h.coeffs.values()):
            raise NotInBLH("action requires polynomial coefficients")
        lift = HeckeElt(
            self.algebra,
            {w: RationalElt.from_scalar(ONE, self.algebra.system.rank).scale(c) for w, c in x.coeffs.items()},
        )
        return self.ev(h * lift)

    def act_poly(self, p: LaurentPoly, x: ModuleVector) -> ModuleVector:
        """p.x, each monomial applied by the generator columns."""
        _in_series(x, self.tau, self.algebra.system)
        return ModuleVector(self.tau, _combine((self._apply(lam, x.coeffs), c) for lam, c in p.terms.items()))

    def _apply(self, mu: tuple, vec: dict[WeylElement, Scalar]) -> dict[WeylElement, Scalar]:
        """Z^mu on a coefficient map, one factor Z^(+-e_k), a sum of generator columns, at a time."""
        for k, m in enumerate(mu):
            for _ in range(abs(m)):
                gen = tuple((1 if m > 0 else -1) * int(i == k) for i in range(len(mu)))
                vec = _combine((self._column(gen, u), a) for u, a in vec.items())
        return vec

    def _column(self, lam: tuple, w: WeylElement) -> dict[WeylElement, Scalar]:
        """Z^lam T_w v for a generator lam = +-e_k, as a map u -> scalar, by the
        walk of the module docstring; memoized per series, so callers must not mutate it."""
        def up(i: int, rest: WeylElement, below: dict) -> dict[WeylElement, Scalar]:
            step, n, coeffs = self.algebra.omega_walk(i, lam)
            walk = [below]
            for j in range(1, n + 1):
                mu = tuple(x + j * a for x, a in zip(lam, step))
                walk.append(self._apply(mu, {rest: 1}) if sum(map(abs, mu)) <= 1 else self._apply(step, walk[-1]))
            top = _left_T_gen(self.algebra, i, walk[n])
            return _combine([(top, 1), *((walk[j], c) for j, c in coeffs.items())])

        memo, e = self._memos["column"], self.algebra.group.identity
        return walk_down(w, lambda u: (memo, (lam, u)), lambda: {e: as_scalar(self.tau.of_vector(lam))}, up)

    @cached_property
    def _memos(self) -> dict[str, Memo]:
        """The memos of tau in the algebra's memos; the series reads `theta` and `column`."""
        return self.algebra.character_memos(self.tau)

    # -- weight spaces ---------------------------------------------------------
    def _theta_matrix(self, exp: tuple, dom: tuple[WeylElement, ...]):
        """Matrix of the Z^exp action on the span of a lower set, column j the
        image of T_{dom[j]} v; cached and shared, so callers must not mutate it."""
        def make() -> list:
            index = {w: k for k, w in enumerate(dom)}
            m = [[Fraction(0)] * len(dom) for _ in dom]
            for j, w in enumerate(dom):
                for v, c in self._apply(exp, {w: 1}).items():
                    if v not in index:
                        raise DomainNotLowerSet("action left the domain; not a lower set")
                    m[index[v]][j] = c
            return m

        return _matrix_cache(self).once((exp, dom), make)

    def _shifted_matrices(self, eigen: Character, dom: tuple[WeylElement, ...]) -> list:
        """Z^(e_j) - eigen(e_j) on the span of dom for each basis vector e_j of Y,
        the rank generators that give the kernels of all 2*rank Z^(+-e_j)
        (module docstring); fresh matrices, upper triangular in dom's order."""
        mats = []
        for exp, lam in _rank_shifts(eigen):
            shifted = [list(row) for row in self._theta_matrix(exp, dom)]
            for i, row in enumerate(shifted):
                row[i] -= lam
            mats.append(shifted)
        return mats

    def weight_space(self, eigen: Character, ball: int) -> list[ModuleVector]:
        """Exact basis of the eigen-character weight space supported in the
        Bruhat ball of length <= ball: the n_cap = 1 case of `generalized_weight_space`."""
        return self._kernel_basis(eigen, ball, 1)

    def generalized_weight_space(self, eigen: Character, ball: int, n_cap: int) -> list[ModuleVector]:
        """Common kernel of the n_cap-th powers of the shifted generators on the
        Bruhat ball of length <= ball, in the basis of the module docstring."""
        return self._kernel_basis(eigen, ball, n_cap)

    def _kernel_basis(self, eigen: Character, ball: int, n_cap: int) -> list[ModuleVector]:
        """The kernel basis on the leading block of the ball that ends at its
        last element u with u . tau = eigen, or [] when there is none: the
        diagonal of Z^(e_j) at T_u v is (u . tau)(e_j), so every kernel vector
        ends at such a u (module docstring), and the basis is the whole ball's."""
        if eigen.rank != self.tau.rank:
            raise IncompatibleData(f"eigencharacter of rank {eigen.rank} for a series of rank {self.tau.rank}")
        dom, twisted = self.algebra.group.ball(ball), self.stabilizer()._twisted
        last = next((k for k in range(len(dom) - 1, -1, -1) if twisted(dom[k]) == eigen), None)
        if last is None:
            return []
        dom = dom[:last + 1]
        mats = [mat_pow(m, n_cap) for m in self._shifted_matrices(eigen, dom)]
        basis = triangular_kernel(mats, len(dom))
        return [ModuleVector(self.tau, dict(zip(dom, vec))) for vec in basis]

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
        return [self.ev(stab.k_tilde_of(w)) for w in stab.subgroup_ball(ell_bound, coroot_bound)]

    def _k_coordinates(self, x: ModuleVector, stab: TauStabilizer) -> dict[WeylElement, Scalar]:
        """Coordinates of x in the evaluated modified-intertwiner basis."""
        _in_series(x, self.tau, self.algebra.system)
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
        killing x, by iterated spans of the rank shifted generators (module docstring)."""
        _in_series(x, self.tau, self.algebra.system)
        if x.is_zero:
            return 0
        gens = _rank_shifts(self.tau)
        current, seen, k = [x.coeffs], set(x.coeffs), 0
        while current:
            k += 1
            if k > len(seen):
                values = ", ".join(map(str, self.tau.values))
                raise NotInGenWeightSpace(f"span iteration failed to vanish on support {list(x.support())} at tau = ({values})")
            images = [_combine([(self._apply(e, vec), 1), (vec, -t)]) for vec in current for e, t in gens]
            seen.update(*images)
            cols = sorted(seen, key=lambda w: w.sort_key)
            span, pivots = rref([[vec.get(w, ZERO) for w in cols] for vec in images])
            current = [{w: c for w, c in zip(cols, row) if not is_zero(c)} for row in span[:len(pivots)]]
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
        _in_series(x, self.series.tau, self.series.algebra.system)
        alg, target = self.series.algebra, self.target.coeffs
        return ModuleVector(self.series.tau, _combine((_left_T(alg, w, target), c) for w, c in x.coeffs.items()))


def _in_series(x: ModuleVector, tau: Character, system=None) -> ModuleVector:
    """x, when it is a vector over tau (coordinates in I_tau mean nothing in
    another series) whose support lies in the group of system, when given."""
    if x.character != tau:
        raise IncompatibleData(f"vector over {x.character}, expected {tau}")
    if system is not None and (other := next((w for w in x.coeffs if w.system != system), None)):
        raise IncompatibleData(f"support element {other!r} of another Weyl group")
    return x


def _combine(terms) -> dict[WeylElement, Scalar]:
    """The sum of c * vec over the pairs (vec, c), in normal form with no zero entry."""
    out: dict[WeylElement, Scalar] = {}
    for vec, c in terms:
        for u, a in vec.items():
            x = a if c == 1 else c * a
            out[u] = out[u] + x if u in out else x
    return {u: s for u, x in out.items() if not is_zero(s := as_scalar(x))}


def _rank_shifts(chi: Character) -> list[tuple[tuple, Scalar]]:
    """The pairs (e_j, chi(e_j)) of the rank generators Z^(e_j) - chi(e_j) of chi's maximal ideal."""
    return [(e, chi.of_vector(e)) for e in (tuple(int(i == j) for i in range(chi.rank)) for j in range(chi.rank))]


def _matrix_cache(series: PrincipalSeries) -> Memo:
    """The theta-matrices of a series by (exponent, domain)."""
    return series._memos["theta"]
