"""Stabilizer analysis of a character: the coroot subsystem it fixes, the
reflection subgroup, its canonical generators, the R-group, and the
irreducibility verdict.

Membership tests are exact wherever a finite certificate exists: a
reflection is a canonical generator iff its (finite) inversion set meets the
fixed subsystem only in its own coroot, and membership in the reflection
subgroup is decided by greedy descent along canonical generators harvested
from the inversion set.  Only the *enumerations* (which coroots, which group
elements get listed) are truncated by the bounds recorded in every verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coxeter import (
    WeylElement,
    coroot_of_reflection,
    enumerate_ball,
    inversion_coroots,
    reflection_from_coroot,
)
from .errors import KacMoodyViolation, WordNotReduced
from .hecke import HeckeAlgebra, HeckeElt
from .laurent import Character, RationalElt
from .linalg import cone_contains
from .rootdata import Coroot, KacMoodyMatrix, enumerate_coroots, root_of_coroot
from .scalars import Scalar, is_positive_real, is_zero, sign_real
from .scalars import inv as scalar_inv


class TauStabilizer:
    """Working context for one character over one Hecke algebra."""

    def __init__(self, algebra: HeckeAlgebra, tau: Character):
        if tau.rank != algebra.system.rank:
            raise ValueError("character rank does not match the lattice rank")
        self.algebra = algebra
        self.tau = tau
        self._phi: dict[Coroot, bool] = {}
        self._gen: dict[Coroot, bool] = {}
        self._ktilde: dict[WeylElement, HeckeElt] = {}

    @property
    def system(self):
        return self.algebra.system

    # -- pointwise tests (exact) ---------------------------------------------
    def phi_contains(self, coroot: Coroot) -> bool:
        """Does some zeta-denominator factor of the coroot vanish at tau?"""
        c = coroot.abs()
        hit = self._phi.get(c)
        if hit is None:
            z = self.algebra.zeta(c)
            hit = any(is_zero(self.tau.of_factor(f)) for f in z.den_factors)
            self._phi[c] = hit
        return hit

    def is_canonical_generator(self, coroot: Coroot) -> bool:
        """Canonical-generator criterion: the inversion set of r_{alpha} meets
        the fixed subsystem exactly in {alpha}."""
        c = coroot.abs()
        hit = self._gen.get(c)
        if hit is None:
            if not self.phi_contains(c):
                hit = False
            else:
                r = reflection_from_coroot(self.system, c)
                hit = all(beta == c or not self.phi_contains(beta) for beta in inversion_coroots(r))
            self._gen[c] = hit
        return hit

    def ell_tau(self, w: WeylElement) -> int:
        """Length in the reflection-subgroup Coxeter system: the number of
        inversions of w lying in the fixed subsystem."""
        return sum(1 for beta in inversion_coroots(w) if self.phi_contains(beta))

    def tau_reduced_word(self, w: WeylElement) -> list[WeylElement] | None:
        """Greedy descent factorization w = r_1 ... r_k over canonical
        generators, or None when w is outside the reflection subgroup."""
        word: list[WeylElement] = []
        cur = w
        while not cur.is_identity:
            cands = [
                beta
                for beta in inversion_coroots(cur.inverse())
                if self.phi_contains(beta) and self.is_canonical_generator(beta)
            ]
            if not cands:
                return None
            beta = min(cands, key=lambda c: c.sort_key)
            r = reflection_from_coroot(self.system, beta)
            word.append(r)
            cur = r * cur
        return word

    def in_reflection_subgroup(self, w: WeylElement) -> bool:
        return self.tau_reduced_word(w) is not None

    def bruhat_leq_tau(self, v: WeylElement, w: WeylElement) -> bool:
        """Bruhat order of the reflection-subgroup Coxeter system, by the
        lifting property along the greedy reduced word of w."""
        word = self.tau_reduced_word(w)
        if word is None or not self.in_reflection_subgroup(v):
            raise WordNotReduced("both arguments must lie in the reflection subgroup")
        cur = v
        for r in word:
            if cur.is_identity:
                return True
            if self.ell_tau(r * cur) < self.ell_tau(cur):
                cur = r * cur
        return cur.is_identity

    def fixes_tau(self, w: WeylElement) -> bool:
        return self.tau.twist(w) == self.tau

    def in_r_group(self, w: WeylElement) -> bool:
        """w stabilizes tau and inverts no positive coroot of the subsystem."""
        if not self.fixes_tau(w):
            return False
        return not any(self.phi_contains(beta) for beta in inversion_coroots(w))

    # -- bounded enumerations ---------------------------------------------------
    def phi_tau(self, coroot_bound: int) -> tuple[Coroot, ...]:
        return tuple(c for c in enumerate_coroots(self.system, coroot_bound) if self.phi_contains(c))

    def sigma_tau(self, coroot_bound: int) -> tuple[Coroot, ...]:
        return tuple(
            c for c in self.phi_tau(coroot_bound) if c.positive and self.is_canonical_generator(c)
        )

    def s_tau(self, coroot_bound: int) -> tuple[WeylElement, ...]:
        return tuple(reflection_from_coroot(self.system, c) for c in self.sigma_tau(coroot_bound))

    def w_tau_ball(self, length_bound: int) -> tuple[WeylElement, ...]:
        return tuple(w for w in enumerate_ball(self.system, length_bound) if self.fixes_tau(w))

    def w_paren_tau_ball(self, length_bound: int) -> tuple[WeylElement, ...]:
        return tuple(w for w in enumerate_ball(self.system, length_bound) if self.in_reflection_subgroup(w))

    def r_tau_ball(self, length_bound: int) -> tuple[WeylElement, ...]:
        return tuple(w for w in self.w_tau_ball(length_bound) if self.in_r_group(w))

    def subgroup_ball(self, ell_bound: int, coroot_bound: int) -> tuple[WeylElement, ...]:
        """Elements of the reflection subgroup with relative length <= bound,
        generated from the bounded canonical generator set."""
        gens = self.s_tau(coroot_bound)
        levels = [[self.algebra.group.identity]]
        seen = {self.algebra.group.identity}
        for _ in range(ell_bound):
            nxt = []
            for w in levels[-1]:
                for r in gens:
                    cand = r * w
                    if cand not in seen and self.ell_tau(cand) == self.ell_tau(w) + 1:
                        seen.add(cand)
                        nxt.append(cand)
            if not nxt:
                break
            levels.append(sorted(nxt, key=lambda w: w.sort_key))
        return tuple(w for level in levels for w in level)

    # -- modified intertwiners ---------------------------------------------------
    def k_tilde_of(self, w: WeylElement) -> HeckeElt:
        """K~_w along the canonical greedy reduced word of w."""
        hit = self._ktilde.get(w)
        if hit is None:
            word = self.tau_reduced_word(w)
            if word is None:
                raise WordNotReduced(f"{w!r} is not in the reflection subgroup of tau")
            hit = self.algebra.k_tilde_word(word)
            self._ktilde[w] = hit
        return hit

    def k_lead_inverse(self, w: WeylElement) -> RationalElt:
        """Factored inverse of the T_w-coefficient of K~_w.

        The leading coefficient multiplies along the reduced word (the
        normalizers of the factors, suitably twisted); tracking the factored
        form keeps it invertible without polynomial factorization.
        """
        word = self.tau_reduced_word(w)
        if word is None:
            raise WordNotReduced(f"{w!r} is not in the reflection subgroup of tau")
        inv = RationalElt.from_scalar(1, self.system.rank)
        for r in word:
            inv = inv.twist(r)
            alpha = coroot_of_reflection(r)
            for beta in inversion_coroots(r):
                if beta != alpha:
                    inv = inv * self.algebra.zeta_rational(beta)
        actual = self.k_tilde_of(w).coeffs[w]
        if actual * inv != RationalElt.from_scalar(1, self.system.rank):
            raise WordNotReduced(f"leading coefficient of K~[{w!r}] is not the tracked normalizer")
        return inv

    def tau_reduced_words(self, w: WeylElement, coroot_bound: int) -> list[tuple[WeylElement, ...]]:
        """All reduced words of w over the bounded canonical generator set."""
        if w.is_identity:
            return [()]
        out = []
        for r in self.s_tau(coroot_bound):
            if self.ell_tau(r * w) == self.ell_tau(w) - 1:
                for rest in self.tau_reduced_words(r * w, coroot_bound):
                    out.append((r,) + rest)
        return out

    # -- scalars -------------------------------------------------------------
    def sigma_pp(self, coroot: Coroot) -> Scalar:
        """The weight-shift scalar ((s^2-1) + s(s'-s'^-1) tau(alpha^vee)) / 2."""
        c = coroot.abs()
        s, sp = self.algebra.sigma_r(c)
        t = self.tau.of_vector(self.system.coroot_to_y(c.coords))
        return ((s * s - 1) + s * (sp - scalar_inv(sp)) * t) * Fraction(1, 2)

    def rho_check(self, coroot_bound: int) -> Scalar | None:
        """A common direction rho with every sigma'' in rho * R_{>0}, or None."""
        values = [self.sigma_pp(c) for c in self.sigma_tau(coroot_bound)]
        if not values:
            return Fraction(1)
        rho = values[0]
        for v in values[1:]:
            if not is_positive_real(v * scalar_inv(rho)):
                return None
        if not isinstance(rho, Fraction):
            return rho
        return Fraction(sign_real(rho))


@dataclass(frozen=True)
class UCResult:
    status: str  # "InU_C" | "NotInU_C"
    coroot_bound: int
    witness: Coroot | None

    @property
    def ok(self) -> bool:
        return self.status == "InU_C"


def u_c_check(algebra: HeckeAlgebra, tau: Character, coroot_bound: int) -> UCResult:
    """Evaluate every reduced zeta-numerator factor at tau over the enumerated
    positive coroots."""
    for c in enumerate_coroots(algebra.system, coroot_bound):
        if not c.positive:
            continue
        z = algebra.zeta(c)
        if any(is_zero(tau.of_factor(f)) for f in z.num_factors):
            return UCResult("NotInU_C", coroot_bound, c)
    return UCResult("InU_C", coroot_bound, None)


def s_tau_matrix(algebra: HeckeAlgebra, sigma_tau: tuple[Coroot, ...]) -> KacMoodyMatrix:
    """Pairing matrix of the canonical generators; must be Kac-Moody."""
    sys = algebra.system
    n = len(sigma_tau)
    witnesses = [reflection_from_coroot(sys, c) for c in sigma_tau]
    entries = []
    for i, (ci, ri) in enumerate(zip(sigma_tau, witnesses)):
        row = []
        for j, cj in enumerate(sigma_tau):
            # alpha_{s_j}(alpha_{s_i}^vee): the root of s_j evaluated on coroot of s_i
            root_j = _reflection_root(algebra, cj)
            val = sum(a * b for a, b in zip(root_j, sys.coroot_to_y(ci.coords)))
            row.append(int(val))
        entries.append(tuple(row))
    matrix = KacMoodyMatrix(tuple(entries))
    try:
        matrix.validate()
    except Exception as exc:
        raise KacMoodyViolation(f"pairing matrix over Sigma_tau failed validation: {exc}") from exc
    return matrix


def _reflection_root(algebra: HeckeAlgebra, coroot: Coroot):
    """Root coordinates (dual basis) of the reflection at a positive coroot."""
    sys = algebra.system
    root = root_of_coroot(sys, coroot.abs())
    return tuple(sum(x * r[b] for x, r in zip(root, sys.simple_roots)) for b in range(sys.rank))


def sigma_tau_minimal_direct(stab: TauStabilizer, coroot_bound: int) -> tuple[Coroot, ...]:
    """Oracle for the canonical generator set: direct minimality in the
    dominance preorder via exact conic feasibility over the bounded subsystem."""
    plus = [c for c in stab.phi_tau(coroot_bound) if c.positive]
    out = []
    for beta in plus:
        dominated = False
        others = [g for g in plus if g != beta]
        for idx, gamma in enumerate(others):
            gens = [g.coords for g in others]
            if cone_contains(gens, beta.coords, require_positive=idx):
                dominated = True
                break
        if not dominated:
            out.append(beta)
    return tuple(out)


@dataclass(frozen=True)
class TauAnalysis:
    """Frozen report of the stabilizer computation at explicit bounds."""

    character: Character
    coroot_bound: int
    length_bound: int
    phi_tau: tuple[Coroot, ...]
    sigma_tau: tuple[Coroot, ...]
    s_tau: tuple[WeylElement, ...]
    w_tau_ball: tuple[WeylElement, ...]
    w_paren_tau_ball: tuple[WeylElement, ...]
    r_tau_ball: tuple[WeylElement, ...]
    sigma_pp: tuple[tuple[Coroot, Scalar], ...]
    rho_witness: Scalar | None
    u_c: UCResult


def analyze(algebra: HeckeAlgebra, tau: Character, coroot_bound: int, length_bound: int) -> TauAnalysis:
    stab = TauStabilizer(algebra, tau)
    sigma = stab.sigma_tau(coroot_bound)
    return TauAnalysis(
        character=tau,
        coroot_bound=coroot_bound,
        length_bound=length_bound,
        phi_tau=stab.phi_tau(coroot_bound),
        sigma_tau=sigma,
        s_tau=stab.s_tau(coroot_bound),
        w_tau_ball=stab.w_tau_ball(length_bound),
        w_paren_tau_ball=stab.w_paren_tau_ball(length_bound),
        r_tau_ball=stab.r_tau_ball(length_bound),
        sigma_pp=tuple((c, stab.sigma_pp(c)) for c in sigma),
        rho_witness=stab.rho_check(coroot_bound),
        u_c=u_c_check(algebra, tau, coroot_bound),
    )


IRREDUCIBLE = "Irreducible"
REDUCIBLE = "Reducible"
UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class KatoVerdict:
    status: str
    coroot_bound: int
    length_bound: int
    absolute: bool  # True when the enumerations saturated (finite type)
    witness_coroot: Coroot | None = None
    witness_element: WeylElement | None = None


def kato_check(algebra: HeckeAlgebra, tau: Character, coroot_bound: int, length_bound: int) -> KatoVerdict:
    """Irreducibility verdict: reducible on a regularity failure or on a
    stabilizer element outside the reflection subgroup; otherwise irreducible,
    certified up to the bounds (absolutely, in finite type)."""
    stab = TauStabilizer(algebra, tau)
    uc = u_c_check(algebra, tau, coroot_bound)
    if not uc.ok:
        return KatoVerdict(REDUCIBLE, coroot_bound, length_bound, False, witness_coroot=uc.witness)
    for w in stab.w_tau_ball(length_bound):
        if not stab.in_reflection_subgroup(w):
            return KatoVerdict(REDUCIBLE, coroot_bound, length_bound, False, witness_element=w)
    ball = enumerate_ball(algebra.system, length_bound)
    group_saturated = all(w.length < length_bound for w in ball)
    coroots = enumerate_coroots(algebra.system, coroot_bound)
    coroots_saturated = all(c.height < coroot_bound for c in coroots)
    return KatoVerdict(IRREDUCIBLE, coroot_bound, length_bound, group_saturated and coroots_saturated)


def semidirect_check(stab: TauStabilizer, length_bound: int, coroot_bound: int) -> bool:
    """Every stabilizer element in the ball factors uniquely as r * p with r in
    the R-group and p in the reflection subgroup; conjugation by stabilizer
    elements preserves the reflection subgroup."""
    r_ball = stab.r_tau_ball(length_bound)
    for w in stab.w_tau_ball(length_bound):
        factorizations = [
            r for r in r_ball if stab.in_reflection_subgroup(r.inverse() * w)
        ]
        if len(factorizations) != 1:
            return False
    for r in stab.s_tau(coroot_bound):
        for w in stab.w_tau_ball(length_bound):
            if not stab.in_reflection_subgroup(w * r * w.inverse()):
                return False
    return True
