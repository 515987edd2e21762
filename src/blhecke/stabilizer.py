"""Stabilizer analysis of a character: the coroot subsystem it fixes, the
reflection subgroup, its canonical generators, the R-group, and the
irreducibility verdict.

Membership tests are exact wherever a finite certificate exists, and both
read the least fixed inversion of w: the least beta (by `sort_key`) of
F = N(w^-1) meet Phi_tau^+.  It is canonical: else some canonical alpha gives
r_alpha(beta^vee) = beta^vee - c alpha^vee in Phi_tau^+ with c > 0 (Dyer, by
depth), and w^-1 sends it or alpha^vee negative, an element of F below beta.
So w is in W_(tau) iff its descent along least fixed inversions ends at e,
and beta is canonical iff it is the least fixed inversion of r_beta.
Only the *enumerations* (which coroots, which group elements get listed) are
truncated by the bounds recorded in every verdict.

Phi_tau and U_C read t = tau(alpha^vee) and the parameters (s, s') of the
coroot's orbit.  The numerator binomials of zeta_alpha (`HeckeAlgebra.zeta`)
vanish at t = s s' and t = -s/s', the denominator ones at t = 1 and t = -1,
and a numerator binomial equals (and cancels) a denominator one exactly when
they vanish at the same t, which for |s|, |s'| > 1 means s' = s or s' = -s;
splitting changes neither.  So the reduced denominator vanishes iff t is in
{1, -1} minus {s s', -s/s'}, and the numerator iff t is in {s s', -s/s'}
minus {1, -1}.  The tests compare t with these roots and never multiply it,
since t and s may lie in different quadratic extensions.  A coroot's test
reads its own t, so at -alpha^vee it reads t^-1.  U_C tests the enumerated
coroots of both signs: it fails when t or t^-1 is in {s s', -s/s'} minus
{1, -1}, and the witness is the first coroot whose numerator vanishes,
which is negative when t^-1 matches.  Since I_tau and I_{w . tau}
have the same composition factors (Kato, Invent. Math. 66, 1982), the
criterion is W-invariant, and W sends some positive coroots to negative ones.

The reflection subgroup W_(tau) is a Coxeter system with generators S_tau
and length ell_tau, in which r_beta descends w iff w^-1(beta^vee) < 0 (Dyer,
J. Algebra 135, 1990): its ball, reduced words and Bruhat order are the
`coxeter` walks over the coroots Sigma_tau, and this module holds none.

Each quantity is computed once by the owner of what it depends on (the
policy is in the `memo` module).  The `WeylGroup` (`algebra.group`) holds
what depends on the datum alone, and the stabilizer reads it there: the
orbit index, root and reflection of each coroot (`reflection`,
`reflection_root`), and the coroot and Bruhat-ball enumerations by bound
(`coroots`, `ball`), which the CLI and the identity checks read too.  The
`HeckeAlgebra` holds (s, s', s s', -s/s') by coroot, and, in the entry of
each character, one stabilizer memo per (algebra, tau) with what depends on
tau: t by coroot from the simple values tau(alpha_i^vee), and by element
w = r_i w' the character w . tau, one reflection away from w' . tau, and
the greedy coroot word, one coroot longer than r_1 w's; by bound, W_tau.
`kato_check`, `analyze` and a `PrincipalSeries` read the same tests (U_C,
W_tau, membership in W_(tau)) from that memo, within a call and across
calls, so the verdict and the analysis cannot disagree and neither
recomputes what the other made: W_(tau) and R_tau filter the one W_tau scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .coxeter import WeylElement, coxeter_ball, inversion_coroots, lifts_below
from .errors import KacMoodyViolation, WordNotReduced
from .hecke import HeckeAlgebra, HeckeElt
from .laurent import Character, RationalElt
from .linalg import cone_contains
from .rootdata import Coroot, KacMoodyMatrix
from .scalars import Scalar, as_scalar, is_positive_real, sign_real
from .scalars import inv as scalar_inv


class TauStabilizer:
    """Working context for one character over one Hecke algebra.  `_memo`
    holds each test by (name, coroot or element) and each enumeration by
    (name, bound); it is the one memo of (algebra, tau) in the algebra's
    character entry, so every stabilizer of an equal (algebra, tau), in
    `kato_check`, `analyze` or a `PrincipalSeries`, reads the same tests."""

    def __init__(self, algebra: HeckeAlgebra, tau: Character):
        if tau.rank != algebra.system.rank:
            raise ValueError("character rank does not match the lattice rank")
        self.algebra = algebra
        self.tau = tau
        self._memo = algebra.character_memos(tau)["stabilizer"]

    @property
    def system(self):
        return self.algebra.system

    # -- pointwise tests (exact) ---------------------------------------------
    def _values(self, coroot: Coroot) -> tuple[Scalar, Scalar, Scalar, Scalar, Scalar]:
        """(t, s, s', s s', -s/s') at a coroot, t = tau(coroot): all the zeta
        tests and sigma'' read.  A positive coroot sum_i c_i alpha_i^vee reads
        t = prod_i tau(alpha_i^vee)^c_i, a negative one t^-1 from its negative.
        t, s s' and -s/s' are in the normal form of `as_scalar`, so the tests
        against +-1 compare ints when the values are integral."""
        def make():
            if not coroot.positive:
                t, *sigmas = self._values(-coroot)
                return as_scalar(scalar_inv(t)), *sigmas
            simple = self._memo.once("simple t", lambda: tuple(map(self.tau.of_vector, self.system.simple_coroots)))
            return as_scalar(prod(v ** c for v, c in zip(simple, coroot.coords) if c)), *self.algebra.sigma_values(coroot)

        return self._memo.once(("t", coroot), make)

    def phi_contains(self, coroot: Coroot) -> bool:
        """Does the reduced zeta denominator vanish: t in {1, -1} minus {s s', -s/s'}?"""
        t, _, _, r1, r2 = self._values(coroot)
        return (t == 1 or t == -1) and t != r1 and t != r2

    def zeta_num_vanishes(self, coroot: Coroot) -> bool:
        """Does the reduced zeta numerator vanish: t in {s s', -s/s'} minus {1, -1}?"""
        t, _, _, r1, r2 = self._values(coroot)
        return t != 1 and t != -1 and (t == r1 or t == r2)

    def is_canonical_generator(self, coroot: Coroot) -> bool:
        """Canonical-generator criterion: alpha is the least fixed inversion of
        r_alpha (module docstring); `sigma_tau` holds it by bound."""
        c = coroot.abs()
        return self._least_fixed_inversion(self.algebra.group.reflection(c)) == c

    def _least_fixed_inversion(self, w: WeylElement) -> Coroot | None:
        """The first coroot of the sorted N(w^-1) in Phi_tau, or None."""
        return next((beta for beta in inversion_coroots(w.inverse()) if self.phi_contains(beta)), None)

    def ell_tau(self, w: WeylElement) -> int:
        """Length in the reflection-subgroup Coxeter system: the number of
        inversions of w lying in the fixed subsystem."""
        return sum(1 for beta in inversion_coroots(w) if self.phi_contains(beta))

    def tau_reduced_word(self, w: WeylElement) -> list[WeylElement] | None:
        """Greedy descent factorization w = r_1 ... r_k over canonical
        generators, or None when w is outside the reflection subgroup."""
        word = self._greedy_word(w)
        return None if word is None else [self.algebra.group.reflection(c) for c in word]

    def _greedy_word(self, w: WeylElement) -> tuple[Coroot, ...] | None:
        """The one descent, once per element, read by membership, K~_w and the
        Bruhat order: the coroot word whose first letter is the least fixed
        inversion beta_1 of w^{-1}, a canonical generator (module docstring),
        followed by the word of r_1 w (None when w^{-1} inverts no fixed coroot)."""
        if w.is_identity:
            return ()

        def make():
            beta = self._least_fixed_inversion(w)
            if beta is None:
                return None
            rest = self._greedy_word(self.algebra.group.reflection(beta) * w)
            return None if rest is None else (beta, *rest)

        return self._memo.once(("word", w), make)

    def in_reflection_subgroup(self, w: WeylElement) -> bool:
        return self._greedy_word(w) is not None

    def bruhat_leq_tau(self, v: WeylElement, w: WeylElement) -> bool:
        """Bruhat order of the reflection-subgroup Coxeter system, by the
        lifting property along the greedy reduced word of w."""
        word = self._greedy_word(w)
        if word is None or not self.in_reflection_subgroup(v):
            raise WordNotReduced("both arguments must lie in the reflection subgroup")
        return lifts_below(v, word)

    def fixes_tau(self, w: WeylElement) -> bool:
        return self._twisted(w) == self.tau

    def _twisted(self, w: WeylElement) -> Character:
        """w . tau, once per element: for w = r_i w' (i the first letter of
        w's word), (w . tau)(e_j) = (w' . tau)(e_j) t^(-alpha_i(e_j)) with
        t = (w' . tau)(alpha_i^vee); its values are in the normal form of
        `as_scalar`, like those of `Character.make`."""
        if w.is_identity:
            return self.tau
        i = w.word[0]

        def make() -> Character:
            prev = self._twisted(w.left_simple(i))
            t = prev.of_vector(self.system.simple_coroots[i])
            if t == 1:  # r_i fixes w' . tau
                return prev
            t_inv = scalar_inv(t)
            return Character(tuple(as_scalar(v * (t ** -a if a < 0 else t_inv ** a)) if a else v
                                   for v, a in zip(prev.values, self.system.simple_roots[i])))

        return self._memo.once(("twist", w), make)

    def in_r_group(self, w: WeylElement) -> bool:
        """w stabilizes tau and inverts no positive coroot of the subsystem."""
        return self.fixes_tau(w) and not any(map(self.phi_contains, inversion_coroots(w)))

    # -- bounded enumerations ---------------------------------------------------
    def u_c(self, coroot_bound: int) -> UCResult:
        """The first enumerated coroot, of either sign, where `zeta_num_vanishes` holds."""
        for c in self.algebra.group.coroots(coroot_bound):
            if self.zeta_num_vanishes(c):
                return UCResult("NotInU_C", coroot_bound, c)
        return UCResult("InU_C", coroot_bound, None)

    def saturated(self, coroot_bound: int, length_bound: int) -> bool:
        """Did both enumerations end below their bounds (finite type)?"""
        return (all(w.length < length_bound for w in self.algebra.group.ball(length_bound))
                and all(c.height < coroot_bound for c in self.algebra.group.coroots(coroot_bound)))

    def phi_tau(self, coroot_bound: int) -> tuple[Coroot, ...]:
        return self._memo.once(("phi_tau", coroot_bound), lambda: tuple(
            c for c in self.algebra.group.coroots(coroot_bound) if self.phi_contains(c)))

    def sigma_tau(self, coroot_bound: int) -> tuple[Coroot, ...]:
        return self._memo.once(("sigma_tau", coroot_bound), lambda: tuple(
            c for c in self.phi_tau(coroot_bound) if c.positive and self.is_canonical_generator(c)))

    def s_tau(self, coroot_bound: int) -> tuple[WeylElement, ...]:
        return tuple(self.algebra.group.reflection(c) for c in self.sigma_tau(coroot_bound))

    def w_tau_ball(self, length_bound: int) -> tuple[WeylElement, ...]:
        return self._memo.once(("w_tau", length_bound), lambda: tuple(
            w for w in self.algebra.group.ball(length_bound) if self.fixes_tau(w)))

    def w_paren_tau_ball(self, length_bound: int) -> tuple[WeylElement, ...]:
        """W_(tau) in the ball, scanned inside W_tau: for validated parameters
        W_(tau) is in W_tau, since every canonical generator's reflection fixes
        tau.  Its t is 1, or -1 with alpha(Y) in 2Z, because alpha(Y) = Z
        forces s = s' and puts -1 = -s/s' outside Phi_tau."""
        return tuple(w for w in self.w_tau_ball(length_bound) if self.in_reflection_subgroup(w))

    def r_tau_ball(self, length_bound: int) -> tuple[WeylElement, ...]:
        """R_tau in the ball: `in_r_group` on the W_tau scan, past its test that w fixes tau."""
        return tuple(w for w in self.w_tau_ball(length_bound)
                     if not any(map(self.phi_contains, inversion_coroots(w))))

    def subgroup_ball(self, ell_bound: int, coroot_bound: int) -> tuple[WeylElement, ...]:
        """Elements of the reflection subgroup with relative length <= bound:
        the ball of the Coxeter system (S_tau, ell_tau) over the bounded
        canonical generator set."""
        return coxeter_ball(self.algebra.group.identity, self.sigma_tau(coroot_bound), ell_bound)

    # -- modified intertwiners ---------------------------------------------------
    def k_tilde_of(self, w: WeylElement) -> HeckeElt:
        """K~_w along the canonical greedy reduced word of w."""
        def make() -> HeckeElt:
            word = self._greedy_word(w)
            if word is None:
                raise WordNotReduced(f"{w!r} is not in the reflection subgroup of tau")
            return self.algebra.k_tilde_word(word)

        return self._memo.once(("ktilde", w), make)

    def k_lead_inverse(self, w: WeylElement) -> RationalElt:
        """Factored inverse of the T_w-coefficient of K~_w.

        The leading coefficient multiplies along the reduced word (the
        normalizers of the factors, suitably twisted); tracking the factored
        form keeps it invertible without polynomial factorization.
        """
        actual = self.k_tilde_of(w).coeffs[w]  # WordNotReduced outside W_(tau)
        inv = RationalElt.from_scalar(1, self.system.rank)
        for alpha in self._greedy_word(w):
            r = self.algebra.group.reflection(alpha)
            inv = inv.twist(r)
            for beta in inversion_coroots(r):
                if beta != alpha:
                    inv = inv * self.algebra.zeta(beta)
        if actual * inv != RationalElt.from_scalar(1, self.system.rank):
            raise WordNotReduced(f"leading coefficient of K~[{w!r}] is not the tracked normalizer")
        return inv

    # -- scalars -------------------------------------------------------------
    def sigma_pp(self, coroot: Coroot) -> Scalar:
        """The weight-shift scalar ((s^2-1) + s(s'-s'^-1) tau(alpha^vee)) / 2."""
        t, s, sp, _, _ = self._values(coroot)
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


def s_tau_matrix(algebra: HeckeAlgebra, sigma_tau: tuple[Coroot, ...]) -> KacMoodyMatrix:
    """Pairing matrix of the canonical generators; must be Kac-Moody."""
    sys = algebra.system
    entries = []
    for ci in sigma_tau:
        row = []
        for cj in sigma_tau:
            # alpha_{s_j}(alpha_{s_i}^vee): the root of s_j evaluated on coroot of s_i
            root_j = algebra.group.reflection_root(cj)
            val = sum(a * b for a, b in zip(root_j, sys.coroot_to_y(ci.coords)))
            row.append(int(val))
        entries.append(tuple(row))
    matrix = KacMoodyMatrix(tuple(entries))
    try:
        matrix.validate()
    except Exception as exc:
        raise KacMoodyViolation(f"pairing matrix over Sigma_tau failed validation: {exc}") from exc
    return matrix


def sigma_tau_minimal_direct(stab: TauStabilizer, coroot_bound: int) -> tuple[Coroot, ...]:
    """Oracle for the canonical generator set: direct minimality in the
    dominance preorder via exact conic feasibility over the bounded subsystem."""
    plus = [c for c in stab.phi_tau(coroot_bound) if c.positive]
    out = []
    for beta in plus:
        gens = [g.coords for g in plus if g != beta]
        if not any(cone_contains(gens, beta.coords, require_positive=idx) for idx in range(len(gens))):
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
        u_c=stab.u_c(coroot_bound),
    )


IRREDUCIBLE = "Irreducible"
REDUCIBLE = "Reducible"


@dataclass(frozen=True)
class KatoVerdict:
    status: str
    coroot_bound: int
    length_bound: int
    absolute: bool  # the verdict holds whatever the bounds: always for Reducible, on saturation for Irreducible
    witness_coroot: Coroot | None = None
    witness_element: WeylElement | None = None


def kato_check(algebra: HeckeAlgebra, tau: Character, coroot_bound: int, length_bound: int) -> KatoVerdict:
    """Irreducibility verdict: reducible on a regularity failure or on a
    stabilizer element outside the reflection subgroup, proven by that
    witness whatever the bounds (a real coroot whose zeta numerator
    vanishes, or an element of W_tau whose descent along its least fixed
    inversions stops short of e, so it lies outside W_(tau)); otherwise
    irreducible, certified up to the bounds (absolutely, in finite type).
    It reads the same stabilizer tests as `analyze`."""
    stab = TauStabilizer(algebra, tau)
    uc = stab.u_c(coroot_bound)
    if not uc.ok:
        return KatoVerdict(REDUCIBLE, coroot_bound, length_bound, True, witness_coroot=uc.witness)
    for w in stab.w_tau_ball(length_bound):
        if not stab.in_reflection_subgroup(w):
            return KatoVerdict(REDUCIBLE, coroot_bound, length_bound, True, witness_element=w)
    return KatoVerdict(IRREDUCIBLE, coroot_bound, length_bound, stab.saturated(coroot_bound, length_bound))
