"""Seeded property checks over a chosen datum and character.

Each check returns a CheckResult; the CLI's verify-identities subcommand and
the test suite both drive these, so the verification surface is one body of
code with deterministic sampling.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .coxeter import all_reduced_words, bruhat_leq, coroot_of_reflection
from .errors import KacMoodyViolation
from .hecke import HeckeAlgebra, HeckeElt, max_supp
from .laurent import Character, LaurentPoly, RationalElt
from .linalg import integer_cone_contains
from .principal import ModuleVector, PrincipalSeries
from .stabilizer import TauStabilizer, s_tau_matrix, sigma_tau_minimal_direct


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_exp(rng: random.Random, rank: int, max_exp: int) -> tuple[int, ...]:
    return tuple(rng.randint(-max_exp, max_exp) for _ in range(rank))


def _random_monomial(rng: random.Random, rank: int, max_exp: int) -> RationalElt:
    num = Fraction(rng.randint(1, 5)) * (1 if rng.random() < 0.7 else -1)
    return RationalElt.monomial(_random_exp(rng, rank, max_exp), num)


def random_element(alg: HeckeAlgebra, rng: random.Random, max_word: int = 3, max_exp: int = 2) -> HeckeElt:
    """Product of up to max_word generators drawn from {T_s, Z^lam, F_s}."""
    out = alg.one()
    for _ in range(rng.randint(1, max_word)):
        kind = rng.choice(("T", "Z", "F"))
        if kind == "T":
            out = out * alg.T(alg.group.simple(rng.randrange(alg.system.n)))
        elif kind == "F":
            out = out * alg.f_s(rng.randrange(alg.system.n))
        else:
            out = out * alg.theta(_random_monomial(rng, alg.system.rank, max_exp))
    return out


def braid_order(alg: HeckeAlgebra, i: int, j: int) -> int | None:
    """Coxeter order of s_i s_j from the Kac-Moody matrix (None if infinite)."""
    prod = alg.system.matrix[i, j] * alg.system.matrix[j, i]
    return {0: 2, 1: 3, 2: 4, 3: 6}.get(prod)


def check_associativity(alg: HeckeAlgebra, samples: int, seed: int, max_word: int = 3, max_exp: int = 2) -> CheckResult:
    rng = random.Random(seed)
    for k in range(samples):
        a, b, c = (random_element(alg, rng, max_word, max_exp) for _ in range(3))
        if (a * b) * c != a * (b * c):
            return CheckResult("associativity", False, f"failed at sample {k}")
    return CheckResult("associativity", True, f"{samples} random triples")


def check_quadratic(alg: HeckeAlgebra) -> CheckResult:
    for i in range(alg.system.n):
        t = alg.T(alg.group.simple(i))
        s2 = alg.params.sigma[i] ** 2
        if t * t != t.scale(s2 - 1) + alg.one().scale(s2):
            return CheckResult("quadratic", False, f"T_{i + 1}^2 violated")
    return CheckResult("quadratic", True, f"{alg.system.n} generators")


def check_braid(alg: HeckeAlgebra) -> CheckResult:
    checked = 0
    for i in range(alg.system.n):
        for j in range(i + 1, alg.system.n):
            m = braid_order(alg, i, j)
            if m is None:
                continue
            ti, tj = alg.T(alg.group.simple(i)), alg.T(alg.group.simple(j))
            lhs, rhs = alg.one(), alg.one()
            for k in range(m):
                lhs = lhs * (ti if k % 2 == 0 else tj)
                rhs = rhs * (tj if k % 2 == 0 else ti)
            if lhs != rhs:
                return CheckResult("braid", False, f"pair ({i + 1},{j + 1})")
            checked += 1
    return CheckResult("braid", True, f"{checked} finite-order pairs")


def check_commutation(alg: HeckeAlgebra, samples: int, seed: int, max_exp: int = 3) -> CheckResult:
    rng = random.Random(seed)
    for k in range(samples):
        i = rng.randrange(alg.system.n)
        theta = _random_monomial(rng, alg.system.rank, max_exp)
        s = alg.group.simple(i)
        lhs = alg.theta(theta) * alg.T(s)
        rhs = alg.T(s) * alg.theta(theta.twist(s)) + alg.theta(alg.omega(i, theta))
        if lhs != rhs:
            return CheckResult("commutation", False, f"failed at sample {k}")
    return CheckResult("commutation", True, f"{samples} random monomials")


def check_intertwiner_word_independence(alg: HeckeAlgebra, max_len: int = 4) -> CheckResult:
    count = 0
    for w in alg.group.ball(max_len):
        if w.length < 2:
            continue
        words = all_reduced_words(w)
        products = []
        for word in words:
            h = alg.one()
            for i in word:
                h = h * alg.f_s(i)
            products.append(h)
        if any(p != products[0] for p in products[1:]):
            return CheckResult("intertwiner-word-independence", False, f"at {w!r}")
        count += len(words)
    return CheckResult("intertwiner-word-independence", True, f"{count} reduced words")


def check_intertwiner_triangular(alg: HeckeAlgebra, max_len: int = 4) -> CheckResult:
    for w in alg.group.ball(max_len):
        fw = alg.f_w(w)
        if max_supp(fw) != (w,):
            return CheckResult("intertwiner-triangular", False, f"max supp at {w!r}")
        diff = fw - alg.T(w)
        if any(not bruhat_leq(v, w) or v == w for v in diff.support()):
            return CheckResult("intertwiner-triangular", False, f"lower-term at {w!r}")
    return CheckResult("intertwiner-triangular", True, f"ball {max_len}")


def check_intertwiner_commutation(alg: HeckeAlgebra, samples: int, seed: int, max_len: int = 3) -> CheckResult:
    rng = random.Random(seed)
    ball = alg.group.ball(max_len)
    for k in range(samples):
        w = rng.choice(ball)
        theta = _random_monomial(rng, alg.system.rank, 2)
        fw = alg.f_w(w)
        if alg.theta(theta) * fw != fw * alg.theta(theta.twist(w.inverse())):
            return CheckResult("intertwiner-commutation", False, f"failed at {w!r} sample {k}")
    return CheckResult("intertwiner-commutation", True, f"{samples} samples on ball {max_len}")


def check_intertwiner_square(alg: HeckeAlgebra) -> CheckResult:
    for i in range(alg.system.n):
        fs = alg.f_s(i)
        z = alg.zeta(alg.system.simple_coroot(i))
        zz = z * z.twist(alg.group.simple(i))
        if fs * fs != alg.theta(zz):
            return CheckResult("intertwiner-square", False, f"generator {i + 1}")
    return CheckResult("intertwiner-square", True, f"{alg.system.n} generators")


def check_omega_polynomial(alg: HeckeAlgebra, samples: int, seed: int, max_exp: int = 3) -> CheckResult:
    rng = random.Random(seed)
    for k in range(samples):
        i = rng.randrange(alg.system.n)
        theta = RationalElt.monomial(_random_exp(rng, alg.system.rank, max_exp))
        if alg.omega(i, theta).is_polynomial() is None:
            return CheckResult("omega-polynomial", False, f"sample {k}")
    return CheckResult("omega-polynomial", True, f"{samples} monomials")


def check_k_quadratic(alg: HeckeAlgebra, stab: TauStabilizer, coroot_bound: int) -> CheckResult:
    for c in stab.sigma_tau(coroot_bound):
        kt = alg.k_tilde(c)
        s, _ = alg.sigma_r(c)
        s2 = s * s
        if kt * kt != kt.scale(s2 - 1) + alg.one().scale(s2):
            return CheckResult("k-quadratic", False, f"at coroot {c.coords}")
        kp = alg.k_plain(c)
        if kp * kp != kp.scale(-(1 + s2)):
            return CheckResult("k-quadratic", False, f"plain form at {c.coords}")
    return CheckResult("k-quadratic", True, f"{len(stab.sigma_tau(coroot_bound))} generators")


def check_k_braid(alg: HeckeAlgebra, stab: TauStabilizer, coroot_bound: int) -> CheckResult:
    refs = stab.s_tau(coroot_bound)
    checked = 0
    for a in range(len(refs)):
        for b in range(a + 1, len(refs)):
            u = refs[a] * refs[b]
            m, power = None, u
            for k in range(1, 9):
                if power.is_identity:
                    m = k
                    break
                power = power * u
            if m is None:
                continue
            ka, kb = alg.k_tilde(refs[a]), alg.k_tilde(refs[b])
            lhs, rhs = alg.one(), alg.one()
            for k in range(m):
                lhs = lhs * (ka if k % 2 == 0 else kb)
                rhs = rhs * (kb if k % 2 == 0 else ka)
            if lhs != rhs:
                return CheckResult("k-braid", False, f"pair ({a}, {b})")
            checked += 1
    return CheckResult("k-braid", True, f"{checked} finite-order pairs")


def check_k_word_independence(alg: HeckeAlgebra, stab: TauStabilizer, ell_bound: int, coroot_bound: int) -> CheckResult:
    count = 0
    for w in stab.subgroup_ball(ell_bound, coroot_bound):
        words = stab.tau_reduced_words(w, coroot_bound)
        prods = [alg.k_tilde_word(word) for word in words]
        if any(p != prods[0] for p in prods[1:]):
            return CheckResult("k-word-independence", False, f"at {w!r}")
        if not w.is_identity and max_supp(prods[0]) != (w,):
            return CheckResult("k-word-independence", False, f"max supp at {w!r}")
        count += len(words)
    return CheckResult("k-word-independence", True, f"{count} reduced words, ball {ell_bound}")


def check_k_hecke_rule(alg: HeckeAlgebra, stab: TauStabilizer, ell_bound: int, coroot_bound: int) -> CheckResult:
    ball = stab.subgroup_ball(ell_bound, coroot_bound)
    for w in ball:
        if stab.ell_tau(w) >= ell_bound:
            continue
        ktw = stab.k_tilde_of(w)
        for r in stab.s_tau(coroot_bound):
            s, _ = alg.sigma_r(coroot_of_reflection(r))
            s2 = s * s
            lhs = alg.k_tilde(r) * ktw
            if stab.ell_tau(r * w) == stab.ell_tau(w) + 1:
                rhs = stab.k_tilde_of(r * w)
            else:
                rhs = ktw.scale(s2 - 1) + stab.k_tilde_of(r * w).scale(s2)
            if lhs != rhs:
                return CheckResult("k-hecke-rule", False, f"at r={r!r}, w={w!r}")
    return CheckResult("k-hecke-rule", True, f"ball {ell_bound}")


def check_k_commutation(alg: HeckeAlgebra, stab: TauStabilizer, coroot_bound: int, samples: int, seed: int) -> CheckResult:
    rng = random.Random(seed)
    refs = stab.s_tau(coroot_bound)
    if not refs:
        return CheckResult("k-commutation", True, "empty generator set")
    for k in range(samples):
        r = rng.choice(refs)
        c = coroot_of_reflection(r)
        theta = _random_monomial(rng, alg.system.rank, 2)
        kt = alg.k_tilde(r)
        omega = alg.q_r(c) * (theta - theta.twist(r))
        if alg.theta(theta) * kt != kt * alg.theta(theta.twist(r)) + alg.theta(omega):
            return CheckResult("k-commutation", False, f"sample {k}")
    return CheckResult("k-commutation", True, f"{samples} samples")


def check_sigma_tau_agreement(alg: HeckeAlgebra, stab: TauStabilizer, coroot_bound: int) -> CheckResult:
    via_reflection = set(stab.sigma_tau(coroot_bound))
    via_minimality = set(sigma_tau_minimal_direct(stab, coroot_bound))
    if via_reflection != via_minimality:
        return CheckResult("sigma-tau-agreement", False, f"{via_reflection} vs {via_minimality}")
    return CheckResult("sigma-tau-agreement", True, f"{len(via_reflection)} minimal coroots")


def check_sigma_bijection(alg: HeckeAlgebra, stab: TauStabilizer, coroot_bound: int) -> CheckResult:
    sigma = stab.sigma_tau(coroot_bound)
    refs = [alg.group.reflection(c) for c in sigma]
    if len(set(refs)) != len(refs):
        return CheckResult("sigma-bijection", False, "reflections not distinct")
    back = [coroot_of_reflection(r) for r in refs]
    if list(back) != list(sigma):
        return CheckResult("sigma-bijection", False, "coroot round-trip failed")
    return CheckResult("sigma-bijection", True, f"{len(sigma)} generators")


def check_sigma_spans(alg: HeckeAlgebra, stab: TauStabilizer, coroot_bound: int) -> CheckResult:
    sigma = [c.coords for c in stab.sigma_tau(coroot_bound)]
    for c in stab.phi_tau(coroot_bound):
        if c.positive and not integer_cone_contains(sigma, c.coords):
            return CheckResult("sigma-spans", False, f"{c.coords} outside the N-cone")
    return CheckResult("sigma-spans", True, f"bound {coroot_bound}")


def check_length_order_compat(stab: TauStabilizer, ell_bound: int, coroot_bound: int) -> CheckResult:
    ball = stab.subgroup_ball(ell_bound, coroot_bound)
    for v in ball:
        for w in ball:
            if stab.bruhat_leq_tau(v, w) and not bruhat_leq(v, w):
                return CheckResult("length-order-compat", False, f"{v!r} <=tau {w!r} but not <=")
    return CheckResult("length-order-compat", True, f"{len(ball)}^2 pairs")


def check_weight_formula(alg: HeckeAlgebra, stab: TauStabilizer, coroot_bound: int, samples: int, seed: int) -> CheckResult:
    """tau(Omega_s(Z^lam)) = tau(lam) sigma'' alpha_s(lam) for generators s."""
    rng = random.Random(seed)
    sigma = stab.sigma_tau(coroot_bound)
    if not sigma:
        return CheckResult("weight-formula", True, "empty generator set")
    for k in range(samples):
        c = rng.choice(sigma)
        r = alg.group.reflection(c)
        lam = _random_exp(rng, alg.system.rank, 3)
        root = alg.group.reflection_root(c)
        pairing = sum(a * b for a, b in zip(root, lam))
        mono = RationalElt.monomial(lam)
        omega = alg.q_r(c) * (mono - mono.twist(r))
        poly = omega.is_polynomial()
        got = stab.tau.of_poly(poly) if poly is not None else None
        want = stab.tau.of_vector(lam) * stab.sigma_pp(c) * pairing
        if got is None or got != want:
            return CheckResult("weight-formula", False, f"sample {k} at {c.coords}, lam={lam}")
    return CheckResult("weight-formula", True, f"{samples} samples")


def check_order_depth(series: PrincipalSeries, ell_bound: int, coroot_bound: int, samples: int, seed: int) -> CheckResult:
    """ord_tau(x) = ell_tau(x) + 1 on basis vectors and random combinations."""
    rng = random.Random(seed)
    stab = series.stabilizer()
    if stab.rho_check(coroot_bound) is None:
        return CheckResult("order-depth", True, "sign condition fails; vacuous")
    ball = stab.subgroup_ball(ell_bound, coroot_bound)
    basis = {w: series.ev(stab.k_tilde_of(w)) for w in ball}
    for w in ball:
        if series.ord_tau(basis[w]) != stab.ell_tau(w) + 1:
            return CheckResult("order-depth", False, f"basis vector at {w!r}")
    for k in range(samples):
        picks = rng.sample(list(ball), rng.randint(1, min(3, len(ball))))
        x = ModuleVector(series.tau, {})
        for w in picks:
            x = x + basis[w].scale(Fraction(rng.randint(1, 4)))
        st = series.stats(x)
        if series.ord_tau(x) != st.ell_tau + 1:
            return CheckResult("order-depth", False, f"combo sample {k}")
    return CheckResult("order-depth", True, f"{len(ball)} basis vectors, {samples} combos")


def check_action_axiom(series: PrincipalSeries, samples: int, seed: int) -> CheckResult:
    rng = random.Random(seed)
    alg = series.algebra
    ball = alg.group.ball(2)
    for k in range(samples):
        h1 = _random_poly_element(alg, rng)
        h2 = _random_poly_element(alg, rng)
        x = series.vector({rng.choice(ball): Fraction(rng.randint(1, 3))})
        if series.act(h1 * h2, x) != series.act(h1, series.act(h2, x)):
            return CheckResult("action-axiom", False, f"sample {k}")
    return CheckResult("action-axiom", True, f"{samples} samples")


def _random_poly_element(alg: HeckeAlgebra, rng: random.Random) -> HeckeElt:
    out = alg.one()
    for _ in range(rng.randint(1, 2)):
        if rng.random() < 0.5:
            out = out * alg.T(alg.group.simple(rng.randrange(alg.system.n)))
        else:
            out = out * alg.monomial(_random_exp(rng, alg.system.rank, 1), Fraction(rng.randint(1, 3)))
    return out


def check_length_decrease(series: PrincipalSeries, ell_bound: int, coroot_bound: int, samples: int, seed: int) -> CheckResult:
    """ell_tau(theta . x) <= ell_tau(x) - 1 for tau-vanishing theta."""
    rng = random.Random(seed)
    stab = series.stabilizer()
    ball = stab.subgroup_ball(ell_bound, coroot_bound)
    basis = {w: series.ev(stab.k_tilde_of(w)) for w in ball}
    rank = series.algebra.system.rank
    for k in range(samples):
        picks = rng.sample(list(ball), rng.randint(1, min(3, len(ball))))
        x = ModuleVector(series.tau, {})
        for w in picks:
            x = x + basis[w].scale(Fraction(rng.randint(1, 4)))
        lam = _random_exp(rng, rank, 2)
        while not any(lam):
            lam = _random_exp(rng, rank, 2)
        theta = LaurentPoly(rank, {lam: Fraction(1), (0,) * rank: -series.tau.of_vector(lam)})
        y = series.act_poly(theta, x)
        ell_x = series.stats(x).ell_tau
        ell_y = series.stats(y).ell_tau
        if not y.is_zero and ell_y > ell_x - 1:
            return CheckResult("length-decrease", False, f"sample {k}")
    return CheckResult("length-decrease", True, f"{samples} samples")


def check_injectivity(series: PrincipalSeries, ell_bound: int, coroot_bound: int, samples: int, seed: int) -> CheckResult:
    """act(theta, .) is injective on the subsystem span when tau(theta) != 0."""
    rng = random.Random(seed)
    stab = series.stabilizer()
    ball = stab.subgroup_ball(ell_bound, coroot_bound)
    basis = [series.ev(stab.k_tilde_of(w)) for w in ball]
    rank = series.algebra.system.rank
    for k in range(samples):
        lam = _random_exp(rng, rank, 2)
        shift = Fraction(rng.randint(1, 3))
        if series.tau.of_vector(lam) + shift == 0:
            continue
        theta = LaurentPoly(rank, {lam: Fraction(1), (0,) * rank: shift})
        x = ModuleVector(series.tau, {})
        for b in basis:
            x = x + b.scale(Fraction(rng.randint(0, 3)))
        if x.is_zero:
            continue
        if series.act_poly(theta, x).is_zero:
            return CheckResult("injectivity", False, f"sample {k}")
    return CheckResult("injectivity", True, f"{samples} samples")


def check_sigma_matrix(alg: HeckeAlgebra, stab: TauStabilizer, coroot_bound: int) -> CheckResult:
    try:
        s_tau_matrix(alg, stab.sigma_tau(coroot_bound))
    except KacMoodyViolation as exc:
        return CheckResult("sigma-matrix", False, str(exc))
    return CheckResult("sigma-matrix", True, f"{len(stab.sigma_tau(coroot_bound))} generators")


def run_suite(alg: HeckeAlgebra, tau: Character, seed: int, coroot_bound: int = 8, ell_bound: int = 3,
              samples: int = 25) -> list[CheckResult]:
    """The identity suite the CLI exposes; deterministic for a fixed seed."""
    series = PrincipalSeries(alg, tau)
    stab = series.stabilizer()
    results = [
        check_quadratic(alg),
        check_braid(alg),
        check_commutation(alg, samples, seed + 1),
        check_associativity(alg, samples, seed + 2),
        check_intertwiner_word_independence(alg, 3),
        check_intertwiner_triangular(alg, 3),
        check_intertwiner_commutation(alg, samples, seed + 3),
        check_intertwiner_square(alg),
        check_omega_polynomial(alg, samples, seed + 4),
        check_k_quadratic(alg, stab, coroot_bound),
        check_k_braid(alg, stab, coroot_bound),
        check_k_word_independence(alg, stab, min(ell_bound, 3), coroot_bound),
        check_k_hecke_rule(alg, stab, 2, coroot_bound),
        check_k_commutation(alg, stab, coroot_bound, samples, seed + 5),
        check_sigma_tau_agreement(alg, stab, coroot_bound),
        check_sigma_bijection(alg, stab, coroot_bound),
        check_sigma_spans(alg, stab, coroot_bound),
        check_sigma_matrix(alg, stab, coroot_bound),
        check_length_order_compat(stab, min(ell_bound, 3), coroot_bound),
        check_weight_formula(alg, stab, coroot_bound, samples, seed + 6),
        check_action_axiom(series, min(samples, 15), seed + 7),
    ]
    if stab.u_c(coroot_bound).ok:
        results += [
            check_order_depth(series, min(ell_bound, 3), coroot_bound, min(samples, 20), seed + 8),
            check_length_decrease(series, min(ell_bound, 3), coroot_bound, min(samples, 15), seed + 9),
            check_injectivity(series, 2, coroot_bound, min(samples, 10), seed + 10),
        ]
    return results
