import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from conftest import ZETA_ALGEBRAS

from blhecke import (
    Character,
    Coroot,
    ParameterSet,
    enumerate_coroots,
    evaluate,
    max_supp,
)
from blhecke.coxeter import all_reduced_words, enumerate_ball, inversion_coroots
from blhecke.errors import IncompatibleData, NotInBLH
from blhecke.hecke import HeckeAlgebra, HeckeElt
from blhecke.identities import check_omega_polynomial, random_element, run_suite
from blhecke.laurent import BinomialFactor, LaurentPoly, RationalElt, times_binomials
from blhecke.scalars import inv as scalar_inv


def mono(exp, c=1):
    return RationalElt.monomial(exp, Fraction(c))


def test_q_s_equal_parameters(alg_a1_adjoint):
    q = alg_a1_adjoint.q_s(0)
    # Remark-style reduced form: (sigma^2 - 1) / (1 - Z^-a)
    assert q.num == LaurentPoly(1, {(0,): Fraction(3)})
    assert q.den == (BinomialFactor.make(1, (-1,)),)
    tau = Character.make([-1])
    assert evaluate(tau, q) == Fraction(3, 2)


def test_q_s_unequal_parameters(alg_a1_unequal):
    q = alg_a1_unequal.q_s(0)
    # value equality with the displayed two-factor formula
    num = LaurentPoly(1, {(0,): Fraction(3), (-1,): Fraction(2) * (Fraction(3) - Fraction(1, 3))})
    den = [BinomialFactor.make(1, (-1,)), BinomialFactor.make(-1, (-1,))]
    assert q == RationalElt(num, den)


def test_omega_examples(alg_a1_adjoint, alg_a1_minimal):
    # Omega(Z^a) = (q-1)(Z^a + 1) on the adjoint lattice
    got = alg_a1_adjoint.omega(0, mono((1,)))
    want = RationalElt(LaurentPoly(1, {(1,): Fraction(3), (0,): Fraction(3)}))
    assert got == want
    # symmetric argument: zero
    sym = mono((1,)) + mono((-1,))
    assert alg_a1_adjoint.omega(0, sym).is_zero
    # alpha(lambda) = 1 on the index-two lattice: (sigma^2-1) Z^lambda
    got = alg_a1_minimal.omega(0, mono((1,)))
    assert got == mono((1,), 3)


def test_omega_reads_the_memo():
    """On a polynomial, omega sums the memoized walks of its monomials: the
    value is sum c Omega_s(Z^lam) by the definition, polynomial and with no
    zero coefficient, on every algebra of the zeta tests (unequal A1 too),
    also where the walks cancel (an s-invariant theta)."""
    rng = random.Random(5)
    for name, alg in ZETA_ALGEBRAS.items():
        rank = alg.system.rank
        for i in range(alg.system.n):
            terms = {tuple(rng.randint(-3, 3) for _ in range(rank)): rng.choice([1, -3, Fraction(5, 2)]) for _ in range(5)}
            theta = RationalElt.from_poly(LaurentPoly(rank, terms))
            sym = theta + theta.twist(alg.group.simple(i))
            for x in (theta, sym):
                want = RationalElt.from_scalar(0, rank)
                for exp, c in x.num.terms.items():
                    want = want + alg._omega(i, RationalElt.monomial(exp)).scale(c)
                got = alg.omega(i, x)
                assert got == want and got.den == () and all(got.num.terms.values()), (name, i)
            assert alg.omega(i, sym).is_zero


def test_lattice_elements_of_another_rank_are_rejected(alg_affine_a1):
    """Exponents of rank 2 in the rank-3 algebra of affine A1 raise, naming both
    ranks, rather than being zipped to the shorter length."""
    alg = alg_affine_a1
    with pytest.raises(IncompatibleData, match="rank 2 .* rank 3"):
        alg.omega(0, mono((3, 0)))
    with pytest.raises(IncompatibleData, match="rank 2 .* rank 3"):
        alg.monomial((1, 0)) * alg.monomial((0, 0, 1))
    with pytest.raises(IncompatibleData, match="rank 4 .* rank 3"):
        alg.theta(LaurentPoly.one(4))


def test_omega_check_fails_off_the_blh(a1_minimal):
    """alpha(Y) = Z with sigma != sigma' fails `ParameterSet.validate`; there
    Omega(Z^lambda) is not a polynomial, and the identity check says so."""
    alg = HeckeAlgebra(a1_minimal, ParameterSet((Fraction(2),), (Fraction(3),)))
    with pytest.raises(NotInBLH):
        alg.omega(0, mono((1,)))
    assert not check_omega_polynomial(alg, 5, 0).passed


def test_identity_suite_fails_off_the_blh(a1_minimal):
    """On the same parameters the whole suite reports: the checks that meet a
    non-polynomial Omega fail, naming NotInBLH, and the others still run."""
    alg = HeckeAlgebra(a1_minimal, ParameterSet((Fraction(2),), (Fraction(3),)))
    for tau in (Character.trivial(1), Character.make([-1])):
        results = {r.name: r for r in run_suite(alg, tau, seed=0, coroot_bound=6, ell_bound=3, samples=5)}
        assert len(results) == 24
        assert not results["omega-polynomial"].passed
        for name in ("commutation", "associativity", "action-axiom"):
            assert not results[name].passed and results[name].detail.startswith("NotInBLH: "), (tau, name)
        assert results["quadratic"].passed and results["braid"].passed


def test_multiply_examples(alg_a1_adjoint):
    alg = alg_a1_adjoint
    s = alg.group.simple(0)
    ts = alg.T(s)
    # T_s^2 = (sigma^2-1) T_s + sigma^2
    assert ts * ts == ts.scale(Fraction(3)) + alg.one().scale(Fraction(4))
    # Z^a * T_s = T_s Z^-a + (sigma^2-1)(Z^a + 1)
    got = alg.monomial((1,)) * ts
    want = ts.times_fn(mono((-1,))) + alg.theta(RationalElt(LaurentPoly(1, {(1,): Fraction(3), (0,): Fraction(3)})))
    assert got == want
    # unit
    h = random_element(alg, random.Random(0))
    assert alg.one() * h == h and h * alg.one() == h


def test_incompatible_data(alg_a1_adjoint, alg_a2):
    with pytest.raises(IncompatibleData):
        alg_a1_adjoint.one() * alg_a2.one()


def test_f_w_examples(alg_a1_adjoint, alg_a2):
    alg = alg_a1_adjoint
    assert alg.f_w(alg.group.identity) == alg.one()
    s = alg.group.simple(0)
    # intertwiner normalization: F_s = T_s - Q_s (the sign that makes the
    # commutation, the square, and the quadratic relations exact)
    assert alg.f_s(0) == alg.T(s) - alg.theta(alg.q_s(0))
    g2 = alg_a2.group
    w = g2.simple(0) * g2.simple(1)
    assert alg_a2.f_w(w) == alg_a2.f_s(1) * alg_a2.f_s(0) or alg_a2.f_w(w) == alg_a2.f_s(0) * alg_a2.f_s(1)
    # triangular: F_w - T_w strictly Bruhat-lower
    assert max_supp(alg_a2.f_w(w)) == (w,)


def test_f_square_is_zeta_pair(alg_b2):
    for i in range(2):
        fs = alg_b2.f_s(i)
        z = alg_b2.zeta(alg_b2.system.simple_coroot(i))
        assert fs * fs == alg_b2.theta(z * z.twist(alg_b2.group.simple(i)))


def test_zeta_examples(alg_a1_adjoint):
    z = alg_a1_adjoint.zeta(Coroot((1,)))
    # (1 - 4 Z^-a) / (1 - Z^-a): the factor 1 + Z^-a cancels at sigma = sigma'
    assert z.num == BinomialFactor.make(4, (-1,)).expand(1)
    assert [(f.scale, f.direction) for f in z.den] == [(Fraction(1), (-1,))]
    tau1 = Character.trivial(1)
    assert tau1.of_poly(z.num) == Fraction(-3)
    assert [tau1.of_factor(f) for f in z.den] == [Fraction(0)]


def test_zeta_unequal_factorization(alg_a1_unequal):
    z = alg_a1_unequal.zeta(Coroot((1,)))
    # num = (1 - ss' Z^-a)(1 + s/s' Z^-a), den = (1 - Z^-a)(1 + Z^-a)
    binomials = [BinomialFactor.make(6, (-1,)), BinomialFactor.make(Fraction(-2, 3), (-1,))]
    assert z.num == times_binomials(LaurentPoly.one(1), binomials)
    assert {(f.scale, f.direction) for f in z.den} == {(Fraction(1), (-1,)), (Fraction(-1), (-1,))}
    # expansion identity against sigma^2 - Q
    s2 = Fraction(4)
    direct = RationalElt.from_scalar(s2, 1) - alg_a1_unequal.q_s(0)
    assert z == direct


def _factored_zeta(alg, c):
    """Reference: zeta_c and zeta_c^{-1} from the split, cancelled binomial lists."""
    s, sp = alg.sigma_r(c)
    neg = tuple(-x for x in alg.system.coroot_to_y(c.coords))
    num = [BinomialFactor.make(s * sp, neg), BinomialFactor.make(-s * scalar_inv(sp), neg)]
    den = [BinomialFactor.make(1, neg), BinomialFactor.make(-1, neg)]
    num = [g for f in num for g in f.split()]
    den = [g for f in den for g in f.split()]
    for f in list(num):
        if f in den:
            num.remove(f)
            den.remove(f)
    one = LaurentPoly.one(alg.system.rank)
    return RationalElt(times_binomials(one, num), den), RationalElt(times_binomials(one, den), num)


def _same_form(got, want):
    assert got.num.terms == want.num.terms and got.den == want.den
    assert [type(c) for c in got.num.terms.values()] == [type(c) for c in want.num.terms.values()]


def test_zeta_matches_factored_construction(zeta_algebra):
    alg = zeta_algebra
    positive = [c for c in enumerate_coroots(alg.system, 6) if c.positive]
    for c in positive:
        z, z_inv = _factored_zeta(alg, c)
        _same_form(alg.zeta(c), z)
        _same_form(alg.zeta(-c), z)
        _same_form(alg.zeta_inverse(c), z_inv)
    if alg.system.n == alg.system.rank:  # finite type: every F_r
        for c in positive:
            r = alg.group.reflection(c)
            want = alg.f_w(r)
            for beta in inversion_coroots(r):
                if beta != c:
                    want = want * alg.theta(_factored_zeta(alg, beta)[1])
            got = alg.f_reflection(c)
            assert set(got.coeffs) == set(want.coeffs)
            for w, x in got.coeffs.items():
                _same_form(x, want.coeffs[w])


def test_k_tilde_simple_is_T(alg_a2):
    g = alg_a2.group
    for i in range(2):
        assert alg_a2.k_tilde(g.system.simple_coroot(i)) == alg_a2.T(g.simple(i))
    # K_s = K~_s - sigma^2
    ks = alg_a2.k_plain(g.system.simple_coroot(0))
    assert ks == alg_a2.T(g.simple(0)) - alg_a2.one().scale(Fraction(4))


def test_k_tilde_word_examples(alg_a2):
    g = alg_a2.group
    assert alg_a2.k_tilde_word([]) == alg_a2.one()
    # trivial character: products of simple K~ are plain T-products
    w = g.simple(0) * g.simple(1)
    assert alg_a2.k_tilde_word([g.system.simple_coroot(0), g.system.simple_coroot(1)]) == alg_a2.T(w)
    kt = alg_a2.k_tilde(g.system.simple_coroot(0))
    assert kt * kt == kt.scale(Fraction(3)) + alg_a2.one().scale(Fraction(4))


def test_k_tilde_nonsimple_relations(alg_a2):
    # tau = (t, 1/t) fixes only the highest coroot: S_tau = {s1 s2 s1}
    theta_cor = Coroot((1, 1))
    ktr = alg_a2.k_tilde(theta_cor)
    r = alg_a2.group.from_word([0, 1, 0])
    assert max_supp(ktr) == (r,)
    assert ktr * ktr == ktr.scale(Fraction(3)) + alg_a2.one().scale(Fraction(4))
    kr = alg_a2.k_plain(theta_cor)
    assert kr * kr == kr.scale(Fraction(-5))
    # commutation with Omega_r built from Q_r
    th = mono((2, -1))
    omega = alg_a2.q_r(theta_cor) * (th - th.twist(r))
    assert alg_a2.theta(th) * ktr == ktr * alg_a2.theta(th.twist(r)) + alg_a2.theta(omega)


def test_max_supp_examples(alg_a2):
    g = alg_a2.group
    assert max_supp(alg_a2.one()) == (g.identity,)
    assert max_supp(alg_a2.f_s(0)) == (g.simple(0),)
    both = alg_a2.T(g.simple(0)) + alg_a2.T(g.simple(1))
    assert set(max_supp(both)) == {g.simple(0), g.simple(1)}


def test_theta_f_w_commutation(alg_a2, alg_affine_a1):
    rng = random.Random(2)
    for alg in (alg_a2, alg_affine_a1):
        for w in enumerate_ball(alg.system, 3):
            theta = mono(tuple(rng.randint(-2, 2) for _ in range(alg.system.rank)), rng.randint(1, 3))
            fw = alg.f_w(w)
            assert alg.theta(theta) * fw == fw * alg.theta(theta.twist(w.inverse()))


def test_associativity_sample(alg_b2):
    rng = random.Random(9)
    for _ in range(20):
        a, b, c = (random_element(alg_b2, rng, 2, 2) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_f_word_independence_small(alg_affine_a2):
    for w in enumerate_ball(alg_affine_a2.system, 3):
        prods = []
        for word in all_reduced_words(w):
            h = alg_affine_a2.one()
            for i in word:
                h = h * alg_affine_a2.f_s(i)
            prods.append(h)
        assert all(p == prods[0] for p in prods)


def test_equal_elements_hash_equal(alg_affine_a1):
    # theta(1/(1 - Z^e1)) == theta((1 + Z^e1 + Z^2e1)/(1 - Z^3e1)), stored over different factors
    alg = alg_affine_a1
    a = alg.theta(RationalElt(LaurentPoly.one(3), [BinomialFactor.make(1, (1, 0, 0))]))
    b = alg.theta(RationalElt(LaurentPoly(3, {(0, 0, 0): 1, (1, 0, 0): 1, (2, 0, 0): 1}),
                              [BinomialFactor.make(1, (3, 0, 0))]))
    ts = alg.T(alg.group.simple(0))
    for x, y in ((a, b), (ts * a, ts * b), (a + ts, ts + b)):
        assert not x.is_zero and x == y
        assert hash(x) == hash(y)
        assert len({x, y}) == 1


def test_elements_of_another_weyl_group_are_rejected(alg_a2, alg_b2):
    """s1s2s1s2 of B2 has length 4, above A2's longest element: T and F_w of
    the A2 algebra raise on it, naming it, and cache nothing under its key."""
    g = alg_b2.group
    w = g.simple(0) * g.simple(1) * g.simple(0) * g.simple(1)
    for make in (alg_a2.T, alg_a2.f_w):
        with pytest.raises(IncompatibleData, match=re.escape(repr(w))):
            make(w)
    assert w not in alg_a2._cache["f"]
    assert alg_b2.T(w).support() == (w,)


# -- the recursion the product replaced, kept as its reference --------------------

def _left_T_s(alg, i, coeffs):
    """T_{s_i} times a normal form on the left, by the quadratic relation."""
    out = {}
    sigma2 = alg.params.sigma[i] ** 2
    for w, c in coeffs.items():
        sw = w.left_simple(i)
        terms = [(w, c.scale(sigma2 - 1)), (sw, c.scale(sigma2))] if i in w.left_descents else [(sw, c)]
        for u, d in terms:
            out[u] = out[u] + d if u in out else d
    return out


def _push_through(alg, theta, v):
    """Normal form of theta * T_v by theta T_s T_v' = T_s (^s theta T_v') + Omega_s(theta) T_v',
    s the first letter of v: two calls per letter, and terms merge only on the way back up."""
    if theta.is_zero:
        return alg.zero()
    if v.is_identity or theta.constant_value() is not None:
        return HeckeElt(alg, {v: theta})
    i = v.word[0]
    rest = v.left_simple(i)
    main = HeckeElt(alg, _left_T_s(alg, i, _push_through(alg, theta.twist(alg.group.simple(i)), rest).coeffs))
    corr = alg.omega(i, theta)
    if not corr.is_zero:
        main = main + _push_through(alg, corr, rest)
    return main


def tree_product(a, b):
    """a * b as the sum over pairs of terms of T_u (theta_u T_v) theta_v."""
    alg = a.algebra
    out = alg.zero()
    for u, theta_u in a.coeffs.items():
        for v, theta_v in b.coeffs.items():
            part = _push_through(alg, theta_u, v).coeffs
            for i in reversed(u.word):
                part = _left_T_s(alg, i, part)
            out = out + HeckeElt(alg, part).times_fn(theta_v)
    return out


def _word_element(alg, rng, f_word):
    """A product of 1-4 letters T_s and c Z^lam, |lam_j| <= 1; an F word has one
    letter F_s in place of one of them, and so binomial denominators."""
    letters = []
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.5:
            letters.append(alg.T(alg.group.simple(rng.randrange(alg.system.n))))
        else:
            exp = tuple(rng.randint(-1, 1) for _ in range(alg.system.rank))
            letters.append(alg.monomial(exp, Fraction(rng.randint(1, 5) * rng.choice((1, -1)))))
    if f_word:
        letters[rng.randrange(len(letters))] = alg.f_s(rng.randrange(alg.system.n))
    out = alg.one()
    for x in letters:
        out = out * x
    return out


def _denominator_primes(c):
    return Counter(f.prime_class() for f in c.den)


@pytest.mark.parametrize("name", ["G2 q=4", "affine A2 q=4", "hyperbolic q=4", "A1 (2, 3)", "G2 q=2"])
def test_product_matches_the_tree(name):
    """On seeded T/Z words, whose coefficients are polynomials, the product is
    the tree's to the last character.  On F words it is the tree's value, kept
    over the same reduced denominator up to associates: the sums are grouped by
    the first letters of the word, not the last, so one side may keep
    1 - c Z^mu where the other keeps 1 - c^-1 Z^-mu."""
    alg = ZETA_ALGEBRAS[name]
    rng = random.Random(11)
    for k in range(12):
        f_word = k % 3 == 2
        a, b = _word_element(alg, rng, f_word), _word_element(alg, rng, f_word)
        got, want = a * b, tree_product(a, b)
        assert got == want, (name, k)
        if f_word:
            assert got.support() == want.support()
            assert all(_denominator_primes(got.coeffs[w]) == _denominator_primes(want.coeffs[w]) for w in got.coeffs)
        else:
            assert repr(got) == repr(want), (name, k)


def _zt(alg, ell):
    """Z^(e_1) and T_w for w = s1 s2 s3 ... of length ell, cycling through the generators."""
    g = alg.group
    w = g.identity
    for k in range(ell):
        w = w * g.simple(k % alg.system.n)
    return alg.monomial(tuple(int(j == 0) for j in range(alg.system.rank))), alg.T(w)


@pytest.mark.parametrize("name, ell", [("affine A1 q=4", 12), ("affine A2 q=4", 12), ("hyperbolic q=4", 7)])
def test_long_words_match_the_tree(name, ell):
    z, t = _zt(ZETA_ALGEBRAS[name], ell)
    assert repr(z * t) == repr(tree_product(z, t))


def test_omega_calls_grow_polynomially(alg_affine_a1, monkeypatch):
    """Z^(e_1) T_w on affine A1 at l(w) = 16 makes l(l-1) + 1 = 241 Omega calls
    for its 2l terms; the tree made 2^(l+1) - 1 = 65535."""
    ell, calls = 16, []
    omega = HeckeAlgebra.omega

    def counted(self, i, theta):
        calls.append(i)
        return omega(self, i, theta)

    z, t = _zt(alg_affine_a1, ell)
    monkeypatch.setattr(HeckeAlgebra, "omega", counted)
    assert len((z * t).coeffs) == 2 * ell
    assert len(calls) <= ell ** 2
