import random
from fractions import Fraction

import pytest

from blhecke import (
    Character,
    Coroot,
    enumerate_coroots,
    evaluate,
    max_supp,
    membership,
)
from blhecke.coxeter import WeylGroup, all_reduced_words, enumerate_ball, inversion_coroots
from blhecke.errors import IncompatibleData
from blhecke.identities import random_element
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


def test_omega_reads_the_memo(alg_affine_a2):
    """A one-term polynomial with coefficient 1 gets the memo entry itself; any
    polynomial gets the sum of the scaled entries, in the same reduced form."""
    alg = alg_affine_a2
    memo = alg._cache["omega"]
    for i in range(3):
        for exp in ((1, 0, 0, 0), (0, 2, -1, 1), (-1, 1, 0, 3)):
            assert alg.omega(i, RationalElt.monomial(exp)) is memo[(i, exp)]
        poly = LaurentPoly(4, {(1, 0, 0, 0): 1, (0, 2, -1, 1): -3, (2, 0, 1, 0): Fraction(5, 2)})
        want = RationalElt.from_scalar(0, 4)
        for exp, c in poly.terms.items():
            want = want + alg._omega(i, RationalElt.monomial(exp)).scale(c)
        got = alg.omega(i, RationalElt.from_poly(poly))
        assert got.num.terms == want.num.terms and got.den == want.den
        assert [type(c) for c in got.num.terms.values()] == [type(c) for c in want.num.terms.values()]


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
        assert alg_a2.k_tilde(g.simple(i)) == alg_a2.T(g.simple(i))
    # K_s = K~_s - sigma^2
    ks = alg_a2.k_plain(g.simple(0))
    assert ks == alg_a2.T(g.simple(0)) - alg_a2.one().scale(Fraction(4))


def test_k_tilde_word_examples(alg_a2):
    g = alg_a2.group
    assert alg_a2.k_tilde_word([]) == alg_a2.one()
    # trivial character: products of simple K~ are plain T-products
    w = g.simple(0) * g.simple(1)
    assert alg_a2.k_tilde_word([g.simple(0), g.simple(1)]) == alg_a2.T(w)
    kt = alg_a2.k_tilde(g.simple(0))
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


def test_membership(alg_a2, alg_affine_a1):
    g = alg_a2.group
    m = membership(alg_a2.T(g.simple(0)))
    assert m.in_blh and m.in_ih
    bad = alg_a2.T(g.simple(0)).times_fn(alg_a2.q_s(0))
    m = membership(bad)
    assert not m.in_blh and not m.in_ih
    pos = alg_a2.monomial((1, 0))
    m = membership(pos)
    assert m.in_blh and m.in_ih
    # finite type: the whole lattice lies in the Tits cone
    assert membership(alg_a2.monomial((-1, 0))).in_ih is True
    # affine: the negative of a dominant vector is in the negative cone only
    from blhecke import find_strictly_dominant

    lam = find_strictly_dominant(alg_affine_a1.system)
    down = alg_affine_a1.monomial(tuple(-x for x in lam))
    assert membership(down, dominance_cap=100).in_ih is False


def test_membership_undetermined(alg_affine_a1):
    # alpha_1^vee sits on the null level outside both cones
    h = alg_affine_a1.monomial((1, 0, 0))
    assert membership(h, dominance_cap=30).in_ih is None


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
    a = alg.theta(RationalElt(LaurentPoly.one(2), [BinomialFactor.make(1, (1, 0))]))
    b = alg.theta(RationalElt(LaurentPoly(2, {(0, 0): 1, (1, 0): 1, (2, 0): 1}), [BinomialFactor.make(1, (3, 0))]))
    ts = alg.T(alg.group.simple(0))
    for x, y in ((a, b), (ts * a, ts * b), (a + ts, ts + b)):
        assert not x.is_zero and x == y
        assert hash(x) == hash(y)
        assert len({x, y}) == 1
