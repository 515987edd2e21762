import random
from fractions import Fraction

import pytest

from blhecke import Character, ParameterSet, enumerate_coroots, evaluate, laurent
from blhecke.coxeter import WeylGroup, enumerate_ball
from blhecke.errors import PoleAtCharacter
from blhecke.hecke import HeckeAlgebra
from blhecke.laurent import BinomialFactor, LaurentPoly, RationalElt, _reduce, divide_binomial
from blhecke.scalars import QuadExt, as_scalar, quadext


def mono(exp, c=1):
    return RationalElt.monomial(exp, Fraction(c))


def test_group_algebra_law():
    z1 = LaurentPoly.monomial((1, 0))
    z2 = LaurentPoly.monomial((0, 2))
    assert z1 * z2 == LaurentPoly.monomial((1, 2))
    assert (z1 + z2) - z1 == z2
    assert not (z1 - z1).terms


def test_weyl_twist_examples(a1_adjoint, a2):
    s = WeylGroup(a1_adjoint).simple(0)
    assert mono((1,)).twist(s) == mono((-1,))
    e = WeylGroup(a2).identity
    theta = mono((1, -2), 3)
    assert theta.twist(e) == theta
    s1 = WeylGroup(a2).simple(0)
    assert mono((0, 1)).twist(s1) == mono((1, 1))


def test_twist_composition(a2):
    g = WeylGroup(a2)
    u, v = g.from_word([0, 1]), g.from_word([1, 0])
    theta = RationalElt(
        LaurentPoly((2), {(1, 0): Fraction(2), (0, -1): Fraction(-1)}),
        [BinomialFactor.make(Fraction(3), (1, 1))],
    )
    assert theta.twist(u * v) == theta.twist(v).twist(u)


def test_reduce_examples(a1_adjoint):
    # (1 - Z^-2a) / (1 - Z^-a) -> 1 + Z^-a
    num = LaurentPoly(1, {(0,): Fraction(1), (-2,): Fraction(-1)})
    x = RationalElt(num, [BinomialFactor.make(1, (-1,))])
    assert not x.den
    assert x.num == LaurentPoly(1, {(0,): Fraction(1), (-1,): Fraction(1)})
    # untouched when no denominator
    f = RationalElt(num)
    assert f.num == num and not f.den
    # no exact division: remainder -3
    num2 = LaurentPoly(1, {(0,): Fraction(1), (-1,): Fraction(-4)})
    y = RationalElt(num2, [BinomialFactor.make(1, (-1,))])
    assert len(y.den) == 1 and y.num == num2
    # zero numerator clears every factor
    z = RationalElt(LaurentPoly.zero(1), [BinomialFactor.make(1, (-1,))])
    assert z.is_zero and not z.den


def test_reduce_preserves_value():
    rng = random.Random(5)
    for _ in range(30):
        num = LaurentPoly(2, {
            (rng.randint(-2, 2), rng.randint(-2, 2)): Fraction(rng.randint(-3, 3))
            for _ in range(3)
        })
        factor = BinomialFactor.make(Fraction(rng.choice((1, -1, 2))), (rng.randint(-2, 2), 1))
        raw_num = num * factor.expand(2)
        x = RationalElt(raw_num, [factor])
        # cross-multiplication: x equals num exactly
        assert x == RationalElt(num)


def test_equal_values_hash_equal():
    # 1/(1 - Z) == (1 + Z + Z^2)/(1 - Z^3), stored over different factors
    a = RationalElt(LaurentPoly.one(1), [BinomialFactor.make(1, (1,))])
    b = RationalElt(LaurentPoly(1, {(0,): 1, (1,): 1, (2,): 1}), [BinomialFactor.make(1, (3,))])
    assert a.den != b.den and a == b
    assert len({a, b}) == 1
    # a factor vanishing at the hashing point still hashes
    c = RationalElt(LaurentPoly.one(1), [BinomialFactor.make(Fraction(1, 101), (1,))])
    assert c == c and len({c, a}) == 2


def test_divide_binomial_multidirection():
    # (1 - 5 Z^(1,1)) divides its product with anything
    f = BinomialFactor.make(Fraction(5), (1, 1))
    other = LaurentPoly(2, {(0, 0): Fraction(2), (1, 0): Fraction(3), (-1, 2): Fraction(-1)})
    prod = other * f.expand(2)
    assert divide_binomial(prod, f) == other
    assert divide_binomial(other, f) is None
    # a dividend with gaps along mu: (1 - 25 Z^(2,2)) = (1 - 5 Z^(1,1))(1 + 5 Z^(1,1))
    gapped = LaurentPoly(2, {(0, 0): Fraction(1), (2, 2): Fraction(-25)})
    assert divide_binomial(gapped, f) == LaurentPoly(2, {(0, 0): Fraction(1), (1, 1): Fraction(5)})


def test_evaluate_examples(a1_adjoint):
    tau = Character.make([-1])
    q = Fraction(4)
    x = RationalElt(LaurentPoly(1, {(0,): q - 1}), [BinomialFactor.make(1, (-1,))])
    assert evaluate(tau, x) == Fraction(3, 2)
    assert evaluate(tau, RationalElt.from_scalar(Fraction(7, 3), 1)) == Fraction(7, 3)
    with pytest.raises(PoleAtCharacter):
        evaluate(Character.trivial(1), RationalElt(LaurentPoly.one(1), [BinomialFactor.make(1, (-1,))]))


def test_is_polynomial():
    assert RationalElt(LaurentPoly.one(1), [BinomialFactor.make(1, (1,))]).is_polynomial() is None
    zero = RationalElt(LaurentPoly.zero(1), [BinomialFactor.make(1, (1,))])
    assert zero.is_polynomial() == LaurentPoly.zero(1)


def test_omega_polynomiality_instance(alg_a1_minimal):
    # (Z^lam - Z^(s.lam)) * Q_s is polynomial with alpha(lam) = 1: equals (s^2-1) Z^lam
    q = alg_a1_minimal.q_s(0)
    diff = mono((1,)) - mono((-1,))
    out = q * diff
    poly = out.is_polynomial()
    assert poly == LaurentPoly(1, {(1,): Fraction(3)})


def _random_rational(rng):
    num = LaurentPoly(2, {
        (rng.randint(-2, 2), rng.randint(-2, 2)): Fraction(rng.randint(-4, 4))
        for _ in range(rng.randint(1, 3))
    })
    den = []
    for _ in range(rng.randint(0, 2)):
        direction = (rng.randint(-1, 1), rng.choice((1, -1)))
        den.append(BinomialFactor.make(Fraction(rng.choice((1, -1, 3))), direction))
    return RationalElt(num, den)


def test_arithmetic_consistency_randomized():
    rng = random.Random(11)
    for _ in range(25):
        a, b, c = (_random_rational(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert a - a == RationalElt.from_scalar(0, 2)


def test_twist_commutes_with_evaluate(a2):
    g = WeylGroup(a2)
    tau = Character.make([Fraction(5), Fraction(-2)])
    rng = random.Random(3)
    for _ in range(15):
        theta = _random_rational(rng)
        for w in (g.simple(0), g.from_word([0, 1])):
            tw = tau.twist(w.inverse())  # (w^-1 . tau)(lam) = tau(w . lam)
            try:
                lhs = evaluate(tau, theta.twist(w))
            except PoleAtCharacter:
                with pytest.raises(PoleAtCharacter):
                    evaluate(tw, theta)
                continue
            assert lhs == evaluate(tw, theta)


def test_character_twist_action(a2):
    g = WeylGroup(a2)
    tau = Character.make([Fraction(5), Fraction(7)])
    w = g.from_word([0, 1])
    # (w.tau)(lam) = tau(w^{-1} lam) tested on basis vectors
    for j, e in enumerate(((1, 0), (0, 1))):
        assert tau.twist(w).values[j] == tau.of_vector(w.inverse().apply(e))
    assert tau.twist(g.identity) == tau


def test_factor_split_with_square_scale():
    # 1 - Z^(2mu) splits over the rationals
    f = BinomialFactor.make(1, (-2,))
    parts = f.split()
    assert {(p.scale, p.direction) for p in parts} == {(Fraction(1), (-1,)), (Fraction(-1), (-1,))}
    # 1 + Z^(2mu) has no square scale, so it stays whole (evaluation still exact)
    f2 = BinomialFactor.make(-1, (-2,))
    assert f2.split() == [f2]
    # a quadratic scale with a root in its own field splits
    f3 = BinomialFactor.make(quadext(3, 2, 2), (-2,))
    got = {(p.scale, p.direction) for p in f3.split()}
    root = quadext(1, 1, 2)
    assert got == {(root, (-1,)), (-root, (-1,))}


def test_character_with_extension():
    i = quadext(0, 1, -1)
    tau = Character.make([i])
    assert tau.of_vector((2,)) == Fraction(-1)
    assert tau.of_vector((-1,)) == -i
    p = LaurentPoly(1, {(1,): Fraction(2), (0,): Fraction(1)})
    assert tau.of_poly(p) == 1 + 2 * i


def _reduce_restart(num, factors):
    """Reference: rescan every factor from the start after each division."""
    if num.is_zero:
        return num, []
    remaining = list(factors)
    changed = True
    while changed and remaining:
        changed = False
        for idx, f in enumerate(remaining):
            q = divide_binomial(num, f)
            if q is not None:
                num = q
                del remaining[idx]
                changed = True
                break
    return num, remaining


def test_reduce_matches_restart_scan(monkeypatch):
    minus, plus = BinomialFactor.make(1, (1,)), BinomialFactor.make(-1, (1,))
    # (1 - Z)^2 (1 + Z) over (1 - Z)^3 (1 + Z), in several orders
    num = minus.expand(1) * minus.expand(1) * plus.expand(1)
    cases = [(num, [minus, minus, minus, plus]), (num, [plus, minus, minus, minus]), (num, [minus, plus, minus, minus])]
    # dividends with gaps: 1 - Z^4 and 1 - 9 Z^(2,2) over factors of the gapped direction
    cases.append((LaurentPoly(1, {(0,): 1, (4,): -1}), [BinomialFactor.make(1, (2,)), minus, plus, minus]))
    three = BinomialFactor.make(3, (1, 1))
    gapped = LaurentPoly(2, {(0, 0): 1, (2, 2): -9})
    cases.append((gapped, [three, BinomialFactor.make(-3, (1, 1)), three]))
    rng = random.Random(7)
    pool = [BinomialFactor.make(c, d) for c in (1, -1, 2, Fraction(1, 2)) for d in ((1, 0), (0, 1), (1, -1), (2, 1))]
    for _ in range(40):
        p = LaurentPoly(2, {(rng.randint(-1, 1), rng.randint(-1, 1)): rng.randint(-3, 3) for _ in range(2)})
        for f in rng.sample(pool, rng.randint(0, 3)):
            p = p * f.expand(2)
        cases.append((p, [rng.choice(pool) for _ in range(rng.randint(1, 5))]))
    calls = []
    real = laurent.divide_binomial
    monkeypatch.setattr(laurent, "divide_binomial", lambda p, f: calls.append(f) or real(p, f))
    for p, factors in cases:
        calls.clear()
        got_num, got_rest = _reduce(p, factors)
        want_num, want_rest = _reduce_restart(p, factors)
        assert got_num.terms == want_num.terms and got_rest == want_rest
        # one attempt per factor, never a retry
        assert calls == ([] if p.is_zero else factors)
    got_num, got_rest = _reduce(num, [minus, minus, minus, plus])
    assert got_num == LaurentPoly.one(1) and got_rest == [minus]


def _twist_samples(alg):
    """q_s, zeta and inverse-zeta factors and F-word coefficients of an algebra."""
    sys = alg.system
    out = [alg.q_s(i) for i in range(sys.n)]
    for c in enumerate_coroots(sys, 3):
        if c.positive:
            out += [alg.zeta(c), alg.zeta_inverse(c)]
    for w in enumerate_ball(sys, 2):
        out += list(alg.f_w(w).coeffs.values())
    return out


@pytest.mark.parametrize("sigma", [Fraction(2), Fraction(3, 2)])
def test_twist_equals_reduced_construction(g2, affine_a2, sigma):
    for sys in (g2, affine_a2):
        alg = HeckeAlgebra(sys, ParameterSet.equal(sigma, sys.n))
        samples = _twist_samples(alg)
        assert any(x.den for x in samples)
        for w in enumerate_ball(sys, 3):
            for x in samples:
                got = x.twist(w)
                want = RationalElt(x.num.apply_matrix(w), tuple(f.twist(w) for f in x.den))
                assert got.num.terms == want.num.terms and got.den == want.den
                assert [type(c) for c in got.num.terms.values()] == [type(c) for c in want.num.terms.values()]


def test_integral_coefficients_are_int(alg_a2):
    assert type(as_scalar(Fraction(6, 3))) is int and type(as_scalar(Fraction(1, 2))) is Fraction
    ext = quadext(0, 1, 2)
    assert as_scalar(ext) is ext
    f = BinomialFactor.make(Fraction(2), (1, 1))
    assert type(f.scale) is int
    p = LaurentPoly(2, {(0, 0): Fraction(4, 2), (1, 0): Fraction(-3)})
    q = LaurentPoly.one(2) + LaurentPoly.monomial((0, 1), 5)
    for x in (p, q, p + q, p - q, p * q, p.scale(Fraction(4, 2)), divide_binomial(p * f.expand(2), f),
              RationalElt.from_scalar(Fraction(3), 2).num, RationalElt.monomial((1, 1)).num,
              alg_a2.q_s(0).num, alg_a2.omega(1, RationalElt(p)).num):
        assert x.terms and all(type(c) is int for c in x.terms.values())
    half = LaurentPoly(2, {(0, 0): Fraction(1, 2)})
    assert all(type(c) is Fraction for c in (half * p).terms.values())
    assert type((half + q).terms[(0, 0)]) is Fraction
    assert all(type(c) is QuadExt for c in p.scale(ext).terms.values())
