"""An independent model of the algebra: Demazure-Lusztig operators on C[Y].

The BLH algebra acts faithfully on C[Y] (Lusztig, Proc. AMS 94, 1985;
Braverman, Kazhdan and Patnaik, Invent. Math. 204, 2016, for Kac-Moody data):
Z^lam acts by multiplication and

    T_s f = sigma^2 (s f) + Q_s (f - s f),   Q_s = (A + B u) / (1 - u^2),

with A = sigma^2 - 1, B = sigma (sigma' - 1/sigma') and u = Z^(-alpha_s^vee).
On a monomial, Q_s (Z^lam - Z^(s lam)) = Z^lam (1 - u^n) (A + B u) / (1 - u^2)
with n = alpha_s(lam), a Laurent polynomial in u whenever the parameters are
legal (sigma = sigma' when alpha_s(Y) meets odd n).  The model below is plain
dicts over the parameters' field (Q, or Q(sqrt 2) at sigma = sqrt 2), with
`scalars.inv` for its inverses; it reads only the root datum, the parameters
and the coefficients of an element, and shares no code with `hecke`, `laurent`
or `principal`.  So phi(h1 h2) f = phi(h1) (phi(h2) f) on seeded f checks the
product, and through the operators, which satisfy the braid relations on their
own, the braid relations of the T_w basis too.

An F word has rational coefficients, so the same operators act on C(Y), and
the check runs on values at seeded rational characters chi away from the
poles.  With (chi s)(lam) = chi(s lam), (s g)(chi) = g(chi s), so

    (T_s g)(chi) = sigma^2 g(chi s) + Q_s(chi) (g(chi) - g(chi s))

reads g at chi and at chi s, and T_w g at chi reads g at chi u for u in the
subwords of w: no rational-function arithmetic.  A coefficient theta is read
as its value num(chi) / prod (1 - c chi(mu)) over its stored factors.  Two
different rational functions agree at a random point only on a proper
subvariety (Schwartz-Zippel), so a few characters make a false pass unlikely.
"""

import random
from fractions import Fraction
from functools import lru_cache, partial

import pytest

from conftest import ZETA_ALGEBRAS

from blhecke.laurent import LaurentPoly
from blhecke.scalars import inv


def _add(out, exp, c):
    c += out.get(exp, 0)
    if c:
        out[exp] = c
    else:
        out.pop(exp, None)


def _times(f, g):
    out = {}
    for a, c in f.items():
        for b, d in g.items():
            _add(out, tuple(x + y for x, y in zip(a, b)), c * d)
    return out


@lru_cache(maxsize=None)
def _quotient(n, a, b):
    """(1 - u^n) (a + b u) / (1 - u^2) as ((k, coefficient of u^k), ...), by exact division."""
    if n < 0:
        # 1 - u^n = -u^n (1 - u^-n)
        return tuple((k + n, -c) for k, c in _quotient(-n, a, b))
    p = {0: a, 1: b}
    for k, c in ((n, -a), (n + 1, -b)):
        p[k] = p.get(k, 0) + c
    q = {}
    for k in range(n + 2):
        r = p.get(k, 0) + q.get(k - 2, 0)
        if k < n:
            q[k] = r
        else:
            assert r == 0, f"Q_s (1 - u^{n}) is not a polynomial"
    return tuple((k, c) for k, c in q.items() if c)


def _demazure_lusztig(alg, i, f):
    """T_{s_i} f, monomial by monomial."""
    sys_ = alg.system
    sigma, sigma_prime = alg.params.sigma[i], alg.params.sigma_prime[i]
    a, b = sigma ** 2 - 1, sigma * (sigma_prime - inv(sigma_prime))
    root, coroot = sys_.simple_roots[i], sys_.simple_coroots[i]
    out = {}
    for lam, c in f.items():
        n = sum(x * y for x, y in zip(root, lam))
        _add(out, tuple(x - n * y for x, y in zip(lam, coroot)), sigma ** 2 * c)
        for k, d in _quotient(n, a, b):
            # u^k Z^lam = Z^(lam - k alpha^vee)
            _add(out, tuple(x - k * y for x, y in zip(lam, coroot)), c * d)
    return out


def _word(alg, word, f):
    """T_{s_1} ... T_{s_k} f, the last letter first."""
    for i in reversed(word):
        f = _demazure_lusztig(alg, i, f)
    return f


def act(h, f):
    """phi(h) f for h = sum_w T_w theta_w with polynomial coefficients."""
    out = {}
    for w, theta in h.coeffs.items():
        assert not theta.den, "a T/Z element has polynomial coefficients"
        for exp, c in _word(h.algebra, w.word, _times(theta.num.terms, f)).items():
            _add(out, exp, c)
    return out


def _poly(rng, rank, terms=2, max_exp=1):
    out = {}
    for _ in range(terms):
        _add(out, tuple(rng.randint(-max_exp, max_exp) for _ in range(rank)), Fraction(rng.randint(1, 5) * rng.choice((1, -1))))
    return out


def _ball_element(alg, rng, ball, terms=None):
    """sum of T_w theta_w over the Bruhat ball, or over `terms` seeded elements
    of it, theta_w a seeded polynomial."""
    out = alg.zero()
    elements = alg.group.ball(ball)
    for w in elements if terms is None else rng.sample(elements, terms):
        poly = _poly(rng, alg.system.rank, rng.randint(1, 2))
        if poly:
            out = out + alg.T(w) * alg.theta(LaurentPoly(alg.system.rank, poly))
    return out


ORACLE_ALGEBRAS = ["A2 q=4", "G2 q=4", "affine A1 q=4", "A1 (2, 3)", "G2 q=2"]


@pytest.mark.parametrize("name", ORACLE_ALGEBRAS)
def test_the_model_satisfies_the_quadratic_and_braid_relations(name):
    """The operators alone, with no product of the package: T_s^2 = (sigma^2 - 1) T_s
    + sigma^2, and the braid relation of each pair of finite order m."""
    alg = ZETA_ALGEBRAS[name]
    rng = random.Random(1)
    n, matrix = alg.system.n, alg.system.matrix
    for f in (_poly(rng, alg.system.rank, 3, 2) for _ in range(3)):
        for i in range(n):
            sigma2 = alg.params.sigma[i] ** 2
            want = {}
            for exp, c in _word(alg, (i,), f).items():
                _add(want, exp, (sigma2 - 1) * c)
            for exp, c in f.items():
                _add(want, exp, sigma2 * c)
            assert _word(alg, (i, i), f) == want
            for j in range(i + 1, n):
                m = {0: 2, 1: 3, 2: 4, 3: 6}.get(matrix[i, j] * matrix[j, i])
                if m is not None:
                    assert _word(alg, [(i, j)[k % 2] for k in range(m)], f) == _word(alg, [(j, i)[k % 2] for k in range(m)], f)


@pytest.mark.parametrize("name", ORACLE_ALGEBRAS)
def test_products_act_as_composites(name):
    """phi(h1 h2) f = phi(h1) (phi(h2) f) for seeded elements of the ball of
    length 2 and seeded f; the swapped product h2 h1 fails on some f."""
    alg = ZETA_ALGEBRAS[name]
    rng = random.Random(7)
    for _ in range(3):
        h1, h2 = _ball_element(alg, rng, 2), _ball_element(alg, rng, 2)
        fs = [_poly(rng, alg.system.rank, 2) for _ in range(3)]
        composites = [act(h1, act(h2, f)) for f in fs]
        assert [act(h1 * h2, f) for f in fs] == composites
        assert [act(h2 * h1, f) for f in fs] != composites


@lru_cache(maxsize=None)
def _at(chi, lam):
    """chi(Z^lam) for chi given by its values on the basis of Y."""
    out = Fraction(1)
    for v, e in zip(chi, lam):
        out *= v ** e
    return out


def _poly_at(poly, chi):
    return sum((c * _at(chi, lam) for lam, c in poly.items()), Fraction(0))


def _rational_at(theta, chi):
    """theta(chi) from the stored numerator and factors 1 - c Z^mu."""
    out = _poly_at(theta.num.terms, chi)
    for f in theta.den:
        out *= inv(1 - f.scale * _at(chi, f.direction))
    return out


def _t_at(alg, i, g, chi):
    """(T_{s_i} g)(chi) for g given by its values."""
    sigma, sigma_prime = alg.params.sigma[i], alg.params.sigma_prime[i]
    root, coroot = alg.system.simple_roots[i], alg.system.simple_coroots[i]
    u = inv(_at(chi, coroot))  # chi(Z^(-alpha^vee))
    q = (sigma ** 2 - 1 + sigma * (sigma_prime - inv(sigma_prime)) * u) * inv(1 - u * u)
    chi_s = tuple(v * _at(chi, coroot) ** -a for v, a in zip(chi, root))  # chi(s e_k), s e_k = e_k - a_k alpha^vee
    g_s = g(chi_s)
    return sigma ** 2 * g_s + q * (g(chi) - g_s)


def act_at(h, g):
    """phi(h) g, as its values, for h with rational coefficients and g given by its values."""
    alg = h.algebra

    @lru_cache(maxsize=None)
    def value(chi):
        out = Fraction(0)
        for w, theta in h.coeffs.items():
            term = lambda x, theta=theta: _rational_at(theta, x) * g(x)
            for i in reversed(w.word):
                term = partial(_t_at, alg, i, term)
            out += term(chi)
        return out

    return value


def _characters(rng, rank, count):
    """Characters +-p_j with the rank primes p_j distinct, so chi(mu) = +-1 only
    at mu = 0, and no denominator 1 -+ Z^mu of an F word vanishes anywhere on
    the W-orbit."""
    return [tuple(Fraction(p * rng.choice((1, -1))) for p in rng.sample([2, 3, 5, 7, 11, 13], rank))
            for _ in range(count)]


def _with_f_letter(alg, rng, x):
    """x F_s or F_s x, for a seeded s and side."""
    f = alg.f_s(rng.randrange(alg.system.n))
    return x * f if rng.random() < 0.5 else f * x


@pytest.mark.parametrize("name", ["G2 q=4", "affine A1 q=4", "A1 (2, 3)", "G2 q=2"])
def test_f_word_products_act_as_composites(name):
    """phi(h1 h2) g = phi(h1) (phi(h2) g) at seeded characters, for seeded
    elements of the ball of length 2 with one F_s letter on a seeded side; the
    swapped product fails.  On T/Z elements the values are those of the
    polynomial model."""
    alg = ZETA_ALGEBRAS[name]
    rng = random.Random(3)
    rank = alg.system.rank
    chis = _characters(rng, rank, 3)
    h = _ball_element(alg, rng, 2)
    f = _poly(rng, rank, 2)
    assert [act_at(h, partial(_poly_at, f))(chi) for chi in chis] == [_poly_at(act(h, f), chi) for chi in chis]
    for _ in range(4):
        h1, h2 = (_with_f_letter(alg, rng, _ball_element(alg, rng, 2, 2)) for _ in range(2))
        assert any(theta.den for theta in h1.coeffs.values())
        g = partial(_poly_at, _poly(rng, rank, 2))
        composite = [act_at(h1, act_at(h2, g))(chi) for chi in chis]
        assert [act_at(h1 * h2, g)(chi) for chi in chis] == composite
        assert [act_at(h2 * h1, g)(chi) for chi in chis] != composite
