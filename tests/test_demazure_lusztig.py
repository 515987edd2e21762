"""An independent model of the algebra: Demazure-Lusztig operators on C[Y].

The BLH algebra acts faithfully on C[Y] (Lusztig, Proc. AMS 94, 1985;
Braverman, Kazhdan and Patnaik, Invent. Math. 204, 2016, for Kac-Moody data):
Z^lam acts by multiplication and

    T_s f = sigma^2 (s f) + Q_s (f - s f),   Q_s = (A + B u) / (1 - u^2),

with A = sigma^2 - 1, B = sigma (sigma' - 1/sigma') and u = Z^(-alpha_s^vee).
On a monomial, Q_s (Z^lam - Z^(s lam)) = Z^lam (1 - u^n) (A + B u) / (1 - u^2)
with n = alpha_s(lam), a Laurent polynomial in u whenever the parameters are
legal (sigma = sigma' when alpha_s(Y) meets odd n).  The model below is plain
dicts over Fraction; it reads only the root datum, the parameters and the
coefficients of an element, and shares no code with `hecke`, `laurent` or
`principal`.  So phi(h1 h2) f = phi(h1) (phi(h2) f) on seeded f checks the
product, and through the operators, which satisfy the braid relations on their
own, the braid relations of the T_w basis too.  T/Z words only: their
coefficients are polynomials.
"""

import random
from fractions import Fraction
from functools import lru_cache

import pytest

from conftest import ZETA_ALGEBRAS

from blhecke.laurent import LaurentPoly


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
    sigma, sigma_prime = Fraction(alg.params.sigma[i]), Fraction(alg.params.sigma_prime[i])
    a, b = sigma ** 2 - 1, sigma * (sigma_prime - 1 / sigma_prime)
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
        poly = {exp: Fraction(c) for exp, c in theta.num.terms.items()}
        for exp, c in _word(h.algebra, w.word, _times(poly, f)).items():
            _add(out, exp, c)
    return out


def _poly(rng, rank, terms=2, max_exp=1):
    out = {}
    for _ in range(terms):
        _add(out, tuple(rng.randint(-max_exp, max_exp) for _ in range(rank)), Fraction(rng.randint(1, 5) * rng.choice((1, -1))))
    return out


def _ball_element(alg, rng, ball):
    """sum of T_w theta_w over the Bruhat ball, theta_w a seeded polynomial."""
    out = alg.zero()
    for w in alg.group.ball(ball):
        poly = _poly(rng, alg.system.rank, rng.randint(1, 2))
        if poly:
            out = out + alg.T(w) * alg.theta(LaurentPoly(alg.system.rank, poly))
    return out


ORACLE_ALGEBRAS = ["A2 q=4", "G2 q=4", "affine A1 q=4", "A1 (2, 3)"]


@pytest.mark.parametrize("name", ORACLE_ALGEBRAS)
def test_the_model_satisfies_the_quadratic_and_braid_relations(name):
    """The operators alone, with no product of the package: T_s^2 = (sigma^2 - 1) T_s
    + sigma^2, and the braid relation of each pair of finite order m."""
    alg = ZETA_ALGEBRAS[name]
    rng = random.Random(1)
    n, matrix = alg.system.n, alg.system.matrix
    for f in (_poly(rng, alg.system.rank, 3, 2) for _ in range(3)):
        for i in range(n):
            sigma2 = Fraction(alg.params.sigma[i]) ** 2
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
