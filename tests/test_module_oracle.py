"""The Kato verdict checked against the module itself.

On a finite Weyl group W, I_tau has the basis T_w v (w in W), and the
algebra acts by the theta-matrices Z^(+-e_j) (`PrincipalSeries._theta_matrix`)
and the T_s matrices (`hecke._left_T_gen`).  The oracle decides from these
matrices alone, exactly over Q or Q(i), whether I_tau is irreducible, by
Norton's test (Holt and Rees, J. Austral. Math. Soc. A 57, 1994) on the
joint eigenspaces of the commuting Z's:

- Take a weight chi of I_tau, its joint eigenspace K and the joint
  eigenspace K' of the transposes.  A proper submodule U either has the
  weight chi, and then meets K, or does not, and then chi is a weight of
  I_tau / U, so the annihilator of U (a submodule for the transposes) meets
  K'.  So a vector of K or K' whose spin is proper proves reducibility, and
  when K and K' are lines whose spins are full, I_tau is irreducible.
- When K is wider, Schur's lemma decides: an endomorphism algebra of
  dimension > 1 proves reducibility.  I_tau = A v for v in K, so an
  endomorphism X is fixed by X v = u in K, with X (a v) = a u.

Every verdict of the oracle is proven; a character it cannot decide fails
the test.  For tau in U_C the same endomorphism count gives dim End_H(I_tau),
which must equal |R_tau| (`analyze`).
"""

import itertools
from fractions import Fraction
from operator import mul

import pytest

from blhecke import Character, ParameterSet, PrincipalSeries, RootGeneratingSystem, kato_check, quadext, standard_system
from blhecke.hecke import HeckeAlgebra, _left_T_gen
from blhecke.scalars import ONE
from blhecke.stabilizer import IRREDUCIBLE, analyze

A1_ADJOINT = RootGeneratingSystem.make([[2]], 1, [[2]], [[1]])  # alpha(Y) = 2Z
# at q = 4 every edge of the rules: t = 1 and -1 (Phi_tau), q and 1/q (U_C)
VALUES = (1, -1, 4, Fraction(1, 4), 2, -2, 16, -4)
I = quadext(0, 1, -1)
# (system, parameters, values per coordinate of Y); sigma = 2 unless given
CASES = {
    "A1 adjoint": (A1_ADJOINT, None, VALUES),
    "A1 minimal": (RootGeneratingSystem.make([[2]], 1, [[1]], [[2]]), None, VALUES),
    "A1xA1": (standard_system([[2, 0], [0, 2]]), None, VALUES),
    "A2": (standard_system([[2, -1], [-1, 2]]), None, VALUES),
    "B2": (standard_system([[2, -1], [-2, 2]]), None, VALUES),
    # every rule edge at q = 4, on a subset that keeps the time small
    "G2": (standard_system([[2, -1], [-3, 2]]), None, (1, -1, 4, Fraction(1, 4))),
    # Gaussian values: on A2 and B2, i * i = -1 and i * -i = 1 meet Phi_tau off the rational points
    "A1 adjoint Gaussian": (A1_ADJOINT, None, (I, -I, 2 * I)),
    "A2 Gaussian": (standard_system([[2, -1], [-1, 2]]), None, (I, -I, 2 * I, 1, -1)),
    "B2 Gaussian": (standard_system([[2, -1], [-2, 2]]), None, (I, -I, 2 * I)),
    # unequal parameters: s s' = 6 and -s/s' = -2/3
    "A1 adjoint (2, 3)": (A1_ADJOINT, ParameterSet((Fraction(2),), (Fraction(3),)),
                          VALUES + (6, Fraction(1, 6), Fraction(-2, 3), Fraction(-3, 2), 3, -3)),
    # opposite parameters: s s' = -4 and -s/s' = 1, so t = 1 is outside Phi_tau
    "A1 adjoint (2, -2)": (A1_ADJOINT, ParameterSet((Fraction(2),), (Fraction(-2),)), VALUES + (Fraction(-1, 4),)),
}


def _add(basis: dict, vec) -> bool:
    """Put vec into the reduced row echelon basis {pivot: row}; False when it is dependent."""
    for p, row in basis.items():
        if vec[p]:
            c = vec[p]
            vec = [a - c * b if b else a for a, b in zip(vec, row)]
    p = next((k for k, x in enumerate(vec) if x), None)
    if p is None:
        return False
    scale = Fraction(1) / vec[p]  # exact for int, Fraction and QuadExt entries
    vec = [x * scale if x else x for x in vec]
    for q, row in basis.items():
        if row[p]:
            c = row[p]
            basis[q] = [a - c * b if b else a for a, b in zip(row, vec)]
    basis[p] = vec
    return True


def _kernel(rows, n: int) -> list:
    """A basis of the common kernel of the rows."""
    basis: dict = {}
    for r in rows:
        _add(basis, list(r))
    return [[-basis[k][f] if k in basis else Fraction(int(k == f)) for k in range(n)]
            for f in range(n) if f not in basis]


def _apply(g, x):
    support = [(j, c) for j, c in enumerate(x) if c]
    return [sum(row[j] * c for j, c in support) for row in g]


def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum(map(mul, r, c)) for c in cols] for r in a]


def _transpose(m):
    return [list(c) for c in zip(*m)]


def _spin(mats, v) -> list:
    """Pairs (a v, a) over words a in the generators, whose vectors are a basis of A v."""
    basis: dict = {}
    _add(basis, v)
    out = [(v, ())]
    for x, word in out:
        for k, g in enumerate(mats):
            if len(out) == len(v):
                return out
            y = _apply(g, x)
            if _add(basis, y):
                out.append((y, word + (k,)))
    return out


def _endomorphism_dim(mats, ker) -> int:
    """dim End_A(A v) for the first vector v of the joint eigenspace ker."""
    n = len(ker[0])
    spun = _spin(mats, ker[0])
    augmented = [x + [Fraction(int(i == j)) for j in range(n)] for i, x in enumerate(_transpose([x for x, _ in spun]))]
    basis: dict = {}
    for row in augmented:
        _add(basis, row)
    inverse = [basis[p][n:] for p in range(n)]
    candidates = []
    for u in ker:
        images = []
        for _, word in spun:
            y = u
            for k in word:
                y = _apply(mats[k], y)
            images.append(y)
        candidates.append(_matmul(_transpose(images), inverse))
    conditions = []
    for g in mats:
        diffs = [[a - b for ra, rb in zip(_matmul(g, x), _matmul(x, g)) for a, b in zip(ra, rb)] for x in candidates]
        conditions += [[d[e] for d in diffs] for e in range(n * n)]
    return len(_kernel(conditions, len(ker)))


def module_matrices(alg: HeckeAlgebra, tau: Character):
    """The Z^(e_j), Z^(-e_j) and T_s matrices on the basis T_w v, w in W by length."""
    dom = alg.group.ball(8)  # all of W: the longest element of G2 has length 6
    series = PrincipalSeries(alg, tau)
    rank = alg.system.rank
    zs = [[list(row) for row in series._theta_matrix(tuple(s * int(k == j) for k in range(rank)), dom)]
          for j in range(rank) for s in (1, -1)]
    index = {w: k for k, w in enumerate(dom)}
    ts = []
    for i in range(alg.system.n):
        m = [[Fraction(0)] * len(dom) for _ in dom]
        for j, w in enumerate(dom):
            for u, c in _left_T_gen(alg, i, {w: ONE}, mul).items():
                m[index[u]][j] = c
        ts.append(m)
    return zs, ts


def _joint_eigenspaces(zs, chi):
    """Bases of the joint eigenspaces at chi of the Z's and of their transposes."""
    n = len(zs[0])
    shifted = [[[x - (c if i == j else 0) for j, x in enumerate(row)] for i, row in enumerate(z)]
               for c, z in zip(chi, zs)]
    return _kernel([row for z in shifted for row in z], n), _kernel([row for z in shifted for row in _transpose(z)], n)


def irreducible(zs, ts) -> bool:
    mats = zs + ts
    transposes = [_transpose(g) for g in mats]
    n = len(zs[0])
    for chi in dict.fromkeys(tuple(z[k][k] for z in zs) for k in range(n)):
        ker, ker_t = _joint_eigenspaces(zs, chi)
        if any(len(_spin(mats, v)) < n for v in ker) or any(len(_spin(transposes, f)) < n for f in ker_t):
            return False
        if len(ker) == len(ker_t) == 1:
            return True
        if _endomorphism_dim(mats, ker) > 1:
            return False
    raise AssertionError("the oracle cannot decide this character")


def endomorphism_dim(zs, ts) -> int:
    """dim End_H(I_tau): I_tau = H v with v = T_e v in the tau-eigenspace K,
    so the cyclic vector goes first in K's basis.  An endomorphism is fixed
    by its value on v, which lies in K, so a line K gives dimension 1."""
    v = [Fraction(int(k == 0)) for k in range(len(zs[0]))]
    basis: dict = {}
    ker = [u for u in [v] + _joint_eigenspaces(zs, tuple(z[0][0] for z in zs))[0] if _add(basis, list(u))]
    return 1 if len(ker) == 1 else _endomorphism_dim(zs + ts, ker)


@pytest.mark.parametrize("name", list(CASES))
def test_kato_verdict_matches_the_module(name):
    """The verdict agrees with the oracle, and for tau in U_C the
    endomorphisms of I_tau number |R_tau|."""
    system, params, values = CASES[name]
    alg = HeckeAlgebra(system, params or ParameterSet.equal(Fraction(2), system.n))
    for vals in itertools.product(values, repeat=system.rank):
        tau = Character.make(list(vals))
        zs, ts = module_matrices(alg, tau)
        verdict = kato_check(alg, tau, 10, 8)
        assert verdict.absolute, vals
        assert (verdict.status == IRREDUCIBLE) == irreducible(zs, ts), vals
        analysis = analyze(alg, tau, 10, 8)
        if analysis.u_c.ok:
            assert endomorphism_dim(zs, ts) == len(analysis.r_tau_ball), vals
