from fractions import Fraction

import pytest

from blhecke import Character, ParameterSet, RootGeneratingSystem, quadext, standard_system
from blhecke.hecke import HeckeAlgebra


@pytest.fixture(scope="session")
def a1_minimal():
    # Y = Z*lambda with alpha^vee = 2*lambda, alpha(lambda) = 1
    return RootGeneratingSystem.make([[2]], 1, [[1]], [[2]])


@pytest.fixture(scope="session")
def a1_adjoint():
    # Y = Z*alpha^vee, alpha(alpha^vee) = 2
    return RootGeneratingSystem.make([[2]], 1, [[2]], [[1]])


@pytest.fixture(scope="session")
def a2():
    return standard_system([[2, -1], [-1, 2]])


@pytest.fixture(scope="session")
def b2():
    return standard_system([[2, -1], [-2, 2]])


@pytest.fixture(scope="session")
def g2():
    return standard_system([[2, -1], [-3, 2]])


@pytest.fixture(scope="session")
def a1x_a1():
    return standard_system([[2, 0], [0, 2]])


@pytest.fixture(scope="session")
def affine_a1():
    return standard_system([[2, -2], [-2, 2]])


@pytest.fixture(scope="session")
def affine_a2():
    return standard_system([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])


def q4(n):
    return ParameterSet.equal(Fraction(2), n)


@pytest.fixture(scope="session")
def alg_a1_adjoint(a1_adjoint):
    return HeckeAlgebra(a1_adjoint, q4(1))


@pytest.fixture(scope="session")
def alg_a1_minimal(a1_minimal):
    return HeckeAlgebra(a1_minimal, q4(1))


@pytest.fixture(scope="session")
def alg_a2(a2):
    return HeckeAlgebra(a2, q4(2))


@pytest.fixture(scope="session")
def alg_b2(b2):
    return HeckeAlgebra(b2, q4(2))


@pytest.fixture(scope="session")
def alg_affine_a1(affine_a1):
    return HeckeAlgebra(affine_a1, q4(2))


@pytest.fixture(scope="session")
def alg_affine_a2(affine_a2):
    return HeckeAlgebra(affine_a2, q4(3))


@pytest.fixture(scope="session")
def alg_a1_unequal(a1_adjoint):
    # alpha(Y) = 2Z, so unequal parameters are legal here
    return HeckeAlgebra(a1_adjoint, ParameterSet((Fraction(2),), (Fraction(3),)))


@pytest.fixture(scope="session")
def alg_a1_opposite(a1_adjoint):
    # sigma' = -sigma: the only parameters where tau(alpha^vee) = 1 is not in Phi_tau
    return HeckeAlgebra(a1_adjoint, ParameterSet((Fraction(2),), (Fraction(-2),)))


@pytest.fixture(scope="session")
def trivial2():
    return Character.trivial(2)


_ZETA_DATA = {
    "A2": [[2, -1], [-1, 2]],
    "B2": [[2, -1], [-2, 2]],
    "G2": [[2, -1], [-3, 2]],
    "affine A1": [[2, -2], [-2, 2]],
    "affine A2": [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],
    "affine C2": [[2, -1, 0], [-2, 2, -2], [0, -1, 2]],
    "hyperbolic": [[2, -2, -1], [-2, 2, -1], [-1, -1, 2]],
}
_SIGMAS = {"q=4": Fraction(2), "q=9": Fraction(3), "q=2": quadext(0, 1, 2)}


def _zeta_algebras():
    """The algebras the zeta tests cover: seven data at three equal parameters,
    A1 with alpha(Y) = 2Z at unequal, opposite and out-of-range ones, and A1
    with alpha^vee = 2 lambda, where the binomials split."""
    out = {}
    for name, matrix in _ZETA_DATA.items():
        sys = standard_system(matrix)
        for label, sigma in _SIGMAS.items():
            out[f"{name} {label}"] = HeckeAlgebra(sys, ParameterSet.equal(sigma, sys.n))
    adjoint = RootGeneratingSystem.make([[2]], 1, [[2]], [[1]])
    # (2, 1/2) fails ParameterSet.validate; there s s' = 1 cancels 1 - Z^-a
    for s, sp in ((2, 2), (2, 3), (2, -2), (3, -2), (2, Fraction(1, 2))):
        out[f"A1 ({s}, {sp})"] = HeckeAlgebra(adjoint, ParameterSet((Fraction(s),), (Fraction(sp),)))
    minimal = RootGeneratingSystem.make([[2]], 1, [[1]], [[2]])
    for s in (2, 3):
        out[f"A1 minimal ({s}, {s})"] = HeckeAlgebra(minimal, ParameterSet.equal(Fraction(s), 1))
    return out


ZETA_ALGEBRAS = _zeta_algebras()


@pytest.fixture(scope="session", params=sorted(ZETA_ALGEBRAS))
def zeta_algebra(request):
    """One of `ZETA_ALGEBRAS`, by name; each test using it runs on all of them."""
    return ZETA_ALGEBRAS[request.param]


def unit_exponents(rank):
    """The 2*rank exponents +-e_j of the basis vectors of Y, in the order
    (e_1, -e_1, e_2, -e_2, ...)."""
    return [tuple(sign * int(i == j) for i in range(rank)) for j in range(rank) for sign in (1, -1)]


def shifted_both_signs(series, eigen, dom):
    """theta - eigen(theta) on the span of dom for all 2*rank generators
    Z^(+-e_j), built from the theta-matrices: the generator set the rank
    generators Z^(e_j) of the weight-space queries replace."""
    mats = []
    for exp in unit_exponents(series.algebra.system.rank):
        m = [list(row) for row in series._theta_matrix(exp, dom)]
        for i, row in enumerate(m):
            row[i] -= eigen.of_vector(exp)
        mats.append(m)
    return mats
