from fractions import Fraction

import pytest

from blhecke import Character, ParameterSet, RootGeneratingSystem, standard_system
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
def trivial2():
    return Character.trivial(2)
