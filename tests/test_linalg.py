import random
from fractions import Fraction

import pytest

from conftest import shifted_both_signs

from blhecke import Character, ParameterSet, PrincipalSeries, standard_system
from blhecke.hecke import HeckeAlgebra
from blhecke.linalg import mat_mul, mat_pow, nullspace, triangular_kernel
from blhecke.scalars import QuadExt, quadext

DATA = {
    "affine-A1": [[2, -2], [-2, 2]],
    "G2": [[2, -1], [-3, 2]],
    "affine-A2": [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],
    "hyperbolic": [[2, -2, -1], [-2, 2, -1], [-1, -1, 2]],
}
VALUES = (1, -1, 3, -3, 5, -5, 4, Fraction(1, 4))
SQRT_MINUS_ONE = quadext(0, 1, -1)


def dense_mul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(len(b[0]))]
            for i in range(len(a))]


def characters(rank, rng):
    """Trivial and all -1 (weight spaces of dimension > 1 on these data), two
    seeded characters, and one with a value in Q(sqrt(-1))."""
    chars = [Character.trivial(rank), Character.make([-1] * rank)]
    chars += [Character.make([rng.choice(VALUES) for _ in range(rank)]) for _ in range(2)]
    chars.append(Character.make([SQRT_MINUS_ONE] + [rng.choice(VALUES) for _ in range(rank - 1)]))
    return chars


@pytest.mark.parametrize("name", sorted(DATA))
def test_triangular_kernel_is_stacked_nullspace(name):
    system = standard_system(DATA[name])
    alg = HeckeAlgebra(system, ParameterSet.equal(Fraction(4), system.n))
    rng = random.Random(name)
    dims, quad = [], False
    for tau in characters(system.rank, rng):
        series = PrincipalSeries(alg, tau)
        for ball in (1, 2, 3):
            dom = alg.group.ball(ball)
            shifted = shifted_both_signs(series, tau, dom)
            for k in (1, 2, 3):
                mats = [mat_pow(m, k) for m in shifted]
                want = nullspace([row for m in mats for row in m], len(dom))
                got = triangular_kernel(mats, len(dom))
                assert got == want, (tau, ball, k)
                assert [[type(x) for x in v] for v in got] == [[type(x) for x in v] for v in want]
                dims.append(len(got))
                quad = quad or any(isinstance(x, QuadExt) for m in mats for row in m for x in row)
    assert max(dims) > 1 and quad


def test_triangular_kernel_small_cases():
    one, two = Fraction(1), Fraction(2)
    # columns 0 and 2 have no pivot; the second matrix kills b_2 but not b_0
    a = [[0, 1, -1], [0, 1, -1], [0, 0, 0]]
    b = [[0, 0, 0], [0, 0, 0], [0, 0, two]]
    assert triangular_kernel([a], 3) == [(one, 0, 0), (0, 1, 1)]
    assert triangular_kernel([a], 3) == nullspace(a, 3)
    assert triangular_kernel([a, [[0, 0, 1], [0, 0, 0], [0, 0, 0]]], 3) == [(one, 0, 0)]
    assert triangular_kernel([a, b], 3) == nullspace(a + b, 3) == [(one, 0, 0)]
    assert triangular_kernel([[[1, 5], [0, 3]]], 2) == []
    matrix = [[0, 1], [0, 0]]
    triangular_kernel([matrix], 2)
    assert matrix == [[0, 1], [0, 0]]


def test_triangular_kernel_rejects_lower_entry():
    with pytest.raises(ValueError):
        triangular_kernel([[[1, 0], [1, 1]]], 2)
    with pytest.raises(ValueError):
        triangular_kernel([[[0, 1], [0, 0]], [[1, 0], [0, 0]], [[0, 0], [Fraction(1, 3), 0]]], 2)


def test_mat_pow_is_repeated_mat_mul():
    rng = random.Random(3)
    cases = [
        [[Fraction(rng.choice((0, 0, 1, -2, 3))) for _ in range(4)] for _ in range(4)],
        [[rng.choice((0, 1, -1)) for _ in range(5)] for _ in range(5)],
        [[SQRT_MINUS_ONE, 1], [0, Fraction(1, 2)]],
    ]
    for a in cases:
        power = a
        for k in (1, 2, 3):
            assert mat_pow(a, k) == power
            assert mat_mul(power, a) == dense_mul(power, a)
            power = mat_mul(power, a)
    with pytest.raises(ValueError):
        mat_pow(cases[0], 0)
