from fractions import Fraction

import pytest

from blhecke import (
    Coroot,
    KacMoodyMatrix,
    ParameterSet,
    RootGeneratingSystem,
    enumerate_coroots,
    standard_system,
    validate_system,
)
from blhecke import linalg
from blhecke.errors import NotARealCoroot, ValidationError
from blhecke.rootdata import coroot_orbit_witness


def test_validate_rank1_ok(a1_minimal):
    validate_system(a1_minimal, ParameterSet.equal(Fraction(2), 1))


def test_validate_affine_ok(affine_a1):
    validate_system(affine_a1, ParameterSet.equal(Fraction(2), 2))


def test_diagonal_not_2():
    with pytest.raises(ValidationError) as err:
        KacMoodyMatrix.make([[1]]).validate()
    assert err.value.code == ValidationError.DIAGONAL_NOT_2


def test_sign_violation():
    with pytest.raises(ValidationError) as err:
        KacMoodyMatrix.make([[2, 1], [-1, 2]]).validate()
    assert err.value.code == ValidationError.SIGN_VIOLATION


def test_zero_symmetry_violation():
    with pytest.raises(ValidationError) as err:
        KacMoodyMatrix.make([[2, 0], [-1, 2]]).validate()
    assert err.value.code == ValidationError.SIGN_VIOLATION


def test_pairing_mismatch():
    sys = RootGeneratingSystem.make([[2]], 1, [[1]], [[1]])
    with pytest.raises(ValidationError) as err:
        sys.validate()
    assert err.value.code == ValidationError.PAIRING_MISMATCH


def test_conjugate_parameter_violation(a2):
    # spec example: A_2 with sigma_1 = 2, sigma_2 = 3
    params = ParameterSet((Fraction(2), Fraction(3)), (Fraction(2), Fraction(3)))
    with pytest.raises(ValidationError) as err:
        validate_system(a2, params)
    assert err.value.code == ValidationError.PARAMETER_CONSTRAINT


def test_lattice_image_forces_equal_parameters(a1_minimal):
    # alpha(Y) = Z here, so sigma != sigma' is illegal
    params = ParameterSet((Fraction(2),), (Fraction(3),))
    with pytest.raises(ValidationError) as err:
        validate_system(a1_minimal, params)
    assert err.value.code == ValidationError.PARAMETER_CONSTRAINT


def test_unequal_parameters_legal_on_adjoint(a1_adjoint):
    validate_system(a1_adjoint, ParameterSet((Fraction(2),), (Fraction(3),)))


def test_modulus_violation(a1_adjoint):
    with pytest.raises(ValidationError) as err:
        validate_system(a1_adjoint, ParameterSet.equal(Fraction(1), 1))
    assert err.value.code == ValidationError.PARAMETER_MODULUS


def test_independence_violation():
    # affine matrix with coroot-lattice-only realization: roots are dependent
    sys = RootGeneratingSystem.make([[2, -2], [-2, 2]], 2, [[2, -2], [-2, 2]], [[1, 0], [0, 1]])
    with pytest.raises(ValidationError) as err:
        sys.validate()
    assert err.value.code == ValidationError.INDEPENDENCE


def test_reflect_involution_and_examples(a1_minimal, a2):
    # A_1: r(alpha^vee) = -alpha^vee with alpha^vee = 2*lambda
    assert a1_minimal.reflect(0, (2,)) == (-2,)
    assert a1_minimal.reflect(0, a1_minimal.reflect(0, (5,))) == (5,)
    # A_2: r_1(alpha_2^vee) = alpha_1^vee + alpha_2^vee
    assert a2.reflect(0, (0, 1)) == (1, 1)
    # linearity at zero
    assert a2.reflect(1, (0, 0)) == (0, 0)


def test_enumerate_coroots_a1(a1_minimal):
    got = {c.coords for c in enumerate_coroots(a1_minimal, 5)}
    assert got == {(1,), (-1,)}


def test_enumerate_coroots_a2(a2):
    got = {c.coords for c in enumerate_coroots(a2, 2)}
    assert got == {(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)}


def test_enumerate_coroots_affine(affine_a1):
    got = {c.coords for c in enumerate_coroots(affine_a1, 3)}
    assert got == {(1, 0), (0, 1), (2, 1), (1, 2), (-1, 0), (0, -1), (-2, -1), (-1, -2)}


def _orbit_closure_bruteforce(sys, bound):
    # independent oracle: keep reflecting the whole set until stable
    current = {sys.simple_coroot(i).coords for i in range(sys.n)}
    current |= {tuple(-x for x in c) for c in current}
    while True:
        nxt = set(current)
        for coords in current:
            for i in range(sys.n):
                img = sys.reflect_coroot(i, Coroot(coords))
                if img.height <= bound:
                    nxt.add(img.coords)
        if nxt == current:
            return current
        current = nxt


def test_enumeration_matches_bruteforce_oracle(a2, b2, affine_a1):
    for sys, bound in ((a2, 4), (b2, 5), (affine_a1, 6)):
        assert {c.coords for c in enumerate_coroots(sys, bound)} == _orbit_closure_bruteforce(sys, bound)


def test_finite_type_counts(a2, b2):
    assert len(enumerate_coroots(a2, 10)) == 6
    assert len(enumerate_coroots(b2, 10)) == 8


def test_coroot_properties(affine_a1):
    for c in enumerate_coroots(affine_a1, 4):
        assert c.positive or (-c).positive
        neg = -c
        assert neg.height == c.height and neg.ht_signed == -c.ht_signed
    c = Coroot((2, 1))
    assert c.height == 3 and c.ht_signed == 3


def test_reflect_closure_invariant(affine_a1):
    bound = 5
    coroots = {c.coords for c in enumerate_coroots(affine_a1, bound)}
    for coords in coroots:
        for i in range(affine_a1.n):
            img = affine_a1.reflect_coroot(i, Coroot(coords))
            if img.height <= bound:
                assert img.coords in coroots


def test_orbit_witness_roundtrip(affine_a1):
    from blhecke.coxeter import WeylGroup

    g = WeylGroup(affine_a1)
    for c in enumerate_coroots(affine_a1, 5):
        if not c.positive:
            continue
        word, i = coroot_orbit_witness(affine_a1, c)
        w = g.from_word(word)
        assert w.apply_coroot(affine_a1.simple_coroot(i)) == c


def test_orbit_witness_rejects_non_coroot(a2):
    with pytest.raises(NotARealCoroot):
        coroot_orbit_witness(a2, Coroot((2, 0)))


def test_standard_system_shape(affine_a2):
    assert affine_a2.rank == 4
    affine_a2.validate()


@pytest.mark.parametrize("matrix", [
    [[2]], [[2, -1], [-1, 2]], [[2, -1], [-3, 2]], [[2, 0], [0, 2]], [[2, -2], [-2, 2]],
    [[2, -1, 0], [-2, 2, -2], [0, -1, 2]], [[2, -2, -1], [-2, 2, -1], [-1, -1, 2]],
    [[2, -2, -2, -2], [-2, 2, -2, -2], [-2, -2, 2, -3], [-2, -2, -3, 2]],
    [[2, -2, 0, 0], [-2, 2, 0, 0], [0, 0, 2, -2], [0, 0, -2, 2]],  # corank 2
    [[2, 0, 0], [0, 2, -2], [0, -2, 2]],
])
def test_standard_system_is_valid_by_construction(matrix):
    """standard_system validates only the matrix; the realization must pass
    the full check on its own."""
    sys = standard_system(matrix)
    assert sys.rank == 2 * sys.n - linalg.rank([[Fraction(x) for x in row] for row in matrix])
    sys.validate()


def test_coroot_sign_once_and_invisible(affine_a1, b2):
    for system in (affine_a1, b2):
        coroots = enumerate_coroots(system, 6)
        for x in (*coroots, *(-c for c in coroots)):
            assert x.positive == (any(v > 0 for v in x.coords) and all(v >= 0 for v in x.coords)), x
            assert "positive" in vars(x)  # the sign is kept on the coroot
            fresh = Coroot(x.coords)
            assert "positive" not in vars(fresh)
            assert fresh == x and x == fresh and hash(fresh) == hash(x)
            assert repr(fresh) == repr(x) and fresh.sort_key == x.sort_key
