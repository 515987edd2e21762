from fractions import Fraction

from blhecke.scalars import (
    QuadExt,
    abs_gt_one,
    is_positive_real,
    quadext,
    rational_sqrt,
    scalar_sqrt,
    sign_real,
)


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(0)) == 0


def test_quadext_collapses_to_fraction():
    assert quadext(1, 2, 4) == Fraction(5)  # sqrt(4) = 2
    assert quadext(3, 0, 7) == Fraction(3)
    assert isinstance(quadext(0, 1, 2), QuadExt)


def test_imaginary_unit():
    i = quadext(0, 1, -1)
    assert i * i == Fraction(-1)
    assert (1 + i) * (1 - i) == Fraction(2)
    assert 1 / i == -i
    assert i ** 4 == 1
    assert i ** -1 == -i


def test_field_axioms_sqrt2():
    r = quadext(0, 1, 2)
    a = 1 + r
    b = quadext(Fraction(1, 2), Fraction(-3), 2)
    assert a * b == b * a
    assert (a + b) * a == a * a + b * a
    assert a / a == 1
    assert a - a == 0


def test_mixing_extensions_rejected():
    import pytest

    with pytest.raises(ValueError):
        quadext(0, 1, 2) + quadext(0, 1, 3)


def test_sign_and_modulus():
    r = quadext(0, 1, 2)  # sqrt(2)
    assert sign_real(r - 1) > 0
    assert sign_real(1 - r) < 0
    assert sign_real(quadext(3, -2, 2)) > 0  # 3 - 2*sqrt(2) ~ 0.17
    assert sign_real(quadext(-3, 2, 2)) < 0
    assert abs_gt_one(r)
    assert not abs_gt_one(quadext(3, -2, 2))
    i = quadext(0, 1, -1)
    assert not is_positive_real(i)
    assert abs_gt_one(1 + i)  # |1+i| = sqrt(2)
    assert not abs_gt_one(i)


def test_scalar_sqrt():
    assert scalar_sqrt(Fraction(4)) == 2
    assert scalar_sqrt(Fraction(-1)) is None
    # sqrt(3 + 2 sqrt(2)) = 1 + sqrt(2)
    x = quadext(3, 2, 2)
    assert scalar_sqrt(x) == quadext(1, 1, 2)


def test_complex_embedding():
    i = quadext(0, 1, -1)
    assert complex(i) == complex(0, 1)
    assert abs(complex(quadext(0, 1, 2)) - 1.41421356) < 1e-6


_POW_VALUES = (quadext(0, 1, -1), quadext(1, 2, -1), quadext(0, 1, 2), quadext(Fraction(1, 2), -3, 2))


def test_pow_equals_repeated_products():
    for t in _POW_VALUES:
        for n in range(-5, 9):
            want = Fraction(1)
            for _ in range(abs(n)):
                want = want * (t if n > 0 else 1 / t)
            assert t ** n == want, (t, n)


def test_rational_products_stay_in_the_field():
    for t in _POW_VALUES:
        for r in (3, Fraction(-2, 5)):
            want = quadext(t.a * r, t.b * r, t.d)
            assert t * r == want and r * t == want and (t * r) / r == t
        zero = t * 0
        assert zero == 0 and isinstance(zero, Fraction)


def test_pow_makes_no_extra_products(monkeypatch):
    t = quadext(1, 2, -1)  # no power of 1 + 2i is rational, so every product is a QuadExt product
    square, cube = t * t, t * t * t
    products = []
    mul = QuadExt.__mul__

    def counted(a, b):
        products.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(QuadExt, "__mul__", counted)
    monkeypatch.setattr(QuadExt, "__rmul__", counted)
    assert t ** 1 == t and len(products) == 0
    assert t ** 2 == square and len(products) == 1
    assert t ** 3 == cube and len(products) == 3
