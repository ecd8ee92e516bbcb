from fractions import Fraction

import pytest

from chiral.scalar import Scalar, ZERO, ONE, I


def test_construction_and_equality():
    assert Scalar(3) == 3
    assert Scalar(Fraction(1, 2)) == Fraction(1, 2)
    assert Scalar(0, 1) == I
    assert Scalar(2, 0) != Scalar(2, 1)
    assert bool(ZERO) is False
    assert bool(I) is True


def test_field_arithmetic():
    a = Scalar(1, 2)
    b = Scalar(3, -1)
    assert a + b == Scalar(4, 1)
    assert a - b == Scalar(-2, 3)
    assert a * b == Scalar(5, 5)
    assert -a == Scalar(-1, -2)
    assert 2 + a == Scalar(3, 2)
    assert 3 * a == Scalar(3, 6)
    assert a - 1 == Scalar(0, 2)


def test_i_squares_to_minus_one():
    assert I * I == -1
    assert I * I * I * I == ONE


def test_division():
    a = Scalar(1, 2)
    b = Scalar(3, -1)
    assert (a / b) * b == a
    assert (ONE / I) == -I
    q = Scalar(Fraction(1, 3)) / Scalar(Fraction(2, 5))
    assert q == Fraction(5, 6)
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_conjugate():
    a = Scalar(2, -3)
    assert a.conjugate() == Scalar(2, 3)
    assert (a * a.conjugate()) == Scalar(13)


def test_hash_consistency():
    assert hash(Scalar(5)) == hash(5)
    d = {Scalar(1, 1): "x"}
    assert d[Scalar(1, 1)] == "x"


def test_exact_rationals_no_drift():
    third = Scalar(Fraction(1, 3))
    total = ZERO
    for _ in range(3):
        total = total + third
    assert total == ONE


def test_equality_with_foreign_types():
    # only Scalar, int and Fraction compare by value; anything else is
    # unequal without raising, so equal values always hash alike
    assert Scalar(1) != "1"
    assert "1" != Scalar(1)
    assert Scalar(1) != None  # noqa: E711
    assert Scalar(1) in [None, Scalar(1)]
    assert Scalar(2) not in [None, "2", object()]
    assert Scalar(0, 1) != 0 and Scalar(0, 1) != Fraction(0)
