from fractions import Fraction

import pytest

from znrank.errors import ZeroPolynomial
from znrank.polynomial import EpsPolynomial

F = Fraction


def test_trim_and_degree():
    assert EpsPolynomial((1, 2, 0, 0)).coeffs == (F(1), F(2))
    assert EpsPolynomial().degree == -1
    assert EpsPolynomial((0,)).is_zero()
    assert EpsPolynomial((0, 0, 5)).degree == 2


def test_min_degree():
    assert EpsPolynomial((0, 0, F(1, 2))).min_degree() == 2
    assert EpsPolynomial((3,)).min_degree() == 0
    with pytest.raises(ZeroPolynomial):
        EpsPolynomial().min_degree()


def test_arithmetic():
    a = EpsPolynomial((1, 2))
    b = EpsPolynomial((0, -2, 3))
    assert (a + b).coeffs == (F(1), F(0), F(3))
    assert (a - a).is_zero()
    assert (a * b).coeffs == (F(0), F(-2), F(-1), F(6))
    assert a.scale(F(1, 2)).coeffs == (F(1, 2), F(1))
    assert (a * EpsPolynomial()).is_zero()


def test_evaluation_is_mode_aware():
    p = EpsPolynomial((F(1, 2), F(1, 3)))
    v = p(F(1, 10))
    assert isinstance(v, Fraction) and v == F(1, 2) + F(1, 30)
    x = p(0.1)
    assert isinstance(x, float) and abs(x - float(v)) < 1e-15


def test_derivative_and_shift():
    p = EpsPolynomial((5, 1, F(3, 2)))
    assert p.derivative().coeffs == (F(1), F(3))
    q = EpsPolynomial((0, 0, 4, 7))
    assert q.shift_down(2).coeffs == (F(4), F(7))


def test_coefficient_out_of_range_is_zero():
    p = EpsPolynomial((1,))
    assert p.coefficient(5) == 0
    assert p.coefficient(0) == 1


def test_equality_and_strings():
    assert EpsPolynomial((1, 0)) == EpsPolynomial((1,))
    assert EpsPolynomial((F(1, 3), -1)).to_strings() == ["1/3", "-1/1"]


def test_coefficients_become_fractions_and_fractions_are_kept():
    half = F(1, 2)
    p = EpsPolynomial((half, 3, 0.5))
    assert p.coeffs == (F(1, 2), F(3), F(1, 2))
    assert all(type(c) is Fraction for c in p.coeffs)
    assert p.coeffs[0] is half
