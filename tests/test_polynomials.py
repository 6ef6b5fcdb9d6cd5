import itertools
import math
import random
from fractions import Fraction

import pytest

from znrank.errors import ZeroPolynomial
from znrank.polynomial import EpsPolynomial, sum_polynomials
from znrank.rational import common_denominator

F = Fraction


def test_trim_and_degree():
    assert EpsPolynomial((1, 2, 0, 0)).coeffs == (F(1), F(2))
    assert EpsPolynomial().nums == ()
    assert EpsPolynomial((0,)).nums == ()
    assert len(EpsPolynomial((0, 0, 5)).nums) == 3


def test_min_degree():
    assert EpsPolynomial((0, 0, F(1, 2))).min_degree() == 2
    assert EpsPolynomial((3,)).min_degree() == 0
    with pytest.raises(ZeroPolynomial):
        EpsPolynomial().min_degree()


def test_arithmetic():
    a = EpsPolynomial((1, 2))
    b = EpsPolynomial((0, -2, 3))
    assert (a + b).coeffs == (F(1), F(0), F(3))


def test_equality_and_strings():
    assert EpsPolynomial((1, 0)) == EpsPolynomial((1,))
    assert EpsPolynomial((F(1, 3), -1)).to_strings() == ["1/3", "-1/1"]


def test_coefficients_become_fractions_and_fractions_are_kept():
    half = F(1, 2)
    p = EpsPolynomial((half, 3, 0.5))
    assert p.coeffs == (F(1, 2), F(3), F(1, 2))
    assert all(type(c) is Fraction for c in p.coeffs)
    assert p.coeffs[0] is half


def test_shift_down_refuses_a_nonzero_dropped_coefficient():
    # a ValueError, not an assert, so it holds under python -O too
    p = EpsPolynomial((0, 1, 2))
    assert p.shift_down(1) == EpsPolynomial((1, 2))
    assert EpsPolynomial((0, 0, 4, 7)).shift_down(2).coeffs == (F(4), F(7))
    assert EpsPolynomial().shift_down(3).nums == ()
    with pytest.raises(ValueError):
        p.shift_down(2)


def test_of_integers_refuses_a_nonpositive_denominator():
    for den in (0, -3):
        with pytest.raises(ValueError):
            EpsPolynomial.of_integers((1, 2), den)


def _rand_coeff(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return F(0)
    if kind == 1:
        return F(rng.randint(-9, 9))
    if kind == 2:
        return F(rng.randint(-9, 9), rng.randint(1, 12))
    big = 10**29
    return F(rng.randint(-10 * big, 10 * big), rng.choice((1, rng.randint(1, 10 * big))))


def _rand_ref(rng):
    """Coefficients as Fractions, with zeros inside and at the end."""
    return [_rand_coeff(rng) for _ in range(rng.randint(0, 6))] + [F(0)] * rng.randint(0, 2)


def _trimmed(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _check(p, ref):
    """p's integer form is canonical and equals the Fraction reference."""
    ref = _trimmed(ref)
    assert p.den > 0 and math.gcd(p.den, *p.nums) == 1
    assert len(p.nums) == len(ref) and (not p.nums or p.nums[-1] != 0)
    assert p.coeffs == ref and all(type(c) is Fraction for c in p.coeffs)
    assert p.to_strings() == [f"{c.numerator}/{c.denominator}" for c in ref]
    if ref:
        assert p.min_degree() == next(d for d, c in enumerate(ref) if c)
    else:
        with pytest.raises(ZeroPolynomial):
            p.min_degree()


def test_integer_form_matches_fraction_reference_random():
    rng = random.Random("eps-polynomial-integers")
    for _ in range(400):
        ra, rb = _rand_ref(rng), _rand_ref(rng)
        a = EpsPolynomial(ra)
        _check(a, ra)
        nums, den = common_denominator(ra)
        same = EpsPolynomial.of_integers(nums, den)
        _check(same, ra)
        nums, den = common_denominator(rb)
        k = rng.randint(1, 10**30)  # not in lowest terms
        b = EpsPolynomial.of_integers([x * k for x in nums], den * k)
        _check(b, rb)
        assert same == a and hash(same) == hash(a) and same == EpsPolynomial(_trimmed(ra))
        assert (a == b) == (_trimmed(ra) == _trimmed(rb))
        _check(a + b, [x + y for x, y in itertools.zip_longest(ra, rb, fillvalue=F(0))])
        shift = rng.randint(0, 3)
        c = EpsPolynomial([0] * shift + ra)
        _check(c, [F(0)] * shift + ra)
        _check(c.shift_down(shift), ra)
        _check(sum_polynomials((a, b, c)),
               [x + y + z for x, y, z in itertools.zip_longest(ra, rb, [F(0)] * shift + ra, fillvalue=F(0))])
