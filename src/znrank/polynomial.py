"""Univariate polynomials in the perturbation size with exact rational
coefficients, stored as integer numerators nums over one denominator den,
lowest degree first, in lowest terms, trailing zeros trimmed; the zero
polynomial has no numerators and den 1. Sums and shifts stay in integers, with
one gcd per result, and coeffs gives the Fractions, built on first use."""

import functools
import math
from fractions import Fraction

from znrank.errors import ZeroPolynomial
from znrank.rational import common_denominator, ratios_to_json


class EpsPolynomial:
    def __init__(self, coeffs=()):
        """From rationals (ints, Fractions or floats, read exactly); the
        Fractions given are kept as coeffs."""
        coeffs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        poly = EpsPolynomial.of_integers(*common_denominator(coeffs))
        self.nums, self.den, self.coeffs = poly.nums, poly.den, tuple(coeffs[:len(poly.nums)])

    @classmethod
    def of_integers(cls, nums, den):
        """The polynomial with coefficients nums[d] / den, den > 0."""
        if den <= 0:
            raise ValueError(f"denominator {den} is not positive")
        nums = list(nums)
        while nums and nums[-1] == 0:
            nums.pop()
        poly = cls.__new__(cls)
        g = math.gcd(den, *nums)
        poly.nums, poly.den = tuple([x // g for x in nums]), den // g
        return poly

    @functools.cached_property
    def coeffs(self):
        return tuple([Fraction(x, self.den) for x in self.nums])

    def min_degree(self):
        """Lowest degree with a nonzero coefficient."""
        for d, c in enumerate(self.nums):
            if c:
                return d
        raise ZeroPolynomial("the zero polynomial has no minimal degree")

    def __add__(self, other):
        return sum_polynomials((self, other))

    def shift_down(self, k):
        """Divide by eps**k; ValueError unless the dropped coefficients are zero."""
        if any(self.nums[:k]):
            raise ValueError(f"eps**{k} does not divide the polynomial")
        return EpsPolynomial.of_integers(self.nums[k:], self.den)

    def to_strings(self):
        return ratios_to_json(self.nums, self.den)

    def __eq__(self, other):
        return isinstance(other, EpsPolynomial) and (self.nums, self.den) == (other.nums, other.den)

    def __hash__(self):
        return hash((self.nums, self.den))

    def __repr__(self):
        return f"EpsPolynomial({list(self.coeffs)!r})"


def sum_polynomials(polys):
    """The sum of the polynomials: their numerators over the lcm of their
    denominators, added per degree, and one gcd."""
    den = math.lcm(*[h.den for h in polys])
    out = [0] * max((len(h.nums) for h in polys), default=0)
    for h in polys:
        f = den // h.den
        for d, c in enumerate(h.nums):
            out[d] += c * f
    return EpsPolynomial.of_integers(out, den)
