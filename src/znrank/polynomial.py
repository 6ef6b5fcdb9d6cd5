"""Univariate polynomials in the perturbation size with exact rational
coefficients. Coefficients are stored lowest degree first with trailing
zeros stripped; the zero polynomial has an empty coefficient tuple."""

from fractions import Fraction

from znrank.errors import ZeroPolynomial
from znrank.rational import EXACT_ZERO_ONE, exact_sum, format_rational


def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


class EpsPolynomial:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = _trim(c if type(c) is Fraction else Fraction(c) for c in coeffs)

    @property
    def degree(self):
        """Degree, or -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def coefficient(self, d):
        return self.coeffs[d] if 0 <= d < len(self.coeffs) else EXACT_ZERO_ONE[0]

    def min_degree(self):
        """Lowest degree with a nonzero coefficient."""
        for d, c in enumerate(self.coeffs):
            if c != 0:
                return d
        raise ZeroPolynomial("the zero polynomial has no minimal degree")

    def __call__(self, eps):
        acc = Fraction(0) if not isinstance(eps, float) else 0.0
        for c in reversed(self.coeffs):
            acc = acc * eps + c
        return acc

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return EpsPolynomial(out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return EpsPolynomial()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return EpsPolynomial(out)

    def scale(self, k):
        k = Fraction(k)
        return EpsPolynomial(c * k for c in self.coeffs)

    def derivative(self):
        return EpsPolynomial(d * c for d, c in enumerate(self.coeffs) if d > 0)

    def shift_down(self, k):
        """Divide by eps**k; the dropped coefficients must be zero."""
        assert all(c == 0 for c in self.coeffs[:k])
        return EpsPolynomial(self.coeffs[k:])

    def to_strings(self):
        return [format_rational(c) for c in self.coeffs]

    def __eq__(self, other):
        return isinstance(other, EpsPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"EpsPolynomial({list(self.coeffs)!r})"


def sum_polynomials(polys):
    """The sum of the polynomials, one exact_sum (integer numerators over
    one denominator) per degree in place of pairwise additions."""
    top = max((len(h.coeffs) for h in polys), default=0)
    return EpsPolynomial(exact_sum([h.coeffs[d] for h in polys if d < len(h.coeffs)]) for d in range(top))
