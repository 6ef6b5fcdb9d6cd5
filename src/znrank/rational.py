"""Exact rational values and their canonical text form.

Rationals serialize as "p/q" in lowest terms with q >= 1, always with the
slash, so formatting and parsing round-trip byte for byte.
"""

import math
from fractions import Fraction

from znrank.errors import InputFormatError

EXACT = "exact"
FLOAT = "float"
EXACT_ZERO_ONE = (Fraction(0), Fraction(1))


def zero_one(mode):
    """The zero and one of a numeric mode."""
    return EXACT_ZERO_ONE if mode == EXACT else (0.0, 1.0)


def parse_rational(token, line=None):
    """Parse "3" into an int, "3/4" or "0.5" into a Fraction. Decimal
    strings are read with decimal semantics, so "0.1" is exactly 1/10."""
    try:
        return int(token) if token.isdecimal() else Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputFormatError(f"bad number {token!r}: {exc}", line=line) from None


def parse_ratio(token, line=None):
    """parse_rational(token) as an integer ratio (a, b), b > 0, not always
    in lowest terms: "3", "3/4" and "0.5" are read without a Fraction, any
    other token by parse_rational, with its messages."""
    a, mark, b = token.partition("/" if "/" in token else ".")
    try:
        if a.isdecimal() and (b.isdecimal() or not mark) and (mark != "/" or int(b)):
            return (int(a + b), 10 ** len(b)) if mark == "." else (int(a), int(b or 1))
    except ValueError:  # past int's digit limit
        pass
    x = parse_rational(token, line)
    return x.numerator, x.denominator


def over_lcm(ratios):
    """(numerators, d): the integer ratios (a, b), b > 0, as integers over
    d, the lcm of the b."""
    d = math.lcm(*[b for _, b in ratios])
    return [a * (d // b) for a, b in ratios], d


def common_denominator(xs):
    """(numerators, d): the rationals xs (ints or Fractions) as integers
    over d, the lcm of their denominators."""
    d = math.lcm(*[x.denominator for x in xs])
    return [x.numerator * (d // x.denominator) for x in xs], d


def format_rational(x):
    x = x if type(x) is Fraction else Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def number_to_json(x):
    """A Fraction as its "p/q" string, any other number as a JSON float."""
    return format_rational(x) if type(x) is Fraction else float(x)


def ratios_to_json(nums, den):
    """The JSON numbers nums[i] / den: "p/q" strings in lowest terms by one
    gcd each (0 is "0/1", with none), or with den None the numbers nums as
    floats."""
    if den is None:
        return [float(x) for x in nums]
    return [f"{x // (g := math.gcd(x, den))}/{den // g}" if x else "0/1" for x in nums]
