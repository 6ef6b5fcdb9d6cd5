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


def common_denominator(xs):
    """(numerators, d): the rationals xs (ints or Fractions) as integers
    over d, the lcm of their denominators."""
    d = math.lcm(*[x.denominator for x in xs])
    return [x.numerator * (d // x.denominator) for x in xs], d


def exact_sum(xs):
    """Sum of rationals as one Fraction: integer numerators over the lcm of
    the denominators."""
    pairs = [x.as_integer_ratio() for x in xs]
    d = math.lcm(*[b for _, b in pairs])
    return Fraction(sum([a * (d // b) for a, b in pairs]), d)


def format_rational(x):
    x = x if type(x) is Fraction else Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def number_to_json(x):
    """A Fraction as its "p/q" string, any other number as a JSON float."""
    return format_rational(x) if type(x) is Fraction else float(x)


def ratios_to_json(nums, den):
    """The JSON numbers nums[i] / den: "p/q" strings in lowest terms by one
    gcd each (0 is "0/1"), or with den None the numbers nums as floats."""
    if den is None:
        return [float(x) for x in nums]
    return [f"{x // g}/{den // g}" for x in nums for g in [math.gcd(x, den)]]


def json_to_number(value, mode, line=None):
    """Read a finite JSON scalar (number or "p/q" string) in the given mode."""
    if isinstance(value, str):
        x = parse_rational(value, line=line)
    elif isinstance(value, bool) or not isinstance(value, (int, float, Fraction)):
        raise InputFormatError(f"expected a number, got {value!r}", line=line)
    elif isinstance(value, float) and not math.isfinite(value):
        raise InputFormatError(f"expected a finite number, got {value!r}", line=line)
    else:
        x = value
    if mode == EXACT:
        return x if type(x) is Fraction else Fraction(x)
    return float(x)
