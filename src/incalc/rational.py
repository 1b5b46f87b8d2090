"""Exact rational helpers: `as_ratio`, the one reader of a user's exact
values, decimal rendering and integer square roots.

Everything here stays in integer arithmetic so that rendered output is
deterministic across platforms and test runs.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, isqrt


def as_ratio(value) -> tuple[int, int]:
    """An exact value as (numerator, denominator) in lowest terms, the
    denominator positive: a pair of ints, text read by `parse_rational`,
    an `int` or a `Fraction`.  Anything else (a float, a `Decimal`) is
    refused."""
    if isinstance(value, tuple):
        numerator, denominator = value
    elif isinstance(value, str):
        numerator, denominator = parse_rational(value)
    elif isinstance(value, (int, Fraction)):
        return value.numerator, value.denominator
    else:
        raise TypeError("values must be exact: use Fraction, int, or a string like '1/3'")
    if denominator < 1:
        raise ValueError(f"{numerator}/{denominator} needs a positive denominator")
    common = gcd(numerator, denominator)
    return numerator // common, denominator // common


def parse_rational(text: str) -> tuple[int, int]:
    """Parse '2/5', '0.4', '1e-3' or '3' into an exact (numerator,
    denominator) pair, the denominator positive.  `n/d` and `n` in ASCII
    digits are read with `int`, so wide inputs build no `Fraction`; every
    other spelling (a sign, a decimal point, an exponent, `_` between
    digits) with `Fraction`.

    Python's limit on an integer's digits, `sys.get_int_max_str_digits()`
    (4300 by default, kept when the limit is off), bounds both the
    exponent's magnitude, as `Fraction` would compute 10**exponent, and
    the text's length, whose digits `int` would refuse in its own words.
    """
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    numerator, slash, denominator = text.partition("/")
    digits = numerator.isdigit() and (not slash or denominator.isdigit() and denominator.strip("0"))
    if digits and text.isascii() and len(text) <= limit:
        return int(numerator), int(denominator or 1)
    try:
        # Text after an 'e' that is no integer is no exponent: the text is no rational.
        exponent = abs(int(text.lower().partition("e")[2] or 0))
        if exponent <= limit and len(text) <= limit:
            value = Fraction(text.strip())
            return value.numerator, value.denominator
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc
    if exponent > limit:
        raise ValueError(f"exponent of {text!r} exceeds {limit} in magnitude")
    raise ValueError(f"number {text[:12]}... is longer than {limit} characters")


def round_half_up(q: Fraction) -> int:
    """Nearest integer to q, ties toward +infinity."""
    return (2 * q.numerator + q.denominator) // (2 * q.denominator)


def _strip_scaled(scaled: int, digits: int, negative: bool) -> str:
    whole, frac = divmod(scaled, 10**digits)
    sign = "-" if negative and scaled else ""
    if frac == 0:
        return f"{sign}{whole}"
    tail = str(frac).rjust(digits, "0").rstrip("0")
    return f"{sign}{whole}.{tail}"


def decimal_str(q: Fraction, digits: int = 6) -> str:
    """Decimal rendering of q, rounded half-up at `digits` places,
    trailing zeros trimmed ('1/5' -> '0.2', '1/3' -> '0.333333')."""
    p = abs(q)
    scaled = (2 * p.numerator * 10**digits + p.denominator) // (2 * p.denominator)
    return _strip_scaled(scaled, digits, q < 0)


def sqrt_scaled(q: Fraction, digits: int) -> int:
    """Nearest integer to sqrt(q) * 10**digits, computed exactly.

    sqrt(n/d) = sqrt(n*d)/d, so the scaled value is sqrt(M)/d with
    M = n * d * 10**(2*digits); rounding to nearest is
    (floor(2*sqrt(M)) + d) // (2*d), and floor(2*sqrt(M)) = isqrt(4*M).
    """
    if q < 0:
        raise ValueError("square root of a negative rational")
    n, d = q.numerator, q.denominator
    m = n * d * 10 ** (2 * digits)
    return (isqrt(4 * m) + d) // (2 * d)


def sqrt_decimal_str(q: Fraction, digits: int = 6) -> str:
    """Decimal rendering of sqrt(q) to `digits` places, zeros trimmed."""
    return _strip_scaled(sqrt_scaled(q, digits), digits, False)


def sqrt_fraction(q: Fraction, digits: int = 15) -> Fraction:
    """sqrt(q) as a Fraction accurate to `digits` decimal places."""
    return Fraction(sqrt_scaled(q, digits), 10**digits)


def format_prob(q: Fraction) -> str:
    """Dual rendering of an exact probability: 'num/den (= decimal)',
    or the bare integer when the value is whole ('0', '1')."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator} (= {decimal_str(q)})"
