"""Exact rational helpers: `as_ratio`, the one reader of a user's exact
values, and decimal rendering, square roots included, at DIGITS places.

Everything here stays in integer arithmetic so that rendered output is
deterministic across platforms and test runs.  A probability is rendered
from its integer pair, by `format_prob(numerator, denominator)`, and a
`Fraction` is built only where a public function returns one; the one
built here is `parse_rational`'s, to read a spelling that `int` cannot.
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


def exact_str(value: int | Fraction) -> str:
    """`str(value)` for a message, with each part that `str` refuses for
    passing Python's limit on an int's digits shown by its digit count:
    '<4301 digits>', '1/<4301 digits>'."""
    if value.denominator == 1:
        return _int_str(value.numerator)
    return f"{_int_str(value.numerator)}/{_int_str(value.denominator)}"


def _int_str(n: int) -> str:
    try:
        return str(n)
    except ValueError:
        digits = (abs(n).bit_length() - 1) * 10**9 // 3_321_928_095  # <= log10(|n|)
        while 10**digits <= abs(n):
            digits += 1
        return f"{'-' * (n < 0)}<{digits} digits>"


def round_half_up(q: Fraction) -> int:
    """Nearest integer to q, ties toward +infinity."""
    return (2 * q.numerator + q.denominator) // (2 * q.denominator)


DIGITS = 6  # decimal places of every rendered decimal


def _strip_scaled(scaled: int, negative: bool) -> str:
    whole, frac = divmod(scaled, 10**DIGITS)
    sign = "-" if negative and scaled else ""
    if frac == 0:
        return f"{sign}{whole}"
    tail = str(frac).rjust(DIGITS, "0").rstrip("0")
    return f"{sign}{whole}.{tail}"


def sqrt_decimal_str(q: Fraction, negative: bool = False) -> str:
    """Decimal rendering of sqrt(q), or of -sqrt(q) when `negative`,
    rounded to nearest at DIGITS places, zeros trimmed, and with no sign
    when it rounds to 0, as in `format_prob`: sqrt(n/d) * 10**DIGITS =
    sqrt(M)/d for M = n * d * 10**(2*DIGITS), whose nearest integer is
    (floor(2*sqrt(M)) + d) // (2*d), and floor(2*sqrt(M)) = isqrt(4*M)."""
    n, d = q.numerator, q.denominator
    if n < 0:
        raise ValueError("square root of a negative rational")
    m = n * d * 10 ** (2 * DIGITS)
    return _strip_scaled((isqrt(4 * m) + d) // (2 * d), negative)


def _digits_str(n: int) -> str:
    """`str(n)`, exact also past Python's limit on the digits `str`
    writes: such an int is cut by `divmod` into chunks of 640 digits (the
    least limit Python allows), each written by `str` and zero-padded."""
    try:
        return str(n)
    except ValueError:
        pass
    width = sys.int_info.str_digits_check_threshold
    chunk = 10**width
    rest, chunks = abs(n), []
    while rest >= chunk:
        rest, low = divmod(rest, chunk)
        chunks.append(str(low).zfill(width))
    chunks.append(f"{'-' * (n < 0)}{rest}")
    return "".join(reversed(chunks))


def fraction_str(q: Fraction) -> str:
    """`str(q)` with every digit written, however many: 'num/den', or the
    bare integer when the value is whole."""
    if q.denominator == 1:
        return _digits_str(q.numerator)
    return f"{_digits_str(q.numerator)}/{_digits_str(q.denominator)}"


def format_prob(numerator: int, denominator: int) -> str:
    """Dual rendering of the exact probability numerator/denominator,
    from the ints alone (denominator >= 1, the pair not necessarily
    reduced): 'num/den (= decimal)' in lowest terms, or the bare integer
    when the value is whole ('0', '1'); every digit is written, however
    many.  The decimal is the magnitude rounded half-up at DIGITS places,
    trailing zeros trimmed, with a '-' unless it rounds to 0 ('2/10' ->
    '1/5 (= 0.2)', '-1/3' -> '-1/3 (= -0.333333)')."""
    common = gcd(numerator, denominator)
    n, d = numerator // common, denominator // common
    if d == 1:
        return _digits_str(n)
    scaled = (2 * abs(n) * 10**DIGITS + d) // (2 * d)
    return f"{_digits_str(n)}/{_digits_str(d)} (= {_strip_scaled(scaled, n < 0)})"
