"""Exact rational scalar backend.

Uses gmpy2.mpq when available, fractions.Fraction otherwise; BACKEND names the
one in use, "gmpy2" or "fractions".  Both expose the same arithmetic and the
same str() form ("n" or "n/d" in lowest terms), which the serialization layer
relies on.  parse_ratio reads that form into an integer pair (num, den) in
lowest terms, den > 0, forming no rational; format_rat writes a rational and
ratio_text a ratio of two integers in it.  All three work at any size: past the
interpreter's limit on int/str conversion digits they go through
decimal.Decimal, which that limit does not bind.
"""

from __future__ import annotations

import decimal
import numbers
import re
from fractions import Fraction
from math import gcd, lcm

try:
    from gmpy2 import mpq as _mpq

    QType = type(_mpq(1, 2))
    BACKEND = "gmpy2"

    def rat(num=0, den=1):
        return _mpq(num, den)

except ImportError:
    QType = Fraction
    BACKEND = "fractions"

    def rat(num=0, den=1):
        return Fraction(num, den)


ZERO = rat(0)
ONE = rat(1)

# ASCII digits only, not \d; \s matches exactly the characters str.strip removes
_RAT_RE = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:  # more digits than int() converts; text is checked digits
        return int(decimal.Decimal(text))


def parse_ratio(text: str) -> tuple[int, int]:
    """The rational written as "num" or "num/den", as (num, den) in lowest terms, den > 0."""
    literal = _RAT_RE.fullmatch(text) if isinstance(text, str) else None
    if literal is None:
        raise ValueError(f"not a rational literal: {text!r}")
    num, den = literal.groups()
    if den is None:
        return _int(num), 1
    num, den = _int(num), _int(den)
    if den == 0:
        raise ValueError(f"zero denominator: {text!r}")
    g = gcd(num, den)
    return num // g, den // g


def format_rat(value) -> str:
    """Canonical "num/den" (or "num") string in lowest terms."""
    if type(value) is not QType:
        value = rat(value)
    try:
        return str(value)
    except ValueError:  # more digits than str() converts
        return ratio_text(value.numerator, value.denominator)


def ratio_text(num, den) -> str:
    """format_rat(rat(num, den)) for integers num and den != 0, by one gcd."""
    g = gcd(num, den) if den > 0 else -gcd(num, den)
    num, den = num // g, den // g
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:  # more digits than str() converts
        num, den = (str(decimal.Decimal(int(v))) for v in (num, den))
        return num if den == "1" else f"{num}/{den}"


def over_lcm(pairs) -> tuple[int, list[int]]:
    """(d, nums) with the i-th pair (num, den), den > 0, equal to nums[i] / d: d is
    the lcm of the denominators, the least such d when the pairs are in lowest terms."""
    pairs = list(pairs)
    d = lcm(*[den for _, den in pairs])
    return d, [num * (d // den) for num, den in pairs]


def as_rat(value):
    """Coerce an int, Fraction, mpq or rational string to the backend type."""
    if isinstance(value, QType):
        return value
    if isinstance(value, str):
        return rat(*parse_ratio(value))
    if isinstance(value, (int, Fraction)):
        return rat(value)
    if isinstance(value, numbers.Rational):
        return rat(value.numerator, value.denominator)
    raise TypeError(f"cannot interpret {type(value).__name__} as an exact rational")
