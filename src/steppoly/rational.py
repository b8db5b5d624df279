"""Exact rational scalar backend.

Uses gmpy2.mpq when available, fractions.Fraction otherwise.  Both expose the
same arithmetic and the same str() form ("n" or "n/d" in lowest terms), which
the serialization layer relies on.
"""

from __future__ import annotations

import numbers
import re
from fractions import Fraction
from math import lcm

try:
    from gmpy2 import mpq as _mpq

    QType = type(_mpq(1, 2))

    def rat(num=0, den=1):
        return _mpq(num, den)

except ImportError:
    QType = Fraction

    def rat(num=0, den=1):
        return Fraction(num, den)


ZERO = rat(0)
ONE = rat(1)

_RAT_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rat(text: str):
    """Parse a rational written as "num" or "num/den"."""
    if not isinstance(text, str) or not _RAT_RE.match(text.strip()):
        raise ValueError(f"not a rational literal: {text!r}")
    s = text.strip()
    if "/" in s:
        num, den = s.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return rat(int(num), int(den))
    return rat(int(s))


def format_rat(value) -> str:
    """Canonical "num/den" (or "num") string in lowest terms."""
    if type(value) is QType:  # already in lowest terms
        return str(value)
    return str(rat(value))


def common_denominator(values) -> tuple[int, list[int]]:
    """(d, nums) with value i equal to nums[i] / d, where d is the lcm of the denominators."""
    values = list(values)
    d = lcm(*(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]


def as_rat(value):
    """Coerce an int, Fraction, mpq or rational string to the backend type."""
    if isinstance(value, QType):
        return value
    if isinstance(value, str):
        return parse_rat(value)
    if isinstance(value, (int, Fraction)):
        return rat(value)
    if isinstance(value, numbers.Rational):
        return rat(value.numerator, value.denominator)
    raise TypeError(f"cannot interpret {type(value).__name__} as an exact rational")
