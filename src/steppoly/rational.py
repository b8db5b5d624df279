"""Rational text, integer pairs and the library's one rational type.

The package computes in integers.  parse_ratio reads the text "num" or
"num/den" into an integer pair (num, den) in lowest terms, den > 0, and
ratio_text writes a ratio of two integers back in that form, as str() writes
the fractions.Fraction it stands for.  Both work at any size: past the
interpreter's limit on int/str conversion digits they go through
decimal.Decimal, which that limit does not bind.  The few rational results of
the library's API (steppoly.rat, Family.eval, Factorization.H, .S and
.Sbar) are plain Fractions; QType names that type.
"""

from __future__ import annotations

import decimal
import re
from fractions import Fraction
from math import gcd, lcm

QType = Fraction


def rat(num=0, den=1) -> Fraction:
    """The Fraction num / den of two integers or rationals; a float is a TypeError."""
    return Fraction(num, den)


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


def ratio_text(num, den) -> str:
    """str(Fraction(num, den)) for integers num and den != 0, by one gcd, at any size."""
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
