"""Integer index machinery for the graded-lexicographic step-line.

The step-line orders pairs (i, j) with 0 <= j <= i as
(0,0), (1,0), (1,1), (2,0), (2,1), (2,2), (3,0), ...; the pair (i, j) sits at
scalar position I = i(i+1)/2 + j.  On top of the bijection this module
provides the F family of floor maps, the shift targets n_plus, the exception
sets J_{r;k} and the band-start map n_minus_big that together describe where
the recurrence matrices are allowed to be nonzero.

Everything here is exact integer/rational arithmetic; no floating point.
"""

from __future__ import annotations

from math import isqrt
from typing import NamedTuple

from .rational import as_rat, rat


class GradedIndex(NamedTuple):
    i: int
    j: int
    position: int


def _floor_div_rat(x) -> tuple[int, int]:
    """Return (num, den) of x as exact nonnegative integers, den > 0."""
    q = as_rat(x)
    num, den = int(q.numerator), int(q.denominator)
    if num < 0:
        raise ValueError(f"negative argument: {x}")
    return num, den


def floor_f(x) -> int:
    """Largest integer i with i(i+1)/2 <= x, for rational x >= 0.

    Computed with an exact integer square root plus fixup; the boundary at
    triangular numbers must be hit exactly, so no float sqrt is ever used.
    """
    num, den = _floor_div_rat(x)
    # i <= (-1 + sqrt(1 + 8x)) / 2 with x = num/den; work over integers.
    i = (isqrt(den * den + 8 * num * den) - den) // (2 * den)
    while (i + 1) * (i + 2) * den <= 2 * num:
        i += 1
    while i > 0 and i * (i + 1) * den > 2 * num:
        i -= 1
    return i


def f_minus(x, k: int) -> int:
    """F_k^- for k in {1, 2}: F_1^-(x) = F(x) and F_2^-(x) = F(x - 1) + 1 for x >= 1."""
    if k == 1:
        return floor_f(x)
    q = as_rat(x)
    if q < 1:
        raise ValueError(f"F_2^- requires x >= 1, got {x}")
    return floor_f(q - 1) + 1


def pos_of(i: int, j: int) -> int:
    """Scalar step-line position of the pair (i, j)."""
    if not (0 <= j <= i):
        raise ValueError(f"need 0 <= j <= i, got (i, j) = ({i}, {j})")
    return i * (i + 1) // 2 + j


def pair_of(position: int) -> GradedIndex:
    """Inverse of pos_of: the (i, j) pair at a scalar position."""
    if position < 0:
        raise ValueError(f"negative position: {position}")
    i = floor_f(position)
    j = position - i * (i + 1) // 2
    return GradedIndex(i, j, position)


def _check_rk(r: int, k: int) -> None:
    if r < 1:
        raise ValueError(f"block width r must be positive, got {r}")
    if k not in (1, 2):
        raise ValueError(f"direction k must be 1 or 2, got {k}")


def n_plus(n: int, r: int, k: int) -> int:
    """Column of the single 1 in row n of the shift operator Lambda_{[r];k}.

    Equals n + r*F(n/r) + k*r (the r-scaled form; the unscaled variant only
    matches the operator's block layout for r = 1).
    """
    _check_rk(r, k)
    if n < 0:
        raise ValueError(f"negative n: {n}")
    return n + r * floor_f(rat(n, r)) + k * r


def in_complement_J(n: int, r: int, k: int) -> bool:
    """True iff n lies in the image of n_plus(., r, k), i.e. n not in J_{r;k}."""
    _check_rk(r, k)
    if n < k * r:
        return False
    m = n - r * f_minus(rat(n, r), k)
    return m >= 0 and n_plus(m, r, k) == n


def n_minus_big(n: int, r: int, k: int) -> int:
    """Preimage map N^-_{r;k}: undo n_plus, stepping up to the next image point first.

    For n in the image of n_plus this inverts it; otherwise the smallest
    image point N > n is inverted instead.
    """
    _check_rk(r, k)
    if n < 0:
        raise ValueError(f"negative n: {n}")
    m = n
    while not in_complement_J(m, r, k):
        m += 1
    return m - r * f_minus(rat(m, r), k)
