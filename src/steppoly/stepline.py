"""Integer index machinery for the graded-lexicographic step-line.

The step-line orders pairs (i, j) with 0 <= j <= i as
(0,0), (1,0), (1,1), (2,0), (2,1), (2,2), (3,0), ...; the pair (i, j) sits at
scalar position I = i(i+1)/2 + j.  On top of the bijection this module
provides the floor map F, the shift targets n_plus, the exception sets J_{r;k}
and the one preimage map n_minus_big, the least m with n_plus(m) >= n, that
together describe where the recurrence matrices are allowed to be nonzero.

Everything here is exact integer arithmetic; no floating point.
"""

from __future__ import annotations

from bisect import bisect_left
from math import isqrt
from typing import NamedTuple


class GradedIndex(NamedTuple):
    i: int
    j: int


def floor_f(m: int) -> int:
    """Largest integer i with i(i+1)/2 <= m, for an integer m >= 0.

    The answer is exactly (isqrt(8m + 1) - 1) // 2: the integer square root
    hits the triangular boundaries exactly, with no fixup and no float.  Every
    i(i+1)/2 is an integer, so F(x) of a rational x >= 0 is F(floor(x)); the
    callers pass such floors, as n_plus passes n // r for F(n/r).
    """
    if m < 0:
        raise ValueError(f"negative argument: {m}")
    return (isqrt(8 * m + 1) - 1) // 2


def pair_of(position: int) -> GradedIndex:
    """The pair (i, j), 0 <= j <= i, at the scalar position i (i + 1) / 2 + j."""
    if position < 0:
        raise ValueError(f"negative position: {position}")
    i = floor_f(position)
    return GradedIndex(i, position - i * (i + 1) // 2)


def _check_rk(r: int, k: int) -> None:
    if r < 1:
        raise ValueError(f"block width r must be positive, got {r}")
    if k not in (1, 2):
        raise ValueError(f"direction k must be 1 or 2, got {k}")


def n_plus(n: int, r: int, k: int) -> int:
    """Column of the single 1 in row n of the shift operator Lambda_{[r];k}.

    Equals n + r*F(n/r) + k*r (the r-scaled form; the unscaled variant only
    matches the operator's block layout for r = 1), where F(n/r) = F(n // r).
    """
    _check_rk(r, k)
    if n < 0:
        raise ValueError(f"negative n: {n}")
    return n + r * floor_f(n // r) + k * r


def n_minus_big(n: int, r: int, k: int) -> int:
    """Preimage map N^-_{r;k}: the least m >= 0 with n_plus(m, r, k) >= n.

    As n_plus is increasing, this inverts it on its image and the next image
    point elsewhere, counts the c with n_plus(c, r, k) < n, and is <= m exactly
    when n <= n_plus(m, r, k).  As n_plus(c, r, k) > c, it lies in range(n)
    for n >= 1.
    """
    _check_rk(r, k)
    if n < 0:
        raise ValueError(f"negative n: {n}")
    return bisect_left(range(n), n, key=lambda m: n_plus(m, r, k))


def in_complement_J(n: int, r: int, k: int) -> bool:
    """True iff n lies in the image of n_plus(., r, k), i.e. n not in J_{r;k}."""
    return n_plus(n_minus_big(n, r, k), r, k) == n
