"""Normalized Gauss-Borel factorization M = S^-1 H Sbar^-T on truncations.

S and Sbar are lower unitriangular, H is diagonal and nonzero.  The
factorization exists iff every leading principal minor of the truncation is
nonzero.  It is computed by fraction-free (Bareiss) unpivoted LU; Breakdown on
a vanishing leading minor, and nothing is left behind.  Elimination never
pivots, because pivoting would destroy the unitriangular normalization that
defines the polynomial families.

Each row n of the truncation is scaled to integers by the lcm r_n of its
denominators, Mi = diag(r) M, and one Bareiss elimination runs on Mi with an
identity block on each side (E. H. Bareiss, Math. Comp. 22, 1968): row
operations on [Mi | I] and the mirrored column operations on [Mi ; I].  Every
intermediate is a minor of the bordered matrix, so the arithmetic stays in
exact integers.  With Delta_n the n x n leading minor of Mi (Delta_0 = 1):

- the pivot of step n is Delta_{n+1}, so H_n = Delta_{n+1} / (Delta_n r_n);
- the multiplier Mi[i][k] of step k is Delta_{k+1} r_i / r_k * S^-1[i][k],
  and Mi[k][i] is Delta_{k+1} Sbar^-1[i][k];
- row n of the identity block right of Mi ends as Delta_n r_n / r_c * S[n][c],
  and column n of the identity block below Mi as Delta_n Sbar[n].

One lcm per row rather than one for the whole truncation keeps the minors
small: scaling by a single den multiplies Delta_n by den^n.

Factorization keeps S, Sbar and H as rationals, and next to them the integers
of the elimination, in the fraction-free LU form of Nakos, Turner and Williams
(ACM SIGSAM Bull. 31, 1997) and of Zhou and Jeffrey (Front. Comput. Sci. China
2, 2008): the minors Delta, and per side an IntegerSide (scale, L, L_inv) with

    factor[n][c]    = L[n][c] scale_c / (Delta_n scale_n),
    inverse[i][k]   = L_inv[i][k] scale_k / (Delta_{k+1} scale_i)

for c <= n and k <= i.  On the S side the scale is r, L the rows of the right
identity block (diagonal Delta_n) and L_inv the lower rows of Mi (diagonal
Delta_{i+1}); on the Sbar side the scale is all ones, L the columns of the
lower identity block and L_inv the upper part of Mi, read as rows.  The
recurrence matrices are built from these integers; the rational inverses are
never formed.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import Breakdown
from .moments import MomentTruncation
from .rational import ONE, ZERO, as_rat, common_denominator, rat


class IntegerSide(NamedTuple):
    """Integer numerators of one unit lower factor and of its inverse.

    Rows are stored up to and including the diagonal; see the module docstring
    for how scale and the minors turn them into the rational entries.
    """

    scale: list[int]
    L: list[list[int]]
    L_inv: list[list[int]]


class Factorization:
    """Factors of one truncation: S, Sbar (unit lower) and the diagonal H, plus
    the elimination's minors and one IntegerSide each for S and Sbar."""

    __slots__ = ("depth", "S", "Sbar", "H", "minors", "S_int", "Sbar_int")

    def __init__(self, depth: int, S: list[list], Sbar: list[list], H: list,
                 minors: list[int], S_int: IntegerSide, Sbar_int: IntegerSide):
        self.depth = depth
        self.S = S
        self.Sbar = Sbar
        self.H = H
        self.minors = minors
        self.S_int = S_int
        self.Sbar_int = Sbar_int

    def transpose(self) -> "Factorization":
        """The factorization M^T = Sbar^-1 H S^-T: the same factors, roles swapped."""
        return Factorization(self.depth, self.Sbar, self.S, self.H, self.minors,
                             self.Sbar_int, self.S_int)


def _unit_lower(minors: list[int], side: IntegerSide) -> list[list]:
    """The rational unit lower factor whose numerators side stores."""
    s, L, _ = side
    D = len(s)
    return [[rat(L[n][c] * s[c], minors[n] * s[n]) for c in range(n)] + [ONE] + [ZERO] * (D - 1 - n)
            for n in range(D)]


def factorize(M: MomentTruncation | list[list]) -> Factorization:
    """Fraction-free unpivoted LU; Breakdown(k) when the leading minor of size k+1 vanishes."""
    data = M.data if isinstance(M, MomentTruncation) else M
    D = len(data)
    if any(len(row) != D for row in data):
        raise ValueError("factorize needs a square truncation")
    scaled = [common_denominator(as_rat(v) for v in row) for row in data]
    r = [r_n for r_n, _ in scaled]
    Mi = [row for _, row in scaled]
    # Strict lower parts of the identity blocks, row n of E and column n of F
    # stored as rows; their diagonal entry n is Delta_n.
    E = [[0] * n for n in range(D)]
    F = [[0] * n for n in range(D)]
    minors = [1]
    for k in range(D):
        row_k = Mi[k]
        piv, prev = row_k[k], minors[k]
        if piv == 0:
            raise Breakdown(k)
        minors.append(piv)
        E[k].append(prev)
        F[k].append(prev)
        tail_k, e_k, f_k = row_k[k + 1:], E[k], F[k]
        for i in range(k + 1, D):
            row_i = Mi[i]
            a, b = row_i[k], row_k[i]
            row_i[k + 1:] = [(piv * x - a * y) // prev for x, y in zip(row_i[k + 1:], tail_k)]
            E[i][:k + 1] = [(piv * x - a * y) // prev for x, y in zip(E[i], e_k)]
            F[i][:k + 1] = [(piv * x - b * y) // prev for x, y in zip(F[i], f_k)]
    S_int = IntegerSide(r, E, [row[:i + 1] for i, row in enumerate(Mi)])
    Sbar_int = IntegerSide([1] * D, F, [[Mi[k][i] for k in range(i + 1)] for i in range(D)])
    return Factorization(
        D,
        S=_unit_lower(minors, S_int),
        Sbar=_unit_lower(minors, Sbar_int),
        H=[rat(minors[n + 1], minors[n] * r[n]) for n in range(D)],
        minors=minors,
        S_int=S_int,
        Sbar_int=Sbar_int,
    )
