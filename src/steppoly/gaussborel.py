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
"""

from __future__ import annotations

from math import lcm

from .errors import Breakdown
from .linalg import corner
from .moments import MomentTruncation
from .rational import ONE, ZERO, as_rat, rat


class Factorization:
    """Factors of one truncation: S, Sbar (unit lower), the diagonal H, and the
    inverses S^-1 and Sbar^-1 (unit lower) that the elimination yields with them."""

    __slots__ = ("depth", "S", "Sbar", "H", "S_inv", "Sbar_inv")

    def __init__(self, depth: int, S: list[list], Sbar: list[list], H: list,
                 S_inv: list[list], Sbar_inv: list[list]):
        self.depth = depth
        self.S = S
        self.Sbar = Sbar
        self.H = H
        self.S_inv = S_inv
        self.Sbar_inv = Sbar_inv

    def corner(self, d: int) -> "Factorization":
        return Factorization(
            d, corner(self.S, d), corner(self.Sbar, d), self.H[:d],
            corner(self.S_inv, d), corner(self.Sbar_inv, d),
        )

    def transpose(self) -> "Factorization":
        """The factorization M^T = Sbar^-1 H S^-T: the same factors, roles swapped."""
        return Factorization(self.depth, self.Sbar, self.S, self.H, self.Sbar_inv, self.S_inv)


def _unit_lower(D: int, entry) -> list[list]:
    """D x D unit lower triangular matrix with entry(n, c) below the diagonal."""
    return [[entry(n, c) for c in range(n)] + [ONE] + [ZERO] * (D - 1 - n) for n in range(D)]


def factorize(M: MomentTruncation | list[list]) -> Factorization:
    """Fraction-free unpivoted LU; Breakdown(k) when the leading minor of size k+1 vanishes."""
    data = M.data if isinstance(M, MomentTruncation) else M
    D = len(data)
    if any(len(row) != D for row in data):
        raise ValueError("factorize needs a square truncation")
    Q = [[as_rat(v) for v in row] for row in data]
    r = [lcm(*(v.denominator for v in row)) for row in Q]
    Mi = [[v.numerator * (r_n // v.denominator) for v in row] for row, r_n in zip(Q, r)]
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
        tail_k, e_k, f_k = row_k[k + 1:], E[k] + [prev], F[k] + [prev]
        for i in range(k + 1, D):
            row_i = Mi[i]
            a, b = row_i[k], row_k[i]
            row_i[k + 1:] = [(piv * x - a * y) // prev for x, y in zip(row_i[k + 1:], tail_k)]
            E[i][:k + 1] = [(piv * x - a * y) // prev for x, y in zip(E[i], e_k)]
            F[i][:k + 1] = [(piv * x - b * y) // prev for x, y in zip(F[i], f_k)]
    return Factorization(
        D,
        S=_unit_lower(D, lambda n, c: rat(E[n][c] * r[c], minors[n] * r[n])),
        Sbar=_unit_lower(D, lambda n, c: rat(F[n][c], minors[n])),
        H=[rat(minors[n + 1], minors[n] * r[n]) for n in range(D)],
        S_inv=_unit_lower(D, lambda i, k: rat(Mi[i][k] * r[k], minors[k + 1] * r[i])),
        Sbar_inv=_unit_lower(D, lambda i, k: rat(Mi[k][i], minors[k + 1])),
    )
