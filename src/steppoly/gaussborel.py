"""Normalized Gauss-Borel factorization M = S^-1 H Sbar^-T on truncations.

S and Sbar are lower unitriangular, H is diagonal and nonzero.  The
factorization exists iff every leading principal minor of the truncation is
nonzero.  It is computed by fraction-free (Bareiss) unpivoted LU; Breakdown on
a vanishing leading minor, and nothing is left behind.  Elimination never
pivots, because pivoting would destroy the unitriangular normalization that
defines the polynomial families.

factorize reads the truncation's integer rows (moments.MomentTruncation):
r = M.scale holds the lcm r_n of row n's denominators, Mi = diag(r) M is
M.ints, and one Bareiss elimination (eliminate) runs on a copy of the rows of
Mi (E. H. Bareiss, "Sylvester's identity and multistep integer-preserving
Gaussian elimination", Math. Comp. 22, 1968).  Every intermediate is a minor
of Mi, so the arithmetic stays in exact integers.
eliminate is the one elimination loop: cdkernel.kernel_eval runs it on the
same rows bordered by two points' monomials, and cdkernel.check_abc on the
rows bordered by identity blocks, so all three raise the same Breakdown on a
vanishing minor.  With Delta_n the n x n leading minor of Mi
(Delta_0 = 1), and a the rows as steps 0 .. k-1 leave them, a[i][j] for
i, j >= k is the (k+1)-minor on rows 0 .. k-1, i and columns 0 .. k-1, j.
Sylvester's identity says an m x m determinant of such entries is
Delta_k^(m-1) times the (k+m)-minor it borders.  Step k alone is its m = 2 case:

    a[i][j] <- (a[k][k] a[i][j] - a[i][k] a[k][j]) / Delta_k.

eliminate takes the steps in pairs, Bareiss's two-step form (see also
Geddes, Czapor and Labahn, Algorithms for Computer Algebra, 1992, ch. 9).
Row k+1 takes step k alone, which makes a[k+1][k+1] = Delta_{k+2}; with
a[k+1] read before that update, each later row i then takes steps k and k+1
at once:

    m_i     = (a[k][k] a[i][k+1] - a[i][k] a[k][k+1]) / Delta_k,
    c_i     = (a[k+1][k] a[i][k+1] - a[k+1][k+1] a[i][k]) / Delta_k,
    a[i][j] <- (Delta_{k+2} a[i][j] - m_i a[k+1][j] + c_i a[k][j]) / Delta_k,  j >= k+2.

m_i and c_i are 2 x 2 determinants over Delta_k, the m = 2 case, so they are
exact (k+2)-minors, and m_i is step k+1's multiplier.  Delta_{k+2}, -m_i and c_i
are the cofactors of the last column of the 3 x 3 determinant on rows k, k+1,
i and columns k, k+1, j, each divided by Delta_k; by the m = 3 case that
determinant is Delta_k^2 times the (k+3)-minor a[i][j] becomes, so the
numerator is Delta_k times it and the last division is exact too.  A pair
costs three products and one division per entry, where two single steps cost
four and two, and leaves every integer the single steps leave.  The
factors are read off those integers:

- the pivot of step n is Delta_{n+1}, so H_n = Delta_{n+1} / (Delta_n r_n);
- the multiplier Mi[i][k] of step k is Delta_{k+1} r_i / r_k * S^-1[i][k],
  and Mi[k][i] is Delta_{k+1} Sbar^-1[i][k].

The truncation's one lcm per row, rather than one for the whole truncation,
keeps the minors small: scaling by a single den multiplies Delta_n by den^n.

Factorization keeps H as rationals and otherwise only the integers of the
elimination, in the fraction-free LU form of Nakos, Turner and Williams (ACM
SIGSAM Bull. 31, 1997) and of Zhou and Jeffrey (Front. Comput. Sci. China 2,
2008): the minors Delta, and per side an IntegerSide (scale, L, L_inv) with

    factor[n][c]    = L[n][c] scale_c / (Delta_n scale_n),
    inverse[i][k]   = L_inv[i][k] scale_k / (Delta_{k+1} scale_i)

for c <= n and k <= i.  On the S side the scale is r and L_inv the lower rows
of Mi; on the Sbar side the scale is all ones and L_inv the upper part of Mi,
read as rows.  L_inv[c][c] = Delta_{c+1} and L[n][n] = Delta_n.  Each row of
L is recovered from L_inv by integer back-substitution: the scales cancel from
row n of factor * inverse = I, which leaves

    L[n][c] = -(sum_{j=c+1..n} L[n][j] L_inv[j][c]) / Delta_{c+1},  c < n,

an exact division (the quotient is the integer Delta_n r_n / r_c S[n][c] on
the S side, Delta_n Sbar[n][c] on the Sbar side).  Row n needs no other row of
L, so L is a LazyRows: each row is back-substituted when first read and kept.
compute reads only the rows of its depth window, verify's degree check reads
them all.  No identity block is carried through the elimination.  The
families and the recurrence matrices are built from these integers, and the
rational inverses are never formed.  A rational factor is formed only when
read: unit_lower builds the leading corner a reader asks for, the depth x
depth one for the S and Sbar exports.
"""

from __future__ import annotations

from collections.abc import Callable
from operator import mul
from typing import NamedTuple

from .errors import Breakdown
from .moments import MomentTruncation
from .rational import ONE, ZERO, rat


class LazyRows:
    """count rows, row n being build(n), each built on its first read and kept.

    It reads as the list of its rows: len, integer and slice indexing (a slice
    is a list), iteration through indexing and equality with a list.
    """

    __slots__ = ("_build", "_rows")

    def __init__(self, count: int, build: Callable[[int], object]):
        self._build = build
        self._rows = [None] * count

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, n):
        if isinstance(n, slice):
            return [self[i] for i in range(*n.indices(len(self._rows)))]
        if n < 0:
            n = range(len(self._rows))[n]
        row = self._rows[n]
        if row is None:
            row = self._rows[n] = self._build(n)
        return row

    def __eq__(self, other):
        if not isinstance(other, (list, LazyRows)):
            return NotImplemented
        return list(self) == list(other)


class IntegerSide(NamedTuple):
    """Integer numerators of one unit lower factor and of its inverse.

    Rows are stored up to and including the diagonal; see the module docstring
    for how scale and the minors turn them into the rational entries.
    """

    scale: list[int]
    L: list[list[int]] | LazyRows
    L_inv: list[list[int]]


class Factorization:
    """Factors of one truncation: the diagonal H, the elimination's minors and
    one IntegerSide each for S and Sbar.  The rational S and Sbar are built in
    full from those integers on every read; nothing keeps them."""

    __slots__ = ("depth", "H", "minors", "S_int", "Sbar_int")

    def __init__(self, depth: int, H: list, minors: list[int], S_int: IntegerSide,
                 Sbar_int: IntegerSide):
        self.depth = depth
        self.H = H
        self.minors = minors
        self.S_int = S_int
        self.Sbar_int = Sbar_int

    @property
    def S(self) -> list[list]:
        return unit_lower(self.minors, self.S_int, self.depth)

    @property
    def Sbar(self) -> list[list]:
        return unit_lower(self.minors, self.Sbar_int, self.depth)

    def transpose(self) -> "Factorization":
        """The factorization M^T = Sbar^-1 H S^-T: the same factors, roles swapped."""
        return Factorization(self.depth, self.H, self.minors, self.Sbar_int, self.S_int)


def unit_lower(minors: list[int], side: IntegerSide, rows: int) -> list[list]:
    """The leading rows x rows corner of the rational unit lower factor side stores."""
    s, L, _ = side
    return [[rat(L[n][c] * s[c], minors[n] * s[n]) for c in range(n)] + [ONE] + [ZERO] * (rows - 1 - n)
            for n in range(rows)]


def _factor_row(minors: list[int], inv_cols: list[list[int]], n: int) -> list[int]:
    """Row n of one IntegerSide's L by the back-substitution of the module docstring.

    inv_cols[c] is column c of L_inv from the diagonal down.  The row is filled
    from the diagonal leftwards, one integer sum and one exact division per
    entry.
    """
    row = [0] * n + [minors[n]]
    for c in range(n - 1, -1, -1):
        row[c] = -sum(map(mul, row[c + 1:], inv_cols[c][1:n - c + 1])) // minors[c + 1]
    return row


def _factor_numerators(minors: list[int], inv_cols: list[list[int]]) -> LazyRows:
    """L of one IntegerSide, each row back-substituted on its first read."""
    return LazyRows(len(inv_cols), lambda n: _factor_row(minors, inv_cols, n))


def eliminate(rows: list[list[int]], steps: int) -> list[int]:
    """steps unpivoted Bareiss steps on integer rows, in place; returns Delta_0 .. Delta_steps.

    Step k leaves row k as it is and turns each later row i into
    (Delta_{k+1} row_i - row_i[k] row_k) / Delta_k from column k+1 on, each
    division exact; row_i[k], the multiplier, is kept.  Rows may be longer than
    steps and there may be more of them: every entry (i, j) with i, j >= steps
    ends as Delta_steps times that entry of the Schur complement of the
    leading steps x steps block.  A zero pivot at step k raises Breakdown(k).

    The steps run in pairs (k, k+1) by the module docstring's formulas, with
    piv = Delta_{k+1}, prev = Delta_k and piv2 = Delta_{k+2}: row k+1 takes
    step k and is checked for a zero pivot before any later row is touched,
    then each later row i takes both steps in one pass and keeps m_i, the
    multiplier of step k+1, in column k+1.  An odd step count ends with one
    single step.
    """
    minors = [1]
    for k in range(0, steps, 2):
        row_k = rows[k]
        piv, prev = row_k[k], minors[k]
        if piv == 0:
            raise Breakdown(k)
        minors.append(piv)
        tail_k = row_k[k + 1:]
        if k + 1 == steps:
            for row_i in rows[k + 1:]:
                a = row_i[k]
                row_i[k + 1:] = [(piv * x - a * y) // prev for x, y in zip(row_i[k + 1:], tail_k)]
            break
        # the pair formulas read row k+1 as it stands before it takes step k
        row_k1 = rows[k + 1]
        l, d, u = row_k1[k], row_k1[k + 1], row_k[k + 1]
        tail_k1 = row_k1[k + 2:]
        row_k1[k + 1:] = [(piv * x - l * y) // prev for x, y in zip(row_k1[k + 1:], tail_k)]
        piv2 = row_k1[k + 1]
        if piv2 == 0:
            raise Breakdown(k + 1)
        minors.append(piv2)
        del tail_k[0]  # both tails now start at column k+2
        for row_i in rows[k + 2:]:
            a0, a1 = row_i[k], row_i[k + 1]
            m = (piv * a1 - a0 * u) // prev
            c = (l * a1 - d * a0) // prev
            row_i[k + 1] = m
            row_i[k + 2:] = [(piv2 * x - m * y + c * z) // prev
                             for x, y, z in zip(row_i[k + 2:], tail_k1, tail_k)]
    return minors


def factorize(M: MomentTruncation) -> Factorization:
    """Fraction-free unpivoted LU of M's integer rows; Breakdown(k) when the
    leading minor of size k+1 vanishes."""
    D, r = M.depth, M.scale
    if len(M.ints) != D or any(len(row) != D for row in M.ints):
        raise ValueError("factorize needs a square truncation")
    Mi = [row[:] for row in M.ints]  # eliminated in place; M's rows stay as built
    minors = eliminate(Mi, D)
    # Column c of each side's L_inv, from the diagonal down: the S side reads
    # the columns of Mi's lower part, the Sbar side the rows of its upper part.
    S_int = IntegerSide(r, _factor_numerators(minors, [[row[c] for row in Mi[c:]] for c in range(D)]),
                        [row[:i + 1] for i, row in enumerate(Mi)])
    Sbar_int = IntegerSide([1] * D, _factor_numerators(minors, [row[c:] for c, row in enumerate(Mi)]),
                           [[Mi[k][i] for k in range(i + 1)] for i in range(D)])
    return Factorization(D, [rat(minors[n + 1], minors[n] * r[n]) for n in range(D)], minors,
                         S_int, Sbar_int)
