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
eliminate is the one elimination loop: cdkernel.inverse_form, behind the
kernel command and the abc check, runs it on the same rows bordered by the
columns and rows of a bilinear form, so it raises the same Breakdown on a
vanishing minor, and cdkernel.kernel_replay repeats its groups of three steps
on new borders from the record eliminate keeps of them; factorize's
certificate runs it on residue rows.  With
Delta_n the n x n leading minor of Mi (Delta_0 = 1), and a the rows as steps
0 .. k-1 leave them, a[i][j] for i, j >= k is the (k+1)-minor on rows
0 .. k-1, i and columns 0 .. k-1, j.
Sylvester's identity says an m x m determinant of such entries is
Delta_k^(m-1) times the (k+m)-minor it borders.  Step k alone is its m = 2 case:

    a[i][j] <- (a[k][k] a[i][j] - a[i][k] a[k][j]) / Delta_k.

eliminate takes the steps in groups of three, Bareiss's three-step form (see
also Geddes, Czapor and Labahn, Algorithms for Computer Algebra, 1992, ch. 9).
For the group k, k+1, k+2 write p_rs = a[k+r][k+s] for the 3 x 3 pivot block,
and w[rr'][ss'] for its 2 x 2 minor on rows r < r' and columns s < s' divided
by Delta_k.  By the m = 2 case each w is an exact (k+2)-minor; w[01][01] =
Delta_{k+2}, and expanding the pivot block along its last row,

    Delta_{k+3} = (p20 w[01][12] - p21 w[01][02] + p22 w[01][01]) / Delta_k,

exact by the m = 3 case.  All three pivots are read off the block before any
row changes.  Row k+1 takes step k, row k+2 steps k and k+1 by the pair form
below, and each later row i takes all three steps at once.  With w[..] the
minors on the two pivot rows other than r,

    c_r     = (a[i][k] w[..][12] - a[i][k+1] w[..][02] + a[i][k+2] w[..][01]) / Delta_k,
    a[i][j] <- (Delta_{k+3} a[i][j] - c_2 a[k+2][j] + c_1 a[k+1][j] - c_0 a[k][j]) / Delta_k,

for j >= k+3, the pivot rows read as they stood at step k.  c_r is the 3 x 3
determinant on row i and the pivot rows other than r, columns k .. k+2, over
Delta_k^2 (its last-row expansion over Delta_k), so by the m = 3 case it is an
exact (k+3)-minor; c_2 is step k+2's multiplier, kept in column k+2, and
column k+1 keeps step k+1's, (p00 a[i][k+1] - a[i][k] p01) / Delta_k.
Delta_{k+3}, -c_2, c_1 and -c_0 are the cofactors of the last column of the
4 x 4 determinant on rows k .. k+2, i and columns k .. k+2, j, each divided by
Delta_k^2; by the m = 4 case that determinant is Delta_k^3 times the
(k+4)-minor a[i][j] becomes, so the numerator is Delta_k times it and the last
division is exact too.  A group costs four products and one division per
entry, where three single steps cost six and three.

Row k+2 takes steps k and k+1 at once, by Bareiss's two-step form.  With
i = k+2 and a[k+1] read as it stood at step k,

    m_i     = (a[k][k] a[i][k+1] - a[i][k] a[k][k+1]) / Delta_k,
    c_i     = (a[k+1][k] a[i][k+1] - a[k+1][k+1] a[i][k]) / Delta_k,
    a[i][j] <- (Delta_{k+2} a[i][j] - m_i a[k+1][j] + c_i a[k][j]) / Delta_k,  j >= k+2.

m_i and c_i are 2 x 2 determinants over Delta_k, w[02][01] and w[12][01], so
they are exact (k+2)-minors, and m_i is step k+1's multiplier.  Delta_{k+2},
-m_i and c_i are the cofactors of the last column of the 3 x 3 determinant on
rows k, k+1, i and columns k, k+1, j, each divided by Delta_k; by the m = 3
case the numerator is Delta_k times the (k+3)-minor a[i][j] becomes, so the
last division is exact.  At j = k+2 that minor is Delta_{k+3}, already read
off the block.  One or two steps left over at the end run as single steps.
Groups leave every integer the single steps leave.  The factors are read off
those integers:

- the pivot of step n is Delta_{n+1}, so H_n = Delta_{n+1} / (Delta_n r_n);
- the multiplier Mi[i][k] of step k is Delta_{k+1} r_i / r_k * S^-1[i][k],
  and Mi[k][i] is Delta_{k+1} Sbar^-1[i][k].

The truncation's one lcm per row, rather than one for the whole truncation,
keeps the minors small: scaling by a single den multiplies Delta_n by den^n.

Factorization keeps only the integers of the elimination, in the fraction-free
LU form of Nakos, Turner and Williams (ACM SIGSAM Bull. 31, 1997) and of Zhou
and Jeffrey (Front. Comput. Sci. China 2, 2008): the minors Delta, and per
side an IntegerSide (scale, L, L_inv) with

    factor[n][c]    = L[n][c] scale_c / (Delta_n scale_n),
    inverse[i][k]   = L_inv[k][i-k] scale_k / (Delta_{k+1} scale_i)

for c <= n and k <= i: L by rows up to the diagonal, L_inv by columns from it
down.  On the S side the scale is r and column k of L_inv is Mi[k..][k]; on the
Sbar side the scale is all ones and it is Mi[k][k..], Mi's upper part read as
columns.  L_inv[c][0] = Delta_{c+1} and L[n][n] = Delta_n.  Each row of L is
recovered from L_inv by integer back-substitution: the scales cancel from row n
of factor * inverse = I, which leaves

    L[n][c] = -(sum_{j=c+1..n} L[n][j] L_inv[c][j-c]) / Delta_{c+1},  c < n,

an exact division (the quotient is the integer Delta_n r_n / r_c S[n][c] on
the S side, Delta_n Sbar[n][c] on the Sbar side).  factorize back-substitutes
every row it keeps once, right after the elimination: compute writes every
row of its window, and verify's degree check reads every row.  No identity
block is carried through the elimination.  The families, the recurrence
matrices and the exports' text (unit_lower and Factorization.diagonal with
rational.ratio_text) are built from these integers; no CLI path forms a
rational factor or inverse.

factorize(M, width) eliminates only the E x width panel of Mi's first width
columns: it holds Delta_0 .. Delta_width, the multipliers of all E rows in
columns < width and rows < width of both sides, all that compute reads of its
depth-width window (T_1 and T_2 read rows of S^-1 up to n_plus(width-1, q, k)
in columns < width).  Delta_{width+1} .. Delta_E are certified nonzero modulo
the prime P = CERT_PRIME: with the panel's multipliers, step k's for row i
being panel[i][k] / Delta_{k+1} mod P, _schur_residues reduces the rows past
width to R, the Schur complement of the leading width x width block modulo P,
in [0, P).  R's leading j x j minor, a polynomial in its entries, is an
integer congruent mod P to the Schur complement's, Delta_{width+j} /
Delta_width, so the certificate runs eliminate on R's rows and passes exactly
when P divides none of the minors it returns; a Breakdown there is a zero
minor.  On any zero residue, a Delta_{k+1} with no inverse mod P included, the
full elimination decides: it raises the exact Breakdown, or completes after a
false alarm and the panel's factors stand.

The reduction of the tail columns (_schur_residues) packs each reduced row
of the first width rows into one integer, residue j in the slot of bits
bits j .. bits (j+1) - 1 with bits = ((P-1)^2 width).bit_length().  A later
row then takes one sum of at most width products ell_k * packed_k, every
multiplier ell_k and every residue in [0, P), so slot j holds the sum of
ell_k times residue j of row k: nonnegative, at most width (P-1)^2 < 2^bits,
so no slot carries into the next and each slot read back is exactly the dot
product the unpacked reduction takes.  Every residue, and so every decision,
is the unpacked one's.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import NamedTuple

from .errors import Breakdown
from .moments import MomentTruncation

CERT_PRIME = 2**31 - 1  # the modulus of factorize's certificate, a prime


class IntegerSide(NamedTuple):
    """Integer numerators of one unit lower factor and of its inverse.

    L holds rows up to the diagonal, L_inv columns from the diagonal down; the
    module docstring says how scale and the minors give the rational entries.
    """

    scale: list[int]
    L: list[list[int]]
    L_inv: list[list[int]]


class Factorization:
    """Factors of one depth-depth truncation of block shape q x p: the
    elimination's minors and one IntegerSide each for S and Sbar.  The
    rational H, S and Sbar are built in full from those integers on every
    read; nothing keeps them.  A factorization of width w < depth holds the
    minors up to Delta_w, H and both sides' L for w rows, and both sides'
    L_inv for w columns, S's running down all depth rows."""

    __slots__ = ("depth", "q", "p", "minors", "S_int", "Sbar_int")

    def __init__(self, depth: int, q: int, p: int, minors: list[int], S_int: IntegerSide,
                 Sbar_int: IntegerSide):
        self.depth, self.q, self.p = depth, q, p
        self.minors, self.S_int, self.Sbar_int = minors, S_int, Sbar_int

    def h(self, n: int) -> tuple[int, int]:
        """H_n as (Delta_{n+1}, Delta_n r_n), r_n the product of both sides' scales,
        one of them all ones, so a transpose reads the same H."""
        minors, s, sbar = self.minors, self.S_int.scale, self.Sbar_int.scale
        return minors[n + 1], minors[n] * s[n] * sbar[n]

    def diagonal(self, rows: int, ratio) -> list:
        """H_0 .. H_{rows-1} as ratio(*h(n)); the report and the exports pass ratio_text."""
        return [ratio(*self.h(n)) for n in range(rows)]

    @property
    def H(self) -> list:
        return self.diagonal(len(self.S_int.L), Fraction)

    @property
    def S(self) -> list[list]:
        return unit_lower(self.minors, self.S_int, len(self.S_int.L), Fraction)

    @property
    def Sbar(self) -> list[list]:
        return unit_lower(self.minors, self.Sbar_int, len(self.Sbar_int.L), Fraction)

    def transpose(self) -> "Factorization":
        """M^T = Sbar^-1 H S^-T, of block shape p x q: the same factors, roles swapped."""
        return Factorization(self.depth, self.p, self.q, self.minors, self.Sbar_int, self.S_int)


def unit_lower(minors: list[int], side: IntegerSide, rows: int, ratio) -> list[list]:
    """The leading rows x rows corner of the unit lower factor side stores: entry
    (n, c < n) is ratio(L[n][c] s_c, Delta_n s_n), or ratio(0, 1) where L[n][c] is
    0; the exports pass rational.ratio_text.  Row 0 reads no row of L."""
    s, L, _ = side
    one, zero = ratio(1, 1), ratio(0, 1)
    out = [[one] + [zero] * (rows - 1)]
    for n in range(1, rows):
        den = minors[n] * s[n]
        out.append([ratio(v * s_c, den) if v else zero for v, s_c in zip(L[n], s[:n])]
                   + [one] + [zero] * (rows - 1 - n))
    return out


def _factor_row(minors: list[int], L_inv: list[list[int]], n: int) -> list[int]:
    """Row n of one IntegerSide's L by the back-substitution of the module docstring.

    L_inv[c] is column c of L_inv from the diagonal down.  The row is filled
    from the diagonal leftwards, one integer sum and one exact division per
    entry.
    """
    row = [0] * n + [minors[n]]
    for c in range(n - 1, -1, -1):
        row[c] = -sum(map(mul, row[c + 1:], L_inv[c][1:n - c + 1])) // minors[c + 1]
    return row


def eliminate(rows: list[list[int]], steps: int) -> tuple[list[int], list[tuple]]:
    """steps unpivoted Bareiss steps on integer rows, in place; returns
    (Delta_0 .. Delta_steps, groups).

    Step k leaves row k as it is and turns each later row i into
    (Delta_{k+1} row_i - row_i[k] row_k) / Delta_k from column k+1 on, each
    division exact; row_i[k], the multiplier, is kept.  Rows may be longer than
    steps and there may be more of them: every entry (i, j) with i, j >= steps
    ends as Delta_steps times that entry of the Schur complement of the
    leading steps x steps block.  A zero pivot at step k raises Breakdown(k).

    The steps run in groups (k, k+1, k+2) by the module docstring's formulas,
    with prev = Delta_k and piv3 = Delta_{k+3}: Delta_{k+1}, Delta_{k+2} and
    Delta_{k+3} are read off the pivot block and checked for zero in that
    order, before any row is touched; then rows k+1 and k+2 take their steps,
    and each later row i takes all three in one pass, keeping its multipliers
    of steps k+1 and k+2 in columns k+1 and k+2.  One or two steps left over at
    the end run as single steps, with piv = Delta_{k+1}.

    groups[k // 3] records what repeating group k on new rows and columns
    reads, as (pivots, w, mults): pivots are rows k, k+1, k+2 from column k
    on, as steps 0 .. k-1 left them; w[r] = (w[..][12], w[..][02], w[..][01])
    holds the pivot block's minors on the two rows other than r, so that
    c_r = (a[i][k] w[r][0] - a[i][k+1] w[r][1] + a[i][k+2] w[r][2]) / Delta_k;
    and mults holds (c_0, c_1, c_2) for each later row in order.  The one or
    two steps left over record their pivot rows from column k on, as they
    stood before the first of them, with w and mults empty.
    """
    minors, groups = [1], []
    for k in range(0, steps - 2, 3):
        row_k, row_k1, row_k2 = rows[k:k + 3]
        prev = minors[k]
        p00, p01, p02 = row_k[k:k + 3]
        p10, p11, p12 = row_k1[k:k + 3]
        p20, p21, p22 = row_k2[k:k + 3]
        if p00 == 0:
            raise Breakdown(k)
        # w01_12 is the module docstring's w[01][12]: the 2 x 2 minor of the
        # pivot block on its rows 0, 1 and columns 1, 2, over Delta_k
        w01_01 = (p00 * p11 - p10 * p01) // prev
        if w01_01 == 0:
            raise Breakdown(k + 1)
        w01_02 = (p00 * p12 - p10 * p02) // prev
        w01_12 = (p01 * p12 - p11 * p02) // prev
        piv3 = (p20 * w01_12 - p21 * w01_02 + p22 * w01_01) // prev
        if piv3 == 0:
            raise Breakdown(k + 2)
        minors += (p00, w01_01, piv3)
        w02_01 = (p00 * p21 - p20 * p01) // prev
        w02_02 = (p00 * p22 - p20 * p02) // prev
        w02_12 = (p01 * p22 - p21 * p02) // prev
        w12_01 = (p10 * p21 - p20 * p11) // prev
        w12_02 = (p10 * p22 - p20 * p12) // prev
        w12_12 = (p11 * p22 - p21 * p12) // prev
        # the pivot rows as steps 0 .. k-1 left them, and their tails
        pivots = row_k[k:], row_k1[k:], row_k2[k:]
        tail_k, tail_k1, tail_k2 = (row[3:] for row in pivots)
        row_k1[k + 1], row_k1[k + 2] = w01_01, w01_02
        row_k1[k + 3:] = [(p00 * x - p10 * y) // prev for x, y in zip(tail_k1, tail_k)]
        row_k2[k + 1], row_k2[k + 2] = w02_01, piv3
        row_k2[k + 3:] = [(w01_01 * x - w02_01 * y + w12_01 * z) // prev
                          for x, y, z in zip(tail_k2, tail_k1, tail_k)]
        mults = []  # (c0, c1, c2) of each later row
        for row_i in rows[k + 3:]:
            a0, a1, a2 = row_i[k:k + 3]
            c0 = (a0 * w12_12 - a1 * w12_02 + a2 * w12_01) // prev
            c1 = (a0 * w02_12 - a1 * w02_02 + a2 * w02_01) // prev
            c2 = (a0 * w01_12 - a1 * w01_02 + a2 * w01_01) // prev
            mults.append((c0, c1, c2))
            row_i[k + 1] = (p00 * a1 - a0 * p01) // prev
            row_i[k + 2] = c2
            row_i[k + 3:] = [(piv3 * x - c2 * y2 + c1 * y1 - c0 * y0) // prev
                             for x, y2, y1, y0 in zip(row_i[k + 3:], tail_k2, tail_k1, tail_k)]
        groups.append((pivots, ((w12_12, w12_02, w12_01), (w02_12, w02_02, w02_01),
                                (w01_12, w01_02, w01_01)), mults))
    left = steps - steps % 3
    if left < steps:
        groups.append(([row[left:] for row in rows[left:steps]], (), ()))
    for k in range(left, steps):
        row_k = rows[k]
        piv, prev = row_k[k], minors[k]
        if piv == 0:
            raise Breakdown(k)
        minors.append(piv)
        tail_k = row_k[k + 1:]
        for row_i in rows[k + 1:]:
            a = row_i[k]
            row_i[k + 1:] = [(piv * x - a * y) // prev for x, y in zip(row_i[k + 1:], tail_k)]
    return minors, groups


def _schur_residues(ints: list[list[int]], panel: list[list[int]],
                    minors: list[int]) -> list[list[int]] | None:
    """The Schur complement of the panel's width x width block in ints, modulo
    CERT_PRIME, by the packed reduction of the module docstring; None when
    CERT_PRIME divides one of the panel's minors."""
    P, width = CERT_PRIME, len(minors) - 1
    if any(d % P == 0 for d in minors):
        return None
    inv = [pow(d, -1, P) for d in minors[1:]]
    bits = ((P - 1) ** 2 * width).bit_length()  # one slot per tail column
    mask, shifts = (1 << bits) - 1, [bits * j for j in range(len(ints) - width)]
    packed, schur = [], []  # packed: the reduced tails of rows < width
    for i, (row, mults) in enumerate(zip(ints, panel)):
        ell = [a % P * b % P for a, b in zip(mults[:min(i, width)], inv)]
        total = sum(map(mul, ell, packed))
        reduced = [(x - (total >> s & mask)) % P for x, s in zip(row[width:], shifts)]
        if i < width:
            packed.append(sum(x << s for x, s in zip(reduced, shifts)))
        else:
            schur.append(reduced)
    return schur


def _certified(ints: list[list[int]], panel: list[list[int]], minors: list[int]) -> bool:
    """Whether the minors of ints past the panel's width are nonzero, by the
    certificate of the module docstring: False on any zero residue."""
    schur = _schur_residues(ints, panel, minors)
    if schur is None:
        return False
    try:
        return all(d % CERT_PRIME for d in eliminate(schur, len(schur))[0])
    except Breakdown:
        return False


def factorize(M: MomentTruncation, width: int | None = None) -> Factorization:
    """Fraction-free unpivoted LU of M's integer rows, of M's block shape q x p;
    Breakdown(k) when the leading minor of size k+1 vanishes.  With a width
    below M's depth only the panel of M's first width columns is eliminated and
    the factors are kept for width rows; the minors past width are certified
    modulo CERT_PRIME, and on a zero residue the full elimination decides."""
    D, r = M.depth, M.scale
    if len(M.ints) != D or any(len(row) != D for row in M.ints):
        raise ValueError("factorize needs a square truncation")
    W = D if width is None else min(width, D)
    Mi = [row[:W] for row in M.ints]  # eliminated in place; M's rows stay as built
    minors, _ = eliminate(Mi, W)
    if W < D and not _certified(M.ints, Mi, minors):
        eliminate([row[:] for row in M.ints], D)  # Breakdown at its index, or a false alarm
    S_inv = [[row[c] for row in Mi[c:]] for c in range(W)]  # the columns of Mi's lower part
    Sbar_inv = [row[c:] for c, row in enumerate(Mi[:W])]  # the rows of its upper part
    S_int = IntegerSide(r, [_factor_row(minors, S_inv, n) for n in range(W)], S_inv)
    Sbar_int = IntegerSide([1] * W, [_factor_row(minors, Sbar_inv, n) for n in range(W)], Sbar_inv)
    return Factorization(D, M.q, M.p, minors, S_int, Sbar_int)
