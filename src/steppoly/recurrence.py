"""Recurrence matrices T_k on truncations and the relations they encode.

T_k = S Lambda_{[q];k} S^-1 has a growing band: row n runs from column
n_minus_big(n, p, k) to a trailing 1 at column n_plus(n, q, k); column n runs
from row n_minus_big(n, q, k) (entry exactly 1 when n avoids J_{q;k}) to a
trailing entry H_{n_plus(n,p,k)} / H_n at row n_plus(n, p, k).  The zeros
left of the row band follow from the Hankel symmetry of M (build_recurrence
says how), so compute sums only inside the band; verify sums every entry,
because its band and dual checks test those zeros.

The dual form H Sbar^-T Lambda^T_{[p];k} Sbar^T H^-1 of T_k is the primal form
of the transposed factorization M^T = Sbar^-1 H S^-T, transposed and
conjugated by H; check_dual_form builds it that way, from Sbar alone.

The matrix that multiplies the families by x_k entrywise is the diagonal
conjugate R_k = H^-1 T_k H (same band, H-scaled values):

    x_k B_n = (H_{n+q}/H_n) B_{n+q} + sum_i T_{k;n,i} (H_i/H_n) B_i
    x_k A_n = A_{n+p} + sum_i T_{k;i,n} (H_n/H_i) A_i

with n+q = n_plus(n, q, k) and n+p = n_plus(n, p, k).  T_k itself, as printed
with trailing 1s per row, does not intertwine either family; conjugating by H
is what makes both relations exact.

Each T_k is kept as one integer matrix acc, the inner sums of
build_recurrence, with L = lcm(r).  With r and Delta the scale and minors of
the S side of its factorization F (gaussborel), T.entry and F.h are the formulas:

    T_k[m][n] = acc[m][n] r_n / (Delta_m r_m Delta_{n+1} L)      (T.entry)
    H_n = Delta_{n+1} / (Delta_n r_n)                            (F.h)
    R_k[m][n] = acc[m][n] / (L Delta_n Delta_{m+1})              (the r's cancel)
    primal = dual at (m, n)  iff  acc[m][n] = L acc'[n][m]

where acc' is the same sum on the transposed factorization, whose S-side scale
is all ones, so the dual value is T.entry(m, n, L acc'[n][m]).  The checks
compare integers, pairs crosswise, and write ratio_text of those pairs; the T1
and T2 exports write entries(ratio_text).  No rational T_k is formed.
"""

from __future__ import annotations

from math import lcm
from operator import mul

from .errors import DepthError
from .families import Family, combine, mismatches
from .gaussborel import Factorization
from .rational import ratio_text
from .report import CheckReport, Violation
from .stepline import in_complement_J, n_minus_big, n_plus


def required_depth(D: int, q: int, p: int) -> int:
    """Factorization depth that fully determines T_1 and T_2 on a D x D window."""
    return max(n_plus(D - 1, q, 2), n_plus(D - 1, p, 2)) + 1  # n_plus grows with k


class RecurrenceTruncation:
    """D x D window of T_k as its integers acc and L over the factorization F,
    whose block shape q x p it reads, and its bands (see the module docstring)."""

    __slots__ = ("k", "size", "acc", "L", "F")

    def __init__(self, k: int, size: int, acc: list[list[int]], L: int, F: Factorization):
        self.k, self.size, self.acc, self.L, self.F = k, size, acc, L, F

    q = property(lambda self: self.F.q)
    p = property(lambda self: self.F.p)

    def entry(self, m: int, n: int, a: int | None = None) -> tuple[int, int]:
        """T_k[m][n] as (a r_n, Delta_m r_m Delta_{n+1} L), a = acc[m][n] unless given."""
        minors, r = self.F.minors, self.F.S_int.scale
        return (self.acc[m][n] if a is None else a) * r[n], minors[m] * r[m] * minors[n + 1] * self.L

    def entries(self, ratio) -> list[list]:
        """Entry (m, n) of T_k as ratio(*entry(m, n)), or ratio(0, 1) where acc is
        0: entry with its row and column products hoisted out of the loops."""
        minors, r, zero = self.F.minors, self.F.S_int.scale, ratio(0, 1)
        cols = list(zip(r, minors[1:]))
        return [[ratio(a * r_n, den_m * d_n) if a else zero for a, (r_n, d_n) in zip(row, cols)]
                for row, den_m in zip(self.acc, (minors[m] * r[m] * self.L for m in range(self.size)))]

    def row_band(self, n: int) -> tuple[int, int]:
        """[first, last] columns that may be nonzero in row n."""
        return n_minus_big(n, self.p, self.k), n_plus(n, self.q, self.k)

    def col_band(self, n: int) -> tuple[int, int]:
        """[first, last] rows that may be nonzero in column n."""
        return n_minus_big(n, self.q, self.k), n_plus(n, self.p, self.k)


def build_recurrence(F: Factorization, k: int, size: int, *, band: bool = False) -> RecurrenceTruncation:
    """T_k on a size x size window from the primal form S Lambda_{[q];k} S^-1,
    with F's block shape q x p.

    Entry (m, n) = sum over c <= m of S[m][c] * S^-1[i][n] with i = n_plus(c, q, k);
    the factorization must be deep enough that every shifted index stays inside.
    The sum runs over the integers F.S_int = (r, E, inv) and the minors Delta
    (the fraction-free LU form of Nakos, Turner and Williams, ACM SIGSAM
    Bull. 31, 1997, and of Zhou and Jeffrey, Front. Comput. Sci. China 2,
    2008), inv[n] being column n of S^-1's numerators from the diagonal down.
    With L = lcm(r), the denominators come out of each entry, leaving the
    integer acc[m][n] = sum_c E[m][c] r_c (L / r_i) inv[n][i - n].

    Past n_plus(m, q, k) every sum is empty.  With band=True, compute's route,
    row m is summed only from column n_minus_big(m, p, k) on and is 0 to its
    left.  That is exact: by the Hankel symmetry Lambda_{[q];k} M = M
    Lambda^T_{[p];k} and M = S^-1 H Sbar^-T, T_k = H Sbar^-T Lambda^T_{[p];k}
    Sbar^T H^-1, whose entry (m, n) sums Sbar^-T[m][i] Lambda^T[i][j]
    Sbar^T[j][n] over i >= m and j <= n (both Sbar factors are upper
    triangular) with i = n_plus(j, p, k) <= n_plus(n, p, k); so it vanishes
    unless m <= n_plus(n, p, k), that is n >= n_minus_big(m, p, k), which is
    by definition the least n with n_plus(n, p, k) >= m.  Every
    moment truncation is Hankel by construction (assemble_moments reads each
    block off its exponent pair), so the skipped sums are exact zeros
    whenever F exists.
    """
    q, p, (r, E, inv) = F.q, F.p, F.S_int
    need = max(n_plus(size - 1, q, k), n_plus(size - 1, p, k)) + 1
    if F.depth < need:
        raise DepthError(f"factorization depth {F.depth} < {need} needed for T_{k} at size "
                         f"{size}; extend to required_depth = {required_depth(size, q, p)}")
    big_l = lcm(*r)
    shifted = [n_plus(c, q, k) for c in range(size)]
    weight = [r[c] * (big_l // r[i]) for c, i in enumerate(shifted)]
    # S^-1 is lower triangular and shifted increasing: column n meets row
    # shifted[c] only from c = first[n] on; cols[n] holds those entries of inv[n]
    first = [n_minus_big(n, q, k) for n in range(size)]
    cols = [[inv[n][i - n] for i in shifted[f:]] for n, f in enumerate(first)]
    acc = []
    for m in range(size):
        row_m = [e * w for e, w in zip(E[m], weight)]
        lo = n_minus_big(m, p, k) if band else 0
        acc.append([0] * lo + [sum(map(mul, row_m[f:m + 1], col))
                               for f, col in zip(first[lo:], cols[lo:])])
    return RecurrenceTruncation(k, size, acc, big_l, F)


def check_dual_form(T: RecurrenceTruncation) -> CheckReport:
    """T_k from the primal form agrees entrywise with the dual form.

    With T' built from the transpose of T's factorization F, the dual entry (m, n) is
    T'[n][m] * H_m / H_n, entry (n, m) of the conjugate R' of T' (the
    transposed factorization has the same H); it equals T_k[m][n] exactly when
    acc[m][n] = L acc'[n][m].  A violation's text writes T.entry(m, n) and the
    dual value T.entry(m, n, L acc'[n][m]).
    """
    dual = build_recurrence(T.F.transpose(), k=T.k, size=T.size)  # k by keyword: bench/spans.py tags by it
    rep = CheckReport()
    for m, (row, col) in enumerate(zip(T.acc, zip(*dual.acc))):
        for n, (a, b) in enumerate(zip(row, col)):
            if a != T.L * b:
                rep.violations.append(Violation((T.k, m, n), f"primal {ratio_text(*T.entry(m, n))} "
                                                f"!= dual {ratio_text(*T.entry(m, n, T.L * b))}"))
        rep.checked += T.size
    return rep


def validate_band(T: RecurrenceTruncation) -> CheckReport:
    """Zero pattern, trailing 1s and boxed H-ratios of the rows of T_k.

    The column relations (zeros outside each column band, a leading 1 where n
    avoids J_{q;k}, a trailing H_{n_plus(n,p,k)} / H_n) land on the same
    entries with the same values, so the rows check each relation once: a
    zero is acc == 0, and the trailing 1 and the boxed H_n / H_first compare
    T.entry with 1 and with F.h's pairs by cross-multiplication.
    """
    rep = CheckReport()
    k, p, D, h = T.k, T.p, T.size, T.F.h
    for n, row in enumerate(T.acc):
        first, last = T.row_band(n)
        outside = [*range(first), *range(last + 1, D)]
        for c in outside:
            if row[c]:
                rep.violations.append(Violation((k, n, c), f"outside band: {ratio_text(*T.entry(n, c))}"))
        rep.checked += len(outside)
        if last < D:
            num, den = T.entry(n, last)
            if num != den:
                rep.violations.append(Violation((k, n, last), f"trailing entry {ratio_text(num, den)} != 1"))
            rep.checked += 1
        if in_complement_J(n, p, k):
            # n_plus(first, p, k) = n here; boxed value H_n / H_first.
            (num, den), (h_n, d_n), (h_f, d_f) = T.entry(n, first), h(n), h(first)
            if num * d_n * h_f != den * h_n * d_f:
                want = ratio_text(h_n * d_f, d_n * h_f)
                rep.violations.append(Violation((k, n, first), f"{ratio_text(num, den)} != H ratio {want}"))
            rep.checked += 1
    return rep


def recurrence_n_max(T: RecurrenceTruncation, a_count: int, b_count: int) -> int:
    """Largest n (exclusive) for which both entrywise relations are determined."""
    return min(n_minus_big(min(b_count, T.size), T.q, T.k), n_minus_big(min(a_count, T.size), T.p, T.k))


def check_recurrence_matrix(T: RecurrenceTruncation, A: Family, B: Family) -> CheckReport:
    """Both relations of R_k, coefficientwise, for every n below recurrence_n_max.

    x_k B_n is row n of R_k applied to the B rows; x_k A_n is column n of R_k,
    that is row n of its transpose, applied to the A columns.  On a family's
    row, multiplying by x_k moves column c = K*r + i to n_plus(c, r, k), the
    column of x_k times monomial K in slot i.  As R_k[m][i] = acc[m][i] /
    (L Delta_{m+1} Delta_i), the relations of n for B and A are multiplied by
    L Delta_{n+1} and L Delta_n; with member i over d_i, the right side is one
    combine over the Delta d_i, compared with the shifted row n over d_n by
    mismatches.  validate_band certifies that everything outside the band
    vanishes.  An identity of coefficients holds at every point, so no
    pointwise check is needed.
    """
    k, acc, L, minors = T.k, T.acc, T.L, T.F.minors
    rep = CheckReport()
    n_max = recurrence_n_max(T, len(A), len(B))
    if n_max == 0:
        rep.skipped.append("window too small for any recurrence row")
        return rep
    # (label, family, band, weights, offset of the relation's Delta, offset of each term's):
    # row n of R_k weighs B's rows, row n of R_k^T A's
    relations = (("B", B, T.row_band, acc, 1, 0), ("A", A, T.col_band, list(zip(*acc)), 0, 1))
    for label, fam, band, weights, own, other in relations:
        r, rows = fam.r, fam.rows
        for n in range(n_max):
            lo, top = band(n)
            got = combine((a, minors[i + other] * rows[i][0], rows[i][1])
                          for i in range(lo, top + 1) if (a := weights[n][i]))
            d, row = rows[n]
            f = L * minors[n + own]
            want = (d, {n_plus(c, r, k): f * v for c, v in row.items()})
            bad = {c % r for c in mismatches(want, got)}
            for idx in range(r):
                if idx in bad:
                    rep.violations.append(Violation((k, label, n, idx), "coefficient mismatch"))
                rep.checked += 1
    return rep
