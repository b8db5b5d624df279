"""Recurrence matrices T_k on truncations and the relations they encode.

T_k = S Lambda_{[q];k} S^-1 has a growing band: row n runs from column
n_minus_big(n, p, k) to a trailing 1 at column n_plus(n, q, k); column n runs
from row n_minus_big(n, q, k) (entry exactly 1 when n avoids J_{q;k}) to a
trailing entry H_{n_plus(n,p,k)} / H_n at row n_plus(n, p, k).

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
"""

from __future__ import annotations

from bisect import bisect_left
from math import lcm

from .errors import DepthError
from .families import Family
from .gaussborel import Factorization
from .rational import ZERO, common_denominator, rat
from .report import CheckReport, Violation
from .stepline import in_complement_J, n_minus_big, n_plus


def required_depth(D: int, q: int, p: int) -> int:
    """Factorization depth that fully determines T_1 and T_2 on a D x D window."""
    best = 0
    for k in (1, 2):
        best = max(best, n_plus(D - 1, q, k), n_plus(D - 1, p, k))
    return best + 1


class RecurrenceTruncation:
    """Dense D x D window of T_k with its band descriptors and the H diagonal."""

    __slots__ = ("k", "q", "p", "size", "data", "H", "_R")

    def __init__(self, k: int, q: int, p: int, size: int, data: list[list], H: list):
        self.k = k
        self.q = q
        self.p = p
        self.size = size
        self.data = data
        self.H = H
        self._R = None

    @property
    def R(self) -> list[dict]:
        """R_k = H^-1 T_k H, built on first read: row m is {c: T_k[m][c] H_c / H_m}
        over the nonzero entries of row m, its band.  Only verify's checks read it."""
        if self._R is None:
            H = self.H
            self._R = [{c: t * H[c] / H[m] for c, t in enumerate(row) if t}
                       for m, row in enumerate(self.data)]
        return self._R

    def row_band(self, n: int) -> tuple[int, int]:
        """[first, last] columns that may be nonzero in row n."""
        return n_minus_big(n, self.p, self.k), n_plus(n, self.q, self.k)

    def col_band(self, n: int) -> tuple[int, int]:
        """[first, last] rows that may be nonzero in column n."""
        return n_minus_big(n, self.q, self.k), n_plus(n, self.p, self.k)


def build_recurrence(F: Factorization, q: int, p: int, k: int, target_size: int) -> RecurrenceTruncation:
    """T_k on a target_size window from the primal form S Lambda_{[q];k} S^-1.

    Entry (m, n) = sum over c <= m of S[m][c] * S^-1[i][n] with i = n_plus(c, q, k);
    the factorization must be deep enough that every shifted index stays inside.
    The sum runs over the integers F.S_int = (r, E, Mi) and the minors Delta
    (the fraction-free LU form of Nakos, Turner and Williams, ACM SIGSAM
    Bull. 31, 1997, and of Zhou and Jeffrey, Front. Comput. Sci. China 2,
    2008).  With L = lcm(r), each entry is one integer inner sum and one rat():

        T[m][n] = r_n sum_c E[m][c] r_c (L / r_i) Mi[i][n] / (Delta_m r_m Delta_{n+1} L)
    """
    need = max(n_plus(target_size - 1, q, k), n_plus(target_size - 1, p, k)) + 1
    if F.depth < need:
        raise DepthError(
            f"factorization depth {F.depth} < {need} needed for T_{k} at size "
            f"{target_size}; extend to required_depth = {required_depth(target_size, q, p)}",
            required=required_depth(target_size, q, p),
        )
    (r, E, Mi), minors = F.S_int, F.minors
    big_l = lcm(*r)
    shifted = [n_plus(c, q, k) for c in range(target_size)]
    weight = [r[c] * (big_l // r[i]) for c, i in enumerate(shifted)]
    # S^-1 is lower triangular and shifted increasing: column n meets row
    # shifted[c] only from c = first[n] on
    first = [bisect_left(shifted, n) for n in range(target_size)]
    data = []
    for m in range(target_size):
        row_m = [e * w for e, w in zip(E[m], weight)]
        den_m = minors[m] * r[m] * big_l
        row = []
        for n in range(target_size):
            acc = sum(row_m[c] * Mi[shifted[c]][n] for c in range(first[n], m + 1))
            row.append(rat(acc * r[n], den_m * minors[n + 1]) if acc else ZERO)
        data.append(row)
    return RecurrenceTruncation(k, q, p, target_size, data, list(F.H))


def check_dual_form(T: RecurrenceTruncation, F: Factorization) -> CheckReport:
    """T_k from the primal form agrees entrywise with the dual form.

    With T' built from the transposed factorization, the dual entry (m, n) is
    T'[n][m] * H_m / H_n, entry (n, m) of the conjugate band R' of T' (the
    transposed factorization has the same H).
    """
    dual = build_recurrence(F.transpose(), T.p, T.q, T.k, T.size).R
    rep = CheckReport(f"dual_T{T.k}")
    for m in range(T.size):
        for n in range(T.size):
            want = dual[n].get(m, ZERO)
            if T.data[m][n] != want:
                rep.violations.append(
                    Violation("dual", (T.k, m, n), f"primal {T.data[m][n]} != dual {want}")
                )
            rep.checked += 1
    return rep


def validate_band(T: RecurrenceTruncation) -> CheckReport:
    """Zero pattern, trailing 1s and boxed H-ratios of the rows of T_k.

    The column relations (zeros outside each column band, a leading 1 where n
    avoids J_{q;k}, a trailing H_{n_plus(n,p,k)} / H_n) land on the same
    entries with the same values, so the rows check each relation once.
    """
    rep = CheckReport(f"band_T{T.k}")
    k, p, D = T.k, T.p, T.size
    for n in range(D):
        first, last = T.row_band(n)
        for c in range(D):
            if c < first or c > last:
                if T.data[n][c] != 0:
                    rep.violations.append(
                        Violation("band", (k, n, c), f"outside band: {T.data[n][c]}")
                    )
                rep.checked += 1
        if last < D:
            if T.data[n][last] != 1:
                rep.violations.append(
                    Violation("band", (k, n, last), f"trailing entry {T.data[n][last]} != 1")
                )
            rep.checked += 1
        if in_complement_J(n, p, k):
            # first = n - p*F_k^-(n/p) here; boxed value H_n / H_first.
            want = T.H[n] / T.H[first]
            if T.data[n][first] != want:
                rep.violations.append(
                    Violation("band", (k, n, first), f"{T.data[n][first]} != H ratio {want}")
                )
            rep.checked += 1
    return rep


def recurrence_n_max(T: RecurrenceTruncation, a_count: int, b_count: int) -> int:
    """Largest n (exclusive) for which both entrywise relations are determined."""
    n = 0
    while True:
        top_b = n_plus(n, T.q, T.k)
        top_a = n_plus(n, T.p, T.k)
        if top_b >= b_count or top_a >= a_count or top_b >= T.size or top_a >= T.size:
            return n
        n += 1


def check_recurrence_matrix(T: RecurrenceTruncation, A: Family, B: Family) -> CheckReport:
    """Both relations of R_k, coefficientwise, for every n below recurrence_n_max.

    x_k B_n is row n of R_k applied to the B rows; x_k A_n is column n of R_k,
    that is row n of its transpose, applied to the A columns.  On a family's
    row, multiplying by x_k moves column c = K*r + i to n_plus(c, r, k), the
    column of x_k times monomial K in slot i.  With the member n over d_n and
    the weights R_k[n][i] / d_i brought to one common denominator, each
    relation is one integer sum over the band per column.  validate_band
    separately certifies that everything outside the band vanishes.  An
    identity of coefficients holds at every point, so no pointwise check is
    needed.
    """
    k = T.k
    rep = CheckReport(f"recurrence_matrix_T{k}")
    n_max = recurrence_n_max(T, len(A), len(B))
    if n_max == 0:
        rep.skipped.append("window too small for any recurrence row")
        return rep
    R = T.R  # row n of R_k weighs B's rows, row n of R_k^T A's
    relations = (("B", B, T.row_band, lambda n, i: R[n].get(i, ZERO)),
                 ("A", A, T.col_band, lambda n, i: R[i].get(n, ZERO)))
    for label, fam, band, weight in relations:
        r, rows = fam.r, fam.rows
        for n in range(n_max):
            lo, top = band(n)
            terms = [(i, w) for i in range(lo, top + 1) if (w := weight(n, i)) != 0]
            _, nums = common_denominator([rat(1, rows[n][0])] + [w / rows[i][0] for i, w in terms])
            want = {n_plus(c, r, k): nums[0] * v for c, v in rows[n][1].items()}
            got: dict[int, int] = {}
            for (i, _), e in zip(terms, nums[1:]):
                for c, v in rows[i][1].items():
                    got[c] = got.get(c, 0) + e * v
            bad = {c % r for c in want.keys() | got.keys() if want.get(c, 0) != got.get(c, 0)}
            for idx in range(r):
                if idx in bad:
                    rep.violations.append(
                        Violation("recurrence_matrix", (k, label, n, idx), "coefficient mismatch")
                    )
                rep.checked += 1
    return rep
