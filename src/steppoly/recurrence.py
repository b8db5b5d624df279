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

from .bipoly import BiPoly
from .errors import DepthError
from .families import Family, FamilyA, FamilyB
from .gaussborel import Factorization
from .linalg import transpose
from .rational import rat
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

    __slots__ = ("k", "q", "p", "size", "data", "H")

    def __init__(self, k: int, q: int, p: int, size: int, data: list[list], H: list):
        self.k = k
        self.q = q
        self.p = p
        self.size = size
        self.data = data
        self.H = H

    def __getitem__(self, mn: tuple[int, int]):
        m, n = mn
        return self.data[m][n]

    def conjugate(self) -> list[list]:
        """R_k = H^-1 T_k H: entry (m, n) is T_k[m][n] * H_n / H_m."""
        H = self.H
        return [[t * H[n] / H[m] if t != 0 else t for n, t in enumerate(row)]
                for m, row in enumerate(self.data)]

    def row_band(self, n: int) -> tuple[int, int]:
        """[first, last] columns that may be nonzero in row n."""
        return n_minus_big(n, self.p, self.k), n_plus(n, self.q, self.k)

    def col_band(self, n: int) -> tuple[int, int]:
        """[first, last] rows that may be nonzero in column n."""
        return n_minus_big(n, self.q, self.k), n_plus(n, self.p, self.k)


def build_recurrence(F: Factorization, q: int, p: int, k: int, target_size: int) -> RecurrenceTruncation:
    """T_k on a target_size window from the primal form S Lambda_{[q];k} S^-1.

    Entry (m, n) = sum over c <= m of S[m][c] * S^-1[n_plus(c, q, k)][n]; the
    factorization must be deep enough that every shifted index stays inside.
    """
    need = max(n_plus(target_size - 1, q, k), n_plus(target_size - 1, p, k)) + 1
    if F.depth < need:
        raise DepthError(
            f"factorization depth {F.depth} < {need} needed for T_{k} at size "
            f"{target_size}; extend to required_depth = {required_depth(target_size, q, p)}",
            required=required_depth(target_size, q, p),
        )
    S, S_inv = F.S, F.S_inv
    data = []
    for m in range(target_size):
        row = []
        for n in range(target_size):
            acc = rat(0)
            for c in range(m + 1):
                s_mc = S[m][c]
                if s_mc == 0:
                    continue
                shifted = n_plus(c, q, k)
                if shifted >= n:  # S^-1 is lower triangular
                    acc += s_mc * S_inv[shifted][n]
            row.append(acc)
        data.append(row)
    return RecurrenceTruncation(k, q, p, target_size, data, list(F.H))


def check_dual_form(T: RecurrenceTruncation, F: Factorization) -> CheckReport:
    """T_k from the primal form agrees entrywise with the dual form.

    With T' built from the transposed factorization, the dual entry (m, n) is
    T'[n][m] * H_m / H_n.
    """
    dual = build_recurrence(F.transpose(), T.p, T.q, T.k, T.size).data
    H = F.H
    rep = CheckReport(f"dual_T{T.k}")
    for m in range(T.size):
        for n in range(T.size):
            want = dual[n][m] * H[m] / H[n]
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


def _relations(T: RecurrenceTruncation, A: Family, B: Family) -> tuple:
    """Both relations of R_k as (label, family, band of n, coefficient rows).

    x_k B_n is row n of R_k applied to the B rows; x_k A_n is column n of R_k,
    that is row n of its transpose, applied to the A columns.
    """
    R = T.conjugate()
    return ("B", B, T.row_band, R), ("A", A, T.col_band, transpose(R))


def check_recurrences(
    T: RecurrenceTruncation, A: FamilyA, B: FamilyB, points: list[tuple]
) -> CheckReport:
    """Entrywise recurrences for both families at the given points, exactly.

    Uses the H-conjugated coefficients (see module docstring); the sums run
    over the band descriptors, and validate_band separately certifies that
    everything outside the band vanishes.
    """
    k = T.k
    rep = CheckReport(f"recurrence_T{k}")
    n_max = recurrence_n_max(T, len(A), len(B))
    if n_max == 0:
        rep.skipped.append("window too small for any recurrence row")
        return rep
    relations = _relations(T, A, B)
    for x1, x2 in points:
        xk = x1 if k == 1 else x2
        for label, fam, band, R in relations:
            vals = [fam.eval(i, x1, x2) for i in range(max(band(m)[1] for m in range(n_max)) + 1)]
            for n in range(n_max):
                lo, top = band(n)
                for idx, v in enumerate(vals[n]):
                    rhs = rat(0)
                    for i in range(lo, top + 1):
                        if R[n][i] != 0:
                            rhs += R[n][i] * vals[i][idx]
                    if xk * v != rhs:
                        rep.violations.append(
                            Violation("recurrence", (k, label, n, idx, str(x1), str(x2)),
                                      f"residual {xk * v - rhs}")
                        )
                    rep.checked += 1
    return rep


def check_recurrence_matrix(T: RecurrenceTruncation, A: FamilyA, B: FamilyB) -> CheckReport:
    """Coefficient-space restatement: R_k shifts the stacked coefficient vectors.

    Row n of R_k applied to the B rows must equal x_k * B_n coefficientwise,
    and column n applied to the A columns must equal x_k * A_n; checked on
    every row/column whose band is inside the truncation.
    """
    k = T.k
    rep = CheckReport(f"recurrence_matrix_T{k}")
    n_max = recurrence_n_max(T, len(A), len(B))
    for label, fam, band, R in _relations(T, A, B):
        for n in range(n_max):
            lo, top = band(n)
            for idx, pol in enumerate(fam.members[n]):
                got = BiPoly.zero()
                for i in range(lo, top + 1):
                    if R[n][i] != 0:
                        got = got.add(fam.poly(i, idx).mul_scalar(R[n][i]))
                if pol.mul_by_variable(k) != got:
                    rep.violations.append(
                        Violation("recurrence_matrix", (k, label, n, idx), "coefficient mismatch")
                    )
                rep.checked += 1
    return rep
