"""Christoffel-Darboux kernels, their block formula, and the ABC identity.

K^[n](x, y) is the p x q matrix sum of A_i(x) B_i(y) over i <= n.  The CD
formula rewrites (x_k - y_k) K^[n] through four finite blocks of the
recurrence matrix; as with the recurrences, the values that make the formula
exact are those of the conjugate R_k = H^-1 T_k H, while the block shapes and
the printed labels follow T_k itself.  The ABC identity expresses the same
kernel through the inverse of the leading (n+1) x (n+1) moment truncation,
computed here by an independent pivoted elimination.

The family side of every identity reads a KernelTable: both families at a
point pair, each side over one denominator, and every K^[n](x, y) as an
integer prefix sum; one table per pair serves every n and k.  Both identities
are compared fraction-free, as in gaussborel (E. H. Bareiss, Math. Comp. 22,
1968): each side is an integer sum over its own denominator, and the two are
cross-multiplied.  The ABC right side never reads the table.
"""

from __future__ import annotations

from itertools import accumulate
from operator import mul

from .errors import Breakdown, DepthError
from .families import Family, monomial_ints, pairings
from .moments import MomentTruncation
from .rational import ZERO, as_rat, common_denominator, rat
from .recurrence import RecurrenceTruncation
from .report import CheckReport, Violation
from .stepline import n_minus_big, n_plus


class KernelTable:
    """Both families at one point pair, with K^[n](x, y) for every n < count.

    a[i] = A_i(x) = a_int[i] / d_a and b[i] = B_i(y) = b_int[i] / d_b
    (Family.values); kernels_int[n] sums the outer products a_int[i] b_int[i]
    over i <= n, so K^[n](x, y) = kernels_int[n] / den with den = d_a d_b.
    """

    __slots__ = ("x", "y", "a", "b", "den", "a_int", "b_int", "kernels_int")

    def __init__(self, A: Family, B: Family, x: tuple, y: tuple, count: int):
        if count > min(len(A), len(B)):
            raise DepthError(f"kernel index {count - 1} outside family range", required=count)
        self.x, self.y = x, y
        self.a, self.b = A.values(*x, count), B.values(*y, count)
        (d_a, self.a_int), (d_b, self.b_int) = map(_integer_rows, (self.a, self.b))
        self.den = d_a * d_b
        outer = ([[va * vb for vb in b_i] for va in a_i] for a_i, b_i in zip(self.a_int, self.b_int))
        self.kernels_int = list(accumulate(
            outer, lambda s, t: [[u + v for u, v in zip(r, w)] for r, w in zip(s, t)]))

    def kernel(self, n: int) -> list[list]:
        """K^[n](x, y) as rationals."""
        return [[rat(v, self.den) for v in row] for row in self.kernels_int[n]]


def _integer_rows(rows: list[list]) -> tuple[int, list[list[int]]]:
    """(d, ints) with rows[i][j] = ints[i][j] / d, d the lcm of every denominator."""
    width = len(rows[0]) if rows else 1
    d, flat = common_denominator(v for row in rows for v in row)
    return d, [flat[i:i + width] for i in range(0, len(flat), width)]


def _require_tabled(tables: list[KernelTable], count: int) -> None:
    if any(len(table.kernels_int) < count for table in tables):
        raise DepthError(f"point-pair tables end before family index {count - 1}", required=count)


def kernel_eval(A: Family, B: Family, n: int, x: tuple, y: tuple) -> list[list]:
    """Exact p x q kernel value at a point pair, summed in reduced rationals: each
    partial sum is a K^[m] with a small denominator, where a KernelTable's is not."""
    if n >= min(len(A), len(B)):
        raise DepthError(f"kernel index {n} outside family range", required=n + 1)
    a, b = A.values(*x, n + 1), B.values(*y, n + 1)
    return [[sum((a_i[i] * b_i[j] for a_i, b_i in zip(a, b)), ZERO) for j in range(B.r)]
            for i in range(A.r)]


class CDBlocks:
    """The four index ranges and matrix blocks of the CD formula at (n, k).

    tgt_rows x tgt_cols holds the lower-left block of T_k (rows n+1 ..
    n_plus(n, p, k), columns n_minus_big(n+1, p, k) .. n); src_rows x src_cols
    holds the upper-right block (rows n_minus_big(n+1, q, k) .. n, columns
    n+1 .. n_plus(n, q, k)).  t_* carry plain T_k values (the printed labels);
    r_* carry the values of R_k = H^-1 T_k H (RecurrenceTruncation.R) used by
    the exact formula.  top is the largest family index the blocks reach.
    """

    __slots__ = ("k", "n", "q", "p", "tgt_rows", "tgt_cols", "src_rows", "src_cols",
                 "t_tgt", "t_src", "r_tgt", "r_src", "top")

    def __init__(self, T: RecurrenceTruncation, n: int):
        k, q, p = T.k, T.q, T.p
        self.k, self.n, self.q, self.p = k, n, q, p
        self.tgt_rows = range(n + 1, n_plus(n, p, k) + 1)
        self.tgt_cols = range(n_minus_big(n + 1, p, k), n + 1)
        self.src_rows = range(n_minus_big(n + 1, q, k), n + 1)
        self.src_cols = range(n + 1, n_plus(n, q, k) + 1)
        self.top = max(self.tgt_rows[-1], self.src_cols[-1])
        if self.top >= T.size:
            raise DepthError(f"T_{k} window {T.size} too small for CD blocks at n={n}",
                             required=self.top + 1)
        R = T.R
        self.t_tgt = [[T.data[m][c] for c in self.tgt_cols] for m in self.tgt_rows]
        self.t_src = [[T.data[m][c] for c in self.src_cols] for m in self.src_rows]
        self.r_tgt = [[R[m].get(c, ZERO) for c in self.tgt_cols] for m in self.tgt_rows]
        self.r_src = [[R[m].get(c, ZERO) for c in self.src_cols] for m in self.src_rows]


def cd_blocks(T: RecurrenceTruncation, n: int, k: int) -> CDBlocks:
    if k != T.k:
        raise ValueError(f"requested k={k} but T was built for k={T.k}")
    return CDBlocks(T, n)


def _point(x: tuple) -> str:
    return f"({x[0]}, {x[1]})"


def check_cd_formula(blocks: CDBlocks, tables: list[KernelTable]) -> CheckReport:
    """Exact CD identity at every tabled point pair, as p x q matrices.

    The right side is a_gt^T (R_tgt b_n) - a_n^T (R_src b_gt).  With both
    blocks' R entries over one denominator d_R it is S / (den d_R), S an integer
    sum, so for x_k - y_k = u / v the identity is u d_R kernels_int[n] = v S.
    """
    n, k = blocks.n, blocks.k
    p, q = blocks.p, blocks.q
    _require_tabled(tables, blocks.top + 1)
    d_r, nums = common_denominator(
        v for block in (blocks.r_tgt, blocks.r_src) for row in block for v in row)
    nums = iter(nums)  # block row m as (m, [(column, signed R entry)]), zeros dropped
    rows = [(m, [(c, sign * e) for c, e in zip(cols, nums) if e])
            for row_range, cols, sign in ((blocks.tgt_rows, blocks.tgt_cols, 1),
                                          (blocks.src_rows, blocks.src_cols, -1))
            for m in row_range]
    rep = CheckReport(f"cd_T{k}")
    for table in tables:
        x, y = table.x, table.y
        xk, yk = as_rat(x[k - 1]), as_rat(y[k - 1])
        a, b = table.a_int, table.b_int
        rbs = [(a[m], [sum(e * b[c][j] for c, e in terms) for j in range(q)])
               for m, terms in rows if terms]
        s = [[sum(a_m[i] * rb[j] for a_m, rb in rbs) for j in range(q)] for i in range(p)]
        u = d_r * (xk.numerator * yk.denominator - yk.numerator * xk.denominator)
        v = xk.denominator * yk.denominator
        if any(u * kv != v * sv for k_row, s_row in zip(table.kernels_int[n], s)
               for kv, sv in zip(k_row, s_row)):
            rep.violations.append(
                Violation("cd", (k, n, _point(x), _point(y)), "(x_k - y_k) K^[n] != block sum")
            )
        rep.checked += 1
    return rep


def integer_adjugate(a: list[list[int]]) -> tuple[int, list[list[int]]]:
    """(det(a), adj(a)) of a square integer matrix, by fraction-free Gauss-Jordan.

    Bareiss' integer-preserving step runs on [a | I], every row i != col
    becoming (piv row_i - row_i[col] row_col) / prev, each division exact,
    with a row swap wherever the pivot is zero.  The left block ends as the
    last pivot, det(a) up to the sign of the swaps, times I, and the right
    block as that pivot times a^-1.  A singular a raises Breakdown(len(a) - 1).
    """
    size = len(a)
    work = [list(row) + [int(i == j) for j in range(size)] for i, row in enumerate(a)]
    prev, sign = 1, 1
    for col in range(size):
        pivot_row = next((r for r in range(col, size) if work[r][col]), None)
        if pivot_row is None:
            raise Breakdown(size - 1)
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            sign = -sign
        row_c = work[col]
        piv = row_c[col]
        for r in range(size):
            if r != col:
                f = work[r][col]
                work[r] = [(piv * v - f * w) // prev for v, w in zip(work[r], row_c)]
        prev = piv
    return sign * prev, [[sign * v for v in row[size:]] for row in work]


def check_abc(M: MomentTruncation, n: int, tables: list[KernelTable]) -> CheckReport:
    """Tabled K^[n] equals the inverse-moment form at every point pair, exactly.

    The oracle reads only the moments, never the factorization.  Row i of the
    (n+1) corner of M is scaled to integers by the lcm r_i of its denominators,
    and integer_adjugate on it gives M^-1 = adj diag(r) / det, once for all
    pairs.  Row m of X_[p]^T(x) has one nonzero, the monomial at position
    m // p, in slot m % p; with integer monomial tables X / d_x and Y / d_y the
    right side is G / (d_x d_y det), G[i][j] summing X[m // p] adj[m][m'] r_m'
    Y[m' // q] over m = i (mod p) and m' = j (mod q).
    """
    p, q = M.p, M.q
    _require_tabled(tables, n + 1)
    scaled = [common_denominator(row) for row in M.corner(n + 1).data]
    det, adj = integer_adjugate([nums for _, nums in scaled])
    weighted = [[v * r for v, (r, _) in zip(row, scaled)] for row in adj]  # adj diag(r)
    rep = CheckReport("abc")
    for table in tables:
        x, y = table.x, table.y
        d_x, X = monomial_ints(x, n // p + 1)
        d_y, Y = monomial_ints(y, n // q + 1)
        y_col = [Y[m // q] for m in range(n + 1)]
        wy = [[sum(map(mul, row[j::q], y_col[j::q])) for j in range(q)] for row in weighted]
        g = [[sum(X[m // p] * wy[m][j] for m in range(i, n + 1, p)) for j in range(q)]
             for i in range(p)]
        scale = d_x * d_y * det
        if any(kv * scale != table.den * gv for k_row, g_row in zip(table.kernels_int[n], g)
               for kv, gv in zip(k_row, g_row)):
            rep.violations.append(
                Violation("abc", (n, _point(x), _point(y)), "K^[n] != X^T M^-1 X")
            )
        rep.checked += 1
    return rep


_DEFAULT_SPOT_PAIRS = [
    ((rat(1, 2), rat(-1, 3)), (rat(-2, 5), rat(1, 7))),
    ((rat(3, 4), rat(1, 2)), (rat(1, 5), rat(-1, 2))),
    ((rat(-1, 3), rat(2, 3)), (rat(0), rat(1, 4))),
]


def check_reproduction(A: Family, B: Family, gram: list[list], n: int,
                       point_pairs: list | None = None) -> CheckReport:
    """Kernel reproduces itself under the measure pairing.

    gram is the pairing matrix of the two families (families.pairing_matrix).
    The double integral of K^[n](x, .) dmu K^[n](., y), expanded through its
    leading (n+1) corner, must equal K^[n](x, y) at each point pair.  That the
    corner is the identity is check_biorthogonality's job, not this one's.
    """
    if n >= min(len(A), len(B), len(gram)):
        raise DepthError(f"reproduction index {n} outside family range", required=n + 1)
    p, q = A.r, B.r
    rep = CheckReport("reproduction")
    if point_pairs is None:
        point_pairs = _DEFAULT_SPOT_PAIRS
    if not point_pairs:
        rep.skipped.append("no point pairs given")
    for x, y in point_pairs:
        table = KernelTable(A, B, x, y, n + 1)
        a_x, b_y = table.a, table.b
        out = [[rat(0) for _ in range(q)] for _ in range(p)]
        for i in range(n + 1):
            for j in range(n + 1):
                g = gram[i][j]
                if g == 0:
                    continue
                for a_idx in range(p):
                    for b_idx in range(q):
                        out[a_idx][b_idx] += a_x[i][a_idx] * g * b_y[j][b_idx]
        if out != table.kernel(n):
            rep.violations.append(
                Violation("reproduction", (n, _point(x), _point(y)), "kernel not reproduced")
            )
        rep.checked += 1
    return rep


def is_monic_of_grlex_degree(P: list[list[dict]], I: int) -> bool:
    """Leading term of the matrix polynomial is monomial_I times the identity.

    P is a grid of {monomial position: rational} maps that store no zeros.
    """
    if any(len(row) != len(P) for row in P):
        return False
    return all(max(e, default=-1) == I and e.get(I) == 1 if r == c else max(e, default=-1) < I
               for r, row in enumerate(P) for c, e in enumerate(row))


def _projection_threshold(I: int, r: int) -> int:
    return I * r + r - 1


_DEFAULT_PROJECTION_POINTS = [
    (rat(1, 2), rat(1, 3)), (rat(-1, 4), rat(2, 5)), (rat(1), rat(-1)),
    (rat(-2, 3), rat(-1, 5)), (rat(3, 7), rat(5, 8)),
]


def check_projection(A: Family, B: Family, M: MomentTruncation, n: int,
                     P: list[list[dict]], points: list | None = None) -> CheckReport:
    """Integral of K^[n](x, .) against dmu P recovers P(x), above the threshold.

    P is a p x p matrix polynomial, a grid of {monomial position: rational}
    maps that store no zeros; it must be monic of grlex-degree I with
    n >= I*p + p - 1.  Calls below the threshold are precondition errors, not
    identity failures.  The columns of P form one Family: the inner integrals
    of B_i against them are the product C_B M C_P with the moment truncation
    M, and its values at x give P(x).  The dual direction, the integral of
    P dmu K^[n](., y) recovering P(y), is this check on the transposed
    problem: check_projection(B, A, M.transpose(), n, list(zip(*P))).
    """
    p = M.p
    if len(P) != p or any(len(row) != p for row in P):
        raise ValueError(f"projection needs a {p} x {p} matrix polynomial")
    I = max(max(e, default=-1) for row in P for e in row)
    if not is_monic_of_grlex_degree(P, I):
        raise ValueError("P is not monic of a definite grlex degree")
    if n < _projection_threshold(I, p):
        raise ValueError(
            f"n={n} below projection threshold {_projection_threshold(I, p)} for I={I}"
        )
    if n >= min(len(A), len(B)):
        raise DepthError(f"projection index {n} outside family range", required=n + 1)
    columns = Family.from_members(p, zip(*P))  # member a1 is column a1 of P
    # inner[i][a1] = integral of B_i dmu column a1 of P
    inner = pairings(B.head(n + 1), columns, M)
    rep = CheckReport("projection")
    if points is None:
        points = _DEFAULT_PROJECTION_POINTS
    if not points:
        rep.skipped.append("no points given")
    for x in points:
        a_x = A.values(*x, n + 1)
        p_x = columns.values(*x, p)
        for a0 in range(p):
            for a1 in range(p):
                got = rat(0)
                for i in range(n + 1):
                    if a_x[i][a0] != 0 and inner[i][a1] != 0:
                        got += a_x[i][a0] * inner[i][a1]
                want = p_x[a1][a0]
                if got != want:
                    rep.violations.append(
                        Violation("projection", (n, a0, a1, _point(x)), f"{got} != P(x) = {want}")
                    )
                rep.checked += 1
    return rep
