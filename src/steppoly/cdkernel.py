"""Christoffel-Darboux kernels, their block formula, and the ABC identity.

K^[n](x, y) is the p x q matrix sum of A_i(x) B_i(y) over i <= n.  The CD
formula rewrites (x_k - y_k) K^[n] through four finite blocks of the
recurrence matrix; as with the recurrences, the values that make the formula
exact are those of the conjugate R_k = H^-1 T_k H, while the block shapes and
the printed labels follow T_k itself.  The ABC identity expresses the same
kernel through the inverse of the leading (n+1) x (n+1) moment truncation,
computed here by an independent pivoted elimination.

The family side of every identity reads a KernelTable: both families
evaluated once at a point pair, each through one monomial table per point,
and every K^[n](x, y) as a prefix sum over i.  One table per pair serves
every n and both k of the CD checks and every n of the ABC check; the ABC
right side X^T M^-1 X never reads it.
"""

from __future__ import annotations

from .bipoly import PolyMatrix
from .errors import DepthError
from .families import Family, FamilyA, FamilyB, pairings
from .linalg import gauss_jordan_inverse, matmul, transpose
from .moments import MomentTruncation, monomial_value
from .rational import as_rat, rat
from .recurrence import RecurrenceTruncation
from .report import CheckReport, Violation
from .stepline import n_minus_big, n_plus


class KernelTable:
    """Both families at one point pair, with K^[n](x, y) for every n < count.

    a[i] = A_i(x) and b[i] = B_i(y) (Family.values); kernels[n] is the prefix
    sum of the outer products a[i] b[i] over i <= n.
    """

    __slots__ = ("x", "y", "a", "b", "kernels")

    def __init__(self, A: Family, B: Family, x: tuple, y: tuple, count: int):
        if count > min(len(A), len(B)):
            raise DepthError(f"kernel index {count - 1} outside family range", required=count)
        self.x, self.y = x, y
        self.a = A.values(*x, count)
        self.b = B.values(*y, count)
        self.kernels = []
        for a_i, b_i in zip(self.a, self.b):
            term = [[va * vb for vb in b_i] for va in a_i]
            if self.kernels:
                term = [[s + t for s, t in zip(r, u)] for r, u in zip(self.kernels[-1], term)]
            self.kernels.append(term)


def _require_tabled(tables: list[KernelTable], count: int) -> None:
    if any(len(table.kernels) < count for table in tables):
        raise DepthError(f"point-pair tables end before family index {count - 1}", required=count)


def kernel_eval(A: FamilyA, B: FamilyB, n: int, x: tuple, y: tuple) -> list[list]:
    """Exact p x q kernel value at a point pair."""
    return KernelTable(A, B, x, y, n + 1).kernels[n]


class CDBlocks:
    """The four index ranges and matrix blocks of the CD formula at (n, k).

    tgt_rows x tgt_cols holds the lower-left block of T_k (rows n+1 ..
    n_plus(n, p, k), columns n_minus_big(n+1, p, k) .. n); src_rows x src_cols
    holds the upper-right block (rows n_minus_big(n+1, q, k) .. n, columns
    n+1 .. n_plus(n, q, k)).  t_* carry plain T_k values (the printed labels);
    r_* carry the H-conjugated values used by the exact formula.  top is the
    largest family index the blocks reach.
    """

    __slots__ = (
        "k", "n", "q", "p", "tgt_rows", "tgt_cols", "src_rows", "src_cols",
        "t_tgt", "t_src", "r_tgt", "r_src", "top",
    )

    def __init__(self, T: RecurrenceTruncation, n: int):
        k, q, p = T.k, T.q, T.p
        self.k, self.n, self.q, self.p = k, n, q, p
        self.tgt_rows = range(n + 1, n_plus(n, p, k) + 1)
        self.tgt_cols = range(n_minus_big(n + 1, p, k), n + 1)
        self.src_rows = range(n_minus_big(n + 1, q, k), n + 1)
        self.src_cols = range(n + 1, n_plus(n, q, k) + 1)
        self.top = max(self.tgt_rows[-1], self.src_cols[-1])
        if self.top >= T.size:
            raise DepthError(
                f"T_{k} window {T.size} too small for CD blocks at n={n}",
                required=self.top + 1,
            )
        H = T.H
        self.t_tgt = [[T.data[m][c] for c in self.tgt_cols] for m in self.tgt_rows]
        self.t_src = [[T.data[m][c] for c in self.src_cols] for m in self.src_rows]
        self.r_tgt = [
            [T.data[m][c] * H[c] / H[m] for c in self.tgt_cols] for m in self.tgt_rows
        ]
        self.r_src = [
            [T.data[m][c] * H[c] / H[m] for c in self.src_cols] for m in self.src_rows
        ]


def cd_blocks(T: RecurrenceTruncation, n: int, k: int) -> CDBlocks:
    if k != T.k:
        raise ValueError(f"requested k={k} but T was built for k={T.k}")
    return CDBlocks(T, n)


def _point(x: tuple) -> str:
    return f"({x[0]}, {x[1]})"


def check_cd_formula(blocks: CDBlocks, tables: list[KernelTable]) -> CheckReport:
    """Exact CD identity at every tabled point pair, as p x q matrices."""
    n, k = blocks.n, blocks.k
    p, q = blocks.p, blocks.q
    _require_tabled(tables, blocks.top + 1)
    rep = CheckReport(f"cd_T{k}")
    for table in tables:
        x, y = table.x, table.y
        xk = as_rat(x[0] if k == 1 else x[1])
        yk = as_rat(y[0] if k == 1 else y[1])
        lhs = [[(xk - yk) * v for v in row] for row in table.kernels[n]]

        a_gt = [table.a[m] for m in blocks.tgt_rows]   # |tgt_rows| vectors of length p
        b_n = [table.b[c] for c in blocks.tgt_cols]    # |tgt_cols| vectors of length q
        a_n = [table.a[m] for m in blocks.src_rows]
        b_gt = [table.b[c] for c in blocks.src_cols]

        rhs = [[rat(0) for _ in range(q)] for _ in range(p)]
        for a_vals, block, b_vals, sign in ((a_gt, blocks.r_tgt, b_n, 1),
                                            (a_n, blocks.r_src, b_gt, -1)):
            for ri, row in enumerate(block):
                for ci, t in enumerate(row):
                    if t == 0:
                        continue
                    t = sign * t
                    for a_idx in range(p):
                        va = a_vals[ri][a_idx]
                        if va == 0:
                            continue
                        for b_idx in range(q):
                            rhs[a_idx][b_idx] += va * t * b_vals[ci][b_idx]
        if lhs != rhs:
            rep.violations.append(
                Violation("cd", (k, n, _point(x), _point(y)), "(x_k - y_k) K^[n] != block sum")
            )
        rep.checked += 1
    return rep


def _monomials_t(r: int, n: int, x: tuple) -> list[list]:
    """X^T_[r](x) truncated to r x (n+1): scalar row m of X_[r] is the monomial
    at position m // r in unit slot m % r."""
    out = [[rat(0) for _ in range(n + 1)] for _ in range(r)]
    for m in range(n + 1):
        K, slot = divmod(m, r)
        out[slot][m] = monomial_value(K, *x)
    return out


def check_abc(M: MomentTruncation, n: int, tables: list[KernelTable]) -> CheckReport:
    """Tabled K^[n] equals the inverse-moment form at every point pair, exactly.

    The monomial vector truncations keep the first n+1 scalar entries.  The
    inverse of the (n+1) corner of the moment truncation M comes from pivoted
    Gauss-Jordan on the moments themselves, independent of the unpivoted
    factorization route, and is computed once for all pairs.
    """
    p, q = M.p, M.q
    _require_tabled(tables, n + 1)
    M_inv = gauss_jordan_inverse(M.corner(n + 1).data)
    rep = CheckReport("abc")
    for table in tables:
        x, y = table.x, table.y
        rhs = matmul(matmul(_monomials_t(p, n, x), M_inv), transpose(_monomials_t(q, n, y)))
        if table.kernels[n] != rhs:
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


def check_reproduction(A: FamilyA, B: FamilyB, gram: list[list], n: int,
                       point_pairs: list | None = None) -> CheckReport:
    """Kernel reproduces itself under the measure pairing.

    gram is the pairing matrix of the two families (families.pairing_matrix).
    The double integral of K^[n](x, .) dmu K^[n](., y), expanded through its
    leading (n+1) corner, must equal K^[n](x, y) at each point pair.  That the
    corner is the identity is check_biorthogonality's job, not this one's.
    """
    if n >= min(len(A), len(B), len(gram)):
        raise DepthError(f"reproduction index {n} outside family range", required=n + 1)
    p, q = A.p, B.q
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
        if out != table.kernels[n]:
            rep.violations.append(
                Violation("reproduction", (n, _point(x), _point(y)), "kernel not reproduced")
            )
        rep.checked += 1
    return rep


def is_monic_of_grlex_degree(P: PolyMatrix, I: int) -> bool:
    """Leading term of the matrix polynomial is monomial_I times the identity."""
    if P.rows != P.cols:
        return False
    for r in range(P.rows):
        for c in range(P.cols):
            e = P[r, c]
            if r == c:
                if e.grlex_pos != I or e.coeff(I) != 1:
                    return False
            elif e.grlex_pos >= I:
                return False
    return True


def _projection_threshold(I: int, r: int) -> int:
    return I * r + r - 1


_DEFAULT_PROJECTION_POINTS = [
    (rat(1, 2), rat(1, 3)), (rat(-1, 4), rat(2, 5)), (rat(1), rat(-1)),
    (rat(-2, 3), rat(-1, 5)), (rat(3, 7), rat(5, 8)),
]


def check_projection(A: Family, B: Family, M: MomentTruncation, n: int,
                     P: PolyMatrix, points: list | None = None) -> CheckReport:
    """Integral of K^[n](x, .) against dmu P recovers P(x), above the threshold.

    P must be a monic p x p matrix polynomial of grlex-degree I with
    n >= I*p + p - 1; calls below the threshold are precondition errors, not
    identity failures.  The inner integrals of B_i against the columns of P
    are the product C_B M C_P with the moment truncation M.  The dual
    direction, the integral of P dmu K^[n](., y) recovering P(y), is this
    check on the transposed problem:
    check_projection(B, A, M.transpose(), n, P.transpose()).
    """
    p = M.p
    if P.rows != p or P.cols != p:
        raise ValueError(f"projection needs a {p} x {p} matrix polynomial")
    I = P.grlex_pos_max()
    if not is_monic_of_grlex_degree(P, I):
        raise ValueError("P is not monic of a definite grlex degree")
    if n < _projection_threshold(I, p):
        raise ValueError(
            f"n={n} below projection threshold {_projection_threshold(I, p)} for I={I}"
        )
    if n >= min(len(A), len(B)):
        raise DepthError(f"projection index {n} outside family range", required=n + 1)
    # inner[i][a1] = integral of B_i dmu column a1 of P
    inner = pairings(B.members[:n + 1], P.transpose().entries, M)
    rep = CheckReport("projection")
    if points is None:
        points = _DEFAULT_PROJECTION_POINTS
    if not points:
        rep.skipped.append("no points given")
    for x in points:
        a_x = A.values(*x, n + 1)
        for a0 in range(p):
            for a1 in range(p):
                got = rat(0)
                for i in range(n + 1):
                    if a_x[i][a0] != 0 and inner[i][a1] != 0:
                        got += a_x[i][a0] * inner[i][a1]
                want = P[a0, a1].eval(*x)
                if got != want:
                    rep.violations.append(
                        Violation("projection", (n, a0, a1, _point(x)), f"{got} != P(x) = {want}")
                    )
                rep.checked += 1
    return rep
