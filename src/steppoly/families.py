"""The biorthogonal polynomial families A and B and their exact checks.

B = H^-1 S X_{[q]} (row n is a q-tuple) and A = X^T_{[p]} Sbar^T (column n is
a p-tuple), so the coefficient matrices H^-1 S and Sbar are the families.  A
Family with r components stores its member n as row n of that matrix,
(d, {column: integer}): component i's coefficient at monomial position K is
the integer in column K*r + i over d.  extract_families reads both straight
off the integers of the elimination (gaussborel): with Delta the minors, r_c
the lcm that scales row c of the truncation to integers, and L, Lbar the
numerators of S and Sbar,

    B row n = L[n][c] r_c / Delta_{n+1},    A row n = Lbar[n][c] / Delta_n.

Component indices are 0-based throughout the code.

Every pairing is a product with the moment truncation M the families came
from: the integral of B_m against A_n is entry (m, n) of (C_B M) C_A^T, and
the paper's biorthogonality H^-1 S M Sbar^T = I is that Gram matrix being the
identity.  The orthogonality residuals are the strictly lower parts of C_B M
and of C_A M^T, whose entry (n, K*q + b) integrates A_n against the monomial
at position K in slot b.  Every residual is a finite rational combination of
moments and must be exactly zero.  The checks read the rows extract_families
returns, so it stays under test.  The products run over integers: each row
of M is scaled by the lcm of its denominators, so an entry is one integer
inner sum and one rat().
"""

from __future__ import annotations

from math import lcm

from .errors import DepthError
from .gaussborel import Factorization
from .moments import MomentTruncation
from .rational import ZERO, as_rat, common_denominator, rat
from .report import CheckReport, Violation
from .stepline import pair_of


class Family:
    """Members n = 0, 1, ... of one family with r components, as integer rows.

    rows[n] = (d, {column: integer}); column K*r + i holds component i's
    coefficient at monomial position K, over d.  Zero coefficients are not
    stored.
    """

    __slots__ = ("r", "rows")

    def __init__(self, r: int, rows: list[tuple[int, dict]]):
        self.r = r
        self.rows = rows

    @staticmethod
    def from_members(r: int, members) -> "Family":
        """The family whose member n has the r components members[n], each a
        {monomial position: rational} map that stores no zeros."""
        rows = []
        for comps in members:
            row = {K * r + i: c for i, comp in enumerate(comps) for K, c in comp.items()}
            d, nums = common_denominator(row.values())
            rows.append((d, dict(zip(row, nums))))
        return Family(r, rows)

    def __len__(self) -> int:
        return len(self.rows)

    def head(self, count: int) -> "Family":
        """Members 0 .. count-1."""
        return Family(self.r, self.rows[:count])

    def eval(self, n: int, x1, x2) -> list:
        """Member n's r components at one point."""
        return self.values(x1, x2, n + 1)[n]

    def values(self, x1, x2, count: int) -> list[list]:
        """Members 0 .. count-1 at one point, all read from one monomial table.

        The table is scaled to integers, so each value is one integer sum of
        coefficient times monomial and one rat().
        """
        r, rows = self.r, self.rows[:count]
        top = max((max(row) for _, row in rows if row), default=-1)
        den, mono = monomial_ints((x1, x2), top // r + 1)
        out = []
        for d, row in rows:
            sums = [0] * r
            for c, v in row.items():
                K, i = divmod(c, r)
                sums[i] += v * mono[K]
            out.append([rat(s, d * den) for s in sums])
        return out


def monomial_ints(x: tuple, count: int) -> tuple[int, list[int]]:
    """(d, ints): the monomials at positions 0 .. count-1 at x = (a/b, c/e) are ints / d,
    position (i, j) being (a e)^(i-j) (c b)^j (b e)^(top-i) over d = (b e)^top."""
    (a, b), (c, e) = ((v.numerator, v.denominator) for v in map(as_rat, x))
    top = pair_of(count - 1).i if count else 0
    ints = [(a * e) ** (i - j) * (c * b) ** j * (b * e) ** (top - i)
            for i in range(top + 1) for j in range(i + 1)]
    return (b * e) ** top, ints[:count]


def extract_families(F: Factorization, q: int, p: int) -> tuple[Family, Family]:
    """Read both families off the integers of the factorization of a depth-D truncation.

    B row n is S[n][c] / H_n = L[n][c] r_c / Delta_{n+1}; A row n is
    Sbar[n][c] = Lbar[n][c] / Delta_n, the Sbar side's scale being all ones.
    """
    (r, L, _), (_, Lbar, _), minors = F.S_int, F.Sbar_int, F.minors
    B = [(minors[n + 1], {c: v * r[c] for c, v in enumerate(row) if v}) for n, row in enumerate(L)]
    A = [(minors[n], {c: v for c, v in enumerate(row) if v}) for n, row in enumerate(Lbar)]
    return Family(p, A), Family(q, B)


def degree_bound(n: int, comp_idx: int, r: int) -> int:
    """Grlex-position bound for component comp_idx (0-based) of family row n.

    Equals floor((n - comp_idx) / r); -1 means the component must vanish.
    """
    return (n - comp_idx) // r if n >= comp_idx else -1


def validate_degree_structure(A: Family, B: Family, q: int, p: int) -> CheckReport:
    """Degree bounds for every component, equality and monicity on the diagonal.

    B_n^(b) has grlex-pos <= floor((n - b)/q) with equality and nonzero leading
    coefficient when n = M q + b; A_n^(a) has grlex-pos <= floor((n - a)/p)
    with equality and leading coefficient exactly 1 when n = M p + a.  The
    grlex-pos of component i is the largest position K whose column K*r + i
    is stored in the member's row.
    """
    rep = CheckReport("degree")
    for label, fam, r, monic in (("B", B, q, False), ("A", A, p, True)):
        for n, (d, row) in enumerate(fam.rows):
            top = [-1] * r
            for c in row:
                K, i = divmod(c, r)
                top[i] = max(top[i], K)
            for idx, pos in enumerate(top):
                bound = degree_bound(n, idx, r)
                if pos > bound:
                    rep.violations.append(Violation(
                        "degree", (label, n, idx), f"grlex_pos {pos} > bound {bound}"))
                if n % r == idx:
                    lead = rat(row[pos * r + idx], d) if pos >= 0 else ZERO
                    if pos != bound or lead == 0 or monic and lead != 1:
                        rep.violations.append(Violation(
                            "degree", (label, n, idx), f"diagonal leading coefficient {lead} at bound {bound}"))
                rep.checked += 1
    return rep


def _width(fam: Family) -> int:
    """One past the last column any row of fam stores."""
    return max((max(row) + 1 for _, row in fam.rows if row), default=0)


def moment_rows(fam: Family, M: MomentTruncation, cols: int) -> list[tuple[int, list[int]]]:
    """C M on the first cols columns of M, with C the coefficient matrix of fam
    (M.q components).

    Entry (n, K*p + a) is the sum over b of the integral of component b of
    member n against measure (b, a) times the monomial at position K.  Row n
    comes as (d, nums), the entries being nums / d: row c of M is scaled to
    integers by the lcm s_c of its denominators, and row n of C, over d_n, is
    brought to the denominator d_n times the lcm of the s_c it meets, so every
    entry is one integer sum.
    """
    width = _width(fam)
    if max(width, cols) > M.depth:
        raise DepthError(f"pairing needs a moment truncation of depth {max(width, cols)}, "
                         f"got {M.depth}", required=max(width, cols))
    scaled_m = [common_denominator(row[:cols]) for row in M.data[:width]]
    out = []
    for d, row in fam.rows:
        big = lcm(*(scaled_m[c][0] for c in row))
        terms = [(v * (big // scaled_m[c][0]), scaled_m[c][1]) for c, v in row.items()]
        out.append((d * big, [sum(v * m_row[m] for v, m_row in terms) for m in range(cols)]))
    return out


def pairings(left: Family, right: Family, M: MomentTruncation) -> list[list]:
    """(C_left M) C_right^T: entry (m, n) pairs member m of left (M.q components)
    with member n of right (M.p components) under the measure matrix behind M."""
    return [[rat(sum(nums[c] * v for c, v in row.items()), d * e) for e, row in right.rows]
            for d, nums in moment_rows(left, M, _width(right))]


def check_orthogonality(A: Family, B: Family, M: MomentTruncation) -> CheckReport:
    """Both one-sided orthogonality systems, read off products with the moment truncation.

    B side: entry (n, K*p + a) of C_B M, the sum over b of the integral of
    B_n^(b) against (b, a) times monomial_K, vanishes whenever K p + a < n.
    A side: entry (n, K*q + b) of C_A M^T vanishes whenever K q + b < n, which
    is the B side of the transposed truncation.
    """
    rep = CheckReport("orthogonality")
    for label, fam, grid in (("A", A, M.transpose()), ("B", B, M)):
        for n, (d, nums) in enumerate(moment_rows(fam, grid, len(fam))):
            for a_idx in range(grid.p):
                K = 0
                while K * grid.p + a_idx < n:
                    resid = nums[K * grid.p + a_idx]
                    if resid != 0:
                        rep.violations.append(Violation(
                            "orthogonality", (label, n, a_idx, K), f"residual {rat(resid, d)}"))
                    rep.checked += 1
                    K += 1
    return rep


def pairing_matrix(A: Family, B: Family, M: MomentTruncation) -> list[list]:
    """Entry (m, n) is the pairing of B_m against A_n: the Gram matrix (C_B M) C_A^T."""
    count = min(len(A), len(B))
    return pairings(B.head(count), A.head(count), M)


def check_biorthogonality(gram: list[list]) -> CheckReport:
    """The pairing matrix of the two families is exactly the identity."""
    rep = CheckReport("biorthogonality")
    for m, row in enumerate(gram):
        for n, val in enumerate(row):
            expected = rat(1) if m == n else ZERO
            if val != expected:
                rep.violations.append(
                    Violation("biorthogonality", (m, n), f"pairing {val} != {expected}")
                )
            rep.checked += 1
    return rep
