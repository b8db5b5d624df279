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
moments and must be exactly zero.  cli.Workspace.products forms C_B M
(moment_rows) once, from the rows extract_families returns, so it stays under
test; orthogonality, pairings and projection read it.  check_orthogonality
forms only the entries of C_A M^T it tests, A_n's row dotted with M's row c
for c < n.  Each runs over M's own integer rows (M.scale and M.ints, scaled
once when M is built), so an entry is one integer inner sum over its
denominator, and a check compares integers: no rational is formed, and a
violation's value is written with ratio_text.

Every coefficient identity (recurrence, projection, ABC, reproduction) sums
weighted rows over one denominator with combine and compares the two sides
with mismatches, which cross-multiplies them key by key.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import DepthError
from .gaussborel import Factorization
from .moments import MomentTruncation
from .rational import ratio_text
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

    def __len__(self) -> int:
        return len(self.rows)

    def head(self, count: int) -> "Family":
        """Members 0 .. count-1."""
        return Family(self.r, self.rows[:count])

    def eval(self, n: int, x1, x2) -> list:
        """Member n's r components at one point; no other member is read."""
        return Family(self.r, [self.rows[n]]).values(x1, x2, 1)[0]

    def values(self, x1, x2, count: int) -> list[list]:
        """Members 0 .. count-1 at the point (x1, x2) of two ints or Fractions, all
        read from one monomial table, as Fractions.

        The table is scaled to integers, so each value is one integer sum of
        coefficient times monomial and one Fraction.
        """
        r, rows = self.r, self.rows[:count]
        top = max((max(row) for _, row in rows if row), default=-1)
        den, mono = monomial_ints([(v.numerator, v.denominator) for v in (x1, x2)], top // r + 1)
        out = []
        for d, row in rows:
            sums = [0] * r
            for c, v in row.items():
                K, i = divmod(c, r)
                sums[i] += v * mono[K]
            out.append([Fraction(s, d * den) for s in sums])
        return out


def combine(terms) -> tuple[int, dict]:
    """(den, sums): the sum of w / d times row over the (w, d, row) terms, each
    row a {key: integer} map, as integer sums over den, the lcm of the d.  No
    terms give (1, {})."""
    terms = list(terms)
    den = lcm(*(d for _, d, _ in terms))
    sums: dict = {}
    for w, d, row in terms:
        f = w * (den // d)
        for key, v in row.items():
            sums[key] = sums.get(key, 0) + f * v
    return den, sums


def mismatches(x: tuple[int, dict], y: tuple[int, dict]) -> set:
    """The keys at which two (den, {key: integer}) maps stand for different
    rationals, cross-multiplied over the union of their keys; a missing key reads 0."""
    (dx, mx), (dy, my) = x, y
    return {key for key in mx.keys() | my.keys() if mx.get(key, 0) * dy != my.get(key, 0) * dx}


def monomial_ints(x, count: int) -> tuple[int, list[int]]:
    """(d, ints): the monomials at positions 0 .. count-1 at the point x = (a/b, c/e),
    given as the pairs ((a, b), (c, e)), b, e > 0, are ints / d, position (i, j)
    being (a e)^(i-j) (c b)^j (b e)^(top-i) over d = (b e)^top."""
    (a, b), (c, e) = x
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
    rep = CheckReport()
    for label, fam, r, monic in (("B", B, q, False), ("A", A, p, True)):
        for n, (d, row) in enumerate(fam.rows):
            top = [-1] * r
            for c in row:
                K, i = divmod(c, r)
                top[i] = max(top[i], K)
            for idx, pos in enumerate(top):
                bound = degree_bound(n, idx, r)
                if pos > bound:
                    rep.violations.append(Violation((label, n, idx), f"grlex_pos {pos} > bound {bound}"))
                if n % r == idx:
                    lead = row[pos * r + idx] if pos >= 0 else 0
                    if pos != bound or lead == 0 or monic and lead != d:
                        text = f"diagonal leading coefficient {ratio_text(lead, d)} at bound {bound}"
                        rep.violations.append(Violation((label, n, idx), text))
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
    comes as (d, nums), the entries being nums / d: row c of M is M.ints[c]
    over s_c = M.scale[c], and row n of C, over d_n, is brought to the
    denominator d_n times the lcm of the s_c it meets, so every entry is one
    integer sum.
    """
    if (need := max(_width(fam), cols)) > M.depth:
        raise DepthError(f"pairing needs a moment truncation of depth {need}, got {M.depth}")
    scale, ints = M.scale, M.ints
    out = []
    for d, row in fam.rows:
        big = lcm(*(scale[c] for c in row))
        terms = [(v * (big // scale[c]), ints[c]) for c, v in row.items()]
        out.append((d * big, [sum(v * m_row[m] for v, m_row in terms) for m in range(cols)]))
    return out


def pairings(rows: list, right: Family) -> list[list[tuple[int, int]]]:
    """(C_left M) C_right^T as integer pairs (num, den) from the rows (d, nums) of C_left M,
    which reach every column right stores: entry (m, n) pairs member m of left with member n of right."""
    return [[(sum(nums[c] * v for c, v in row.items()), d * e) for e, row in right.rows]
            for d, nums in rows]


def check_orthogonality(A: Family, BM: list, M: MomentTruncation) -> CheckReport:
    """Both one-sided orthogonality systems of the families A and B from M.

    B side: entry (n, K*p + a) of BM = C_B M (moment_rows), the sum over b of
    the integral of B_n^(b) against (b, a) times monomial_K, vanishes whenever
    K p + a < n; BM has as many columns as rows.  A side: entry (n, K*q + b)
    of C_A M^T, the sum over a of the integral of A_n^(a) against (b, a) times
    monomial_K, vanishes whenever c = K q + b < n.  Only those entries are
    formed: A_n's row, over d_n, dotted with row c of M, M.ints[c] over s_c =
    M.scale[c], is one integer sum over d_n s_c.
    """
    if (need := max(_width(A), len(A))) > M.depth:
        raise DepthError(f"pairing needs a moment truncation of depth {need}, got {M.depth}")

    def a_side(n: int, c: int) -> tuple[int, int]:
        d, row = A.rows[n]
        return sum(v * M.ints[c][m] for m, v in row.items()), d * M.scale[c]

    rep = CheckReport()
    for label, count, r, entry in (("A", len(A), M.q, a_side),
                                   ("B", len(BM), M.p, lambda n, c: (BM[n][1][c], BM[n][0]))):
        for n in range(count):
            for a_idx in range(r):
                for K, c in enumerate(range(a_idx, n, r)):
                    num, den = entry(n, c)
                    if num != 0:
                        rep.violations.append(Violation(
                            (label, n, a_idx, K), f"residual {ratio_text(num, den)}"))
                    rep.checked += 1
    return rep


def pairing_matrix(A: Family, B: Family, M: MomentTruncation) -> list[list[tuple[int, int]]]:
    """Entry (m, n) is the pairing (num, den) of B_m against A_n: the Gram matrix (C_B M) C_A^T."""
    count = min(len(A), len(B))
    return pairings(moment_rows(B.head(count), M, _width(A.head(count))), A.head(count))


def check_biorthogonality(gram: list[list[tuple[int, int]]]) -> CheckReport:
    """The pairing matrix is exactly the identity: num == den on the diagonal, num == 0 off it."""
    rep = CheckReport()
    for m, row in enumerate(gram):
        for n, (num, den) in enumerate(row):
            if num != (den if m == n else 0):
                rep.violations.append(Violation((m, n), f"pairing {ratio_text(num, den)} != {int(m == n)}"))
            rep.checked += 1
    return rep
