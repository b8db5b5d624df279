"""The biorthogonal polynomial families A and B and their exact checks.

B = H^-1 S X_{[q]} (row n is a q-tuple; component b draws its coefficient at
monomial position K from column K*q + b of H^-1 S) and A = X^T_{[p]} Sbar^T
(column n is a p-tuple; component a draws from column K*p + a of Sbar).
Component indices are 0-based throughout the code.

The checks read each family back from its BiPoly members into a coefficient
matrix C, laid out like H^-1 S and Sbar (coefficient_rows), so that every
pairing is a product with the moment truncation M the families came from:
the integral of B_m against A_n is entry (m, n) of (C_B M) C_A^T, and the
paper's biorthogonality H^-1 S M Sbar^T = I is that Gram matrix being the
identity.  The orthogonality residuals are the strictly lower parts of C_B M
and of C_A M^T, whose entry (n, K*q + b) integrates A_n against the monomial
at position K in slot b.  Every residual is a finite rational combination of
moments and must be exactly zero; reading C from the members rather than
from the factorization keeps extract_families under test.  The products run
over integers: each row of C and of M is scaled by the lcm of its
denominators, so an entry is one integer inner sum and one rat().
"""

from __future__ import annotations

from .bipoly import BiPoly, monomial_table
from .errors import DepthError
from .gaussborel import Factorization
from .moments import MomentTruncation
from .rational import ZERO, common_denominator, rat
from .report import CheckReport, Violation


class Family:
    """Members n = 0, 1, ... of one family, each a list of BiPoly components."""

    def __init__(self, members: list[list[BiPoly]]):
        self.members = members
        # per member, each component as (den, integer numerators, positions);
        # grown by values() and shared by every point it is asked for
        self._scaled: list[list[tuple]] = []

    def __len__(self) -> int:
        return len(self.members)

    def poly(self, n: int, idx: int) -> BiPoly:
        return self.members[n][idx]

    def eval(self, n: int, x1, x2) -> list:
        return [pol.eval(x1, x2) for pol in self.members[n]]

    def values(self, x1, x2, count: int) -> list[list]:
        """Members 0 .. count-1 at one point, all read from one monomial table.

        The table and each component's coefficients are scaled to integers,
        the coefficients once per family, so each value is one integer sum of
        c * mono[K] and one rat().
        """
        scaled = self._scaled
        for comps in self.members[len(scaled):count]:
            scaled.append([(*common_denominator(pol.coeffs.values()), list(pol.coeffs)) for pol in comps])
        members = scaled[:count]
        top = max((max(keys) for comps in members for _, _, keys in comps if keys), default=-1)
        den, mono = common_denominator(monomial_table(x1, x2, top + 1))
        return [[rat(sum(c * mono[K] for K, c in zip(keys, nums)), d * den) for d, nums, keys in comps]
                for comps in members]


class FamilyB(Family):
    """Rows of B: for each n a q-tuple of BiPoly."""

    def __init__(self, q: int, rows: list[list[BiPoly]]):
        super().__init__(rows)
        self.q = q
        self.rows = rows


class FamilyA(Family):
    """Columns of A: for each n a p-tuple of BiPoly."""

    def __init__(self, p: int, cols: list[list[BiPoly]]):
        super().__init__(cols)
        self.p = p
        self.cols = cols


def _members(rows: list[list], r: int, coeff) -> list[list[BiPoly]]:
    """Member n has r components; component i takes its coefficient at monomial
    position K from column K*r + i of rows[n], as coeff(n, entry)."""
    return [
        [BiPoly({K: coeff(n, c) for K, c in enumerate(row[i:n + 1:r]) if c != 0})
         for i in range(r)]
        for n, row in enumerate(rows)
    ]


def extract_families(F: Factorization, q: int, p: int) -> tuple[FamilyA, FamilyB]:
    """Read both families off the factorization of a depth-D truncation."""
    H = F.H
    return (FamilyA(p, _members(F.Sbar, p, lambda n, c: c)),
            FamilyB(q, _members(F.S, q, lambda n, c: c / H[n])))


def degree_bound(n: int, comp_idx: int, r: int) -> int:
    """Grlex-position bound for component comp_idx (0-based) of family row n.

    Equals floor((n - comp_idx) / r); -1 means the component must vanish.
    """
    return (n - comp_idx) // r if n >= comp_idx else -1


def validate_degree_structure(A: FamilyA, B: FamilyB, q: int, p: int) -> CheckReport:
    """Degree bounds for every component, equality and monicity on the diagonal.

    B_n^(b) has grlex-pos <= floor((n - b)/q) with equality and nonzero leading
    coefficient when n = M q + b; A_n^(a) has grlex-pos <= floor((n - a)/p)
    with equality and leading coefficient exactly 1 when n = M p + a.
    """
    rep = CheckReport("degree")
    for label, fam, r, monic in (("B", B, q, False), ("A", A, p, True)):
        for n in range(len(fam)):
            for idx in range(r):
                bound = degree_bound(n, idx, r)
                pol = fam.poly(n, idx)
                if pol.grlex_pos > bound:
                    rep.violations.append(Violation(
                        "degree", (label, n, idx), f"grlex_pos {pol.grlex_pos} > bound {bound}"))
                lead = pol.leading_coeff()
                if n % r == idx and (pol.grlex_pos != bound or lead == 0 or monic and lead != 1):
                    rep.violations.append(Violation(
                        "degree", (label, n, idx), f"diagonal leading coefficient {lead} at bound {bound}"))
                rep.checked += 1
    return rep


def coefficient_rows(members: list[list[BiPoly]], r: int) -> list[dict]:
    """Row n of the coefficient matrix as {column: coefficient}: component i of
    members[n] puts its coefficient at position K in column K*r + i."""
    return [{K * r + i: c for i, pol in enumerate(comps) for K, c in pol.coeffs.items()}
            for comps in members]


def _scaled_rows(rows: list[dict]) -> list[tuple[int, dict]]:
    """Each {column: rational} row as (d, {column: integer}), the row being the integers / d."""
    out = []
    for row in rows:
        d, nums = common_denominator(row.values())
        out.append((d, dict(zip(row, nums))))
    return out


def moment_rows(members: list[list[BiPoly]], M: MomentTruncation,
                cols: int) -> list[tuple[int, list[int]]]:
    """C M on the first cols columns of M, with C = coefficient_rows(members, M.q).

    Entry (n, K*p + a) is the sum over b of the integral of members[n][b]
    against measure (b, a) times the monomial at position K.  Row n comes as
    (d, nums), the entries being nums / d: row c of M is scaled to integers by
    the lcm s_c of its denominators and 1/s_c is folded into column c of C, so
    every entry is one integer sum.
    """
    C = coefficient_rows(members, M.q)
    width = max((max(row) + 1 for row in C if row), default=0)
    if max(width, cols) > M.depth:
        raise DepthError(f"pairing needs a moment truncation of depth {max(width, cols)}, "
                         f"got {M.depth}", required=max(width, cols))
    scaled_m = [common_denominator(row[:cols]) for row in M.data[:width]]
    out = []
    for d, row in _scaled_rows([{c: v / scaled_m[c][0] for c, v in row.items()} for row in C]):
        terms = [(v, scaled_m[c][1]) for c, v in row.items()]
        out.append((d, [sum(v * m_row[m] for v, m_row in terms) for m in range(cols)]))
    return out


def pairings(left: list[list[BiPoly]], right: list[list[BiPoly]],
             M: MomentTruncation) -> list[list]:
    """(C_left M) C_right^T: entry (m, n) pairs left[m] (M.q components) with
    right[n] (M.p components) under the measure matrix behind M."""
    C_right = _scaled_rows(coefficient_rows(right, M.p))
    cols = max((max(row) + 1 for _, row in C_right if row), default=0)
    return [[rat(sum(nums[c] * v for c, v in row.items()), d * e) for e, row in C_right]
            for d, nums in moment_rows(left, M, cols)]


def check_orthogonality(A: FamilyA, B: FamilyB, M: MomentTruncation) -> CheckReport:
    """Both one-sided orthogonality systems, read off products with the moment truncation.

    B side: entry (n, K*p + a) of C_B M, the sum over b of the integral of
    B_n^(b) against (b, a) times monomial_K, vanishes whenever K p + a < n.
    A side: entry (n, K*q + b) of C_A M^T vanishes whenever K q + b < n, which
    is the B side of the transposed truncation.
    """
    rep = CheckReport("orthogonality")
    for label, fam, grid in (("A", A, M.transpose()), ("B", B, M)):
        for n, (d, nums) in enumerate(moment_rows(fam.members, grid, len(fam))):
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


def pairing_matrix(A: FamilyA, B: FamilyB, M: MomentTruncation) -> list[list]:
    """Entry (m, n) is the pairing of B_m against A_n: the Gram matrix (C_B M) C_A^T."""
    count = min(len(A), len(B))
    return pairings(B.members[:count], A.members[:count], M)


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
