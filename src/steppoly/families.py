"""The biorthogonal polynomial families A and B and their exact checks.

B = H^-1 S X_{[q]} (row n is a q-tuple; component b draws its coefficient at
monomial position K from column K*q + b of H^-1 S) and A = X^T_{[p]} Sbar^T
(column n is a p-tuple; component a draws from column K*p + a of Sbar).
Component indices are 0-based throughout the code.

All verification here goes through the moment oracle: each orthogonality
residual is expanded as a finite rational combination of moments and must be
exactly zero.
"""

from __future__ import annotations

from .bipoly import BiPoly
from .gaussborel import Factorization
from .measures import MeasureMatrix
from .rational import ZERO, rat
from .report import CheckReport, Violation
from .stepline import pair_of


class Family:
    """Members n = 0, 1, ... of one family, each a list of BiPoly components."""

    members: list[list[BiPoly]]

    def __len__(self) -> int:
        return len(self.members)

    def poly(self, n: int, idx: int) -> BiPoly:
        return self.members[n][idx]

    def eval(self, n: int, x1, x2) -> list:
        return [pol.eval(x1, x2) for pol in self.members[n]]


class FamilyB(Family):
    """Rows of B: for each n a q-tuple of BiPoly."""

    def __init__(self, q: int, rows: list[list[BiPoly]]):
        self.q = q
        self.rows = self.members = rows


class FamilyA(Family):
    """Columns of A: for each n a p-tuple of BiPoly."""

    def __init__(self, p: int, cols: list[list[BiPoly]]):
        self.p = p
        self.cols = self.members = cols


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


def integrate_pair(mm: MeasureMatrix, left: BiPoly, b_idx: int, a_idx: int, right: BiPoly):
    """Exact integral of left(x) * right(x) against measure entry (b_idx, a_idx)."""
    measure = mm.entry(b_idx, a_idx)
    total = rat(0)
    for K1, c1 in left.coeffs.items():
        i1, j1, _ = pair_of(K1)
        for K2, c2 in right.coeffs.items():
            i2, j2, _ = pair_of(K2)
            total += c1 * c2 * measure.moment((i1 - j1) + (i2 - j2), j1 + j2)
    return total


def check_orthogonality(A: FamilyA, B: FamilyB, mm: MeasureMatrix) -> CheckReport:
    """Both one-sided orthogonality systems, expanded through the moment oracle.

    B side: sum over b of the integral of B_n^(b) against (b, a) times
    monomial_K vanishes whenever K p + a < n.  A side: sum over a of the
    integral of monomial_K against (b, a) times A_n^(a) vanishes whenever
    K q + b < n, which is the B side of the transposed measure matrix.
    """
    rep = CheckReport("orthogonality")
    for label, fam, grid in (("A", A, mm.transpose()), ("B", B, mm)):
        for n in range(len(fam)):
            for a_idx in range(grid.p):
                K = 0
                while K * grid.p + a_idx < n:
                    mono = BiPoly.monomial(K)
                    resid = rat(0)
                    for b_idx in range(grid.q):
                        resid += integrate_pair(grid, fam.poly(n, b_idx), b_idx, a_idx, mono)
                    if resid != 0:
                        rep.violations.append(
                            Violation("orthogonality", (label, n, a_idx, K), f"residual {resid}")
                        )
                    rep.checked += 1
                    K += 1
    return rep


def pairing_matrix(A: FamilyA, B: FamilyB, mm: MeasureMatrix) -> list[list]:
    """Entry (m, n) is the pairing of B_m against A_n under the measure matrix."""
    q, p = mm.q, mm.p
    count = min(len(A), len(B))
    return [
        [
            sum((integrate_pair(mm, B.poly(m, b_idx), b_idx, a_idx, A.poly(n, a_idx))
                 for b_idx in range(q) for a_idx in range(p)), ZERO)
            for n in range(count)
        ]
        for m in range(count)
    ]


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
