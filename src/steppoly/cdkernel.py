"""Christoffel-Darboux kernels, their block formula, and the ABC identity.

K^[n](x, y) is the p x q matrix sum of A_i(x) B_i(y) over i <= n.  The CD
formula writes (x_k - y_k) K^[n] through two blocks of R_k = H^-1 T_k H: with
a plus sign the lower-left one, rows n+1 .. n_plus(n, p, k) by columns
n_minus_big(n+1, p, k) .. n, and with a minus sign the upper-right one, rows
n_minus_big(n+1, q, k) .. n by columns n+1 .. n_plus(n, q, k).

check_cd_formula proves it from the recurrences by telescoping, as W. Van
Assche does for multiple OPs (J. Approx. Theory 163, 2011).  With R = R_k,
R[m][c] = acc[m][c] / (L Delta_c Delta_{m+1}) (recurrence), and for each index
below recurrence_n_max check_recurrence_matrix proves, coefficientwise:

    x_k A_c = sum over m in col_band(c) of R[m][c] A_m
    x_k B_m = sum over c in row_band(m) of R[m][c] B_c

The first at x times B_c(y), summed over c <= n, minus the second at y times
A_m(x), summed over m <= n, gives, with E[m][c] = R[m][c] A_m(x) B_c(y),

    (x_k - y_k) K^[n](x, y) = sum over (m, c) of (u - v) E[m][c],
    u = [c <= n and m in col_band(c)],  v = [m <= n and c in row_band(m)].

The CD formula is that sum with weight w = [(m, c) in the lower-left block] -
[(m, c) in the upper-right block].  Only pairs with acc[m][c] != 0 count, so
the formula holds at every point if (a) the relations hold and (b) u - v = w
at every nonzero acc[m][c], for every n below recurrence_n_max.

(b) needs no sweep over n.  As n_minus_big(c, r, k) is the least m with
n_plus(m, r, k) >= c, it is <= m exactly when c <= n_plus(m, r, k).  So m is
in col_band(c) exactly when c is in row_band(m), and (m, c) is in the
lower-left block for max(c, n_minus_big(m, p, k)) <= n < min(m, n_plus(c, p,
k)), in the upper-right one for max(m, n_minus_big(c, q, k)) <= n < min(c,
n_plus(m, q, k)).  On the band, which holds the diagonal (n_minus_big(m, p, k)
<= m < n_plus(m, q, k)), these are c <= n < m and m <= n < c, exactly where
u - v = [c <= n] - [m <= n] is 1 and -1, so (b) holds there for any acc.  Off
the band u = v = 0, and an entry below the diagonal (c < m) fails (b) for
n_minus_big(m, p, k) <= n < n_plus(c, p, k), with w = 1, one above it (c > m)
for n_minus_big(c, q, k) <= n < n_plus(m, q, k), with w = -1.  (b) assumes
only that the bands are what the relations sum over, inside T_k's window below
recurrence_n_max; validate_band checks that every entry off them vanishes.

The ABC identity writes K^[n] through the inverse of the leading (n+1) x
(n+1) moment truncation: sum over i <= n of a_i b_i^T is that inverse, where
a_i and b_i are the coefficient rows of A_i and B_i, so K^[n](x, y) =
X_[p](x)^T M^-1 X_[q](y) at every point pair (B. Simon, "The
Christoffel-Darboux kernel", Proc. Sympos. Pure Math. 79, 2008).
inverse_form reads any form bottom M^-1 right off the moments alone: one
gaussborel elimination of the truncation bordered by right and bottom leaves
it as a Schur complement.  kernel_eval, behind the kernel command, borders by
the two points' monomials, so no factor or family is formed; check_abc
borders by identity blocks and compares the inverse with the families' sum
coefficient by coefficient.  kernel_eval also returns the Elimination its
steps leave on the truncation's own block, eliminate's record of its groups,
and kernel_replay reads the kernel at any depth up to that block's off it,
repeating those groups of three steps on the new borders only.

Every identity here is compared fraction-free, as in gaussborel (E. H.
Bareiss, Math. Comp. 22, 1968): each side is an integer sum over its own
denominator (families.combine), and the two are cross-multiplied
(families.mismatches).
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple

from .errors import DepthError
from .families import Family, combine, mismatches, monomial_ints
from .gaussborel import eliminate
from .moments import MomentTruncation
from .recurrence import RecurrenceTruncation, recurrence_n_max
from .report import CheckReport, Violation


class Elimination(NamedTuple):
    """The integers D unpivoted Bareiss steps leave in the leading D x D block
    of a truncation's rows diag(r) M_D, r = scale, of block shape q x p.

    minors holds Delta_0 .. Delta_D, and groups the record gaussborel.eliminate
    keeps of its groups, cut to the block: groups[k // 3] = (pivots, w, mults)
    has pivot rows k, k+1, k+2 from column k to column D - 1, as steps 0 .. k-1
    left them, the pivot block's minors w and the (c_0, c_1, c_2) of rows
    k+3 .. D-1; the one or two steps left over at the end keep only their
    pivot rows, from column k to column D - 1.
    """

    q: int
    p: int
    scale: list[int]
    minors: list[int]
    groups: list[tuple]

    depth = property(lambda self: len(self.minors) - 1)


def _bordered(M: MomentTruncation, D: int, right: list[list[int]],
              bottom: list[list[int]]) -> tuple[int, list[list[int]], Elimination]:
    """inverse_form's (den, corner), and the Elimination its D steps of
    eliminate leave on the bordered matrix's leading D x D block."""
    rows = [nums[:D] + [r * v for v in border] for r, nums, border in zip(M.scale, M.ints, right)]
    pad = [0] * len(right[0])
    rows += [row + pad for row in bottom]
    minors, groups = eliminate(rows, D)
    kept = [([row[:D - k] for row in pivots], w, mults[:D - k - 3])
            for k, (pivots, w, mults) in zip(range(0, D, 3), groups)]
    return (-minors[D], [row[D:] for row in rows[D:]],
            Elimination(M.q, M.p, M.scale[:D], minors, kept))


def inverse_form(M: MomentTruncation, D: int, right: list[list[int]],
                 bottom: list[list[int]]) -> tuple[int, list[list[int]]]:
    """bottom M_D^-1 right as (den, corner), entry (a, b) being corner[a][b] / den,
    for M_D the leading D x D corner of M, right D integer rows and bottom
    integer rows of length D.

    Row m of M's integers on the corner, M.ints[m][:D] = r_m M[m] with r_m =
    M.scale[m], is bordered by r_m right[m], and the bottom rows by zeros.  The
    bordered matrix is [[diag(r) M_D, diag(r) right], [bottom, 0]], so D steps
    of eliminate leave Delta_D times its Schur complement, -bottom M_D^-1 right,
    in the corner, and den = -Delta_D.  A vanishing leading minor raises the
    Breakdown factorize would.
    """
    return _bordered(M, D, right, bottom)[:2]


def _kernel_borders(D: int, q: int, p: int, x: tuple,
                    y: tuple) -> tuple[int, list[list[int]], list[list[int]]]:
    """(d_x d_y, right, bottom): the two points' monomial borders of kernel_eval's
    docstring for a depth-D truncation of block shape q x p."""
    d_x, X = monomial_ints(x, (D - 1) // p + 1)
    d_y, Y = monomial_ints(y, (D - 1) // q + 1)
    right = [[Y[m // q] if m % q == b else 0 for b in range(q)] for m in range(D)]
    bottom = [[X[m // p] if m % p == a else 0 for m in range(D)] for a in range(p)]
    return d_x * d_y, right, bottom


def kernel_eval(M: MomentTruncation, x: tuple, y: tuple
                ) -> tuple[int, list[list[int]], Elimination]:
    """K^[D-1](x, y) = X_[p](x)^T M^-1 X_[q](y) for a depth-D truncation M, exactly,
    as (den, corner): entry (a, b) of the kernel is corner[a][b] / den.  Each
    point is two integer pairs (num, den), den > 0, as monomial_ints reads it.

    It is inverse_form with integer monomial tables X / d_x and Y / d_y: right
    row m holds Y[m // q] in column m % q, and bottom row a holds X[m // p] in
    the columns m with m % p = a, so den is inverse_form's times d_x d_y.  The
    third value is the Elimination its steps left in the leading D x D block,
    which kernel_replay reads.
    """
    d, right, bottom = _kernel_borders(M.depth, M.q, M.p, x, y)
    den, corner, E = _bordered(M, M.depth, right, bottom)
    return den * d, corner, E


def kernel_replay(E: Elimination, D: int, x: tuple, y: tuple) -> tuple[int, list[list[int]]]:
    """kernel_eval's (den, corner) for the depth-D truncation, D <= E.depth, read
    off E by repeating eliminate's groups of three steps on the two points'
    borders alone.

    The border columns start as diag(r) right, r = E.scale, each followed by
    its column of the corner, all 0: the border rows are later rows, as in
    eliminate.  Group k, k + 3 <= D, reads E.groups[k // 3] = (pivots, w,
    mults) and runs eliminate's formulas with prev = Delta_k:

    - a border row, a0, a1, a2 its entries in columns k .. k+2, forms its own
      c_r = (a0 w[r][0] - a1 w[r][1] + a2 w[r][2]) / prev, and each entry v
      from column k+3 on becomes (Delta_{k+3} v - c_2 y2 + c_1 y1 - c_0 y0) /
      prev, y_r the entry of pivots[r] in v's column;
    - a border column, t0, t1, t2 its entries in rows k .. k+2, takes
      (Delta_{k+3} v - c_2 t2 + c_1 t1 - c_0 t0) / prev in each row from k+3
      on, the c's being those of mults in rows below D and the border rows'
      own in the corner.

    Rows k+1 and k+2 of a border column, which eliminate finishes by its pair
    and triple formulas, are left as they stood: no later group reads them.
    The one or two steps left over are eliminate's single steps, with the
    multipliers and pivot row entries inside the block read off pivots.

    The result is exact, and each integer formed is one that eliminate forms
    on the bordered depth-D matrix diag(r) M_D.  Step k's update of entry
    (i, j) reads only rows i and k and columns k and j, so the leading D x D
    block of the depth-N elimination, its record included, is the depth-D
    elimination of diag(r) M_D, r the depth-N row scales.  r cancels from
    bottom (diag(r) M_D)^-1 diag(r) right = bottom M_D^-1 right, and the corner
    ends as -Delta_D times that form, so den = -Delta_D d_x d_y.

    A group takes four products and one division per border entry, where three
    single steps take six and three: about (p + q) D^2 / 2 entry updates in
    all, against D^3 / 3 for a new elimination.
    """
    d, right, bottom = _kernel_borders(D, E.q, E.p, x, y)
    cols = [[r * row[b] for r, row in zip(E.scale, right)] + [0] * E.p for b in range(E.q)]
    minors = E.minors
    for k, (pivots, w, mults) in zip(range(0, D, 3), E.groups):
        if k + 3 > D:  # the steps left over, single steps on the pivot block
            for s in range(k, D):
                piv, prev = minors[s + 1], minors[s]
                lead = pivots[s - k][s - k + 1:]  # row s from column s+1; zips stop at D
                down = [row[s - k] for row in pivots[s - k + 1:D - k]] + [row[s] for row in bottom]
                for row in bottom:
                    a = row[s]
                    row[s + 1:] = [(piv * v - a * u) // prev for v, u in zip(row[s + 1:], lead)]
                for col in cols:
                    c = col[s]
                    col[s + 1:] = [(piv * v - m * c) // prev for v, m in zip(col[s + 1:], down)]
            break
        prev, piv3 = minors[k], minors[k + 3]
        tails = [row[3:] for row in pivots]
        own = []  # the border rows' (c_0, c_1, c_2)
        for row in bottom:
            a0, a1, a2 = row[k:k + 3]
            c0, c1, c2 = [(a0 * u0 - a1 * u1 + a2 * u2) // prev for u0, u1, u2 in w]
            own.append((c0, c1, c2))
            row[k + 3:] = [(piv3 * v - c2 * y2 + c1 * y1 - c0 * y0) // prev
                           for v, y0, y1, y2 in zip(row[k + 3:], *tails)]
        later = mults[:D - k - 3] + own
        for col in cols:
            t0, t1, t2 = col[k:k + 3]
            col[k + 3:] = [(piv3 * v - c2 * t2 + c1 * t1 - c0 * t0) // prev
                           for v, (c0, c1, c2) in zip(col[k + 3:], later)]
    return -minors[D] * d, [[col[D + a] for col in cols] for a in range(E.p)]


def check_cd_formula(T: RecurrenceTruncation, relations: CheckReport) -> CheckReport:
    """(a) and (b) of the module docstring for T_k, one CD formula per n below
    recurrence_n_max.  relations is check_recurrence_matrix(T, A, B) for families
    that reach T.size, as factorize's do.  A failed relation is reported at
    (k, n, label, idx), an entry that breaks (b) at (k, n, m, c), both by n."""
    k, q, p = T.k, T.q, T.p
    rep = CheckReport()
    n_max = recurrence_n_max(T, T.size, T.size)
    if relations.checked != n_max * (p + q):
        raise ValueError(f"relations do not cover every n below {n_max}")
    rep.violations = [Violation((k, n, label, idx), "recurrence relation fails")
                      for _, label, n, idx in (v.where for v in relations.violations)]
    # (b) off row m's band, in closed form: n's ranges read row_band(m) and col_band(c)
    for m, row in enumerate(T.acc):
        first, last = T.row_band(m)
        below = ((c, first, T.col_band(c)[1], 1) for c in range(first) if row[c])
        above = ((c, T.col_band(c)[0], last, -1) for c in range(last + 1, T.size) if row[c])
        for c, lo, hi, w in chain(below, above):
            rep.violations += (Violation((k, n, m, c), f"weight 0 in the recurrences, {w} in the blocks")
                               for n in range(lo, min(hi, n_max)))
    rep.checked = n_max
    rep.violations.sort(key=lambda v: v.where[1])
    return rep


def _outer(a: dict, b: dict) -> dict:
    """The outer product of two coefficient rows, keyed (column of a, column of b)."""
    return {(m, c): u * v for m, u in a.items() for c, v in b.items()}


def check_abc(M: MomentTruncation, A: Family, B: Family, n: int) -> CheckReport:
    """Sum over i <= n of a_i b_i^T equals the inverse of the (n+1) corner of M,
    coefficient by coefficient, exactly.

    The oracle reads only the moments, never the factorization: the inverse is
    inverse_form(M, n + 1, I, I), (det, block) with M^-1[m][c] = block[m][c] /
    det.  On the family side, A.rows[i] = (d_a, a_i) and B.rows[i] = (d_b,
    b_i), so the sum over i <= n is the combine of the outer products a_i b_i^T
    over d_a d_b.  Both sides are maps over (m, c), compared by mismatches over
    the union of their keys, so a coefficient stored beyond column n is a
    mismatch.  The first mismatch in row-major order is reported at (n, m, c).
    """
    D = n + 1
    if D > M.depth:
        raise DepthError(f"corner {D} exceeds depth {M.depth}")
    if D > min(len(A), len(B)):
        raise DepthError(f"kernel index {n} outside family range")
    eye = [[int(m == j) for j in range(D)] for m in range(D)]
    det, block = inverse_form(M, D, eye, eye)
    want = {(m, c): v for m, row in enumerate(block) for c, v in enumerate(row) if v}
    got = combine((1, d_a * d_b, _outer(a, b)) for (d_a, a), (d_b, b) in zip(A.rows[:D], B.rows[:D]))
    rep = CheckReport()
    bad = mismatches(got, (det, want))
    if bad:
        rep.violations.append(Violation((n, *min(bad)), "sum a_i b_i^T != M^-1"))
    rep.checked += 1
    return rep


def check_reproduction(A: Family, B: Family, gram: list[list], n: int) -> CheckReport:
    """Kernel reproduces itself under the measure pairing, coefficient by coefficient.

    gram is the pairing matrix of the two families (families.pairing_matrix),
    G[i][j] = num / den the pairing of B_i against A_j.  The double integral
    of K^[n](x, .) dmu K^[n](., y) is the sum over i, j <= n of A_i(x) G[i][j]
    B_j(y), so it equals K^[n](x, y) at every point pair exactly when the sum
    of (G[i][j] - delta_ij) a_i b_j^T vanishes, a_i and b_j the coefficient
    rows of A_i and B_j.  That sum is C_A^T E C_B with E the corner of G - I
    and C_A, C_B the first n+1 rows, which are triangular with nonzero
    diagonal: row i ends at column i, whose entry is nonzero as L[i][i] =
    Delta_i != 0 (gaussborel).  So the identity holds exactly when the
    (n+1) corner of G is the identity.  Only the entries off the identity
    give terms, (num - den delta_ij) / den; their combine must be zero, and
    the first nonzero (m, c) in row-major order is reported at (n, m, c).
    """
    if n >= min(len(A), len(B), len(gram)):
        raise DepthError(f"reproduction index {n} outside family range")
    a, b = A.rows, B.rows
    terms = ((e, den * a[i][0] * b[j][0], _outer(a[i][1], b[j][1]))
             for i in range(n + 1) for j, (num, den) in enumerate(gram[i][:n + 1])
             if (e := num - den * (i == j)))
    rep = CheckReport()
    bad = mismatches(combine(terms), (1, {}))
    if bad:
        rep.violations.append(Violation((n, *min(bad)), "kernel not reproduced"))
    rep.checked += 1
    return rep


def check_projection(A: Family, inner: list, n: int, P: Family) -> CheckReport:
    """Integral of K^[n](x, .) against dmu P recovers P(x), above the threshold.

    P is a p x p matrix polynomial, p = A.r, given by its columns: member a1
    of the Family P is column a1, whose component a0 is entry (a0, a1).  It
    must be monic of grlex-degree I with n >= I*p + p - 1: member a1 stores
    column I*p + a1, its diagonal entry at position I, with value 1, and every
    other column it stores is below position I.  Calls below the threshold
    are precondition errors, not identity failures.  inner[i][a1] = (w, e),
    i <= n, is the integral w / e of B_i against column a1 of P, entry (i, a1)
    of (C_B M) C_P^T.  For each column a1 the polynomial sum_{i <= n}
    inner[i][a1] A_i must equal column a1 of P coefficient by coefficient, the
    identity at every x; one relation is checked per (a0, a1), p^2 per call.
    The dual direction, the integral of P dmu K^[n](., y) recovering P(y), is
    this check on the transposed problem, check_projection(B, inner, n, P^T)
    for the q x q matrix polynomial P^T; its inner integrals (C_A M^T) C_{P^T}^T
    are the transpose of P^T's own moment product paired with A, (C_{P^T} M) C_A^T.
    """
    p = A.r
    if P.r != p or len(P) != p:
        raise ValueError(f"projection needs a {p} x {p} matrix polynomial")
    I = max((c for _, row in P.rows for c in row), default=0) // p
    for a1, (d, row) in enumerate(P.rows):
        lead = I * p + a1
        if row.get(lead) != d or any(c >= I * p for c in row if c != lead):
            raise ValueError("P is not monic of a definite grlex degree")
    if n < I * p + p - 1:
        raise ValueError(f"n={n} below projection threshold {I * p + p - 1} for I={I}")
    if n >= min(len(A), len(inner)):
        raise DepthError(f"projection index {n} outside family range")
    inner = inner[:n + 1]
    rep = CheckReport()
    for a1, want in enumerate(P.rows):
        # sum_{i <= n} inner[i][a1] A_i against column a1 of P
        got = combine((w, e * d, row) for (d, row), (w, e) in zip(A.rows, [g[a1] for g in inner]) if w)
        bad = {c % p for c in mismatches(got, want)}
        for a0 in range(p):
            if a0 in bad:
                rep.violations.append(Violation((n, a0, a1), "coefficient mismatch with P"))
            rep.checked += 1
    return rep
