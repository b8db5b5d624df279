"""Fixture helpers shared across the test modules.

Random systems come in two flavours: "mixed" grids of atom measures and
rectangle densities (exercising the integration paths) and "table" grids of
free random moment tables (maximally generic, cheapest to assemble).  Both are
driven by a seed so every test run sees identical data.  build_system memoizes
per (kind, q, p, depth, seed) because assembling and factorizing the same
system in several tests would dominate the suite's runtime.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from steppoly import assemble_moments, extract_families, factorize, rat
from steppoly.errors import Breakdown
from steppoly.families import Family
from steppoly.gaussborel import Factorization, IntegerSide
from steppoly.measures import Discrete, MeasureMatrix, MomentTable, RectDensity
from steppoly.moments import MomentTruncation
from steppoly.rational import ZERO, as_rat, common_denominator, format_rat, parse_rat
from steppoly.recurrence import RecurrenceTruncation
from steppoly.stepline import in_complement_J, n_plus, pair_of

SHAPES = [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3)]


def rand_density(rng: random.Random, positive: bool = False) -> dict:
    """Degree <= 2 polynomial density as a {monomial position: rational} map; the
    positive variant stays above zero on the box."""
    terms = {0: rat(1)}
    for K in range(1, 6):
        if positive:
            terms[K] = rat(rng.randint(-1, 1), rng.randint(2, 4))
        else:
            terms[K] = rat(rng.randint(-4, 4), rng.randint(1, 3))
    return {K: v for K, v in terms.items() if v != 0}


def rand_rect(rng: random.Random) -> RectDensity:
    return RectDensity(-1, 1, -1, 1, rand_density(rng, positive=True))


def rand_discrete(rng: random.Random, n_atoms: int = 40) -> Discrete:
    atoms = []
    for _ in range(n_atoms):
        atoms.append(
            (
                rat(rng.randint(-6, 6), rng.randint(1, 3)),
                rat(rng.randint(-6, 6), rng.randint(1, 3)),
                rat(rng.randint(-5, 5) or 1, rng.randint(1, 3)),
            )
        )
    return Discrete(atoms)


def rand_table(rng: random.Random, max_deg: int) -> MomentTable:
    moments = {}
    for s in range(max_deg + 1):
        for t in range(max_deg + 1 - s):
            moments[(s, t)] = rat(rng.randint(-30, 30) or 1, rng.randint(1, 12))
    return MomentTable(max_deg, moments)


def max_deg_needed(depth: int, q: int, p: int) -> int:
    """Largest product-monomial total degree appearing in a depth-sized truncation."""
    return pair_of((depth - 1) // q).i + pair_of((depth - 1) // p).i


def mixed_mm(rng: random.Random, q: int, p: int, symmetric: bool = False) -> MeasureMatrix:
    """Grid alternating atoms and densities; symmetric grids share cells across the diagonal."""
    cells: list[list] = [[None] * p for _ in range(q)]
    for b in range(q):
        for a in range(p):
            if symmetric and a < b:
                cells[b][a] = cells[a][b]
            else:
                cells[b][a] = rand_discrete(rng) if (b + a) % 2 == 0 else rand_rect(rng)
    return MeasureMatrix(q, p, cells)


def table_mm(rng: random.Random, q: int, p: int, depth: int, margin: int = 2) -> MeasureMatrix:
    md = max_deg_needed(depth, q, p) + margin
    return MeasureMatrix(q, p, [[rand_table(rng, md) for _ in range(p)] for _ in range(q)])


@dataclass
class System:
    """One assembled and factorized random system."""

    mm: MeasureMatrix
    M: MomentTruncation
    F: Factorization
    A: Family
    B: Family
    q: int
    p: int
    depth: int
    seed: int


_CACHE: dict[tuple, System] = {}


def build_system(q: int, p: int, depth: int, seed: int, kind: str = "table") -> System:
    """Deterministic random system; resamples on breakdown with a fixed seed step."""
    key = (kind, q, p, depth, seed)
    if key in _CACHE:
        return _CACHE[key]
    tries = 0
    while True:
        rng = random.Random(seed + 100000 * tries)
        mm = table_mm(rng, q, p, depth) if kind == "table" else mixed_mm(rng, q, p)
        M = assemble_moments(mm, depth)
        try:
            F = factorize(M)
            break
        except Breakdown:
            tries += 1
            if tries >= 6:
                raise
    A, B = extract_families(F, q, p)
    system = System(mm, M, F, A, B, q, p, depth, seed)
    _CACHE[key] = system
    return system


class BiPoly:
    """Sparse bivariate polynomial with exact rational coefficients: the tests'
    pointwise oracle, apart from the integer rows and value tables of Family.

    coeffs maps step-line position K, standing for the monomial x^(i-j) y^j
    with (i, j) = pair_of(K), to its coefficient.  Zeros are never stored, so
    the zero polynomial is the empty map and its grlex position is -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict | None = None):
        self.coeffs = {int(K): v for K, c in (coeffs or {}).items() if (v := as_rat(c)) != 0}

    @property
    def grlex_pos(self) -> int:
        return max(self.coeffs, default=-1)

    def leading_coeff(self):
        return self.coeffs[self.grlex_pos] if self.coeffs else ZERO

    def coeff(self, K: int):
        return self.coeffs.get(K, ZERO)

    def eval(self, x1, x2):
        """Exact value at a rational point, summed term by term."""
        a, b = as_rat(x1), as_rat(x2)
        total = rat(0)
        for K, c in self.coeffs.items():
            i, j, _ = pair_of(K)
            total += c * a ** (i - j) * b ** j
        return total

    def to_json(self) -> dict[str, str]:
        return {str(K): format_rat(self.coeffs[K]) for K in sorted(self.coeffs)}

    @staticmethod
    def from_json(obj: dict[str, str]) -> "BiPoly":
        return BiPoly({int(K): parse_rat(v) for K, v in obj.items()})


def poly(fam: Family, n: int, idx: int) -> BiPoly:
    """Component idx of member n of fam, read off its integer row."""
    d, row = fam.rows[n]
    return BiPoly({c // fam.r: rat(v, d) for c, v in row.items() if c % fam.r == idx})


def members(fam: Family) -> list[list[BiPoly]]:
    """Every member of fam as its list of BiPoly components."""
    return [[poly(fam, n, i) for i in range(fam.r)] for n in range(len(fam))]


def planted(fam: Family, n: int, idx: int, K: int, delta) -> Family:
    """fam with delta added to component idx of member n at monomial position K."""
    comps = members(fam)
    pol = comps[n][idx]
    comps[n][idx] = BiPoly({**pol.coeffs, K: pol.coeff(K) + delta})
    return Family.from_members(fam.r, [[pol.coeffs for pol in row] for row in comps])


def deg_x1(pol: BiPoly) -> int:
    """Degree in the first variable; -1 for the zero polynomial."""
    return max((pair_of(K).i - pair_of(K).j for K in pol.coeffs), default=-1)


def deg_x2(pol: BiPoly) -> int:
    """Degree in the second variable; -1 for the zero polynomial."""
    return max((pair_of(K).j for K in pol.coeffs), default=-1)


def solve_b_row(M: list[list], n: int, q: int) -> list[BiPoly]:
    """Independent oracle for the n-th row family member via a dense linear solve.

    The interleaved coefficient vector c of length n+1 is the unique solution
    of c . corner(M, n+1) = e_n, pinned down by the nonzero leading minors.
    """
    W = transpose(corner(M, n + 1))
    rhs = [rat(1) if m == n else rat(0) for m in range(n + 1)]
    c = solve(W, rhs)
    comps = [{} for _ in range(q)]
    for m, v in enumerate(c):
        if v != 0:
            comps[m % q][m // q] = v
    return [BiPoly(comp) for comp in comps]


def solve_a_col(M: list[list], n: int, p: int) -> list[BiPoly]:
    """Independent oracle for the n-th column family member via a dense linear solve.

    The interleaved coefficient vector d satisfies M[0..n-1] . d = 0 with
    d_n = 1, so the strict part solves an n x n system with the last moment
    column moved to the right-hand side.
    """
    if n == 0:
        d = [rat(1)]
    else:
        W = [row[:n] for row in M[:n]]
        rhs = [-M[j][n] for j in range(n)]
        d = solve(W, rhs) + [rat(1)]
    comps = [{} for _ in range(p)]
    for m, v in enumerate(d):
        if v != 0:
            comps[m % p][m // p] = v
    return [BiPoly(comp) for comp in comps]


def corner(a: list[list], n: int) -> list[list]:
    """Leading principal n x n submatrix."""
    return [row[:n] for row in a[:n]]


def grid_values(count: int) -> list:
    """count distinct small rationals centered on zero, suitable for identity grids."""
    vals = []
    v = 0
    while len(vals) < count:
        vals.append(rat(v, 2))
        if v > 0:
            vals.append(rat(-v, 2))
        v += 1
    return vals[:count]


# ---- dense and shift-operator oracles used only by the tests ------------


class SingularMatrix(Exception):
    """Exact inversion hit a singular matrix."""


def transpose(a: list[list]) -> list[list]:
    return [list(col) for col in zip(*a)]


def matmul(a: list[list], b: list[list]) -> list[list]:
    if a and b and len(a[0]) != len(b):
        raise ValueError(f"inner dimensions differ: {len(a[0])} vs {len(b)}")
    bt = transpose(b)
    return [[sum((x * y for x, y in zip(row, col)), ZERO) for col in bt] for row in a]


def gauss_jordan_inverse(a: list[list]) -> list[list]:
    """Exact inverse by rational Gauss-Jordan elimination with partial pivoting."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("inverse needs a square matrix")
    work = [[as_rat(x) for x in row] + [rat(1) if i == j else rat(0) for j in range(n)]
            for i, row in enumerate(a)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot_row is None:
            raise SingularMatrix(f"singular at column {col}")
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
        inv = 1 / work[col][col]
        work[col] = [v * inv for v in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                f = work[r][col]
                work[r] = [v - f * w for v, w in zip(work[r], work[col])]
    return [row[n:] for row in work]


def monomial_value(pos: int, x1, x2):
    """Value of the monomial at a step-line position."""
    i, j, _ = pair_of(pos)
    return as_rat(x1) ** (i - j) * as_rat(x2) ** j


def identity(n: int) -> list[list]:
    return [[rat(1) if r == c else rat(0) for c in range(n)] for r in range(n)]


def invert_unitriangular(T: list[list]) -> list[list]:
    """Exact inverse of a lower unitriangular matrix by forward substitution."""
    n = len(T)
    for i, row in enumerate(T):
        if len(row) != n or row[i] != 1:
            raise ValueError("matrix is not lower unitriangular")
    inv = identity(n)
    for j in range(n):
        for i in range(j + 1, n):
            acc = rat(0)
            for m in range(j, i):
                if T[i][m] != 0 and inv[m][j] != 0:
                    acc += T[i][m] * inv[m][j]
            inv[i][j] = -acc
    return inv


def side_rationals(minors: list[int], side: IntegerSide) -> tuple[list[list], list[list]]:
    """The unit lower factor and its inverse that one IntegerSide stores as integers.

    factor[n][c] = L[n][c] s_c / (Delta_n s_n) and inverse[i][k] =
    L_inv[i][k] s_k / (Delta_{k+1} s_i), zero above the diagonal.
    """
    s, L, L_inv = side
    D = len(s)
    factor = [[rat(L[n][c] * s[c], minors[n] * s[n]) if c <= n else ZERO for c in range(D)]
              for n in range(D)]
    inverse = [[rat(L_inv[i][k] * s[k], minors[k + 1] * s[i]) if k <= i else ZERO
                for k in range(D)] for i in range(D)]
    return factor, inverse


def stored_inverses(F: Factorization) -> tuple[list[list], list[list]]:
    """S^-1 and Sbar^-1 as rationals, from the integers F carries."""
    return side_rationals(F.minors, F.S_int)[1], side_rationals(F.minors, F.Sbar_int)[1]


def corner_factorization(F: Factorization, d: int) -> Factorization:
    """The factorization of the leading d x d corner, cut from F."""
    def cut(side: IntegerSide) -> IntegerSide:
        return IntegerSide(*(part[:d] for part in side))

    return Factorization(d, corner(F.S, d), corner(F.Sbar, d), F.H[:d], F.minors[:d + 1],
                         cut(F.S_int), cut(F.Sbar_int))


def bordered_numerators(data: list[list]) -> tuple[list[int], IntegerSide, IntegerSide]:
    """The minors and both IntegerSides by Bareiss elimination with identity blocks.

    Row operations run on [Mi | I] and the mirrored column operations on
    [Mi ; I], with Mi the row-scaled truncation; row n of the right block ends
    as L[n] of the S side and column n of the lower block as L[n] of the Sbar
    side.  factorize gets the same integers by back-substitution instead, so
    this is the oracle for them.
    """
    D = len(data)
    scaled = [common_denominator(as_rat(v) for v in row) for row in data]
    r = [r_n for r_n, _ in scaled]
    Mi = [row for _, row in scaled]
    E = [[0] * n for n in range(D)]
    F = [[0] * n for n in range(D)]
    minors = [1]
    for k in range(D):
        row_k = Mi[k]
        piv, prev = row_k[k], minors[k]
        if piv == 0:
            raise Breakdown(k)
        minors.append(piv)
        E[k].append(prev)
        F[k].append(prev)
        for i in range(k + 1, D):
            row_i = Mi[i]
            a, b = row_i[k], row_k[i]
            row_i[k + 1:] = [(piv * x - a * y) // prev for x, y in zip(row_i[k + 1:], row_k[k + 1:])]
            E[i][:k + 1] = [(piv * x - a * y) // prev for x, y in zip(E[i], E[k])]
            F[i][:k + 1] = [(piv * x - b * y) // prev for x, y in zip(F[i], F[k])]
    return (minors,
            IntegerSide(r, E, [row[:i + 1] for i, row in enumerate(Mi)]),
            IntegerSide([1] * D, F, [[Mi[k][i] for k in range(i + 1)] for i in range(D)]))


def reconstruct(F: Factorization) -> list[list]:
    """S^-1 diag(H) Sbar^-T from the stored inverses, for comparison against the truncation."""
    S_inv, Sbar_inv = stored_inverses(F)
    hsbar_t = [[F.H[i] * v for v in row] for i, row in enumerate(transpose(Sbar_inv))]
    return matmul(S_inv, hsbar_t)


def recurrence_oracle(S: list[list], S_inv: list[list], q: int, k: int, size: int) -> list[list]:
    """T_k = S Lambda_{[q];k} S^-1 on a size x size window, summed in rationals.

    Entry (m, n) = sum over c <= m of S[m][c] * S_inv[n_plus(c, q, k)][n].
    """
    data = []
    for m in range(size):
        row = []
        for n in range(size):
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
    return data


def conjugate(T: RecurrenceTruncation) -> list[list]:
    """R_k = H^-1 T_k H: entry (m, n) is T_k[m][n] * H_n / H_m."""
    H = T.H
    return [[t * H[n] / H[m] for n, t in enumerate(row)] for m, row in enumerate(T.data)]


def integrate_pair(mm: MeasureMatrix, left: BiPoly, b_idx: int, a_idx: int, right: BiPoly):
    """Exact integral of left(x) * right(x) against measure entry (b_idx, a_idx),
    summed term by term over both coefficient maps: the pairing oracle."""
    measure = mm.entry(b_idx, a_idx)
    total = rat(0)
    for K1, c1 in left.coeffs.items():
        i1, j1, _ = pair_of(K1)
        for K2, c2 in right.coeffs.items():
            i2, j2, _ = pair_of(K2)
            total += c1 * c2 * measure.moment((i1 - j1) + (i2 - j2), j1 + j2)
    return total


def naive_moment(measure, s: int, t: int) -> Fraction:
    """The moment of a Discrete or RectDensity measure in plain Fractions, term by term.

    Atoms are summed as w x^s y^t; a density term c x^(i-j) y^j integrates to
    c times one power-rule integral per axis.  Nothing is scaled or cached.
    """
    def F(v) -> Fraction:
        return Fraction(int(v.numerator), int(v.denominator))

    if isinstance(measure, Discrete):
        return sum((F(w) * F(x) ** s * F(y) ** t for x, y, w in measure.atoms), Fraction(0))

    def power_integral(lo, hi, e: int) -> Fraction:
        return (F(hi) ** (e + 1) - F(lo) ** (e + 1)) / (e + 1)

    # step-line pairs in order, enumerated here rather than read from pair_of
    pairs = [(i, j) for i in range(max(measure.density, default=0) + 1) for j in range(i + 1)]
    total = Fraction(0)
    for K, c in measure.density.items():
        i, j = pairs[K]
        total += (F(c) * power_integral(measure.x1_lo, measure.x1_hi, s + i - j)
                  * power_integral(measure.x2_lo, measure.x2_hi, t + j))
    return total


def mat_eq(a: list[list], b: list[list]) -> bool:
    if len(a) != len(b) or any(len(r) != len(s) for r, s in zip(a, b)):
        return False
    return all(x == y for r, s in zip(a, b) for x, y in zip(r, s))


def solve(a: list[list], rhs: list) -> list:
    """Exact solve of a square system via the Gauss-Jordan inverse."""
    inv = gauss_jordan_inverse(a)
    return [sum((x * y for x, y in zip(row, rhs)), ZERO) for row in inv]


class ShiftTruncation:
    """Finite window of Lambda_{[r];k}: one 1 per row, at (n, n_plus(n, r, k))."""

    __slots__ = ("r", "k", "rows", "ones")

    def __init__(self, r: int, k: int, rows: int):
        self.r = r
        self.k = k
        self.rows = rows
        self.ones = [(n, n_plus(n, r, k)) for n in range(rows)]

    @property
    def col_count(self) -> int:
        return self.ones[-1][1] + 1 if self.ones else 0

    def to_dense(self, cols: int | None = None) -> list[list]:
        cols = self.col_count if cols is None else cols
        out = [[rat(0) for _ in range(cols)] for _ in range(self.rows)]
        for n, target in self.ones:
            if target < cols:
                out[n][target] = rat(1)
        return out


def shift_operator(r: int, k: int, row_count: int) -> ShiftTruncation:
    return ShiftTruncation(r, k, row_count)


def apply_shift_to_monomials(r: int, k: int, x1, x2, count: int) -> list:
    """First `count` scalar rows of Lambda_{[r];k} X_{[r]}(x).

    Row n of X_{[r]} carries the monomial at step-line position n // r (the
    identity blocks make the scalar check sufficient), so the shifted row n is
    the monomial at position n_plus(n, r, k) // r.
    """
    a, b = as_rat(x1), as_rat(x2)

    def mono(pos: int):
        i, j, _ = pair_of(pos)
        return a ** (i - j) * b ** j

    return [mono(n_plus(n, r, k) // r) for n in range(count)]


def shift_ones_in_complement(r: int, k: int, row_count: int) -> bool:
    """Cross-module consistency: every 1 of the shift operator lands outside J."""
    return all(in_complement_J(target, r, k) for _, target in shift_operator(r, k, row_count).ones)
