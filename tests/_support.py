"""Fixture helpers shared across the test modules.

Random systems come in two flavours: "mixed" grids of atom measures and
rectangle densities (exercising the integration paths) and "table" grids of
free random moment tables (maximally generic, cheapest to assemble).  Both are
driven by a seed so every test run sees identical data.  build_system memoizes
per (kind, q, p, depth, seed) because assembling and factorizing the same
system in several tests would dominate the suite's runtime.
"""

from __future__ import annotations

import csv
import decimal
import io
import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import mul

from steppoly import assemble_moments, extract_families, factorize, rat
from steppoly.cdkernel import _kernel_borders, kernel_eval
from steppoly.cli import _decimal_text
from steppoly.errors import Breakdown, DepthError
from steppoly.families import Family, moment_rows, monomial_ints, pairings
from steppoly.gaussborel import Factorization, IntegerSide, eliminate
from steppoly.measures import Discrete, MeasureMatrix, MomentTable, RectDensity
from steppoly.moments import MomentTruncation
from steppoly.rational import over_lcm, parse_ratio, ratio_text
from steppoly.recurrence import RecurrenceTruncation, recurrence_n_max
from steppoly.report import CheckReport, Violation
from steppoly.stepline import in_complement_J, n_minus_big, n_plus, pair_of

SHAPES = [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3)]

# the kinds compute exports, one JSON file each and a CSV file each but families
EXPORT_KINDS = ("H", "S", "Sbar", "T1", "T2", "families", "moments")

# three fixed point pairs (x, y) for pointwise_reproduction
SPOT_PAIRS = [
    ((rat(1, 2), rat(-1, 3)), (rat(-2, 5), rat(1, 7))),
    ((rat(3, 4), rat(1, 2)), (rat(1, 5), rat(-1, 2))),
    ((rat(-1, 3), rat(2, 3)), (rat(0), rat(1, 4))),
]


def common_denominator(values) -> tuple[int, list[int]]:
    """(d, nums) with rational i equal to nums[i] / d, d the lcm of the denominators."""
    return over_lcm((v.numerator, v.denominator) for v in map(Fraction, values))


def parse_rat(text: str):
    """The rational a config literal stands for, as a Fraction."""
    return rat(*parse_ratio(text))


def pair(value) -> tuple[int, int]:
    """An int or rational as the integer pair (num, den) in lowest terms a measure holds."""
    value = Fraction(value)
    return int(value.numerator), int(value.denominator)


def discrete(atoms) -> Discrete:
    """Discrete of atoms (x, y, w) given as ints or rationals."""
    return Discrete([tuple(map(pair, atom)) for atom in atoms])


def rect(x1_lo, x1_hi, x2_lo, x2_hi, density: dict) -> RectDensity:
    """RectDensity of bounds and {position: coefficient} given as ints or rationals."""
    return RectDensity(*map(pair, (x1_lo, x1_hi, x2_lo, x2_hi)),
                       {K: pair(c) for K, c in density.items()})


def table(max_total_deg: int, moments: dict) -> MomentTable:
    """MomentTable of {(s, t): moment} given as ints or rationals."""
    return MomentTable(max_total_deg, {st: pair(v) for st, v in moments.items()})


def moment(measure, s: int, t: int):
    """measure.moment(s, t), the pair (num, den), as a rational."""
    return rat(*measure.moment(s, t))


def moment_data(M: MomentTruncation) -> list[list]:
    """The truncation's entries as rationals: row m is M.ints[m] over M.scale[m]."""
    return [[rat(v, r) for v in row] for row, r in zip(M.ints, M.scale)]


def rational_truncation(depth: int, q: int, p: int, data: list[list]) -> MomentTruncation:
    """The truncation whose entries are the rationals data, each row scaled over
    the lcm of its denominators, as assemble_moments scales its rows."""
    scaled = [common_denominator(row) for row in data]
    return MomentTruncation(depth, q, p, [r for r, _ in scaled], [nums for _, nums in scaled])


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
    return rect(-1, 1, -1, 1, rand_density(rng, positive=True))


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
    return discrete(atoms)


def rand_table(rng: random.Random, max_deg: int) -> MomentTable:
    moments = {}
    for s in range(max_deg + 1):
        for t in range(max_deg + 1 - s):
            moments[(s, t)] = rat(rng.randint(-30, 30) or 1, rng.randint(1, 12))
    return table(max_deg, moments)


def config_json(spec) -> dict:
    """The config JSON of a MeasureMatrix or of one measure, as measure_from_json
    and MeasureMatrix.from_json read it: every number exact rational text,
    density positions and table keys sorted."""
    if isinstance(spec, MeasureMatrix):
        return {"q": spec.q, "p": spec.p,
                "measures": [[config_json(m) for m in row] for row in spec.entries]}
    if isinstance(spec, Discrete):
        return {"type": "discrete",
                "atoms": [{"x": ratio_text(*x), "y": ratio_text(*y), "w": ratio_text(*w)}
                          for x, y, w in spec.atoms]}
    if isinstance(spec, RectDensity):
        return {"type": "rect",
                "box": [ratio_text(*v) for v in (spec.x1_lo, spec.x1_hi, spec.x2_lo, spec.x2_hi)],
                "density": {str(K): ratio_text(*spec.density[K]) for K in sorted(spec.density)}}
    return {"type": "table", "max_total_deg": spec.max_total_deg,
            "moments": {f"{s},{t}": ratio_text(*spec.moments[(s, t)]) for s, t in sorted(spec.moments)}}


def transpose_measures(mm: MeasureMatrix) -> MeasureMatrix:
    """The p x q grid whose entry (a, b) is entry (b, a) of mm."""
    return MeasureMatrix(mm.p, mm.q, [list(col) for col in zip(*mm.entries)])


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
        if kind == "discrete":
            mm = MeasureMatrix(q, p, [[rand_discrete(rng) for _ in range(p)] for _ in range(q)])
        else:
            mm = table_mm(rng, q, p, depth) if kind == "table" else mixed_mm(rng, q, p)
        M = assemble_moments(mm, depth)
        try:
            F = factorize(M)
            break
        except Breakdown:
            tries += 1
            if tries >= 6:
                raise
    A, B = extract_families(F)
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
        self.coeffs = {int(K): v for K, c in (coeffs or {}).items() if (v := Fraction(c)) != 0}

    @property
    def grlex_pos(self) -> int:
        return max(self.coeffs, default=-1)

    def leading_coeff(self):
        return self.coeffs[self.grlex_pos] if self.coeffs else Fraction(0)

    def coeff(self, K: int):
        return self.coeffs.get(K, Fraction(0))

    def eval(self, x1, x2):
        """Exact value at a rational point, summed term by term."""
        a, b = Fraction(x1), Fraction(x2)
        total = rat(0)
        for K, c in self.coeffs.items():
            i, j = pair_of(K)
            total += c * a ** (i - j) * b ** j
        return total

    def to_json(self) -> dict[str, str]:
        return {str(K): str(self.coeffs[K]) for K in sorted(self.coeffs)}

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


def from_members(r: int, members) -> Family:
    """The family whose member n has the r components members[n], each a
    {monomial position: (num, den)} map that stores no zeros, den > 0."""
    rows = []
    for comps in members:
        row = {K * r + i: c for i, comp in enumerate(comps) for K, c in comp.items()}
        d, nums = over_lcm(row.values())
        rows.append((d, dict(zip(row, nums))))
    return Family(r, rows)


def planted(fam: Family, n: int, idx: int, K: int, delta) -> Family:
    """fam with delta added to component idx of member n at monomial position K."""
    comps = members(fam)
    pol = comps[n][idx]
    comps[n][idx] = BiPoly({**pol.coeffs, K: pol.coeff(K) + delta})
    return from_members(fam.r, [[{K: pair(c) for K, c in pol.coeffs.items()} for pol in row]
                                for row in comps])


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


def truncation_corner(M: MomentTruncation, d: int) -> MomentTruncation:
    """The leading d x d corner of M as a truncation of its own, its rows scaled afresh."""
    if d > M.depth:
        raise DepthError(f"corner {d} exceeds depth {M.depth}")
    return rational_truncation(d, M.q, M.p, corner(moment_data(M), d))


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


def point_pairs(rng: random.Random, count: int) -> list:
    """count pairs (x, y) of small random rational points, x1, x2, y1, y2 drawn in
    that order, each as rat(randint(-24, 24), randint(1, 16)), for the pointwise oracles."""
    def draw():
        return rat(rng.randint(-24, 24), rng.randint(1, 16))

    return [((draw(), draw()), (draw(), draw())) for _ in range(count)]


# ---- the export route of earlier versions: the byte oracle of compute ------


def decimal_text(text: str) -> str:
    """The decimal column of one entry: its float's .12g; beyond the normal float
    range, cli._decimal_text's rounding of the exact rational, which
    TestCsvBytes checks on its own."""
    x = parse_rat(text)
    try:
        f = float(x)
    except OverflowError:
        f = math.inf
    if x and not sys.float_info.min <= abs(f) <= sys.float_info.max:
        return _decimal_text(text)
    return f"{f:.12g}"


def csv_writer_text(entries: list[list[str]], render_decimal: bool = False) -> str:
    """The CSV text csv.writer makes of export entries, RFC 4180 quoting and CRLF
    line endings; with render_decimal each row gets its decimal columns."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    for row in entries:
        writer.writerow(row + [decimal_text(v) for v in row] if render_decimal else row)
    return buf.getvalue()


def rational_text(value) -> str:
    """str() of a rational, and past the interpreter's int/str digit limit the
    digits decimal.Decimal writes, as earlier versions wrote a rational."""
    try:
        return str(value)
    except ValueError:
        num, den = (str(decimal.Decimal(int(v))) for v in (value.numerator, value.denominator))
        return num if den == "1" else f"{num}/{den}"


def rational_entries(ws) -> dict[str, list[list[str]]]:
    """Each export kind's depth x depth corner but families, H one row, as rationals
    formatted by rational_text: S and Sbar as L[n][c] s_c / (Delta_n s_n), T_k as
    acc[m][n] r_n / (Delta_m r_m Delta_{n+1} L), H and the moments as stored."""
    D, minors, r = ws.depth, ws.F.minors, ws.F.S_int.scale

    def unit_lower(side: IntegerSide) -> list[list]:
        s, L, _ = side
        return [[rat(L[n][c] * s[c], minors[n] * s[n]) for c in range(n)] + [Fraction(1)] + [Fraction(0)] * (D - 1 - n)
                for n in range(D)]

    def recurrence(T: RecurrenceTruncation) -> list[list]:
        return [[rat(a * r[n], minors[m] * r[m] * T.L * minors[n + 1]) for n, a in enumerate(row)]
                for m, row in enumerate(T.acc)]

    mats = {"H": [ws.F.H], "S": unit_lower(ws.F.S_int), "Sbar": unit_lower(ws.F.Sbar_int),
            "T1": recurrence(ws.T[1]), "T2": recurrence(ws.T[2]), "moments": moment_data(ws.M)}
    return {what: [[rational_text(v) for v in row[:D]] for row in mat[:D]] for what, mat in mats.items()}


def rational_exports(ws, render_decimal: bool = False) -> dict[str, str]:
    """Every file compute writes, by way of rationals and json.dumps: the text of
    rational_entries, families.json built as dicts of dicts, A from the Sbar text
    and B as rat(v, d) of its rows, and CSV by csv_writer_text."""
    entries = rational_entries(ws)
    files = {}
    for what, rows in entries.items():
        obj: dict = {"schema_version": 1, "kind": what}
        if what == "H":
            obj["values"] = rows[0]
        else:
            obj.update(entries=rows, rows=len(rows), cols=len(rows[0]))
        files[f"{what}.json"] = json.dumps(obj, indent=2, sort_keys=True) + "\n"
        files[f"{what}.csv"] = csv_writer_text(rows, render_decimal)
    q, p = ws.M.q, ws.M.p
    obj = {"schema_version": 1, "kind": "families", "q": q, "p": p}
    A = [[(c, t) for c, t in enumerate(row) if t != "0"] for row in entries["Sbar"]]
    B = [[(c, rational_text(rat(v, d))) for c, v in row.items()] for d, row in ws.B.rows[:ws.depth]]
    for label, r, rows in (("A", p, A), ("B", q, B)):
        obj[label] = [[{str(c // r): t for c, t in row if c % r == i} for i in range(r)] for row in rows]
    files["families.json"] = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    return files


# ---- dense and shift-operator oracles used only by the tests ------------


class SingularMatrix(Exception):
    """Exact inversion hit a singular matrix."""


def transpose(a: list[list]) -> list[list]:
    return [list(col) for col in zip(*a)]


def matmul(a: list[list], b: list[list]) -> list[list]:
    if a and b and len(a[0]) != len(b):
        raise ValueError(f"inner dimensions differ: {len(a[0])} vs {len(b)}")
    bt = transpose(b)
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in bt] for row in a]


def gauss_jordan_inverse(a: list[list]) -> list[list]:
    """Exact inverse by rational Gauss-Jordan elimination with partial pivoting."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("inverse needs a square matrix")
    work = [[Fraction(x) for x in row] + [rat(1) if i == j else rat(0) for j in range(n)]
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


def values(fam: Family, x1, x2, count: int) -> list[list]:
    return [fam.eval(n, x1, x2) for n in range(count)]


def kernel_sum(A: Family, B: Family, n: int, x: tuple, y: tuple) -> list[list]:
    """K^[n](x, y), the sum of A_i(x) B_i(y) over i <= n, in reduced rationals:
    the family-side oracle for cdkernel.kernel_eval."""
    if n >= min(len(A), len(B)):
        raise DepthError(f"kernel index {n} outside family range")
    a, b = values(A, *x, n + 1), values(B, *y, n + 1)
    return [[sum((a_i[i] * b_i[j] for a_i, b_i in zip(a, b)), Fraction(0)) for j in range(B.r)]
            for i in range(A.r)]


def kernel_rationals(M: MomentTruncation, x: tuple, y: tuple) -> list[list]:
    """cdkernel.kernel_eval's kernel, (den, corner), as reduced rationals."""
    den, corner, _ = kernel_eval(M, list(map(pair, x)), list(map(pair, y)))
    return [[rat(v, den) for v in row] for row in corner]


def inner_integrals(B: Family, M: MomentTruncation, P: Family) -> list:
    """check_projection's inner integrals, B's members against the columns of P:
    (C_B M) C_P^T, C_B M over as many columns as B has members, as cli._projection
    pairs Workspace.products with P."""
    return pairings(moment_rows(B, M, len(B)), P)


def dual_inner_integrals(A: Family, M: MomentTruncation, P: Family) -> list:
    """The dual direction's inner integrals, A's members against the columns of
    the q x q P^T: (C_A M^T) C_P^T, the transpose of (C_P M) C_A^T, as
    cli._projection forms them."""
    return list(zip(*pairings(moment_rows(P, M, len(A)), A)))


def pair_rationals(pairs: list[list[tuple[int, int]]]) -> list[list]:
    """Integer pairs (num, den), as families.pairings writes its entries, as rationals."""
    return [[rat(num, den) for num, den in row] for row in pairs]


def abc_oracle(M: MomentTruncation, n: int, x: tuple, y: tuple) -> list[list]:
    """X_[p]^T(x) M^-1 X_[q](y) on the (n+1) corner, in rationals."""
    def monomials_t(r: int, pt: tuple) -> list[list]:
        out = [[rat(0)] * (n + 1) for _ in range(r)]
        for m in range(n + 1):
            out[m % r][m] = monomial_value(m // r, *pt)
        return out

    inv = gauss_jordan_inverse(corner(moment_data(M), n + 1))
    return matmul(matmul(monomials_t(M.p, x), inv), transpose(monomials_t(M.q, y)))


def integer_rows(rows: list[list]) -> tuple[int, list[list[int]]]:
    """(d, ints) with rows[i][j] = ints[i][j] / d, d the lcm of every denominator."""
    width = len(rows[0]) if rows else 1
    d, flat = common_denominator(v for row in rows for v in row)
    return d, [flat[i:i + width] for i in range(0, len(flat), width)]


def pointwise_reproduction(A: Family, B: Family, gram: list[list], n: int,
                           point_pairs: list) -> CheckReport:
    """Kernel reproduces itself under the measure pairing at each point pair:
    the pointwise oracle for cdkernel.check_reproduction.

    The double integral of K^[n](x, .) dmu K^[n](., y), expanded through the
    leading (n+1) corner of gram, must equal K^[n](x, y).  Both sides are
    compared fraction-free: with A_i(x) = a[i] / d_a and B_i(y) = b[i] / d_b
    (Family.eval) and the corner's nonzero entries (num, den) brought to
    G_int / d_G, d_G the lcm of their den, the sum of a[i] G_int[i][j] b[j]
    must equal d_G times the sum of the outer products a[i] b[i] over i <= n.
    """
    if n >= min(len(A), len(B), len(gram)):
        raise DepthError(f"reproduction index {n} outside family range")
    p, q = A.r, B.r
    corner = [(i, j, num, den) for i in range(n + 1)
              for j, (num, den) in enumerate(gram[i][:n + 1]) if num]
    d_g = math.lcm(*(den for *_, den in corner))
    terms = [(i, j, num * (d_g // den)) for i, j, num, den in corner]
    rep = CheckReport()
    if not point_pairs:
        rep.skipped.append("no point pairs given")
    for x, y in point_pairs:
        (_, a), (_, b) = map(integer_rows, (values(A, *x, n + 1), values(B, *y, n + 1)))
        out = [[sum(a[i][a_idx] * g * b[j][b_idx] for i, j, g in terms) for b_idx in range(q)]
               for a_idx in range(p)]
        kernel = [[d_g * sum(a_i[a_idx] * b_i[b_idx] for a_i, b_i in zip(a, b))
                   for b_idx in range(q)] for a_idx in range(p)]
        if out != kernel:
            rep.violations.append(Violation(
                (n, f"({x[0]}, {x[1]})", f"({y[0]}, {y[1]})"), "kernel not reproduced"))
        rep.checked += 1
    return rep


class KernelTable:
    """Both families at one point pair, with K^[n](x, y) for every n < count.

    A_i(x) = a_int[i] / d_a and B_i(y) = b_int[i] / d_b (Family.eval);
    kernels_int[n] sums the outer products a_int[i] b_int[i] over i <= n, so
    K^[n](x, y) = kernels_int[n] / den with den = d_a d_b.
    """

    __slots__ = ("x", "y", "den", "a_int", "b_int", "kernels_int")

    def __init__(self, A: Family, B: Family, x: tuple, y: tuple, count: int):
        if count > min(len(A), len(B)):
            raise DepthError(f"kernel index {count - 1} outside family range")
        self.x, self.y = x, y
        (d_a, self.a_int), (d_b, self.b_int) = map(
            integer_rows, (values(A, *x, count), values(B, *y, count)))
        self.den = d_a * d_b
        outer = ([[va * vb for vb in b_i] for va in a_i] for a_i, b_i in zip(self.a_int, self.b_int))
        self.kernels_int = list(accumulate(
            outer, lambda s, t: [[u + v for u, v in zip(r, w)] for r, w in zip(s, t)]))


def pointwise_abc(M: MomentTruncation, n: int, tables: list[KernelTable]) -> CheckReport:
    """Tabled K^[n] equals the inverse-moment form at every point pair, exactly:
    the pointwise oracle for cdkernel.check_abc.

    The D = n+1 corner of M's integers, Mi = diag(r) M with r = M.scale, is
    bordered by identity blocks as in check_abc, and D steps of eliminate
    leave -Delta_D Mi^-1 = -adj(Mi) in the lower right block, once for all
    pairs, so M^-1 = adj diag(r) / det with det = -Delta_D.  Row m of
    X_[p]^T(x) has one nonzero, the monomial at position m // p, in slot
    m % p; with integer monomial tables X / d_x and Y / d_y the right side is
    G / (d_x d_y det), G[i][j] summing X[m // p] adj[m][m'] r_m' Y[m' // q]
    over m = i (mod p) and m' = j (mod q).
    """
    p, q, D = M.p, M.q, n + 1
    if D > M.depth:
        raise DepthError(f"corner {D} exceeds depth {M.depth}")
    if any(len(table.kernels_int) < D for table in tables):
        raise DepthError(f"point-pair tables end before family index {n}")
    rows = [M.ints[m][:D] + [int(m == j) for j in range(D)] for m in range(D)]
    rows += [[int(a == j) for j in range(D)] + [0] * D for a in range(D)]
    det = -eliminate(rows, D)[0][D]
    weighted = [[v * r for v, r in zip(row[D:], M.scale)] for row in rows[D:]]  # adj diag(r)
    rep = CheckReport()
    for table in tables:
        x, y = table.x, table.y
        d_x, X = monomial_ints(list(map(pair, x)), n // p + 1)
        d_y, Y = monomial_ints(list(map(pair, y)), n // q + 1)
        y_col = [Y[m // q] for m in range(n + 1)]
        wy = [[sum(map(mul, row[j::q], y_col[j::q])) for j in range(q)] for row in weighted]
        g = [[sum(X[m // p] * wy[m][j] for m in range(i, n + 1, p)) for j in range(q)]
             for i in range(p)]
        scale = d_x * d_y * det
        if any(kv * scale != table.den * gv for k_row, g_row in zip(table.kernels_int[n], g)
               for kv, gv in zip(k_row, g_row)):
            rep.violations.append(Violation(
                (n, f"({x[0]}, {x[1]})", f"({y[0]}, {y[1]})"), "K^[n] != X^T M^-1 X"))
        rep.checked += 1
    return rep


def pos_of(i: int, j: int) -> int:
    """Scalar step-line position of the pair (i, j)."""
    if not (0 <= j <= i):
        raise ValueError(f"need 0 <= j <= i, got (i, j) = ({i}, {j})")
    return i * (i + 1) // 2 + j


def monomial_value(pos: int, x1, x2):
    """Value of the monomial at a step-line position."""
    i, j = pair_of(pos)
    return Fraction(x1) ** (i - j) * Fraction(x2) ** j


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
    L_inv[k][i - k] s_k / (Delta_{k+1} s_i), zero above the diagonal.
    """
    s, L, L_inv = side
    D = len(s)
    factor = [[rat(L[n][c] * s[c], minors[n] * s[n]) if c <= n else Fraction(0) for c in range(D)]
              for n in range(D)]
    inverse = [[rat(L_inv[k][i - k] * s[k], minors[k + 1] * s[i]) if k <= i else Fraction(0)
                for k in range(D)] for i in range(D)]
    return factor, inverse


def inverts_its_factor(minors: list[int], side: IntegerSide) -> bool:
    """Whether one IntegerSide's inverse times its unit lower factor is I, in integers.

    With factor[n][c] = L[n][c] s_c / (Delta_n s_n) and inverse[c][k] =
    L_inv[k][c - k] s_k / (Delta_{k+1} s_c), the s_c cancel from entry (n, k)
    of factor * inverse, which is s_k / (Delta_n s_n Delta_{k+1}) times the
    integer sum of L[n][c] L_inv[k][c - k] over k <= c <= n.  So row n is row n
    of I exactly when those sums are 0 for k < n and Delta_n Delta_{n+1} at
    k = n; with L[n][n] = Delta_n, the factor's diagonal is 1.
    """
    s, L, L_inv = side
    for n, row in enumerate(L):
        sums = [sum(map(mul, row[k:n + 1], col)) for k, col in enumerate(L_inv[:n + 1])]
        if row[n] != minors[n] or sums != [0] * n + [minors[n] * minors[n + 1]]:
            return False
    return True


def same_factor(minors: list[int], side: IntegerSide, other_minors: list[int],
                other: IntegerSide, rows: int) -> bool:
    """Whether two IntegerSides store the same leading rows x rows unit lower factor.

    Entry (n, c) is L[n][c] s_c / (Delta_n s_n) on each side, so the two agree
    when the numerator of each times the denominator of the other agree.
    """
    (s, L, _), (t, K, _) = side, other
    return all(L[n][c] * s[c] * other_minors[n] * t[n] == K[n][c] * t[c] * minors[n] * s[n]
               for n in range(rows) for c in range(n + 1))


def stored_inverses(F: Factorization) -> tuple[list[list], list[list]]:
    """S^-1 and Sbar^-1 as rationals, from the integers F carries."""
    return side_rationals(F.minors, F.S_int)[1], side_rationals(F.minors, F.Sbar_int)[1]


def corner_factorization(F: Factorization, d: int) -> Factorization:
    """The factorization of the leading d x d corner, cut from F."""
    def cut(side: IntegerSide) -> IntegerSide:
        s, L, L_inv = side
        return IntegerSide(s[:d], L[:d], [col[:d - k] for k, col in enumerate(L_inv[:d])])

    return Factorization(d, F.q, F.p, F.minors[:d + 1], cut(F.S_int), cut(F.Sbar_int))


def one_step_eliminate(rows: list[list[int]], steps: int) -> list[int]:
    """steps unpivoted Bareiss steps on integer rows, in place; returns Delta_0 .. Delta_steps.

    The single-step loop that gaussborel.eliminate runs three steps at a time
    (one or two at the end): the oracle for the rows, the minors and the
    Breakdown index it leaves.
    """
    minors = [1]
    for k in range(steps):
        row_k = rows[k]
        piv, prev = row_k[k], minors[k]
        if piv == 0:
            raise Breakdown(k)
        minors.append(piv)
        tail_k = row_k[k + 1:]
        for row_i in rows[k + 1:]:
            a = row_i[k]
            row_i[k + 1:] = [(piv * x - a * y) // prev for x, y in zip(row_i[k + 1:], tail_k)]
    return minors


def one_step_replay(M: MomentTruncation, D: int, x: tuple, y: tuple) -> tuple[int, list[list[int]]]:
    """cdkernel.kernel_replay's (den, corner) for the depth-D truncation, D <= M.depth,
    from the elimination kernel_eval keeps for M, by Bareiss's single steps: the
    oracle for the grouped replay.

    one_step_eliminate's M.depth steps on M's integer rows give each step k's
    multipliers lower[k] (column k from row k+1 down) and pivot row upper[k]
    (from column k+1 on, as steps 0 .. k-1 left it).  Step k then turns the
    border columns, the border rows and the corner, (i, j) each, into
    (Delta_{k+1} a[i][j] - a[i][k] a[k][j]) / Delta_k.
    """
    rows = [row[:] for row in M.ints]
    minors = one_step_eliminate(rows, M.depth)
    lower = [[row[k] for row in rows[k + 1:]] for k in range(M.depth)]
    upper = [row[k + 1:] for k, row in enumerate(rows)]
    d, right, bottom = _kernel_borders(D, M.q, M.p, x, y)
    cols = [[r * row[b] for r, row in zip(M.scale, right)] for b in range(M.q)]
    corner = [[0] * M.q for _ in range(M.p)]
    for k in range(D):
        piv, prev = minors[k + 1], minors[k]
        for col in cols:  # zip stops at row D - 1 of the longer column k and row k
            c = col[k]
            col[k + 1:] = [(piv * v - m * c) // prev for v, m in zip(col[k + 1:], lower[k])]
        heads = [col[k] for col in cols]  # row k's border entries, final from step k on
        for row, out in zip(bottom, corner):
            a = row[k]
            row[k + 1:] = [(piv * v - a * u) // prev for v, u in zip(row[k + 1:], upper[k])]
            out[:] = [(piv * v - a * h) // prev for v, h in zip(out, heads)]
    return -minors[D] * d, corner


def unpacked_schur_residues(ints: list[list[int]], panel: list[list[int]], minors: list[int],
                            P: int) -> list[list[int]] | None:
    """The oracle for gaussborel._schur_residues: the Schur complement of the
    panel's block modulo P, one dot product per row and tail column, with no
    packing; None when P divides one of the panel's minors."""
    width = len(minors) - 1
    if any(d % P == 0 for d in minors):
        return None
    inv = [pow(d, -1, P) for d in minors[1:]]
    cols, schur = [[] for _ in ints[width:]], []  # cols: columns >= width of rows < width
    for i, (row, mults) in enumerate(zip(ints, panel)):
        ell = [a % P * b % P for a, b in zip(mults[:min(i, width)], inv)]
        reduced = [(x - sum(map(mul, ell, col))) % P for x, col in zip(row[width:], cols)]
        if i < width:
            for col, x in zip(cols, reduced):
                col.append(x)
        else:
            schur.append(reduced)
    return schur


def bordered_numerators(data: list[list]) -> tuple[list[int], IntegerSide, IntegerSide]:
    """The minors and both IntegerSides by Bareiss elimination with identity blocks.

    Row operations run on [Mi | I] and the mirrored column operations on
    [Mi ; I], with Mi the row-scaled truncation; row n of the right block ends
    as L[n] of the S side and column n of the lower block as L[n] of the Sbar
    side.  factorize gets the same integers by back-substitution instead, so
    this is the oracle for them.  Each L_inv is stored by columns from the
    diagonal down: Mi's lower part on the S side, its upper part on the Sbar side.
    """
    D = len(data)
    scaled = [common_denominator(Fraction(v) for v in row) for row in data]
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
            IntegerSide(r, E, [[Mi[i][k] for i in range(k, D)] for k in range(D)]),
            IntegerSide([1] * D, F, [Mi[k][k:] for k in range(D)]))


def reconstruct(F: Factorization) -> list[list]:
    """S^-1 diag(H) Sbar^-T from the stored inverses, for comparison against the truncation.

    Both inverses are lower triangular, so entry (m, n) is the sum of
    S^-1[m][c] H_c Sbar^-1[n][c] over c <= min(m, n) only.
    """
    S_inv, Sbar_inv = stored_inverses(F)
    h_sbar = [[h * v for h, v in zip(F.H, row)] for row in Sbar_inv]  # row n: H_c Sbar^-1[n][c]
    return [[sum((a * b for a, b in zip(s_row[:min(m, n) + 1], row)), Fraction(0))
             for n, row in enumerate(h_sbar)] for m, s_row in enumerate(S_inv)]


def reconstructs(F: Factorization, M: MomentTruncation) -> bool:
    """Whether S^-1 diag(H) Sbar^-T is M, in integers, read off the stored inverses.

    r_m times entry (m, n) of the product is the sum over c <= min(m, n) of
    t_c = L_inv[c][m-c] Lbar_inv[c][n-c] / (Delta_c Delta_{c+1}), the scales
    cancelling, and it must be M.ints[m][n].  With a_0 = M.ints[m][n] and
    a_{c+1} = (Delta_{c+1} a_c - Delta_c Delta_{c+1} t_c) / Delta_c, a_c is
    Delta_c times M.ints[m][n] less t_0 .. t_{c-1}; so, each division being
    exact, the identity holds when every a ends at 0, which row m's entries
    n = c and n > m do after steps c and m.
    """
    minors, L_inv, Lbar_inv = F.minors, F.S_int.L_inv, F.Sbar_int.L_inv
    for m, row in enumerate(M.ints):
        acc = row[:]  # acc[n - c] is a_c of entry (m, n) before step c
        for c in range(m + 1):
            a, prev, piv = L_inv[c][m - c], minors[c], minors[c + 1]
            steps = [divmod(piv * x - a * bar, prev) for x, bar in zip(acc, Lbar_inv[c])]
            if any(rem for _, rem in steps) or steps[0][0]:
                return False
            acc = [x for x, _ in steps[1:]]
        if any(acc):
            return False
    return True


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


def rational_T(T: RecurrenceTruncation) -> list[list]:
    """The rational T_k, read off its integers (recurrence module docstring)."""
    return T.entries(rat)


def conjugate(T: RecurrenceTruncation) -> list[list]:
    """R_k = H^-1 T_k H: entry (m, n) is T_k[m][n] * H_n / H_m."""
    H = T.F.H
    return [[t * H[n] / H[m] for n, t in enumerate(row)] for m, row in enumerate(rational_T(T))]


def planted_entry(T: RecurrenceTruncation, m: int, n: int, value) -> RecurrenceTruncation:
    """T with the rational value planted at entry (m, n) of T_k, through its integers.

    T_k[m][n] = acc[m][n] r_n / (Delta_m r_m Delta_{n+1} L) stays the same when
    acc and L are scaled together, so both are scaled by the denominator that
    makes value's acc an integer; every other entry keeps its value.
    """
    minors, r = T.F.minors, T.F.S_int.scale
    a = Fraction(value) * minors[m] * r[m] * minors[n + 1] * T.L / r[n]
    s = int(a.denominator)
    acc = [[s * v for v in row] for row in T.acc]
    acc[m][n] = int(a.numerator)
    return RecurrenceTruncation(T.k, T.size, acc, s * T.L, T.F)


class CDBlocks:
    """The four index ranges of the CD formula at (n, k), as the paper defines them.

    tgt_rows x tgt_cols is the lower-left block of T_k (rows n+1 ..
    n_plus(n, p, k), columns n_minus_big(n+1, p, k) .. n); src_rows x src_cols
    is the upper-right block (rows n_minus_big(n+1, q, k) .. n, columns n+1 ..
    n_plus(n, q, k)).  The printed labels are T_k's entries over these ranges.
    top is the largest family index the blocks reach.
    """

    __slots__ = ("tgt_rows", "tgt_cols", "src_rows", "src_cols", "top")

    def __init__(self, T: RecurrenceTruncation, n: int):
        k, q, p = T.k, T.q, T.p
        self.tgt_rows = range(n + 1, n_plus(n, p, k) + 1)
        self.tgt_cols = range(n_minus_big(n + 1, p, k), n + 1)
        self.src_rows = range(n_minus_big(n + 1, q, k), n + 1)
        self.src_cols = range(n + 1, n_plus(n, q, k) + 1)
        self.top = max(self.tgt_rows[-1], self.src_cols[-1])
        if self.top >= T.size:
            raise DepthError(f"T_{k} window {T.size} too small for CD blocks at n={n}")


def swept_cd(T: RecurrenceTruncation, relations: CheckReport) -> CheckReport:
    """cdkernel.check_cd_formula's (b) by a sweep: u - v against w at every nonzero
    acc[m][c] and every n below recurrence_n_max, with w read off CDBlocks.

    The oracle for the closed-form ranges: it shares the bands and the relations
    report with the check, but reads the blocks from their definition, entry by
    entry, for every n, and reports in the check's format and order.
    """
    k = T.k
    rep = CheckReport()
    n_max = recurrence_n_max(T, T.size, T.size)
    for v in relations.violations:
        _, label, n, idx = v.where
        rep.violations.append(Violation((k, n, label, idx), "recurrence relation fails"))
    cols = [T.col_band(c) for c in range(T.size)]
    nonzero = [(m, c, lo <= m <= hi, first <= c <= last)
               for m, (row, (first, last)) in enumerate(zip(T.acc, map(T.row_band, range(T.size))))
               for c, (a, (lo, hi)) in enumerate(zip(row, cols)) if a]
    for n in range(n_max):
        blocks = CDBlocks(T, n)
        for m, c, in_col, in_row in nonzero:
            u_v = (c <= n and in_col) - (m <= n and in_row)
            w = ((m in blocks.tgt_rows and c in blocks.tgt_cols)
                 - (m in blocks.src_rows and c in blocks.src_cols))
            if u_v != w:
                rep.violations.append(
                    Violation((k, n, m, c), f"weight {u_v} in the recurrences, {w} in the blocks"))
        rep.checked += 1
    rep.violations.sort(key=lambda v: v.where[1])
    return rep


def cd_block_values(T: RecurrenceTruncation, n: int) -> tuple[list[list], list[list]]:
    """R_k = H^-1 T_k H over the lower-left and upper-right CD blocks at n, read off
    T_k's integers: each entry acc[m][c] / (L Delta_c Delta_{m+1}) as one rational."""
    blocks, minors = CDBlocks(T, n), T.F.minors
    tgt, src = ([[rat(T.acc[m][c], T.L * minors[c] * minors[m + 1]) for c in cols] for m in rows]
                for rows, cols in ((blocks.tgt_rows, blocks.tgt_cols),
                                   (blocks.src_rows, blocks.src_cols)))
    return tgt, src


def pointwise_cd(T: RecurrenceTruncation, n: int, tables: list[KernelTable]) -> CheckReport:
    """The CD identity over T_k's blocks at n at every tabled point pair, as p x q
    matrices: the pointwise oracle for cdkernel.check_cd_formula.

    The right side is a_gt^T (R_tgt b_n) - a_n^T (R_src b_gt).  With both
    blocks' R entries over one denominator d_R it is S / (den d_R), S an integer
    sum, so for x_k - y_k = u / v the identity is u d_R kernels_int[n] = v S.
    """
    blocks = CDBlocks(T, n)
    k, p, q = T.k, T.p, T.q
    if any(len(table.kernels_int) <= blocks.top for table in tables):
        raise DepthError(f"point-pair tables end before family index {blocks.top}")
    d_r, nums = common_denominator(v for block in cd_block_values(T, n) for row in block for v in row)
    nums = iter(nums)  # block row m as (m, [(column, signed R entry)]), zeros dropped
    rows = [(m, [(c, sign * e) for c, e in zip(cols, nums) if e])
            for row_range, cols, sign in ((blocks.tgt_rows, blocks.tgt_cols, 1),
                                          (blocks.src_rows, blocks.src_cols, -1))
            for m in row_range]
    rep = CheckReport()
    for table in tables:
        x, y = table.x, table.y
        xk, yk = Fraction(x[k - 1]), Fraction(y[k - 1])
        a, b = table.a_int, table.b_int
        rbs = [(a[m], [sum(e * b[c][j] for c, e in terms) for j in range(q)])
               for m, terms in rows if terms]
        s = [[sum(a_m[i] * rb[j] for a_m, rb in rbs) for j in range(q)] for i in range(p)]
        u = d_r * (xk.numerator * yk.denominator - yk.numerator * xk.denominator)
        v = xk.denominator * yk.denominator
        if any(u * kv != v * sv for k_row, s_row in zip(table.kernels_int[n], s)
               for kv, sv in zip(k_row, s_row)):
            rep.violations.append(Violation(
                (k, n, f"({x[0]}, {x[1]})", f"({y[0]}, {y[1]})"),
                "(x_k - y_k) K^[n] != block sum"))
        rep.checked += 1
    return rep


def integrate_pair(mm: MeasureMatrix, left: BiPoly, b_idx: int, a_idx: int, right: BiPoly):
    """Exact integral of left(x) * right(x) against measure entry (b_idx, a_idx),
    summed term by term over both coefficient maps: the pairing oracle."""
    measure = mm.entries[b_idx][a_idx]
    total = rat(0)
    for K1, c1 in left.coeffs.items():
        i1, j1 = pair_of(K1)
        for K2, c2 in right.coeffs.items():
            i2, j2 = pair_of(K2)
            total += c1 * c2 * moment(measure, (i1 - j1) + (i2 - j2), j1 + j2)
    return total


def naive_moment(measure, s: int, t: int) -> Fraction:
    """The moment of a Discrete or RectDensity measure in plain Fractions, term by term.

    Atoms are summed as w x^s y^t; a density term c x^(i-j) y^j integrates to
    c times one power-rule integral per axis.  Nothing is scaled or cached.
    """
    def F(v: tuple[int, int]) -> Fraction:
        return Fraction(*v)

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
    return [sum((x * y for x, y in zip(row, rhs)), Fraction(0)) for row in inv]


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
    a, b = Fraction(x1), Fraction(x2)

    def mono(pos: int):
        i, j = pair_of(pos)
        return a ** (i - j) * b ** j

    return [mono(n_plus(n, r, k) // r) for n in range(count)]


def shift_ones_in_complement(r: int, k: int, row_count: int) -> bool:
    """Cross-module consistency: every 1 of the shift operator lands outside J."""
    return all(in_complement_J(target, r, k) for _, target in shift_operator(r, k, row_count).ones)
