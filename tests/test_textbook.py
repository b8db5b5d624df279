"""A textbook oracle: the uniform density on [-1, 1]^2 has closed forms.

For q = p = 1 and a product measure w(x_1) v(x_2), the monic step-line member
at the pair (i, j) is P_{i-j}(x_1) Q_j(x_2), with P and Q the univariate monic
orthogonal polynomials of w and v: every other term of the product sits
earlier on the step-line, and the product is orthogonal to every earlier
monomial.  For w = v = 1 on [-1, 1] these are the monic Legendre polynomials,
with norms h_a = 2^(2a+1) (a!)^4 / ((2a)!^2 (2a+1)) and three-term recurrence
x P_a = P_{a+1} + beta_a P_{a-1}, beta_a = a^2 / (4a^2 - 1) (W. Gautschi,
Orthogonal Polynomials: Computation and Approximation, 2004, Table 1.1).  So

    H at (i, j) = h_{i-j} h_j,
    row (i, j) of T1 = 1 at (i+1, j) and beta_{i-j} at (i-1, j),
    row (i, j) of T2 = 1 at (i+1, j+1) and beta_j at (i-1, j-1),

and every other entry is 0.  Row (i, j) of S and of Sbar holds the
coefficients of P_{i-j}(x_1) P_j(x_2), x_1^a x_2^b at the position of the pair
(a + b, b); member n of A in families.json is that row, and member n of B
that row over H_n.  The values come from these formulas in Fraction, never
from moments or from steppoly: the oracle shares no code with the route it
checks, and pins the band positions n_plus and n_minus_big place.

Unit weights on the grid {0, ..., N-1}^2 are the product of two discrete
Chebyshev measures, whose monic polynomials have norms h_0 = N and h_a =
h_{a-1} a^2 (N^2 - a^2) / (4 (4a^2 - 1)) (Gautschi, as above).  So H at
(i, j) is h_{i-j} h_j again, nonzero up to the pair (N-1, N-1), and h_N = 0:
the first leading minor to vanish is the one ending at (N, 0), position
B = N(N+1)/2, and every command that factorizes past B reports a breakdown
at index B.

The kernel K^[n](x, y) of the uniform density is the sum over positions
m <= n of A_m(x) B_m(y), each term a Legendre product at x times the same
product at y over its norm.  The last part of the file takes q = p = 2 and
the measure matrix [[mu, mu], [0, nu]], whose factors interleave the Legendre
forms with the Gegenbauer forms of nu = (1 - x_1^2)(1 - x_2^2).
"""

import json
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

from steppoly import assemble_moments, factorize
from steppoly.cli import load_config, main

from _support import pos_of

DEPTH = 32
UNIFORM = {"schema_version": 1, "q": 1, "p": 1, "depth": DEPTH, "seed": 0,
           "measures": [[{"type": "rect", "box": ["-1", "1", "-1", "1"], "density": {"0": "1"}}]]}


def pairs(count: int):
    """The first count step-line pairs (i, j), in order."""
    return [(i, j) for i in range(count) for j in range(i + 1)][:count]


def legendre_norm(a: int) -> Fraction:
    return Fraction(2 ** (2 * a + 1) * factorial(a) ** 4, factorial(2 * a) ** 2 * (2 * a + 1))


def legendre_beta(a: int) -> Fraction:
    return Fraction(a * a, 4 * a * a - 1)


def gegenbauer_beta(a: int) -> Fraction:
    """beta_a of the monic Gegenbauer (Jacobi alpha = beta = 1) polynomials, weight 1 - x^2."""
    return Fraction(a * (a + 2), (2 * a + 1) * (2 * a + 3))


def gegenbauer_norm(a: int) -> Fraction:
    """g_a = (4/3) beta_1 ... beta_a, the integral of G_a^2 (1 - x^2) over [-1, 1]."""
    g = Fraction(4, 3)
    for b in range(1, a + 1):
        g *= gegenbauer_beta(b)
    return g


def monic(beta, count: int) -> list[list[Fraction]]:
    """Coefficients of the monic P_0 .. P_{count-1} of the recurrence coefficients
    beta, lowest power first, from P_{a+1} = x P_a - beta_a P_{a-1}."""
    polys = [[Fraction(1)], [Fraction(0), Fraction(1)]]
    while len(polys) < count:
        a = len(polys) - 1
        up = [Fraction(0)] + polys[a]
        polys.append([u - beta(a) * v for u, v in zip(up, polys[a - 1] + [0, 0])])
    return polys[:count]


def product_row(i: int, j: int, beta=legendre_beta) -> dict[int, Fraction]:
    """P_{i-j}(x_1) P_j(x_2) as position -> nonzero coefficient on the step-line,
    P the monic polynomials of beta (Legendre by default)."""
    P = monic(beta, i + 1)
    return {pos_of(a + b, b): u * v for a, u in enumerate(P[i - j]) for b, v in enumerate(P[j]) if u and v}


def textbook_row(k: int, i: int, j: int, beta=legendre_beta) -> dict[int, Fraction]:
    """Row (i, j) of T_k on the whole step-line: position -> nonzero entry."""
    if k == 1:
        up, down, b = (i + 1, j), (i - 1, j), beta(i - j)
    else:
        up, down, b = (i + 1, j + 1), (i - 1, j - 1), beta(j)
    row = {pos_of(*up): Fraction(1)}
    if b:
        row[pos_of(*down)] = b
    return row


@pytest.fixture(scope="module")
def exports(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("uniform")
    (tmp / "config.json").write_text(json.dumps(UNIFORM))
    assert main(["compute", "--config", str(tmp / "config.json"), "--out", str(tmp / "out")]) == 0
    return {kind: json.loads((tmp / "out" / f"{kind}.json").read_text())
            for kind in ("H", "S", "Sbar", "T1", "T2", "families")}


def test_h_is_the_product_of_legendre_norms(exports):
    values = exports["H"]["values"]
    assert len(values) == DEPTH
    for n, (i, j) in enumerate(pairs(DEPTH)):
        assert Fraction(values[n]) == legendre_norm(i - j) * legendre_norm(j), (i, j)


@pytest.mark.parametrize("k", (1, 2))
def test_recurrence_rows_are_the_textbook_rows(exports, k):
    entries = exports[f"T{k}"]["entries"]
    assert len(entries) == DEPTH and all(len(row) == DEPTH for row in entries)
    for n, (i, j) in enumerate(pairs(DEPTH)):
        want = {c: v for c, v in textbook_row(k, i, j).items() if c < DEPTH}
        got = {c: Fraction(v) for c, v in enumerate(entries[n]) if v != "0"}
        assert got == want, (k, i, j)


@pytest.mark.parametrize("kind", ("S", "Sbar"))
def test_factor_rows_are_the_legendre_products(exports, kind):
    entries = exports[kind]["entries"]
    assert len(entries) == DEPTH and all(len(row) == DEPTH for row in entries)
    for n, (i, j) in enumerate(pairs(DEPTH)):
        got = {c: Fraction(v) for c, v in enumerate(entries[n]) if v != "0"}
        assert got == product_row(i, j), (kind, i, j)


def test_families_are_the_legendre_products(exports):
    families = exports["families"]
    assert (families["q"], families["p"]) == (1, 1)
    assert len(families["A"]) == len(families["B"]) == DEPTH
    for n, (i, j) in enumerate(pairs(DEPTH)):
        row, h = product_row(i, j), legendre_norm(i - j) * legendre_norm(j)
        (a,), (b,) = families["A"][n], families["B"][n]
        assert {int(c): Fraction(v) for c, v in a.items()} == row, ("A", i, j)
        assert {int(c): Fraction(v) for c, v in b.items()} == {c: v / h for c, v in row.items()}, ("B", i, j)


def grid_config(N: int, depth: int) -> dict:
    """Unit weights on the grid {0, ..., N-1}^2, q = p = 1."""
    atoms = [{"x": str(x), "y": str(y), "w": "1"} for x in range(N) for y in range(N)]
    return {"schema_version": 1, "q": 1, "p": 1, "depth": depth, "seed": 0,
            "measures": [[{"type": "discrete", "atoms": atoms}]]}


def chebyshev_norm(N: int, a: int) -> Fraction:
    """h_a of the monic discrete Chebyshev polynomials on {0, ..., N-1}."""
    h = Fraction(N)
    for b in range(1, a + 1):
        h *= Fraction(b * b * (N * N - b * b), 4 * (4 * b * b - 1))
    return h


@pytest.mark.parametrize("N", (2, 3, 4, 5))
def test_grid_breaks_down_at_the_first_vanishing_norm(tmp_path, capsys, N):
    B = N * (N + 1) // 2

    def run(command: str, depth: int) -> tuple[int, str, Path]:
        cfg, out = tmp_path / f"{command}-{depth}.json", tmp_path / f"{command}-{depth}"
        cfg.write_text(json.dumps(grid_config(N, depth)))
        code = main([command, "--config", str(cfg), "--out", str(out)])
        return code, capsys.readouterr().err, out

    code, _, out = run("verify", B + 1)
    report = json.loads((out / "report.json").read_text())
    assert (code, report["status"], report["breakdown_index"]) == (2, "breakdown", B)
    # at B - 1 the vanishing minor lies past the depth window, among the
    # extended rows that only the certificate or the full fallback decides
    for depth in (B + 1, B - 1):
        assert run("compute", depth)[:2] == (2, f"factorization breakdown at index {B}\n"), depth
    assert run("compute", 1)[0] == 0
    # the B x B truncation, the largest that factorizes, has the product norms
    (tmp_path / "grid.json").write_text(json.dumps(grid_config(N, B)))
    F = factorize(assemble_moments(load_config(tmp_path / "grid.json").measures, B))
    assert F.diagonal(B, Fraction) == [chebyshev_norm(N, i - j) * chebyshev_norm(N, j) for i, j in pairs(B)]


def evaluate(poly: list[Fraction], x: Fraction) -> Fraction:
    return sum(c * x ** e for e, c in enumerate(poly))


def kernel_sum(n: int, x: tuple, y: tuple) -> Fraction:
    """The sum over positions m <= n, at the pair (i, j), of
    P_{i-j}(x_1) P_j(x_2) P_{i-j}(y_1) P_j(y_2) / (h_{i-j} h_j), P monic Legendre."""
    P, total = monic(legendre_beta, n + 1), Fraction(0)
    for i, j in pairs(n + 1):
        a, b = P[i - j], P[j]
        term = evaluate(a, x[0]) * evaluate(b, x[1]) * evaluate(a, y[0]) * evaluate(b, y[1])
        total += term / (legendre_norm(i - j) * legendre_norm(j))
    return total


@pytest.mark.parametrize("n", (0, 4, 13, 20))
def test_kernel_is_the_legendre_sum(tmp_path, n):
    # the kernel of the uniform density is the sum of A_m(x) B_m(y), and each
    # member is a Legendre product; the negative first coordinate takes the
    # --x=... form
    cfg = tmp_path / "uniform.json"
    cfg.write_text(json.dumps(UNIFORM))
    points = [("1/2,-1/3", "2/7,1/5"), ("-1/2,1/3", "0,3/4"), ("3,-2", "-5/4,1/6")]
    for t, (x, y) in enumerate(points):
        out = tmp_path / f"k{t}"
        assert main(["kernel", "--config", str(cfg), "--n", str(n), f"--x={x}", f"--y={y}",
                     "--out", str(out)]) == 0
        matrix = json.loads((out / "kernel.json").read_text())["matrix"]
        want = kernel_sum(n, tuple(map(Fraction, x.split(","))), tuple(map(Fraction, y.split(","))))
        assert [[Fraction(v) for v in row] for row in matrix] == [[want]], (n, x, y)


# ---- q = p = 2: the measure matrix [[mu, mu], [0, nu]] ------------------------
#
# With mu uniform and nu = (1 - x_1^2)(1 - x_2^2) on [-1, 1]^2, the indices
# ordered by parity make the moment matrix [[A, A], [0, C]], A and C the
# q = p = 1 moment matrices of mu and nu.  With A = L_A H_A L_A^T and
# C = L_C H_C L_C^T, its Gauss-Borel factors are S^-1 = [[L_A, 0], [0, L_C]]
# and Sbar^-T = [[L_A^T, L_A^T], [0, L_C^T]], both triangular again once the
# indices interleave.  So at the index n = 2K + b, with (i, j) the pair of K:
#
#     H_n = the norm of mu's (b = 0) or nu's (b = 1) product polynomial at (i, j),
#     row n of S and of T_k = row K of mu's or nu's, on the columns of parity b,
#     row 2K of Sbar = row 2K of S, row 2K + 1 of Sbar = -Q on the even
#     columns and Q on the odd ones, Q = row K of nu's S,
#
# so B_{2K} = (P / H_{2K}, 0), B_{2K+1} = (0, Q / H_{2K+1}), A_{2K} = (P, 0)
# and A_{2K+1} = (-Q, Q), with P and Q the Legendre and Gegenbauer products.
# S and Sbar differ, and the families' components sit in two slots each.

SQUARE = ["-1", "1", "-1", "1"]
TRIANGULAR = {"schema_version": 1, "q": 2, "p": 2, "depth": DEPTH, "seed": 0, "measures": [
    [{"type": "rect", "box": SQUARE, "density": {"0": "1"}}] * 2,
    [{"type": "discrete", "atoms": []},
     {"type": "rect", "box": SQUARE, "density": {"0": "1", "3": "-1", "5": "-1", "12": "1"}}]]}
# slot b = 0 is mu's (Legendre), slot b = 1 nu's (Gegenbauer)
SIDES = ((legendre_beta, legendre_norm), (gegenbauer_beta, gegenbauer_norm))
# (n, b, (i, j)) for each index n = 2K + b of the depth window, (i, j) the pair of K
INDICES = [(2 * K + b, b, ij) for K, ij in enumerate(pairs(DEPTH // 2)) for b in (0, 1)]


def interleaved(row: dict[int, Fraction], b: int) -> dict[int, Fraction]:
    """A q = p = 1 row moved onto the columns of parity b."""
    return {2 * c + b: v for c, v in row.items()}


@pytest.fixture(scope="module")
def triangular(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("triangular")
    (tmp / "config.json").write_text(json.dumps(TRIANGULAR))
    assert main(["compute", "--config", str(tmp / "config.json"), "--out", str(tmp / "out")]) == 0
    return {kind: json.loads((tmp / "out" / f"{kind}.json").read_text())
            for kind in ("H", "S", "Sbar", "T1", "T2", "families")}


def test_triangular_h_interleaves_the_two_norms(triangular):
    values = triangular["H"]["values"]
    assert len(values) == DEPTH
    for n, b, (i, j) in INDICES:
        norm = SIDES[b][1]
        assert Fraction(values[n]) == norm(i - j) * norm(j), (n, i, j)


@pytest.mark.parametrize("k", (1, 2))
def test_triangular_recurrence_rows_interleave(triangular, k):
    entries = triangular[f"T{k}"]["entries"]
    assert len(entries) == DEPTH and all(len(row) == DEPTH for row in entries)
    for n, b, (i, j) in INDICES:
        want = {c: v for c, v in interleaved(textbook_row(k, i, j, SIDES[b][0]), b).items() if c < DEPTH}
        got = {c: Fraction(v) for c, v in enumerate(entries[n]) if v != "0"}
        assert got == want, (k, n, i, j)


def test_triangular_s_and_sbar_differ_on_the_odd_rows(triangular):
    S, Sbar = triangular["S"]["entries"], triangular["Sbar"]["entries"]
    assert Sbar[3][:4] == ["0", "0", "-1", "1"] and S[3][:4] == ["0", "0", "0", "1"]
    for n, b, (i, j) in INDICES:
        row = product_row(i, j, SIDES[b][0])
        want = interleaved(row, b)
        assert {c: Fraction(v) for c, v in enumerate(S[n]) if v != "0"} == want, ("S", n)
        if b:
            want = {**interleaved({c: -v for c, v in row.items()}, 0), **want}
        assert {c: Fraction(v) for c, v in enumerate(Sbar[n]) if v != "0"} == want, ("Sbar", n)


def test_triangular_families_sit_in_their_slots(triangular):
    families = triangular["families"]
    assert (families["q"], families["p"]) == (2, 2)
    assert len(families["A"]) == len(families["B"]) == DEPTH
    for n, b, (i, j) in INDICES:
        beta, norm = SIDES[b]
        row, h = product_row(i, j, beta), norm(i - j) * norm(j)
        a_want = [{c: -v for c, v in row.items()}, row] if b else [row, {}]
        b_want = [{}, {}]
        b_want[b] = {c: v / h for c, v in row.items()}
        for label, want in (("A", a_want), ("B", b_want)):
            got = [{int(c): Fraction(v) for c, v in comp.items()} for comp in families[label][n]]
            assert got == want, (label, n, i, j)


def test_triangular_verify_passes_every_check(tmp_path):
    cfg = tmp_path / "triangular.json"
    cfg.write_text(json.dumps({**TRIANGULAR, "depth": 16}))
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "v")]) == 0
    report = json.loads((tmp_path / "v" / "report.json").read_text())
    assert report["summary"] == {"pass": 11, "fail": 0, "skipped": 0}
