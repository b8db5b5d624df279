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
"""

import json
from fractions import Fraction
from math import factorial

import pytest

from steppoly.cli import main

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


def legendre(count: int) -> list[list[Fraction]]:
    """Coefficients of the monic Legendre P_0 .. P_{count-1}, lowest power first,
    from P_{a+1} = x P_a - beta_a P_{a-1}."""
    polys = [[Fraction(1)], [Fraction(0), Fraction(1)]]
    while len(polys) < count:
        a = len(polys) - 1
        up = [Fraction(0)] + polys[a]
        polys.append([u - legendre_beta(a) * v for u, v in zip(up, polys[a - 1] + [0, 0])])
    return polys[:count]


def product_row(i: int, j: int) -> dict[int, Fraction]:
    """P_{i-j}(x_1) P_j(x_2) as position -> nonzero coefficient on the step-line."""
    P = legendre(i + 1)
    return {pos_of(a + b, b): u * v for a, u in enumerate(P[i - j]) for b, v in enumerate(P[j]) if u and v}


def textbook_row(k: int, i: int, j: int) -> dict[int, Fraction]:
    """Row (i, j) of T_k on the whole step-line: position -> nonzero entry."""
    if k == 1:
        up, down, beta = (i + 1, j), (i - 1, j), legendre_beta(i - j)
    else:
        up, down, beta = (i + 1, j + 1), (i - 1, j - 1), legendre_beta(j)
    row = {pos_of(*up): Fraction(1)}
    if beta:
        row[pos_of(*down)] = beta
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
