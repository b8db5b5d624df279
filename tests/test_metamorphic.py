"""Metamorphic relations through the command line: the transpose duality, the
scaling of x_1, one added atom (Uvarov) and the commutation of T_1 with T_2.

Transposing a q x p config's measure grid gives a p x q config whose moment
matrix is M^T = Sbar^-1 H S^-T, the dual form of M = S^-1 H Sbar^-T.  So
compute and kernel on the two configs must agree, in exact rationals, by

    H' = H,  S' = Sbar,  Sbar' = S,  moments' = moments^T,
    T'_k[m][n] = T_k[n][m] H_m / H_n,
    B'_n = A_n / H_n,  A'_n = B_n H_n  (q and p swapped),
    K'(y, x) = K(x, y)^T.

Scaling x_1 by c multiplies each moment m(s, t) by c^s, so the new moment
matrix is D_q M D_p, D_r = diag(c^e(n // r)) with e(K) the x_1 exponent of
step-line position K.  Then, with e_r(n) = e(n // r),

    H'_n = c^(e_q(n) + e_p(n)) H_n,
    S'[n][j] = c^(e_q(n) - e_q(j)) S[n][j],  Sbar' the same with p,
    T'_1[m][n] = c^(1 + e_q(m) - e_q(n)) T_1[m][n],  T'_2 the same without the 1,
    K'((c x_1, x_2), (c y_1, y_2)) = K(x, y).

Adding an atom of weight w at the point z to cell (b0, a0) adds w u v^T to
the moment matrix, u[m] the monomial at position m // q at z when m % q = b0
and 0 otherwise, v the same with p and a0.  The matrix determinant lemma on
each leading (n+1) x (n+1) section, with the ABC form K^[n] = X_[p]^T M^-1
X_[q], gives the determinant half of V. B. Uvarov's formula ("The connection
between systems of polynomials orthogonal with respect to different
distribution functions", USSR Comput. Math. Math. Phys. 9(6), 1969):

    H'_0 ... H'_n / (H_0 ... H_n) = 1 + w K^[n](z, z)[a0][b0],

which ties compute's factorization to kernel's elimination.

Lambda_{[q];1} and Lambda_{[q];2} multiply one monomial vector by x_1 and by
x_2, so they commute, and so do T_k = S Lambda_{[q];k} S^-1:

    T_1 T_2 = T_2 T_1.

Row m of either product is a finite sum inside the exported window when
n_plus(m, q, 1) and n_plus(m, q, 2), the last columns row m of T_1 and T_2
reach, are below its size.

No closed form is needed, and no formula of the program is restated: each
transformed config is built from the config JSON alone, the step-line indices
are derived here from the positions of monomials, and every run goes through
steppoly.cli.main.
"""

import json
import random
from fractions import Fraction
from math import isqrt

import pytest

from steppoly import required_depth
from steppoly.cli import main
from steppoly.measures import MeasureMatrix

from _support import config_json, mixed_mm, rand_discrete, table_mm

DEPTH = 12
KERNEL_N = 9
X, Y = ("1/2", "-1/3"), ("-2/7", "1/5")

# (kind, q, p): q < p and q > p, each for a mixed and a table grid
CASES = [("mixed", 1, 2), ("mixed", 2, 1), ("table", 2, 3), ("table", 2, 1)]

# the configs of the Uvarov and commutation relations: CASES and a discrete grid
CONFIGS = CASES + [("discrete", 1, 2)]

# the Uvarov atom: weight W at the point Z
Z, W = ("1/2", "-1/3"), Fraction(2, 5)

# (kind, q, p, c): c > 0 scales the rect cells of the mixed grids, c < 0 the
# table and discrete grids, whose cells take any c
SCALINGS = [("mixed", 1, 2, Fraction(3)), ("mixed", 2, 1, Fraction(3)),
            ("table", 2, 3, Fraction(-1, 2)), ("discrete", 1, 2, Fraction(-1, 2))]


def case_id(case) -> str:
    return "-".join(map(str, case))


def scaling_id(scaling) -> str:
    *case, c = scaling
    return f"{case_id(case)}-c={float(c):g}"


def original_config(kind: str, q: int, p: int) -> dict:
    rng = random.Random(5 + 10 * q + p)
    if kind == "mixed":
        mm = mixed_mm(rng, q, p)
    elif kind == "table":
        mm = table_mm(rng, q, p, required_depth(DEPTH, q, p))
    else:
        mm = MeasureMatrix(q, p, [[rand_discrete(rng) for _ in range(p)] for _ in range(q)])
    return {**config_json(mm), "schema_version": 1, "depth": DEPTH}


def transposed_config(obj: dict) -> dict:
    """The config with its measure grid transposed, read off the JSON alone."""
    return {**obj, "q": obj["p"], "p": obj["q"], "measures": [list(col) for col in zip(*obj["measures"])]}


def x1_exponent(K: int) -> int:
    """e(K): position K = i (i + 1) / 2 + j stands for x_1^(i - j) x_2^j."""
    i = (isqrt(8 * K + 1) - 1) // 2
    return i - (K - i * (i + 1) // 2)


def scaled_config(obj: dict, c: Fraction) -> dict:
    """The config with x_1 scaled by c, read off the JSON alone: table moment
    (s, t) times c^s, atom x times c, and, for c > 0, rect x_1 bounds times c
    and the density coefficient at position K divided by c^(e(K) + 1)."""
    def cell(m: dict) -> dict:
        if m["type"] == "table":
            return {**m, "moments": {st: str(Fraction(v) * c ** int(st.split(",")[0]))
                                     for st, v in m["moments"].items()}}
        if m["type"] == "discrete":
            return {**m, "atoms": [{**atom, "x": str(Fraction(atom["x"]) * c)} for atom in m["atoms"]]}
        assert c > 0, "a rect cell scales only by c > 0"
        lo, hi, *x2_bounds = m["box"]
        return {**m, "box": [str(Fraction(lo) * c), str(Fraction(hi) * c), *x2_bounds],
                "density": {K: str(Fraction(v) / c ** (x1_exponent(int(K)) + 1))
                            for K, v in m["density"].items()}}

    return {**obj, "measures": [[cell(m) for m in row] for row in obj["measures"]]}


def scaled_point(point, c: Fraction) -> tuple[str, str]:
    return str(Fraction(point[0]) * c), point[1]


def with_atom(obj: dict) -> tuple[dict, int, int]:
    """(config, b0, a0): the config with the atom (Z, W) added to its last cell
    (b0, a0) that is not a rect, read off the JSON alone: a discrete cell gains
    the atom, and a table cell's moment (s, t) gains W z_1^s z_2^t."""
    b0, a0 = [(b, a) for b, row in enumerate(obj["measures"])
              for a, m in enumerate(row) if m["type"] != "rect"][-1]
    cell = obj["measures"][b0][a0]
    if cell["type"] == "discrete":
        cell = {**cell, "atoms": [*cell["atoms"], {"x": Z[0], "y": Z[1], "w": str(W)}]}
    else:
        z1, z2 = map(Fraction, Z)
        moments = {}
        for st, v in cell["moments"].items():
            s, t = map(int, st.split(","))
            moments[st] = str(Fraction(v) + W * z1 ** s * z2 ** t)
        cell = {**cell, "moments": moments}
    measures = [list(row) for row in obj["measures"]]
    measures[b0][a0] = cell
    return {**obj, "measures": measures}, b0, a0


def n_plus(n: int, r: int, k: int) -> int:
    """The last column row n of T_k reaches: slot n % r of the monomial at
    position n // r = i (i + 1) / 2 + j, times x_k, sits at position
    (i + 1)(i + 2) / 2 + j + k - 1, which is n // r + i + k."""
    i = (isqrt(8 * (n // r) + 1) - 1) // 2
    return n + r * (i + k)


def kernel_at(tmp_path, obj: dict, n: int, x, y) -> list[list[Fraction]]:
    """kernel.json's matrix K^[n](x, y) for one config."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(obj))
    out = tmp_path / f"kernel-{n}"
    assert main(["kernel", "--config", str(cfg), "--n", str(n),
                 f"--x={','.join(x)}", f"--y={','.join(y)}", "--out", str(out)]) == 0
    return rationals(json.loads((out / "kernel.json").read_text())["matrix"])


def run(tmp_path, obj: dict, x, y) -> dict:
    """compute's JSON exports, and kernel.json at (x, y), for one config, as parsed JSON."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(obj))
    out = tmp_path / "out"
    assert main(["compute", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["kernel", "--config", str(cfg), "--n", str(KERNEL_N),
                 f"--x={','.join(x)}", f"--y={','.join(y)}", "--out", str(out)]) == 0
    return {f.stem: json.loads(f.read_text()) for f in out.glob("*.json")}


def rationals(rows) -> list[list[Fraction]]:
    return [[Fraction(v) for v in row] for row in rows]


def members(family) -> list[list[dict]]:
    """Each member of an exported family as its components, position -> Fraction."""
    return [[{K: Fraction(v) for K, v in comp.items()} for comp in member] for member in family]


@pytest.fixture(scope="module")
def exports(tmp_path_factory):
    """run's exports of a config at (x, y), each config and point pair run once per module."""
    cache = {}

    def get(obj: dict, x, y) -> dict:
        key = json.dumps(obj, sort_keys=True), x, y
        if key not in cache:
            cache[key] = run(tmp_path_factory.mktemp("run"), obj, x, y)
        return cache[key]

    return get


@pytest.fixture(scope="module")
def runs(exports):
    """(config, exports, transposed exports) per case."""
    def get(case):
        obj = original_config(*case)
        return obj, exports(obj, X, Y), exports(transposed_config(obj), Y, X)

    return get


@pytest.fixture(scope="module")
def scaled_runs(exports):
    """(q, p, c, exports, exports with x_1 scaled by c) per scaling."""
    def get(scaling):
        *case, c = scaling
        obj = original_config(*case)
        return (obj["q"], obj["p"], c, exports(obj, X, Y),
                exports(scaled_config(obj, c), scaled_point(X, c), scaled_point(Y, c)))

    return get


@pytest.mark.parametrize("case", CASES, ids=case_id)
class TestTransposeDuality:
    def test_h_unchanged(self, runs, case):
        _, ex, tr = runs(case)
        assert len(ex["H"]["values"]) == DEPTH
        assert [Fraction(v) for v in tr["H"]["values"]] == [Fraction(v) for v in ex["H"]["values"]]

    def test_s_and_sbar_swapped(self, runs, case):
        _, ex, tr = runs(case)
        assert rationals(tr["S"]["entries"]) == rationals(ex["Sbar"]["entries"])
        assert rationals(tr["Sbar"]["entries"]) == rationals(ex["S"]["entries"])

    def test_moments_transposed(self, runs, case):
        _, ex, tr = runs(case)
        assert rationals(tr["moments"]["entries"]) == [list(col) for col in zip(*rationals(ex["moments"]["entries"]))]

    @pytest.mark.parametrize("k", [1, 2])
    def test_recurrence_matrices_conjugated(self, runs, case, k):
        _, ex, tr = runs(case)
        H = [Fraction(v) for v in ex["H"]["values"]]
        T, T_dual = rationals(ex[f"T{k}"]["entries"]), rationals(tr[f"T{k}"]["entries"])
        assert len(T) == DEPTH
        assert T_dual == [[T[n][m] * H[m] / H[n] for n in range(DEPTH)] for m in range(DEPTH)]

    def test_families_swap_sides(self, runs, case):
        obj, ex, tr = runs(case)
        q, p = obj["q"], obj["p"]
        fam, fam_dual = ex["families"], tr["families"]
        assert (fam["q"], fam["p"], fam_dual["q"], fam_dual["p"]) == (q, p, p, q)
        A, B, A_dual, B_dual = (members(f[side]) for f in (fam, fam_dual) for side in ("A", "B"))
        assert len(A) == len(B) == DEPTH
        assert {len(m) for m in A} == {len(m) for m in B_dual} == {p}
        assert {len(m) for m in B} == {len(m) for m in A_dual} == {q}
        H = [Fraction(v) for v in ex["H"]["values"]]
        assert B_dual == [[{K: v / h for K, v in comp.items()} for comp in m] for m, h in zip(A, H)]
        assert A_dual == [[{K: v * h for K, v in comp.items()} for comp in m] for m, h in zip(B, H)]

    def test_kernel_transposed(self, runs, case):
        obj, ex, tr = runs(case)
        K, K_dual = rationals(ex["kernel"]["matrix"]), rationals(tr["kernel"]["matrix"])
        assert (len(K), len(K[0])) == (obj["p"], obj["q"])
        assert K_dual == [list(col) for col in zip(*K)]



@pytest.mark.parametrize("scaling", SCALINGS, ids=scaling_id)
class TestX1Scaling:
    def test_moments_scaled(self, scaled_runs, scaling):
        q, p, c, ex, sc = scaled_runs(scaling)
        e = x1_exponent
        M = rationals(ex["moments"]["entries"])
        assert rationals(sc["moments"]["entries"]) == [
            [c ** (e(m // q) + e(n // p)) * v for n, v in enumerate(row)] for m, row in enumerate(M)]

    def test_h_scaled(self, scaled_runs, scaling):
        q, p, c, ex, sc = scaled_runs(scaling)
        e = x1_exponent
        H = [Fraction(v) for v in ex["H"]["values"]]
        assert len(H) == DEPTH
        assert [Fraction(v) for v in sc["H"]["values"]] == [c ** (e(n // q) + e(n // p)) * h for n, h in enumerate(H)]

    @pytest.mark.parametrize("side", ["S", "Sbar"])
    def test_factor_scaled(self, scaled_runs, scaling, side):
        q, p, c, ex, sc = scaled_runs(scaling)
        e, r = x1_exponent, q if side == "S" else p
        S = rationals(ex[side]["entries"])
        assert rationals(sc[side]["entries"]) == [
            [c ** (e(n // r) - e(j // r)) * v for j, v in enumerate(row)] for n, row in enumerate(S)]

    @pytest.mark.parametrize("k", [1, 2])
    def test_recurrence_matrices_scaled(self, scaled_runs, scaling, k):
        q, p, c, ex, sc = scaled_runs(scaling)
        e = x1_exponent
        T = rationals(ex[f"T{k}"]["entries"])
        assert len(T) == DEPTH
        assert rationals(sc[f"T{k}"]["entries"]) == [
            [c ** ((k == 1) + e(m // q) - e(n // q)) * v for n, v in enumerate(row)] for m, row in enumerate(T)]

    def test_kernel_unchanged(self, scaled_runs, scaling):
        q, p, c, ex, sc = scaled_runs(scaling)
        K = rationals(ex["kernel"]["matrix"])
        assert (len(K), len(K[0])) == (p, q)
        assert rationals(sc["kernel"]["matrix"]) == K


@pytest.mark.parametrize("case", CONFIGS, ids=case_id)
class TestUvarov:
    def test_h_products_ratio_is_one_plus_w_times_the_kernel(self, exports, tmp_path, case):
        obj = original_config(*case)
        atom_obj, b0, a0 = with_atom(obj)
        H = [Fraction(v) for v in exports(obj, X, Y)["H"]["values"]]
        H_atom = [Fraction(v) for v in exports(atom_obj, X, Y)["H"]["values"]]
        assert len(H) == len(H_atom) == DEPTH
        ratio = Fraction(1)
        for n in range(DEPTH):
            ratio *= H_atom[n] / H[n]
            assert ratio == 1 + W * kernel_at(tmp_path, obj, n, Z, Z)[a0][b0], n


@pytest.mark.parametrize("case", CONFIGS, ids=case_id)
class TestCommutation:
    def test_t1_t2_commute_on_the_rows_inside_the_window(self, exports, case):
        obj = original_config(*case)
        ex, q = exports(obj, X, Y), obj["q"]
        T1, T2 = (rationals(ex[f"T{k}"]["entries"]) for k in (1, 2))
        # n_plus(m, q, 1) is n_plus(m, q, 2) - q, so one bound covers both
        rows = [m for m in range(DEPTH) if n_plus(m, q, 2) < DEPTH]
        assert rows and len(T1) == len(T2) == DEPTH
        for m in rows:
            T12 = [sum(T1[m][j] * T2[j][n] for j in range(DEPTH)) for n in range(DEPTH)]
            T21 = [sum(T2[m][j] * T1[j][n] for j in range(DEPTH)) for n in range(DEPTH)]
            assert T12 == T21, m
