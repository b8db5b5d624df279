"""Metamorphic relations through the command line: the transpose duality.

Transposing a q x p config's measure grid gives a p x q config whose moment
matrix is M^T = Sbar^-1 H S^-T, the dual form of M = S^-1 H Sbar^-T.  So
compute and kernel on the two configs must agree, in exact rationals, by

    H' = H,  S' = Sbar,  Sbar' = S,  moments' = moments^T,
    T'_k[m][n] = T_k[n][m] H_m / H_n,
    B'_n = A_n / H_n,  A'_n = B_n H_n  (q and p swapped),
    K'(y, x) = K(x, y)^T.

No closed form is needed, and no formula of the program is restated: the
transposed config is built from the config JSON alone, and both runs go
through steppoly.cli.main.
"""

import json
import random
from fractions import Fraction

import pytest

from steppoly import required_depth
from steppoly.cli import main

from _support import config_json, mixed_mm, table_mm

DEPTH = 12
KERNEL_N = 9
X, Y = ("1/2", "-1/3"), ("-2/7", "1/5")

# (kind, q, p): q < p and q > p, each for a mixed and a table grid
CASES = [("mixed", 1, 2), ("mixed", 2, 1), ("table", 2, 3), ("table", 2, 1)]


def case_id(case) -> str:
    return "-".join(map(str, case))


def original_config(kind: str, q: int, p: int) -> dict:
    rng = random.Random(5 + 10 * q + p)
    mm = mixed_mm(rng, q, p) if kind == "mixed" else table_mm(rng, q, p, required_depth(DEPTH, q, p))
    return {**config_json(mm), "schema_version": 1, "depth": DEPTH}


def transposed_config(obj: dict) -> dict:
    """The config with its measure grid transposed, read off the JSON alone."""
    return {**obj, "q": obj["p"], "p": obj["q"], "measures": [list(col) for col in zip(*obj["measures"])]}


def run(tmp_path, name: str, obj: dict, x, y) -> dict:
    """compute's JSON exports, and kernel.json at (x, y), for one config, as parsed JSON."""
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(obj))
    out = tmp_path / name
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
def runs(tmp_path_factory):
    """(config, exports, transposed exports) per case, each run once per module."""
    cache = {}

    def get(case):
        if case not in cache:
            obj = original_config(*case)
            tmp = tmp_path_factory.mktemp(case_id(case))
            cache[case] = (obj, run(tmp, "original", obj, X, Y),
                           run(tmp, "transposed", transposed_config(obj), Y, X))
        return cache[case]

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
