"""Acceptance gate: one test per headline guarantee, in fixed order.

Run `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion.  Every identity is asserted in exact rational arithmetic with zero
tolerance; runtime ceilings guard the three criteria that carry them.
"""

import json
import random
import time
from pathlib import Path

import pytest

from steppoly import (
    assemble_moments,
    build_recurrence,
    check_biorthogonality,
    factorize,
    pairing_matrix,
    rat,
    required_depth,
)
from steppoly.cdkernel import (
    KernelTable,
    cd_blocks,
    check_abc,
    check_cd_formula,
    check_projection,
    check_reproduction,
)
from steppoly.cli import main, seeded_monic_matrix, seeded_point
from steppoly.errors import Breakdown
from steppoly.families import (
    check_orthogonality,
    degree_bound,
    validate_degree_structure,
)
from steppoly.measures import MeasureMatrix, MomentTable
from steppoly.moments import hankel_mismatches
from steppoly.recurrence import (
    check_dual_form,
    check_recurrence_matrix,
    recurrence_n_max,
    validate_band,
)
from steppoly.report import CheckReport, Violation
from steppoly.stepline import in_complement_J, n_minus_big, n_plus, pair_of, pos_of

from _support import (
    SHAPES,
    build_system,
    corner,
    deg_x1,
    deg_x2,
    grid_values,
    invert_unitriangular,
    mat_eq,
    members,
    mixed_mm,
    poly,
    reconstruct,
    solve_a_col,
    solve_b_row,
    stored_inverses,
)

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_criterion_1_index_suite():
    start = time.perf_counter()

    # round trip and bijection of the position pairing
    expected = 0
    for i in range(64):
        for j in range(i + 1):
            assert pos_of(i, j) == expected
            assert pair_of(expected)[:2] == (i, j)
            expected += 1

    for r in (1, 2, 3):
        for k in (1, 2):
            image = set()
            m = 0
            while True:
                v = n_plus(m, r, k)
                image.add(v)
                if v > 1000 + 3 * r:
                    break
                m += 1
            values = [n_plus(n, r, k) for n in range(1000)]
            assert all(a < b for a, b in zip(values, values[1:])), "strictly increasing"
            for n in range(1000):
                # membership agrees with brute-force image enumeration
                assert in_complement_J(n, r, k) == (n in image), (n, r, k)
                # the preimage map inverts the smallest image point >= n
                target = n_plus(n_minus_big(n, r, k), r, k)
                assert target >= n and in_complement_J(target, r, k)
                assert not any(n <= v < target for v in image if v < target)
            for n in range(1000):
                assert n_minus_big(n_plus(n, r, k), r, k) == n

    # the eight anchored positions read off the printed recurrence displays
    assert n_plus(0, 1, 1) == 1
    assert n_plus(1, 1, 1) == 3
    assert n_plus(2, 1, 1) == 4
    assert n_plus(3, 1, 1) == 6
    assert n_plus(0, 1, 2) == 2
    assert n_plus(1, 1, 2) == 4
    assert n_minus_big(3, 1, 1) == 1
    assert n_minus_big(4, 2, 1) == 2

    assert time.perf_counter() - start < 5.0


def test_criterion_2_factorization_suite():
    start = time.perf_counter()
    depth = 20
    for idx, (q, p) in enumerate(SHAPES):
        extended = required_depth(depth, q, p)
        for j in range(10):
            seed = 100 * idx + j
            symmetric = q == p and j % 2 == 0
            tries = 0
            while True:
                rng = random.Random(seed + 100000 * tries)
                mm = mixed_mm(rng, q, p, symmetric=symmetric)
                M = assemble_moments(mm, extended)
                try:
                    F = factorize(M)
                    break
                except Breakdown:
                    tries += 1
                    assert tries < 6, f"too many degenerate draws at {(q, p, seed)}"
            assert mat_eq(reconstruct(F), M.data), (q, p, seed)
            S_inv, Sbar_inv = stored_inverses(F)
            assert S_inv == invert_unitriangular(F.S), (q, p, seed)
            assert Sbar_inv == invert_unitriangular(F.Sbar), (q, p, seed)
            for d in range(1, extended):
                Fd = factorize(corner(M.data, d))
                assert Fd.S == corner(F.S, d)
                assert Fd.Sbar == corner(F.Sbar, d)
                assert Fd.H == F.H[:d]
            if symmetric:
                assert F.S == F.Sbar, (q, p, seed)

    # a constructed vanishing second minor must break down deterministically
    degenerate = MeasureMatrix(
        1, 1, [[MomentTable(6, {(0, 0): rat(1), (1, 0): rat(1), (2, 0): rat(1)})]]
    )
    with pytest.raises(Breakdown) as exc:
        factorize(assemble_moments(degenerate, 3))
    assert exc.value.index == 1

    assert time.perf_counter() - start < 120.0


def test_criterion_3_orthogonality_and_oracle():
    for q, p in SHAPES:
        system = build_system(q, p, 20, seed=301)
        rep = check_orthogonality(system.A, system.B, system.M)
        assert rep.ok and rep.checked > 0, (q, p, rep.violations[:1])
        rep = check_biorthogonality(pairing_matrix(system.A, system.B, system.M))
        assert rep.ok and rep.checked == 400, (q, p, rep.violations[:1])

    for q, p in SHAPES:
        system = build_system(q, p, 12, seed=302)
        for n in range(12):
            assert [w.coeffs for w in solve_b_row(system.M.data, n, q)] == [
                poly(system.B, n, b).coeffs for b in range(q)
            ], (q, p, n)
            assert [w.coeffs for w in solve_a_col(system.M.data, n, p)] == [
                poly(system.A, n, a).coeffs for a in range(p)
            ], (q, p, n)


def test_criterion_4_degree_structure():
    for q, p in SHAPES:
        system = build_system(q, p, 20, seed=401)
        rep = validate_degree_structure(system.A, system.B, q, p)
        assert rep.ok, (q, p, rep.violations[:1])
        for n in range(20):
            for b in range(q):
                bound = degree_bound(n, b, q)
                pol = poly(system.B, n, b)
                assert pol.grlex_pos <= bound
                if n % q == b:  # n = Mq + b: the bound is attained
                    assert pol.grlex_pos == bound and pol.leading_coeff() != 0
            for a in range(p):
                bound = degree_bound(n, a, p)
                pol = poly(system.A, n, a)
                assert pol.grlex_pos <= bound
                if n % p == a:  # n = Mp + a: attained and monic
                    assert pol.grlex_pos == bound and pol.leading_coeff() == 1


def test_criterion_5_recurrence():
    window = 27  # covers every band through n = 14 for r <= 3, both directions
    for q, p in SHAPES:
        system = build_system(q, p, required_depth(window, q, p), seed=501)
        for k in (1, 2):
            assert not hankel_mismatches(system.M, k), (q, p, k)
            T = build_recurrence(system.F, q, p, k, window)
            assert check_dual_form(T, system.F).ok, (q, p, k)
            band = validate_band(T)
            assert band.ok, (q, p, k, band.violations[:1])
            n_max = recurrence_n_max(T, len(system.A), len(system.B))
            assert n_max >= 15
            rep = check_recurrence_matrix(T, system.A, system.B)
            assert rep.ok, (q, p, k, rep.violations[:1])
            assert rep.checked == n_max * (q + p), (q, p, k)


def _max_deg(fam, count, axis):
    degs = []
    for n in range(count):
        for idx in range(fam.r):
            pol = poly(fam, n, idx)
            degs.append(deg_x1(pol) if axis == 1 else deg_x2(pol))
    return max(degs)


def test_criterion_6_cd_abc_reproduction_projection():
    start = time.perf_counter()
    n_top = 10
    for q, p in [(1, 2), (2, 2)]:
        window = 1 + max(max(n_plus(n_top, r, k) for k in (1, 2)) for r in (q, p))
        system = build_system(q, p, required_depth(window, q, p), seed=601)
        T = {k: build_recurrence(system.F, q, p, k, window) for k in (1, 2)}

        # per-variable degrees over every family member the identity can touch;
        # grids exceed the identity degree by one on each axis
        lim_a = 1 + max(n_plus(n_top, p, k) for k in (1, 2))
        lim_b = 1 + max(n_plus(n_top, q, k) for k in (1, 2))
        dx1 = _max_deg(system.A, lim_a, 1) + 1
        dx2 = _max_deg(system.A, lim_a, 2) + 1
        dy1 = _max_deg(system.B, lim_b, 1) + 1
        dy2 = _max_deg(system.B, lim_b, 2) + 1
        xs = [(a, b) for a in grid_values(dx1 + 2) for b in grid_values(dx2 + 2)]
        ys = [(a, b) for a in grid_values(dy1 + 2) for b in grid_values(dy2 + 2)]

        # members evaluated term by term, apart from the KernelTable route
        a_members, b_members = members(system.A.head(lim_a)), members(system.B.head(lim_b))
        a_cache = {x: [[c.eval(*x) for c in comps] for comps in a_members] for x in xs}
        b_cache = {y: [[c.eval(*y) for c in comps] for comps in b_members] for y in ys}
        blocks_kn = {
            (k, n): cd_blocks(T[k], n, k)
            for k in (1, 2)
            for n in range(n_top + 1)
        }

        for x in xs:
            a_x = a_cache[x]
            for y in ys:
                b_y = b_cache[y]
                kern = [[rat(0)] * q for _ in range(p)]
                for n in range(n_top + 1):
                    for a_idx in range(p):
                        for b_idx in range(q):
                            kern[a_idx][b_idx] += a_x[n][a_idx] * b_y[n][b_idx]
                    for k in (1, 2):
                        blocks = blocks_kn[(k, n)]
                        factor = x[k - 1] - y[k - 1]
                        for a_idx in range(p):
                            for b_idx in range(q):
                                rhs = rat(0)
                                for bi, m in enumerate(blocks.tgt_rows):
                                    for bj, c in enumerate(blocks.tgt_cols):
                                        v = blocks.r_tgt[bi][bj]
                                        if v != 0:
                                            rhs += a_x[m][a_idx] * v * b_y[c][b_idx]
                                for bi, m in enumerate(blocks.src_rows):
                                    for bj, c in enumerate(blocks.src_cols):
                                        v = blocks.r_src[bi][bj]
                                        if v != 0:
                                            rhs -= a_x[m][a_idx] * v * b_y[c][b_idx]
                                assert factor * kern[a_idx][b_idx] == rhs, (
                                    q, p, k, n, x, y,
                                )

        # tie the inline evaluation back to the library predicate on a sample
        sample = [(xs[0], ys[-1]), (xs[-1], ys[0]), (xs[len(xs) // 2], ys[len(ys) // 2])]
        sample_tables = [KernelTable(system.A, system.B, x, y, window) for x, y in sample]
        for k in (1, 2):
            blocks = cd_blocks(T[k], 3, k)
            rep = check_cd_formula(blocks, sample_tables)
            assert rep.ok and rep.checked == len(sample)

        rng = random.Random(602)
        pairs = [(seeded_point(rng), seeded_point(rng)) for _ in range(10)]
        pair_tables = [KernelTable(system.A, system.B, x, y, n_top + 1) for x, y in pairs]
        for n in range(n_top + 1):
            rep = check_abc(system.M, n, pair_tables)
            assert rep.ok and rep.checked == len(pairs), (q, p, n)

        gram = pairing_matrix(system.A.head(n_top + 1), system.B.head(n_top + 1), system.M)
        assert check_biorthogonality(gram).ok
        assert check_reproduction(system.A, system.B, gram, n_top).ok

        for I in (1, 2, 3):
            P = seeded_monic_matrix(rng, p, I)
            assert check_projection(system.A, system.B, system.M, I * p + p - 1, P).ok
            P_dual = seeded_monic_matrix(rng, q, I)
            assert check_projection(
                system.B, system.A, system.M.transpose(), I * q + q - 1, list(zip(*P_dual))
            ).ok

    assert time.perf_counter() - start < 180.0


def test_criterion_7_worked_example_window():
    q, p = 1, 2
    window = 24  # covers the printed 17 x 14 region with every band complete
    system = build_system(q, p, required_depth(window, q, p), seed=701)
    for k in (1, 2):
        T = build_recurrence(system.F, q, p, k, window)
        for m in range(17):
            lo, hi = T.row_band(m)
            for c in range(14):
                value = T.data[m][c]
                if c == hi:
                    assert value == 1, (k, m, c)
                elif m == n_plus(c, p, k):
                    ratio = T.H[m] / T.H[c]
                    assert value == ratio and value != 0, (k, m, c)
                elif c < lo or c > hi:
                    assert value == 0, (k, m, c)
        # columns open with a 1 exactly at image points of the row shift
        for c in range(14):
            top, _ = T.col_band(c)
            if in_complement_J(c, q, k):
                assert T.data[top][c] == 1, (k, c)

    # the block pair displayed for n = 3 in the first direction
    T1 = build_recurrence(system.F, q, p, 1, window)
    blocks = cd_blocks(T1, 3, 1)
    assert list(blocks.tgt_rows) == [4, 5, 6, 7]
    assert list(blocks.tgt_cols) == [2, 3]
    assert list(blocks.src_rows) == [2, 3]
    assert list(blocks.src_cols) == [4, 5, 6]
    assert blocks.t_src[0] == [rat(1), rat(0), rat(0)]
    assert blocks.t_src[1][2] == 1
    assert blocks.t_src[1][0] == T1.data[3][4]
    assert blocks.t_tgt[3][0] == 0  # row 7, column 2 sits outside the band
    assert blocks.t_tgt[0][1] == T1.data[4][3]
    for bi, m in enumerate(blocks.tgt_rows):
        for bj, c in enumerate(blocks.tgt_cols):
            assert blocks.t_tgt[bi][bj] == T1.data[m][c]


def test_criterion_8_cli_contract(tmp_path, monkeypatch):
    cfg = GOLDEN / "config.json"

    # determinism: two fresh runs agree byte for byte with the committed files
    for run_dir in (tmp_path / "r1", tmp_path / "r2"):
        assert main(["compute", "--config", str(cfg), "--out", str(run_dir / "exports")]) == 0
        assert main(["verify", "--config", str(cfg), "--out", str(run_dir)]) == 0
        assert (
            main(
                [
                    "kernel", "--config", str(cfg), "--n", "4",
                    "--x", "1/2,-1/3", "--y", "2/7,1/5", "--out", str(run_dir),
                ]
            )
            == 0
        )
    golden_files = sorted(f for f in GOLDEN.rglob("*") if f.is_file())
    compared = 0
    for fresh_root in (tmp_path / "r1", tmp_path / "r2"):
        for golden_file in golden_files:
            if golden_file.name in ("config.json", "regenerate.py"):
                continue
            fresh = fresh_root / golden_file.relative_to(GOLDEN)
            assert fresh.read_bytes() == golden_file.read_bytes(), golden_file.name
            compared += 1
    assert compared == 30  # 13 exports + report + kernel, twice

    report = json.loads((tmp_path / "r1" / "report.json").read_text())
    assert report["schema_version"] == 1
    assert report["summary"]["fail"] == 0

    # exit-code mapping: 0 covered above; now 1, 2, 3
    import steppoly.cli as cli_mod

    with monkeypatch.context() as mp:
        mp.setattr(cli_mod, "check_dual_form",
                   lambda *a, **k: CheckReport("dual", [Violation("dual", (), "forced")], 1))
        assert main(["verify", "--config", str(cfg)]) == 1

    broken = tmp_path / "broken.json"
    broken.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "q": 1,
                "p": 1,
                "measures": [
                    [
                        {
                            "type": "table",
                            "max_total_deg": 8,
                            "moments": {"0,0": "1", "1,0": "1", "2,0": "1"},
                        }
                    ]
                ],
                "depth": 4,
            }
        )
    )
    assert main(["verify", "--config", str(broken)]) == 2
    assert main(["compute", "--config", str(broken), "--out", str(tmp_path / "x")]) == 2
    assert main(["verify", "--config", str(tmp_path / "absent.json")]) == 3
    assert main(["nonsense"]) == 3
