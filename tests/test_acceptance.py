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
    check_abc,
    check_cd_formula,
    check_projection,
    check_reproduction,
)
from steppoly.cli import main, seeded_monic_columns
from steppoly.errors import Breakdown
from steppoly.families import (
    check_orthogonality,
    degree_bound,
    moment_rows,
    validate_degree_structure,
)
from steppoly.measures import MeasureMatrix
from steppoly.moments import check_hankel
from steppoly.recurrence import (
    check_dual_form,
    check_recurrence_matrix,
    recurrence_n_max,
    validate_band,
)
from steppoly.report import CheckReport, Violation
from steppoly.stepline import in_complement_J, n_minus_big, n_plus, pair_of

from _support import (
    SHAPES,
    SPOT_PAIRS,
    CDBlocks,
    KernelTable,
    build_system,
    cd_block_values,
    deg_x1,
    deg_x2,
    dual_inner_integrals,
    grid_values,
    inner_integrals,
    inverts_its_factor,
    members,
    mixed_mm,
    moment_data,
    point_pairs,
    pointwise_abc,
    pointwise_cd,
    pointwise_reproduction,
    poly,
    pos_of,
    rational_T,
    reconstructs,
    same_factor,
    solve_a_col,
    solve_b_row,
    table,
    truncation_corner,
)

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_criterion_1_index_suite():
    start = time.perf_counter()

    # round trip and bijection of the position pairing
    expected = 0
    for i in range(64):
        for j in range(i + 1):
            assert pos_of(i, j) == expected
            assert pair_of(expected) == (i, j)
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
            assert reconstructs(F, M), (q, p, seed)
            # each stored inverse against its factor, and each nested corner's
            # factors against the full ones, cross-multiplied in integers
            minors, r = F.minors, F.S_int.scale
            assert inverts_its_factor(minors, F.S_int), (q, p, seed)
            assert inverts_its_factor(minors, F.Sbar_int), (q, p, seed)
            for d in range(1, extended):
                Fd = factorize(truncation_corner(M, d))
                assert same_factor(Fd.minors, Fd.S_int, minors, F.S_int, d)
                assert same_factor(Fd.minors, Fd.Sbar_int, minors, F.Sbar_int, d)
                # H_n = Delta_{n+1} / (Delta_n r_n) on each side
                assert all(Fd.minors[n + 1] * minors[n] * r[n]
                           == minors[n + 1] * Fd.minors[n] * Fd.S_int.scale[n] for n in range(d))
            if symmetric:
                # S[n][c] = L[n][c] r_c / (Delta_n r_n) and Sbar[n][c] = Lbar[n][c] / Delta_n
                assert all(a * r[c] == b * r[n]
                           for n, (row, bar) in enumerate(zip(F.S_int.L, F.Sbar_int.L))
                           for c, (a, b) in enumerate(zip(row, bar))), (q, p, seed)

    # a constructed vanishing second minor must break down deterministically
    degenerate = MeasureMatrix(
        1, 1, [[table(6, {(0, 0): rat(1), (1, 0): rat(1), (2, 0): rat(1)})]]
    )
    with pytest.raises(Breakdown) as exc:
        factorize(assemble_moments(degenerate, 3))
    assert exc.value.index == 1

    assert time.perf_counter() - start < 120.0


def test_criterion_3_orthogonality_and_oracle():
    for q, p in SHAPES:
        system = build_system(q, p, 20, seed=301)
        rep = check_orthogonality(system.A, moment_rows(system.B, system.M, 20), system.M)
        assert rep.ok and rep.checked > 0, (q, p, rep.violations[:1])
        rep = check_biorthogonality(pairing_matrix(system.A, system.B, system.M))
        assert rep.ok and rep.checked == 400, (q, p, rep.violations[:1])

    for q, p in SHAPES:
        system = build_system(q, p, 12, seed=302)
        for n in range(12):
            assert [w.coeffs for w in solve_b_row(moment_data(system.M), n, q)] == [
                poly(system.B, n, b).coeffs for b in range(q)
            ], (q, p, n)
            assert [w.coeffs for w in solve_a_col(moment_data(system.M), n, p)] == [
                poly(system.A, n, a).coeffs for a in range(p)
            ], (q, p, n)


def test_criterion_4_degree_structure():
    for q, p in SHAPES:
        system = build_system(q, p, 20, seed=401)
        rep = validate_degree_structure(system.A, system.B)
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
            hankel = check_hankel(system.M, k)
            assert hankel.ok and hankel.checked, (q, p, k)
            T = build_recurrence(system.F, k, window)
            assert check_dual_form(T).ok, (q, p, k)
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
        T = {k: build_recurrence(system.F, k, window) for k in (1, 2)}

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
            (k, n): (CDBlocks(T[k], n), cd_block_values(T[k], n))
            for k in (1, 2)
            for n in range(n_top + 1)
        }

        for y in ys:
            b_y = b_cache[y]
            # sum_c R_k[m][c] B_c(y) over each block row m depends on y alone;
            # a source-block row carries its minus sign
            block_rows = {
                (k, n): [(m, [sign * sum((v * b_y[c][b_idx] for c, v in zip(cols, r_row) if v != 0),
                                         rat(0)) for b_idx in range(q)])
                         for rows, cols, block, sign in (
                             (blocks.tgt_rows, blocks.tgt_cols, r_tgt, 1),
                             (blocks.src_rows, blocks.src_cols, r_src, -1))
                         for m, r_row in zip(rows, block)]
                for (k, n), (blocks, (r_tgt, r_src)) in blocks_kn.items()
            }
            for x in xs:
                a_x = a_cache[x]
                kern = [[rat(0)] * q for _ in range(p)]
                for n in range(n_top + 1):
                    for a_idx in range(p):
                        for b_idx in range(q):
                            kern[a_idx][b_idx] += a_x[n][a_idx] * b_y[n][b_idx]
                    for k in (1, 2):
                        rows = block_rows[(k, n)]
                        factor = x[k - 1] - y[k - 1]
                        for a_idx in range(p):
                            for b_idx in range(q):
                                rhs = sum((a_x[m][a_idx] * rb[b_idx] for m, rb in rows), rat(0))
                                assert factor * kern[a_idx][b_idx] == rhs, (
                                    q, p, k, n, x, y,
                                )

        # tie the inline evaluation back to the pointwise oracle on a sample
        sample = [(xs[0], ys[-1]), (xs[-1], ys[0]), (xs[len(xs) // 2], ys[len(ys) // 2])]
        sample_tables = [KernelTable(system.A, system.B, x, y, window) for x, y in sample]
        for k in (1, 2):
            rep = pointwise_cd(T[k], 3, sample_tables)
            assert rep.ok and rep.checked == len(sample)
            # and the library check, which reads the recurrences instead of points
            assert check_cd_formula(T[k], check_recurrence_matrix(T[k], system.A, system.B)).ok

        rng = random.Random(602)
        pairs = point_pairs(rng, 10)
        pair_tables = [KernelTable(system.A, system.B, x, y, n_top + 1) for x, y in pairs]
        for n in range(n_top + 1):
            rep = pointwise_abc(system.M, n, pair_tables)
            assert rep.ok and rep.checked == len(pairs), (q, p, n)
            # and the library check, which compares coefficients instead of points
            assert check_abc(system.M, system.A, system.B, n).ok, (q, p, n)

        gram = pairing_matrix(system.A.head(n_top + 1), system.B.head(n_top + 1), system.M)
        assert check_biorthogonality(gram).ok
        assert pointwise_reproduction(system.A, system.B, gram, n_top, SPOT_PAIRS).ok
        # and the library check, which compares coefficients instead of points
        assert check_reproduction(system.A, system.B, gram, n_top).ok

        for I in (1, 2, 3):
            P = seeded_monic_columns(rng, p, I)
            assert check_projection(system.A, inner_integrals(system.B, system.M, P), I * p + p - 1, P).ok
            P_dual = seeded_monic_columns(rng, q, I)
            inner = dual_inner_integrals(system.A, system.M, P_dual)
            assert check_projection(system.B, inner, I * q + q - 1, P_dual).ok

    assert time.perf_counter() - start < 180.0


def test_criterion_7_worked_example_window():
    q, p = 1, 2
    window = 24  # covers the printed 17 x 14 region with every band complete
    system = build_system(q, p, required_depth(window, q, p), seed=701)
    for k in (1, 2):
        T = build_recurrence(system.F, k, window)
        data = rational_T(T)
        for m in range(17):
            lo, hi = T.row_band(m)
            for c in range(14):
                value = data[m][c]
                if c == hi:
                    assert value == 1, (k, m, c)
                elif m == n_plus(c, p, k):
                    ratio = T.F.H[m] / T.F.H[c]
                    assert value == ratio and value != 0, (k, m, c)
                elif c < lo or c > hi:
                    assert value == 0, (k, m, c)
        # columns open with a 1 exactly at image points of the row shift
        for c in range(14):
            top, _ = T.col_band(c)
            if in_complement_J(c, q, k):
                assert data[top][c] == 1, (k, c)

    # the block pair displayed for n = 3 in the first direction
    T1 = build_recurrence(system.F, 1, window)
    blocks = CDBlocks(T1, 3)
    assert list(blocks.tgt_rows) == [4, 5, 6, 7]
    assert list(blocks.tgt_cols) == [2, 3]
    assert list(blocks.src_rows) == [2, 3]
    assert list(blocks.src_cols) == [4, 5, 6]
    # the printed labels are T_1's entries over the blocks' ranges
    data = rational_T(T1)
    t_tgt = [[data[m][c] for c in blocks.tgt_cols] for m in blocks.tgt_rows]
    t_src = [[data[m][c] for c in blocks.src_cols] for m in blocks.src_rows]
    assert t_src[0] == [rat(1), rat(0), rat(0)]
    assert t_src[1][2] == 1
    assert t_src[1][0] == data[3][4]
    assert t_tgt[3][0] == 0  # row 7, column 2 sits outside the band
    assert t_tgt[0][1] == data[4][3]
    for bi, m in enumerate(blocks.tgt_rows):
        for bj, c in enumerate(blocks.tgt_cols):
            assert t_tgt[bi][bj] == data[m][c]


def test_criterion_8_cli_contract(tmp_path, monkeypatch):
    cfg = GOLDEN / "config.json"

    # determinism: two fresh runs agree byte for byte with the committed files
    for run_dir in (tmp_path / "r1", tmp_path / "r2"):
        assert main(["compute", "--config", str(cfg), "--out", str(run_dir / "exports")]) == 0
        assert main(["compute", "--config", str(cfg), "--out", str(run_dir / "exports-decimal"),
                     "--render-decimal"]) == 0
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
        # a moment of 10**5000, past the 4,300-digit limit on int/str conversion
        huge = GOLDEN / "exports-huge" / "config.json"
        assert main(["compute", "--config", str(huge), "--out", str(run_dir / "exports-huge")]) == 0
        assert main(["verify", "--config", str(huge), "--out", str(run_dir / "exports-huge")]) == 0
    golden_files = sorted(f for f in GOLDEN.rglob("*") if f.is_file())
    compared = 0
    for fresh_root in (tmp_path / "r1", tmp_path / "r2"):
        for golden_file in golden_files:
            if golden_file.name in ("config.json", "regenerate.py"):
                continue
            fresh = fresh_root / golden_file.relative_to(GOLDEN)
            assert fresh.read_bytes() == golden_file.read_bytes(), golden_file.name
            compared += 1
    # 13 exports, 13 with decimal columns, report + kernel, 13 huge-entry exports
    # + their report, twice
    assert compared == 84

    report = json.loads((tmp_path / "r1" / "report.json").read_text())
    assert report["schema_version"] == 1
    assert report["summary"]["fail"] == 0

    # exit-code mapping: 0 covered above; now 1, 2, 3
    import steppoly.cli as cli_mod

    with monkeypatch.context() as mp:
        mp.setattr(cli_mod, "check_dual_form",
                   lambda *a, **k: CheckReport([Violation((), "forced")], 1))
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
