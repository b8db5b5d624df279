"""Kernel block formula, the moment-inverse identity, and the reproducing laws."""

import pytest

from steppoly import build_recurrence, pairing_matrix, rat, required_depth
from steppoly.bipoly import BiPoly, PolyMatrix
from steppoly.cdkernel import (
    KernelTable,
    cd_blocks,
    check_abc,
    check_cd_formula,
    check_projection,
    check_reproduction,
    is_monic_of_grlex_degree,
    kernel_eval,
)
from steppoly.errors import DepthError
from steppoly.recurrence import recurrence_n_max
from steppoly.stepline import n_minus_big, n_plus

from _support import SHAPES, build_system, grid_values

X = (rat(1, 2), rat(-1, 3))
Y = (rat(2, 7), rat(1, 5))


def tables(system, pairs: list, count: int) -> list[KernelTable]:
    return [KernelTable(system.A, system.B, x, y, count) for x, y in pairs]


def system_with_T(q: int, p: int, window: int, seed: int):
    system = build_system(q, p, required_depth(window, q, p), seed=seed)
    T = {k: build_recurrence(system.F, q, p, k, window) for k in (1, 2)}
    return system, T


class TestKernelEval:
    def test_matches_term_sum(self):
        system = build_system(2, 3, 8, seed=81)
        n = 5
        got = kernel_eval(system.A, system.B, n, X, Y)
        for a_idx in range(3):
            for b_idx in range(2):
                want = sum(
                    (
                        system.A.poly(i, a_idx).eval(*X)
                        * system.B.poly(i, b_idx).eval(*Y)
                        for i in range(n + 1)
                    ),
                    rat(0),
                )
                assert got[a_idx][b_idx] == want

    def test_table_matches_member_evaluation(self):
        for q, p in SHAPES:
            system = build_system(q, p, 8, seed=81)
            table = KernelTable(system.A, system.B, X, Y, 8)
            assert table.a == [system.A.eval(i, *X) for i in range(8)], (q, p)
            assert table.b == [system.B.eval(i, *Y) for i in range(8)], (q, p)
            for n in range(8):
                want = [[sum((table.a[i][a] * table.b[i][b] for i in range(n + 1)), rat(0))
                         for b in range(q)] for a in range(p)]
                assert table.kernels[n] == want, (q, p, n)

    def test_range_guard(self):
        system = build_system(1, 1, 6, seed=82)
        with pytest.raises(DepthError):
            kernel_eval(system.A, system.B, 6, X, Y)


class TestCDBlocks:
    def test_index_ranges(self):
        for q, p in [(1, 2), (2, 2), (2, 3)]:
            system, T = system_with_T(q, p, 14, seed=83)
            for k in (1, 2):
                for n in range(recurrence_n_max(T[k], len(system.A.cols), len(system.B.rows))):
                    blocks = cd_blocks(T[k], n, k)
                    assert blocks.tgt_rows == range(n + 1, n_plus(n, p, k) + 1)
                    assert blocks.tgt_cols == range(n_minus_big(n + 1, p, k), n + 1)
                    assert blocks.src_rows == range(n_minus_big(n + 1, q, k), n + 1)
                    assert blocks.src_cols == range(n + 1, n_plus(n, q, k) + 1)

    def test_blocks_carry_T_and_conjugate_values(self):
        system, T = system_with_T(1, 2, 14, seed=84)
        k = 1
        n = 3
        blocks = cd_blocks(T[k], n, k)
        for bi, m in enumerate(blocks.tgt_rows):
            for bj, c in enumerate(blocks.tgt_cols):
                assert blocks.t_tgt[bi][bj] == T[k].data[m][c]
                assert blocks.r_tgt[bi][bj] == T[k].data[m][c] * T[k].H[c] / T[k].H[m]
        for bi, m in enumerate(blocks.src_rows):
            for bj, c in enumerate(blocks.src_cols):
                assert blocks.t_src[bi][bj] == T[k].data[m][c]
                assert blocks.r_src[bi][bj] == T[k].data[m][c] * T[k].H[c] / T[k].H[m]

    def test_mismatched_direction_rejected(self):
        system, T = system_with_T(1, 1, 10, seed=85)
        with pytest.raises(ValueError):
            cd_blocks(T[1], 2, 2)

    def test_window_guard(self):
        system, T = system_with_T(1, 1, 5, seed=86)
        with pytest.raises(DepthError):
            cd_blocks(T[2], 4, 2)


class TestCDFormula:
    def test_exact_on_random_systems(self):
        for q, p in SHAPES:
            system, T = system_with_T(q, p, 12, seed=87)
            for k in (1, 2):
                n_max = recurrence_n_max(T[k], len(system.A.cols), len(system.B.rows))
                for n in range(n_max):
                    blocks = cd_blocks(T[k], n, k)
                    assert check_cd_formula(blocks, tables(system, [(X, Y)], 12)).ok, (q, p, k, n)

    def test_small_grid(self):
        system, T = system_with_T(1, 2, 10, seed=88)
        blocks = cd_blocks(T[1], 3, 1)
        vals = grid_values(4)
        pairs = [((x1, rat(1, 3)), (rat(-1, 2), y2)) for x1 in vals for y2 in vals]
        rep = check_cd_formula(blocks, tables(system, pairs, 10))
        assert rep.ok and rep.checked == len(pairs), rep.violations[:1]

    def test_short_tables_rejected(self):
        system, T = system_with_T(1, 2, 10, seed=88)
        blocks = cd_blocks(T[1], 3, 1)
        with pytest.raises(DepthError):
            check_cd_formula(blocks, tables(system, [(X, Y)], blocks.top))
        with pytest.raises(DepthError):
            check_abc(system.M, 4, tables(system, [(X, Y)], 4))

    def test_detects_wrong_families(self):
        system, T = system_with_T(1, 1, 10, seed=89)
        other = build_system(1, 1, system.depth, seed=90)
        blocks = cd_blocks(T[1], 2, 1)
        rep = check_cd_formula(blocks, tables(other, [(X, Y)], 10))
        assert not rep.ok
        assert rep.violations[0].where[:2] == (1, 2)


class TestABC:
    def test_exact_on_random_systems(self):
        for q, p in SHAPES:
            system = build_system(q, p, 10, seed=91)
            pair_tables = tables(system, [(X, Y)], 7)
            for n in range(7):
                assert check_abc(system.M, n, pair_tables).ok, (q, p, n)

    def test_detects_foreign_moments(self):
        system = build_system(1, 1, 8, seed=92)
        other = build_system(1, 1, 8, seed=93)
        rep = check_abc(other.M, 4, tables(system, [(X, Y), (Y, X)], 5))
        assert rep.checked == 2 and len(rep.violations) == 2


class TestReproduction:
    def test_exact_on_random_systems(self):
        for q, p in SHAPES:
            system = build_system(q, p, 10, seed=94)
            gram = pairing_matrix(system.A, system.B, system.M)
            assert check_reproduction(system.A, system.B, gram, 7).ok, (q, p)

    def test_empty_pair_list_checks_nothing(self):
        system = build_system(1, 2, 10, seed=94)
        gram = pairing_matrix(system.A, system.B, system.M)
        rep = check_reproduction(system.A, system.B, gram, 7, [])
        assert rep.checked == 0 and rep.skipped and rep.ok

    def test_detects_foreign_families(self):
        system = build_system(2, 1, 10, seed=95)
        other = build_system(2, 1, 10, seed=96)
        gram = pairing_matrix(other.A, system.B, system.M)
        assert not check_reproduction(other.A, system.B, gram, 7).ok


def monic_matrix(dim: int, lead_pos: int) -> PolyMatrix:
    entries = []
    for r in range(dim):
        row = []
        for c in range(dim):
            coeffs = {0: rat(r - c, 3)} if r != c else {lead_pos: rat(1), 0: rat(1, 2)}
            row.append(BiPoly({K: v for K, v in coeffs.items() if v != 0}))
        entries.append(row)
    return PolyMatrix(entries)


class TestProjection:
    def test_exact_at_threshold(self):
        for q, p in SHAPES:
            system = build_system(q, p, 14, seed=97)
            I = 2
            assert check_projection(
                system.A, system.B, system.M, I * p + p - 1, monic_matrix(p, I)
            ).ok
            assert check_projection(
                system.B, system.A, system.M.transpose(), I * q + q - 1,
                monic_matrix(q, I).transpose(),
            ).ok

    def test_below_threshold_is_an_error_not_a_failure(self):
        system = build_system(1, 2, 14, seed=98)
        with pytest.raises(ValueError):
            check_projection(system.A, system.B, system.M, 4, monic_matrix(2, 2))
        with pytest.raises(ValueError):
            check_projection(system.B, system.A, system.M.transpose(), 1, monic_matrix(1, 2))

    def test_shape_and_monicity_guards(self):
        system = build_system(1, 2, 10, seed=99)
        with pytest.raises(ValueError):
            check_projection(system.A, system.B, system.M, 7, monic_matrix(1, 2))
        bad = PolyMatrix([[BiPoly({2: rat(3)})]])  # leading coefficient not 1
        with pytest.raises(ValueError):
            check_projection(system.B, system.A, system.M.transpose(), 7, bad)

    def test_family_range_guard(self):
        system = build_system(1, 1, 6, seed=100)
        with pytest.raises(DepthError):
            check_projection(system.A, system.B, system.M, 6, monic_matrix(1, 1))

    def test_empty_point_list_checks_nothing(self):
        system = build_system(1, 2, 14, seed=97)
        rep = check_projection(system.A, system.B, system.M, 5, monic_matrix(2, 2), [])
        assert rep.checked == 0 and rep.skipped and rep.ok

    def test_detects_foreign_families(self):
        system = build_system(1, 1, 12, seed=101)
        other = build_system(1, 1, 12, seed=102)
        assert not check_projection(other.A, other.B, system.M, 7, monic_matrix(1, 2)).ok

    def test_dual_detects_foreign_families(self):
        system = build_system(1, 2, 14, seed=103)
        other = build_system(1, 2, 14, seed=104)
        P = monic_matrix(1, 2).transpose()
        assert check_projection(system.B, system.A, system.M.transpose(), 7, P).ok
        rep = check_projection(other.B, other.A, system.M.transpose(), 7, P)
        assert not rep.ok and rep.checked > 0


class TestMonicPredicate:
    def test_accepts_diagonal_leader(self):
        assert is_monic_of_grlex_degree(monic_matrix(2, 3), 3)

    def test_rejects_off_diagonal_leader(self):
        m = PolyMatrix(
            [
                [BiPoly({3: rat(1)}), BiPoly({3: rat(1)})],
                [BiPoly({}), BiPoly({3: rat(1)})],
            ]
        )
        assert not is_monic_of_grlex_degree(m, 3)

    def test_rejects_non_square(self):
        m = PolyMatrix([[BiPoly({0: rat(1)}), BiPoly({0: rat(1)})]])
        assert not is_monic_of_grlex_degree(m, 0)
