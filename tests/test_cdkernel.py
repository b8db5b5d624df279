"""Kernel block formula, the moment-inverse identity, and the reproducing laws."""

import random
from itertools import permutations

import pytest

from steppoly import build_recurrence, pairing_matrix, rat, required_depth
from steppoly.cdkernel import (
    KernelTable,
    cd_blocks,
    check_abc,
    check_cd_formula,
    check_projection,
    check_reproduction,
    integer_adjugate,
    is_monic_of_grlex_degree,
    kernel_eval,
)
from steppoly.errors import Breakdown, DepthError
from steppoly.moments import MomentTruncation
from steppoly.recurrence import RecurrenceTruncation, recurrence_n_max
from steppoly.stepline import n_minus_big, n_plus

from _support import (
    SHAPES,
    build_system,
    corner,
    gauss_jordan_inverse,
    grid_values,
    matmul,
    members,
    monomial_value,
    poly,
    transpose,
)

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
                        poly(system.A, i, a_idx).eval(*X)
                        * poly(system.B, i, b_idx).eval(*Y)
                        for i in range(n + 1)
                    ),
                    rat(0),
                )
                assert got[a_idx][b_idx] == want

    def test_table_matches_member_evaluation(self):
        # the oracle evaluates each member term by term, apart from Family.values
        for q, p in SHAPES:
            system = build_system(q, p, 8, seed=81)
            table = KernelTable(system.A, system.B, X, Y, 8)
            want_a = [[c.eval(*X) for c in comps] for comps in members(system.A.head(8))]
            want_b = [[c.eval(*Y) for c in comps] for comps in members(system.B.head(8))]
            assert table.a == want_a, (q, p)
            assert table.b == want_b, (q, p)
            assert [system.A.eval(i, *X) for i in range(8)] == want_a, (q, p)
            assert [system.B.eval(i, *Y) for i in range(8)] == want_b, (q, p)
            for n in range(8):
                want = [[sum((table.a[i][a] * table.b[i][b] for i in range(n + 1)), rat(0))
                         for b in range(q)] for a in range(p)]
                assert table.kernel(n) == want, (q, p, n)

    def test_range_guard(self):
        system = build_system(1, 1, 6, seed=82)
        with pytest.raises(DepthError):
            kernel_eval(system.A, system.B, 6, X, Y)


class TestCDBlocks:
    def test_index_ranges(self):
        for q, p in [(1, 2), (2, 2), (2, 3)]:
            system, T = system_with_T(q, p, 14, seed=83)
            for k in (1, 2):
                for n in range(recurrence_n_max(T[k], len(system.A), len(system.B))):
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
                n_max = recurrence_n_max(T[k], len(system.A), len(system.B))
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

    def test_planted_entry_flags_exactly_its_blocks(self):
        # one entry of T_k + 1, planted before R_k is first read: the (k, n)
        # whose blocks hold it fail at every pair, every other n passes, and
        # each call still counts one relation per pair.  The second (1, 2)
        # entry, row 7 column 2, lies in the n = 3 block but outside the band.
        pairs = [(X, Y), (Y, X), ((rat(-3, 4), rat(2, 3)), (rat(1, 6), rat(-5, 4)))]
        for q, p in SHAPES:
            for k in (1, 2):
                entries = [(n_plus(2, p, k), 2), (n_minus_big(3, q, k), n_plus(2, q, k))]
                if (q, p, k) == (1, 2, 1):
                    entries.append((7, 2))
                for m, c in entries:
                    system, T = system_with_T(q, p, 12, seed=87)
                    T = T[k]
                    data = [row[:] for row in T.data]
                    data[m][c] += 1
                    bad = RecurrenceTruncation(k, q, p, T.size, data, T.H)
                    pair_tables = tables(system, pairs, 12)
                    flagged = []
                    n = 0
                    while max(n_plus(n, p, k), n_plus(n, q, k)) < bad.size:
                        blocks = cd_blocks(bad, n, k)
                        rep = check_cd_formula(blocks, pair_tables)
                        assert rep.checked == len(pairs)
                        if (m in blocks.tgt_rows and c in blocks.tgt_cols
                                or m in blocks.src_rows and c in blocks.src_cols):
                            flagged.append(n)
                            assert [v.where[:2] for v in rep.violations] == [(k, n)] * len(pairs)
                        else:
                            assert rep.ok, (q, p, k, m, c, n)
                        n += 1
                    assert flagged, (q, p, k, m, c)


def leibniz_det(a: list[list[int]]) -> int:
    """Determinant as the signed sum over permutations."""
    total = 0
    for perm in permutations(range(len(a))):
        inversions = sum(1 for i in range(len(perm)) for j in range(i) if perm[j] > perm[i])
        term = (-1) ** inversions
        for row, col in enumerate(perm):
            term *= a[row][col]
        total += term
    return total


class TestIntegerAdjugate:
    # (0, 0) is zero in each, so the first column forces a row swap; the
    # first two take one swap in all, the last two take two
    SWAPPED = [
        [[0, 1], [1, 0]],
        [[0, -2, 3], [0, 4, -1], [5, -6, 7]],
        [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
        [[0, 3, -1], [0, 0, 2], [-4, 1, 5]],
    ]

    def assert_adjugate(self, a: list[list[int]]) -> None:
        det, adj = integer_adjugate(a)
        assert det == leibniz_det(a)
        inv = gauss_jordan_inverse(a)
        assert adj == [[det * v for v in row] for row in inv]
        assert all(type(v) is int for row in adj for v in row)

    def test_forced_swaps_of_both_parities(self):
        for a in self.SWAPPED:
            self.assert_adjugate(a)
        assert [integer_adjugate(a)[0] for a in self.SWAPPED] == [-1, -50, 1, -24]

    def test_random_signed_matrices_with_zero_corner(self):
        rng = random.Random(7)
        seen = 0
        while seen < 40:
            size = rng.randint(2, 5)
            a = [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)]
            a[0][0] = 0
            if leibniz_det(a) != 0:
                self.assert_adjugate(a)
                seen += 1

    def test_singular_corner_breaks_down(self):
        for a in ([[0, 2], [0, 3]], [[1, 2], [2, 4]], [[0, 1, 2], [0, 3, 4], [0, -5, 6]]):
            with pytest.raises(Breakdown) as exc:
                integer_adjugate(a)
            assert exc.value.index == len(a) - 1


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

    def test_agrees_with_rational_inverse(self):
        # verdicts pair by pair against X^T M^-1 X built from gauss_jordan_inverse,
        # on the true moments and on moments with one entry moved
        pairs = [(X, Y), (Y, X), ((rat(3), rat(-1, 4)), (rat(-2, 3), rat(5, 6)))]
        for q, p in SHAPES:
            system = build_system(q, p, 10, seed=91)
            pair_tables = tables(system, pairs, 7)
            moved = [row[:] for row in system.M.data]
            moved[1][2] += rat(1, 3)
            for M in (system.M, MomentTruncation(system.M.depth, q, p, moved)):
                for n in range(7):
                    rep = check_abc(M, n, pair_tables)
                    want = [abc_oracle(M, n, x, y) != t.kernel(n) for (x, y), t in zip(pairs, pair_tables)]
                    got = [(n, f"({x[0]}, {x[1]})", f"({y[0]}, {y[1]})") for x, y in pairs]
                    assert [v.where for v in rep.violations] == [w for w, bad in zip(got, want) if bad]
                    assert rep.checked == len(pairs)
                    assert (M is system.M) <= rep.ok, (q, p, n)

    def test_planted_moment_flags_every_n_from_its_corner(self):
        pairs = [(X, Y), (Y, X)]
        for q, p in SHAPES:
            system = build_system(q, p, 10, seed=91)
            pair_tables = tables(system, pairs, 8)
            for i, j in ((0, 0), (2, 5), (6, 3)):
                data = [row[:] for row in system.M.data]
                data[i][j] += 1
                M = MomentTruncation(system.M.depth, q, p, data)
                for n in range(8):
                    rep = check_abc(M, n, pair_tables)
                    assert rep.checked == len(pairs)
                    assert len(rep.violations) == (len(pairs) if n >= max(i, j) else 0), (q, p, i, j, n)

    def test_singular_corner_breaks_down(self):
        system = build_system(1, 2, 8, seed=91)
        data = [row[:] for row in system.M.data]
        data[2] = [2 * v for v in data[1]]  # rows 1 and 2 of every corner from 3 on are dependent
        M = MomentTruncation(system.M.depth, 1, 2, data)
        assert check_abc(M, 1, tables(system, [(X, Y)], 2)).checked == 1
        with pytest.raises(Breakdown) as exc:
            check_abc(M, 3, tables(system, [(X, Y)], 4))
        assert exc.value.index == 3


def abc_oracle(M: MomentTruncation, n: int, x: tuple, y: tuple) -> list[list]:
    """X_[p]^T(x) M^-1 X_[q](y) on the (n+1) corner, in rationals."""
    def monomials_t(r: int, pt: tuple) -> list[list]:
        out = [[rat(0)] * (n + 1) for _ in range(r)]
        for m in range(n + 1):
            out[m % r][m] = monomial_value(m // r, *pt)
        return out

    inv = gauss_jordan_inverse(corner(M.data, n + 1))
    return matmul(matmul(monomials_t(M.p, x), inv), transpose(monomials_t(M.q, y)))


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


def monic_matrix(dim: int, lead_pos: int) -> list[list[dict]]:
    return [[{0: rat(r - c, 3)} if r != c else {lead_pos: rat(1), 0: rat(1, 2)}
             for c in range(dim)] for r in range(dim)]


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
                list(zip(*monic_matrix(q, I))),
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
        bad = [[{2: rat(3)}]]  # leading coefficient not 1
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
        P = list(zip(*monic_matrix(1, 2)))
        assert check_projection(system.B, system.A, system.M.transpose(), 7, P).ok
        rep = check_projection(other.B, other.A, system.M.transpose(), 7, P)
        assert not rep.ok and rep.checked > 0


class TestMonicPredicate:
    def test_accepts_diagonal_leader(self):
        assert is_monic_of_grlex_degree(monic_matrix(2, 3), 3)

    def test_rejects_off_diagonal_leader(self):
        m = [[{3: rat(1)}, {3: rat(1)}], [{}, {3: rat(1)}]]
        assert not is_monic_of_grlex_degree(m, 3)

    def test_rejects_non_square(self):
        m = [[{0: rat(1)}, {0: rat(1)}]]
        assert not is_monic_of_grlex_degree(m, 0)
