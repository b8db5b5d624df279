"""Kernel block formula, the moment-inverse identity, and the reproducing laws."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from steppoly import assemble_moments, build_recurrence, factorize, pairing_matrix, rat, required_depth
from steppoly.cdkernel import (
    check_abc,
    check_cd_formula,
    check_projection,
    check_reproduction,
    kernel_eval,
    kernel_replay,
)
from steppoly.cli import Workspace, load_config, run_checks
from steppoly.errors import Breakdown, DepthError
from steppoly.families import Family
from steppoly.recurrence import RecurrenceTruncation, check_recurrence_matrix, recurrence_n_max
from steppoly.stepline import n_minus_big, n_plus

from _support import (
    SHAPES,
    SPOT_PAIRS,
    CDBlocks,
    KernelTable,
    abc_oracle,
    build_system,
    cd_block_values,
    dual_inner_integrals,
    from_members,
    grid_values,
    inner_integrals,
    kernel_rationals,
    kernel_sum,
    members,
    moment_data,
    one_step_replay,
    pair,
    planted,
    planted_entry,
    point_pairs,
    pointwise_abc,
    pointwise_cd,
    pointwise_reproduction,
    poly,
    pos_of,
    rational_T,
    rational_truncation,
    solve,
    swept_cd,
    truncation_corner,
    values,
)

GOLDEN_CONFIG = Path(__file__).resolve().parent / "golden" / "config.json"

X = (rat(1, 2), rat(-1, 3))
Y = (rat(2, 7), rat(1, 5))


def tables(system, pairs: list, count: int) -> list[KernelTable]:
    return [KernelTable(system.A, system.B, x, y, count) for x, y in pairs]


def table_kernel(table: KernelTable, n: int) -> list[list]:
    """K^[n](x, y) as rationals, read off the table's integers."""
    return [[rat(v, table.den) for v in row] for row in table.kernels_int[n]]


def system_with_T(q: int, p: int, window: int, seed: int):
    system = build_system(q, p, required_depth(window, q, p), seed=seed)
    T = {k: build_recurrence(system.F, k, window) for k in (1, 2)}
    return system, T


class TestSharedRows:
    """A truncation's integer rows are the shared moment oracle: the readers
    that eliminate work on copies and leave them as built."""

    @pytest.mark.parametrize("kind", ["mixed", "table"])
    def test_readers_leave_the_rows_unchanged(self, kind):
        for q, p in SHAPES:
            system = build_system(q, p, 10, seed=97, kind=kind)
            # a fresh truncation, so a reader that did write would not reach the cached system
            M = rational_truncation(system.M.depth, q, p, moment_data(system.M))
            ints, scale = [row[:] for row in M.ints], M.scale[:]
            pair_tables = tables(system, [(X, Y)], M.depth)
            factorize(M)
            kernel_eval(M, list(map(pair, X)), list(map(pair, Y)))
            for n in range(M.depth):
                assert pointwise_abc(M, n, pair_tables).ok, (kind, q, p, n)
            assert (M.ints, M.scale) == (ints, scale), (kind, q, p)


class TestKernelEval:
    def test_matches_term_sum(self):
        system = build_system(2, 3, 8, seed=81)
        n = 5
        got = kernel_sum(system.A, system.B, n, X, Y)
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
        # the oracle evaluates each member term by term, apart from Family.eval
        for q, p in SHAPES:
            system = build_system(q, p, 8, seed=81)
            table = KernelTable(system.A, system.B, X, Y, 8)
            want_a = [[c.eval(*X) for c in comps] for comps in members(system.A.head(8))]
            want_b = [[c.eval(*Y) for c in comps] for comps in members(system.B.head(8))]
            assert values(system.A, *X, 8) == want_a, (q, p)
            assert values(system.B, *Y, 8) == want_b, (q, p)
            for n in range(8):
                want = [[sum((want_a[i][a] * want_b[i][b] for i in range(n + 1)), rat(0))
                         for b in range(q)] for a in range(p)]
                assert table_kernel(table, n) == want, (q, p, n)

    def test_range_guard(self):
        system = build_system(1, 1, 6, seed=82)
        with pytest.raises(DepthError):
            kernel_sum(system.A, system.B, 6, X, Y)

    @pytest.mark.parametrize("kind", ["table", "mixed"])
    def test_inverse_moment_form_matches_both_oracles(self, kind):
        # the family sum reads factorize's families, which share gaussborel.eliminate
        # with kernel_eval; the rational Gauss-Jordan inverse shares nothing with it
        points = [X, (rat(0), rat(0)), (rat(-3, 2), rat(0)), (rat(0), rat(-5, 4)),
                  (rat(-2), rat(-1, 6))]
        for q, p in SHAPES:
            system = build_system(q, p, 10, seed=89, kind=kind)
            for n in range(10):
                M = truncation_corner(system.M, n + 1)
                for x, y in zip(points, [Y] + points[:0:-1]):
                    got = kernel_rationals(M, x, y)
                    assert got == kernel_sum(system.A, system.B, n, x, y), (q, p, n, x, y)
                    assert got == abc_oracle(system.M, n, x, y), (q, p, n, x, y)


class TestKernelReplay:
    """kernel_replay on the Elimination kept at depth N, for every N in 1 .. 10
    and every D <= N, so that N and D each take every residue mod 3: the
    integers the single-step oracle leaves, and kernel_eval's kernel at depth D."""

    POINTS = [((1, 2), (-1, 3)), ((-3, 2), (5, 4)), ((2, 1), (-1, 6))]

    @pytest.mark.parametrize("q, p", [(1, 2), (2, 1), (2, 3)])
    @pytest.mark.parametrize("kind", ["table", "discrete", "mixed"])
    def test_matches_single_steps_and_kernel_eval(self, kind, q, p):
        mm = build_system(q, p, 10, seed=53, kind=kind).mm
        for N in range(1, 11):
            M = assemble_moments(mm, N)
            for x, y in zip(self.POINTS, self.POINTS[1:] + self.POINTS[:1]):
                _, _, E = kernel_eval(M, x, y)
                for D in range(1, N + 1):
                    got = kernel_replay(E, D, x, y)
                    assert got == one_step_replay(M, D, x, y), (N, D, x, y)
                    den, corner, _ = kernel_eval(assemble_moments(mm, D), x, y)
                    assert ([[Fraction(v, got[0]) for v in row] for row in got[1]]
                            == [[Fraction(v, den) for v in row] for row in corner]), (N, D, x, y)


class TestCDBlocks:
    def test_index_ranges(self):
        for q, p in [(1, 2), (2, 2), (2, 3)]:
            system, T = system_with_T(q, p, 14, seed=83)
            for k in (1, 2):
                for n in range(recurrence_n_max(T[k], len(system.A), len(system.B))):
                    blocks = CDBlocks(T[k], n)
                    assert blocks.tgt_rows == range(n + 1, n_plus(n, p, k) + 1)
                    assert blocks.tgt_cols == range(n_minus_big(n + 1, p, k), n + 1)
                    assert blocks.src_rows == range(n_minus_big(n + 1, q, k), n + 1)
                    assert blocks.src_cols == range(n + 1, n_plus(n, q, k) + 1)

    def test_blocks_carry_T_and_conjugate_values(self):
        # the printed labels are T_k's entries over the blocks' ranges
        system, T = system_with_T(1, 2, 14, seed=84)
        k = 1
        n = 3
        blocks = CDBlocks(T[k], n)
        r_tgt, r_src = cd_block_values(T[k], n)  # R_k's values, read off acc
        data = rational_T(T[k])
        t_tgt = [[data[m][c] for c in blocks.tgt_cols] for m in blocks.tgt_rows]
        t_src = [[data[m][c] for c in blocks.src_cols] for m in blocks.src_rows]
        for bi, m in enumerate(blocks.tgt_rows):
            for bj, c in enumerate(blocks.tgt_cols):
                assert t_tgt[bi][bj] == data[m][c]
                assert r_tgt[bi][bj] == data[m][c] * T[k].F.H[c] / T[k].F.H[m]
        for bi, m in enumerate(blocks.src_rows):
            for bj, c in enumerate(blocks.src_cols):
                assert t_src[bi][bj] == data[m][c]
                assert r_src[bi][bj] == data[m][c] * T[k].F.H[c] / T[k].F.H[m]

    def test_window_guard(self):
        system, T = system_with_T(1, 1, 5, seed=86)
        with pytest.raises(DepthError):
            CDBlocks(T[2], 4)
        with pytest.raises(DepthError):
            pointwise_cd(T[2], 4, tables(system, [(X, Y)], 5))


class TestCDFormula:
    """The pointwise oracle: the CD identity at point pairs, over R_k's block values."""

    def test_exact_on_random_systems(self):
        for q, p in SHAPES:
            system, T = system_with_T(q, p, 12, seed=87)
            for k in (1, 2):
                n_max = recurrence_n_max(T[k], len(system.A), len(system.B))
                for n in range(n_max):
                    assert pointwise_cd(T[k], n, tables(system, [(X, Y)], 12)).ok, (q, p, k, n)

    def test_small_grid(self):
        system, T = system_with_T(1, 2, 10, seed=88)
        vals = grid_values(4)
        pairs = [((x1, rat(1, 3)), (rat(-1, 2), y2)) for x1 in vals for y2 in vals]
        rep = pointwise_cd(T[1], 3, tables(system, pairs, 10))
        assert rep.ok and rep.checked == len(pairs), rep.violations[:1]

    def test_short_tables_rejected(self):
        system, T = system_with_T(1, 2, 10, seed=88)
        blocks = CDBlocks(T[1], 3)
        with pytest.raises(DepthError):
            pointwise_cd(T[1], 3, tables(system, [(X, Y)], blocks.top))
        with pytest.raises(DepthError):
            pointwise_abc(system.M, 4, tables(system, [(X, Y)], 4))
        # a corner deeper than the truncation is rejected, never sliced short
        with pytest.raises(DepthError):
            pointwise_abc(truncation_corner(system.M, 4), 4, tables(system, [(X, Y)], 5))

    def test_detects_wrong_families(self):
        system, T = system_with_T(1, 1, 10, seed=89)
        other = build_system(1, 1, system.depth, seed=90)
        rep = pointwise_cd(T[1], 2, tables(other, [(X, Y)], 10))
        assert not rep.ok
        assert rep.violations[0].where[:2] == (1, 2)

    def test_planted_entry_flags_exactly_its_blocks(self):
        # one entry of T_k + 1, planted into its integers: the (k, n)
        # whose blocks hold it fail at every pair, every other n passes, and
        # each call still counts one relation per pair.  The last three (1, 2)
        # entries lie outside the band: (7, 2) and (8, 3) below it, (2, 5) above.
        pairs = [(X, Y), (Y, X), ((rat(-3, 4), rat(2, 3)), (rat(1, 6), rat(-5, 4)))]
        for q, p in SHAPES:
            for k in (1, 2):
                entries = [(n_plus(2, p, k), 2), (n_minus_big(3, q, k), n_plus(2, q, k))]
                if (q, p, k) == (1, 2, 1):
                    entries += [(7, 2), (8, 3), (2, 5)]
                for m, c in entries:
                    system, T = system_with_T(q, p, 12, seed=87)
                    T = T[k]
                    bad = planted_entry(T, m, c, rational_T(T)[m][c] + 1)
                    pair_tables = tables(system, pairs, 12)
                    flagged = []
                    n = 0
                    while max(n_plus(n, p, k), n_plus(n, q, k)) < bad.size:
                        blocks = CDBlocks(bad, n)
                        rep = pointwise_cd(bad, n, pair_tables)
                        assert rep.checked == len(pairs)
                        if (m in blocks.tgt_rows and c in blocks.tgt_cols
                                or m in blocks.src_rows and c in blocks.src_cols):
                            flagged.append(n)
                            assert [v.where[:2] for v in rep.violations] == [(k, n)] * len(pairs)
                        else:
                            assert rep.ok, (q, p, k, m, c, n)
                        n += 1
                    assert flagged, (q, p, k, m, c)


def cd_report(system, T):
    return check_cd_formula(T, check_recurrence_matrix(T, system.A, system.B))


def relation_wheres(system, T) -> list[tuple]:
    """Where check_cd_formula reports each failed relation: (k, n, label, idx), by n."""
    reps = check_recurrence_matrix(T, system.A, system.B).violations
    return sorted(((k, n, label, idx) for k, label, n, idx in (v.where for v in reps)),
                  key=lambda where: where[1])


class TestCDFromRecurrences:
    """check_cd_formula: (a) the recurrence relations and (b) the index identity on
    acc, against the pointwise oracle, on every shape and both k."""

    PAIRS = [(X, Y), (Y, X), ((rat(-3, 4), rat(2, 3)), (rat(1, 6), rat(-5, 4)))]

    @pytest.mark.parametrize("kind", ["table", "mixed"])
    def test_passes_wherever_the_oracle_passes(self, kind):
        for q, p in SHAPES:
            system = build_system(q, p, required_depth(12, q, p), seed=87, kind=kind)
            pair_tables = tables(system, self.PAIRS, 12)
            for k in (1, 2):
                T = build_recurrence(system.F, k, 12)
                n_max = recurrence_n_max(T, len(system.A), len(system.B))
                assert n_max > 0
                assert all(pointwise_cd(T, n, pair_tables).ok for n in range(n_max)), (q, p, k)
                rep = cd_report(system, T)
                assert rep.ok and rep.checked == n_max and not rep.skipped, (q, p, k)

    def test_planted_in_band_entry_fails_both(self):
        # column 2's trailing entry: both relations read it, and a lower-left block holds it
        for q, p in SHAPES:
            for k in (1, 2):
                system, T = system_with_T(q, p, 12, seed=87)
                m, c = n_plus(2, p, k), 2
                bad = planted_entry(T[k], m, c, rational_T(T[k])[m][c] + 1)
                assert bad.acc[m][c]
                pair_tables = tables(system, self.PAIRS, 12)
                n_max = recurrence_n_max(bad, len(system.A), len(system.B))
                assert not all(pointwise_cd(bad, n, pair_tables).ok for n in range(n_max))
                rep = cd_report(system, bad)
                # the relations fail, and the index identity still holds
                assert relation_wheres(system, bad), (q, p, k)
                assert [v.where for v in rep.violations] == relation_wheres(system, bad), (q, p, k)

    def test_planted_out_of_band_block_entry_fails_through_the_index_identity(self):
        # row 7, column 2 of T_1 on (1, 2) is outside both bands, so no relation
        # reads it, but the lower-left blocks from n = 3 on hold it
        q, p, k, m, c = 1, 2, 1, 7, 2
        system, T = system_with_T(q, p, 12, seed=87)
        bad = planted_entry(T[k], m, c, rational_T(T[k])[m][c] + 1)
        assert check_recurrence_matrix(bad, system.A, system.B).ok
        pair_tables = tables(system, self.PAIRS, 12)
        n_max = recurrence_n_max(bad, len(system.A), len(system.B))
        flagged = [n for n in range(n_max) if not pointwise_cd(bad, n, pair_tables).ok]
        assert flagged[0] == 3
        rep = cd_report(system, bad)
        assert [v.where for v in rep.violations] == [(k, n, m, c) for n in flagged]
        assert rep.violations[0].detail == "weight 0 in the recurrences, 1 in the blocks"

    @pytest.mark.parametrize("m, c, flagged, w", [(2, 5, [3], -1), (8, 3, [4, 5], 1)],
                             ids=["above", "below-past-n_max"])
    def test_planted_out_of_band_entry_flags_its_closed_form_range(self, m, c, flagged, w):
        # on (1, 2), k = 1, n_max = 6, and no relation reads either entry.  (2, 5)
        # lies above the band, in the upper-right block of n_minus_big(5, 1, 1) = 3
        # <= n < n_plus(2, 1, 1) = 4; (8, 3) lies below it, in the lower-left blocks
        # of n_minus_big(8, 2, 1) = 4 <= n < n_plus(3, 2, 1) = 7, cut at n_max.  The
        # pointwise oracle flags the same n.
        q, p, k = 1, 2, 1
        system, T = system_with_T(q, p, 12, seed=87)
        bad = planted_entry(T[k], m, c, rational_T(T[k])[m][c] + 1)
        assert check_recurrence_matrix(bad, system.A, system.B).ok
        pair_tables = tables(system, self.PAIRS, 12)
        n_max = recurrence_n_max(bad, len(system.A), len(system.B))
        assert n_max == 6
        assert [n for n in range(n_max) if not pointwise_cd(bad, n, pair_tables).ok] == flagged
        rep = cd_report(system, bad)
        assert [(v.where, v.detail) for v in rep.violations] == [
            ((k, n, m, c), f"weight 0 in the recurrences, {w} in the blocks") for n in flagged]

    @pytest.mark.parametrize("kind", ["table", "mixed"])
    def test_matches_the_sweep_on_planted_corruptions(self, kind):
        # one to four entries of acc + 1, set to 1 or zeroed: the closed-form ranges
        # report what the sweep over every n and every nonzero entry reports, in
        # where, detail and order, and the corruptions break (b) on both sides
        rng = random.Random(131 + (kind == "mixed"))
        weights = set()
        for q, p in SHAPES:
            system = build_system(q, p, required_depth(12, q, p), seed=87, kind=kind)
            for k in (1, 2):
                T = build_recurrence(system.F, k, 12)
                for _ in range(12):
                    acc = [row[:] for row in T.acc]
                    for _ in range(rng.randint(1, 4)):
                        m, c = rng.randrange(T.size), rng.randrange(T.size)
                        acc[m][c] = rng.choice((acc[m][c] + 1, 1, 0))
                    bad = RecurrenceTruncation(k, T.size, acc, T.L, T.F)
                    relations = check_recurrence_matrix(bad, system.A, system.B)
                    want, got = swept_cd(bad, relations), check_cd_formula(bad, relations)
                    assert got.violations == want.violations, (q, p, k)
                    assert (got.checked, got.skipped) == (want.checked, want.skipped)
                    weights |= {v.detail for v in want.violations if "blocks" in v.detail}
        assert weights == {f"weight 0 in the recurrences, {w} in the blocks" for w in (1, -1)}

    def test_planted_diagonal_entry_fails_the_relations_only(self):
        # no CD block holds a diagonal entry, so the pointwise formula cannot see it;
        # the relations that read it fail, so check_cd_formula is stricter
        for q, p in SHAPES:
            for k in (1, 2):
                system, T = system_with_T(q, p, 12, seed=87)
                n_max = recurrence_n_max(T[k], len(system.A), len(system.B))
                pair_tables = tables(system, self.PAIRS, 12)
                for j in sorted({0, n_max - 1}):
                    bad = planted_entry(T[k], j, j, rational_T(T[k])[j][j] + 1)
                    assert all(pointwise_cd(bad, n, pair_tables).ok for n in range(n_max))
                    rep = cd_report(system, bad)
                    assert relation_wheres(system, bad), (q, p, k, j)
                    assert [v.where for v in rep.violations] == relation_wheres(system, bad)

    def test_no_n_to_check_is_skipped(self):
        # checked == 0 with no reason of its own: run_checks writes the skip text
        system, T = system_with_T(1, 1, 1, seed=86)
        for k in (1, 2):
            rep = cd_report(system, T[k])
            assert rep.ok and rep.checked == 0
            assert rep.skipped == []

    def test_relations_must_cover_every_n(self):
        system, T = system_with_T(1, 2, 12, seed=87)
        short = check_recurrence_matrix(T[1], system.A.head(8), system.B)
        with pytest.raises(ValueError):
            check_cd_formula(T[1], short)


class TestABC:
    def test_exact_on_random_systems(self):
        for q, p in SHAPES:
            system = build_system(q, p, 10, seed=91)
            pair_tables = tables(system, [(X, Y)], 7)
            for n in range(7):
                assert pointwise_abc(system.M, n, pair_tables).ok, (q, p, n)

    def test_detects_foreign_moments(self):
        system = build_system(1, 1, 8, seed=92)
        other = build_system(1, 1, 8, seed=93)
        rep = pointwise_abc(other.M, 4, tables(system, [(X, Y), (Y, X)], 5))
        assert rep.checked == 2 and len(rep.violations) == 2

    def test_agrees_with_rational_inverse(self):
        # verdicts pair by pair against X^T M^-1 X built from gauss_jordan_inverse,
        # on the true moments and on moments with one entry moved
        pairs = [(X, Y), (Y, X), ((rat(3), rat(-1, 4)), (rat(-2, 3), rat(5, 6)))]
        for q, p in SHAPES:
            system = build_system(q, p, 10, seed=91)
            pair_tables = tables(system, pairs, 7)
            moved = moment_data(system.M)
            moved[1][2] += rat(1, 3)
            for M in (system.M, rational_truncation(system.M.depth, q, p, moved)):
                for n in range(7):
                    rep = pointwise_abc(M, n, pair_tables)
                    want = [abc_oracle(M, n, x, y) != table_kernel(t, n)
                            for (x, y), t in zip(pairs, pair_tables)]
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
                data = moment_data(system.M)
                data[i][j] += 1
                M = rational_truncation(system.M.depth, q, p, data)
                for n in range(8):
                    rep = pointwise_abc(M, n, pair_tables)
                    assert rep.checked == len(pairs)
                    assert len(rep.violations) == (len(pairs) if n >= max(i, j) else 0), (q, p, i, j, n)

    def test_singular_corner_breaks_down(self):
        system = build_system(1, 2, 8, seed=91)
        data = moment_data(system.M)
        data[2] = [2 * v for v in data[1]]  # rows 1 and 2 of every corner from 3 on are dependent
        M = rational_truncation(system.M.depth, 1, 2, data)
        assert pointwise_abc(M, 1, tables(system, [(X, Y)], 2)).checked == 1
        with pytest.raises(Breakdown) as want:
            factorize(truncation_corner(M, 4))
        with pytest.raises(Breakdown) as exc:
            pointwise_abc(M, 3, tables(system, [(X, Y)], 4))
        assert exc.value.index == want.value.index == 2

    def test_zero_leading_moment_breaks_down_at_zero(self):
        # the corner [[0, 1], [1, 0]] is nonsingular, but its first leading minor
        # vanishes, so check_abc stops where factorize does, without pivoting
        system = build_system(1, 1, 8, seed=91)
        M = rational_truncation(2, 1, 1, [[rat(0), rat(1)], [rat(1), rat(0)]])
        for run in (factorize, lambda T: pointwise_abc(T, 1, tables(system, [(X, Y)], 2))):
            with pytest.raises(Breakdown) as exc:
                run(M)
            assert exc.value.index == 0


class TestABCCoefficients:
    """check_abc compares sum a_i b_i^T with the inverse moment corner
    coefficient by coefficient, so it holds at every point pair."""

    @pytest.mark.parametrize("kind", ["table", "mixed"])
    def test_passes_wherever_the_oracle_passes(self, kind):
        pairs = [(X, Y), (Y, X), ((rat(3), rat(-1, 4)), (rat(-2, 3), rat(5, 6)))]
        for q, p in SHAPES:
            system = build_system(q, p, 10, seed=91, kind=kind)
            pair_tables = tables(system, pairs, 8)
            for n in range(8):
                assert pointwise_abc(system.M, n, pair_tables).ok, (kind, q, p, n)
                rep = check_abc(system.M, system.A, system.B, n)
                assert rep.ok and rep.checked == 1, (kind, q, p, n, rep.violations[:1])

    def test_planted_moment_flags_every_n_from_its_corner(self):
        for q, p in SHAPES:
            system = build_system(q, p, 10, seed=91)
            for i, j in ((0, 0), (2, 5), (6, 3)):
                data = moment_data(system.M)
                data[i][j] += 1
                M = rational_truncation(system.M.depth, q, p, data)
                for n in range(8):
                    rep = check_abc(M, system.A, system.B, n)
                    assert rep.checked == 1
                    want = [n] if n >= max(i, j) else []
                    assert [v.where[0] for v in rep.violations] == want, (q, p, i, j, n)

    def test_coefficient_beyond_column_n_fails(self):
        # a coefficient at column n + 1 of member n lies outside the (n+1) corner;
        # it is compared with the corner's zero there, never skipped
        for q, p in SHAPES:
            system = build_system(q, p, 10, seed=91)
            A, B = system.A, system.B
            for n in range(7):
                d_a, a_n = A.rows[n]
                d_b, b_n = B.rows[n]
                bad_A = Family(p, list(A.rows[:n]) + [(d_a, {**a_n, n + 1: 1})])
                bad_B = Family(q, list(B.rows[:n]) + [(d_b, {**b_n, n + 1: 1})])
                # the first changed entry: row n + 1 at B_n's first column, or
                # column n + 1 at A_n's first row
                for fam_A, fam_B, where in ((bad_A, B, (n, n + 1, min(b_n))),
                                            (A, bad_B, (n, min(a_n), n + 1))):
                    rep = check_abc(system.M, fam_A, fam_B, n)
                    assert [v.where for v in rep.violations] == [where], (q, p, n)
                    assert all(check_abc(system.M, fam_A, fam_B, m).ok for m in range(n))

    def test_breaks_down_where_factorize_does(self):
        system = build_system(1, 2, 8, seed=91)
        data = moment_data(system.M)
        data[2] = [2 * v for v in data[1]]  # rows 1 and 2 of every corner from 3 on are dependent
        M = rational_truncation(system.M.depth, 1, 2, data)
        assert check_abc(M, system.A, system.B, 1).ok
        with pytest.raises(Breakdown) as want:
            factorize(truncation_corner(M, 4))
        with pytest.raises(Breakdown) as exc:
            check_abc(M, system.A, system.B, 3)
        assert exc.value.index == want.value.index == 2
        # a zero leading moment stops it at 0, as it stops factorize
        M = rational_truncation(2, 1, 1, [[rat(0), rat(1)], [rat(1), rat(0)]])
        one = build_system(1, 1, 8, seed=91)
        with pytest.raises(Breakdown) as exc:
            check_abc(M, one.A, one.B, 1)
        assert exc.value.index == 0

    def test_depth_guards(self):
        system = build_system(1, 2, 10, seed=88)
        with pytest.raises(DepthError):
            check_abc(truncation_corner(system.M, 4), system.A, system.B, 4)
        with pytest.raises(DepthError):
            check_abc(system.M, system.A.head(4), system.B, 4)
        with pytest.raises(DepthError):
            check_abc(system.M, system.A, system.B.head(4), 4)

    def test_report_names_each_failing_n_once(self):
        # moment (2, 5) of the golden config + 1: n = 5, 6 and 7 fail, each at its
        # first mismatch in row-major order
        ws = Workspace(load_config(GOLDEN_CONFIG))
        data = moment_data(ws.M)
        data[2][5] += 1
        ws.M = rational_truncation(ws.M.depth, ws.M.q, ws.M.p, data)
        assert run_checks(ws, ["abc"]) == [{
            "name": "abc", "status": "fail",
            "details": "3 violation(s); first at (5, 0, 0): sum a_i b_i^T != M^-1"}]

    def test_detects_a_term_that_vanishes_at_the_abc_points(self):
        # A_0 gains the product of (b x1 - a) over the first coordinates a/b of
        # ten x points: the pointwise oracle at those pairs sees the same values
        # and passes, check_abc fails
        ws = Workspace(load_config(GOLDEN_CONFIG))
        pairs = point_pairs(random.Random(ws.config.seed), 15)[5:]
        poly_x1 = [1]  # coefficients of x1^0, x1^1, ...
        for a in {x[0] for x, _ in pairs}:
            # times (den x1 - num): x1^e gains den times the old x1^(e-1)
            old = poly_x1 + [0]
            poly_x1 = [a.denominator * lower - a.numerator * same
                       for same, lower in zip(old, [0] + old)]
        p = ws.M.p
        d, row = ws.A.rows[0]
        row = dict(row)
        for e, c in enumerate(poly_x1):
            col = pos_of(e, 0) * p  # component 0 at the monomial x1^e
            row[col] = row.get(col, 0) + d * c
        bad_A = Family(p, [(d, row)] + list(ws.A.rows[1:]))
        count = min(ws.depth, 8)
        pair_tables = [KernelTable(bad_A, ws.B, x, y, count) for x, y in pairs]
        for n in range(count):
            assert pointwise_abc(ws.M, n, pair_tables).ok, n
            assert not check_abc(ws.M, bad_A, ws.B, n).ok, n


class TestReproduction:
    """The pointwise oracle at SPOT_PAIRS, and the library's coefficientwise check."""

    def test_exact_on_random_systems(self):
        for q, p in SHAPES:
            system = build_system(q, p, 10, seed=94)
            gram = pairing_matrix(system.A, system.B, system.M)
            assert pointwise_reproduction(system.A, system.B, gram, 7, SPOT_PAIRS).ok, (q, p)
            rep = check_reproduction(system.A, system.B, gram, 7)
            assert rep.ok and rep.checked == 1, (q, p)

    def test_empty_pair_list_checks_nothing(self):
        system = build_system(1, 2, 10, seed=94)
        gram = pairing_matrix(system.A, system.B, system.M)
        rep = pointwise_reproduction(system.A, system.B, gram, 7, [])
        assert rep.checked == 0 and rep.skipped and rep.ok
        assert check_reproduction(system.A, system.B, gram, 7).ok

    def test_detects_foreign_families(self):
        system = build_system(2, 1, 10, seed=95)
        other = build_system(2, 1, 10, seed=96)
        gram = pairing_matrix(other.A, system.B, system.M)
        assert not pointwise_reproduction(other.A, system.B, gram, 7, SPOT_PAIRS).ok
        assert not check_reproduction(other.A, system.B, gram, 7).ok

    def test_detects_a_gram_error_invisible_at_the_spot_pairs(self):
        # E at the cells (1, 2), (2, 1), (3, 0) and (0, 3) adds the sum of
        # E_ij A_i(x) B_j(y) to the reproduced side; E is a null vector of the
        # 3 x 4 matrix of those products at SPOT_PAIRS, so the oracle at those
        # pairs passes, and the coefficientwise check fails
        system = build_system(1, 1, 10, seed=94)
        gram = pairing_matrix(system.A, system.B, system.M)
        cells = [(1, 2), (2, 1), (3, 0), (0, 3)]
        products = []
        for x, y in SPOT_PAIRS:
            a, b = values(system.A, *x, 4), values(system.B, *y, 4)
            products.append([a[i][0] * b[j][0] for i, j in cells])
        # the last entry of E is 1, and the first three solve products E = 0
        head = solve([row[:3] for row in products], [-row[3] for row in products])
        bad = [row[:] for row in gram]
        for (i, j), e in zip(cells, head + [rat(1)]):
            num, den = bad[i][j]  # (num, den) + e, over den times e's denominator
            bad[i][j] = (num * e.denominator + e.numerator * den, den * e.denominator)
        assert pointwise_reproduction(system.A, system.B, bad, 7, SPOT_PAIRS).ok
        rep = check_reproduction(system.A, system.B, bad, 7)
        assert [(v.where, v.detail) for v in rep.violations] == [((7, 0, 0), "kernel not reproduced")]

    def test_range_guard(self):
        system = build_system(1, 1, 6, seed=94)
        gram = pairing_matrix(system.A, system.B, system.M)
        with pytest.raises(DepthError):
            check_reproduction(system.A, system.B, gram, 6)


def monic_matrix(dim: int, lead_pos: int, transpose: bool = False) -> Family:
    """The columns of a monic dim x dim matrix polynomial of grlex-degree
    lead_pos, or of its transpose, as a Family: entry (r, c) is (r - c)/3 off
    the diagonal and 1/2 + monomial_lead_pos on it."""
    grid = [[{0: pair(Fraction(r - c, 3))} if r != c else {lead_pos: (1, 1), 0: (1, 2)}
             for c in range(dim)] for r in range(dim)]
    return from_members(dim, grid if transpose else zip(*grid))


class TestProjection:
    def test_exact_at_threshold(self):
        for q, p in SHAPES:
            system = build_system(q, p, 14, seed=97)
            I = 2
            P, P_dual = monic_matrix(p, I), monic_matrix(q, I, transpose=True)
            rep = check_projection(system.A, inner_integrals(system.B, system.M, P), I * p + p - 1, P)
            assert rep.ok and rep.checked == p * p
            inner = dual_inner_integrals(system.A, system.M, P_dual)
            rep = check_projection(system.B, inner, I * q + q - 1, P_dual)
            assert rep.ok and rep.checked == q * q

    def test_detects_a_term_that_vanishes_on_five_lines(self):
        # (x1 - 1/2)(x1 + 1/4)(x1 - 1)(x1 + 2/3)(x1 - 3/7) added to component 0
        # of A_0 leaves A's values on the lines x1 = 1/2, -1/4, 1, -2/3, 3/7 as
        # they were, so only a coefficientwise identity can see it
        roots = [rat(1, 2), rat(-1, 4), rat(1), rat(-2, 3), rat(3, 7)]
        coeffs = [rat(1)]  # of x1^0, x1^1, ...
        for v in roots:
            coeffs = [a - v * b for a, b in zip([rat(0)] + coeffs, coeffs + [rat(0)])]
        points = list(zip(roots, [rat(1, 3), rat(2, 5), rat(-1), rat(-1, 5), rat(5, 8)]))
        for q, p in SHAPES:
            system = build_system(q, p, 14, seed=97)
            n = 2 * p + p - 1
            bent = system.A.head(n + 1)
            for m, c in enumerate(coeffs):
                bent = planted(bent, 0, 0, pos_of(m, 0), c)
            for x in points:
                assert values(bent, *x, n + 1) == values(system.A, *x, n + 1)
            P = monic_matrix(p, 2)
            rep = check_projection(bent, inner_integrals(system.B, system.M, P), n, P)
            # B_0 pairs to nonzero with every column of P here, so each column shows the change
            assert [(v.where, v.detail) for v in rep.violations] == [
                ((n, 0, a1), "coefficient mismatch with P") for a1 in range(p)], (q, p)

    def test_below_threshold_is_an_error_not_a_failure(self):
        system = build_system(1, 2, 14, seed=98)
        P, P_dual = monic_matrix(2, 2), monic_matrix(1, 2)
        with pytest.raises(ValueError):
            check_projection(system.A, inner_integrals(system.B, system.M, P), 4, P)
        with pytest.raises(ValueError):
            check_projection(system.B, dual_inner_integrals(system.A, system.M, P_dual), 1, P_dual)

    def test_shape_and_monicity_guards(self):
        system = build_system(1, 2, 10, seed=99)
        P = monic_matrix(1, 2)
        with pytest.raises(ValueError):
            check_projection(system.A, inner_integrals(system.B, system.M, P), 7, P)
        bad = Family(1, [(1, {2: 3})])  # leading coefficient 3, not 1
        with pytest.raises(ValueError):
            check_projection(system.B, dual_inner_integrals(system.A, system.M, bad), 7, bad)

    def test_family_range_guard(self):
        system = build_system(1, 1, 6, seed=100)
        P = monic_matrix(1, 1)
        with pytest.raises(DepthError):
            check_projection(system.A, inner_integrals(system.B, system.M, P), 6, P)

    def test_detects_foreign_families(self):
        system = build_system(1, 1, 12, seed=101)
        other = build_system(1, 1, 12, seed=102)
        P = monic_matrix(1, 2)
        assert not check_projection(other.A, inner_integrals(other.B, system.M, P), 7, P).ok

    def test_dual_detects_foreign_families(self):
        system = build_system(1, 2, 14, seed=103)
        other = build_system(1, 2, 14, seed=104)
        P = monic_matrix(1, 2, transpose=True)
        assert check_projection(system.B, dual_inner_integrals(system.A, system.M, P), 7, P).ok
        rep = check_projection(other.B, dual_inner_integrals(other.A, system.M, P), 7, P)
        assert not rep.ok and rep.checked > 0


class TestMonicPredicate:
    """check_projection's precondition, read off P.rows: member a1 stores column
    I*p + a1 with value d, every other column below position I, and P is p x p."""

    def setup_method(self):
        system = build_system(1, 2, 10, seed=99)
        self.A, self.B, self.M = system.A, system.B, system.M

    def check(self, P):
        return check_projection(self.A, inner_integrals(self.B, self.M, P), 7, P)

    def test_accepts_diagonal_leader(self):
        assert self.check(monic_matrix(2, 3)).ok

    def test_rejects_off_diagonal_leader(self):
        m = [[{3: (1, 1)}, {3: (1, 1)}], [{}, {3: (1, 1)}]]
        with pytest.raises(ValueError, match="not monic"):
            self.check(from_members(2, zip(*m)))

    def test_rejects_non_unit_leader(self):
        m = [[{3: (2, 1)}, {0: (1, 1)}], [{}, {3: (1, 1)}]]  # leading coefficient 2 in column 0
        with pytest.raises(ValueError, match="not monic"):
            self.check(from_members(2, zip(*m)))

    def test_rejects_non_square(self):
        m = [[{0: (1, 1)}, {0: (1, 1)}]]  # one column of two entries
        with pytest.raises(ValueError, match="2 x 2"):
            self.check(from_members(2, m))
