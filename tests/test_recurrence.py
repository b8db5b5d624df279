"""Recurrence matrices: band shape, dual agreement, and the relations themselves."""

import pytest

from steppoly import (
    RectDensity,
    MeasureMatrix,
    assemble_moments,
    build_recurrence,
    check_dual_form,
    check_recurrence_matrix,
    check_recurrences,
    factorize,
    n_plus,
    rat,
    recurrence_n_max,
    required_depth,
    validate_band,
)
from steppoly.bipoly import BiPoly
from steppoly.errors import DepthError
from steppoly.recurrence import RecurrenceTruncation, dual_recurrence

from _support import SHAPES, build_system


def lebesgue_T(size: int, k: int):
    leb = RectDensity(-1, 1, -1, 1, BiPoly({0: rat(1)}))
    mm = MeasureMatrix(1, 1, [[leb]])
    M = assemble_moments(mm, required_depth(size, 1, 1))
    F = factorize(M)
    return F, build_recurrence(F, 1, 1, k, size)


class TestRequiredDepth:
    def test_formula(self):
        for D in (1, 2, 6, 14):
            for q, p in SHAPES:
                want = 1 + max(
                    max(n_plus(D - 1, q, k), n_plus(D - 1, p, k)) for k in (1, 2)
                )
                assert required_depth(D, q, p) == want

    def test_known_values(self):
        assert required_depth(6, 1, 1) == 10
        assert required_depth(1, 1, 1) == 3

    def test_operational_sharpness(self):
        # the stated depth works and one less does not
        D = 6
        q, p = 1, 1
        need = required_depth(D, q, p)
        system = build_system(q, p, need, seed=61)
        build_recurrence(system.F, q, p, 2, D)
        shallow = factorize(system.M.corner(need - 1).data)
        with pytest.raises(DepthError) as exc:
            build_recurrence(shallow, q, p, 2, D)
        assert exc.value.required == need


class TestLebesgueAnchor:
    def test_hand_computed_row(self):
        # x1 B_3 expands through positions 1 and 6 only, with weight 4/15 at 1
        _, T = lebesgue_T(7, 1)
        assert T.data[3] == [
            rat(0),
            rat(4, 15),
            rat(0),
            rat(0),
            rat(0),
            rat(0),
            rat(1),
        ]

    def test_trailing_ones(self):
        _, T = lebesgue_T(10, 1)
        for n in range(6):
            assert T.data[n][n_plus(n, 1, 1)] == 1


class TestBandStructure:
    def test_validate_on_random_systems(self):
        for q, p in SHAPES:
            D = 12
            system = build_system(q, p, required_depth(D, q, p), seed=62)
            for k in (1, 2):
                T = build_recurrence(system.F, q, p, k, D)
                rep = validate_band(T)
                assert rep.ok, (q, p, k, rep.violations[:1])

    def test_zeros_outside_band(self):
        system = build_system(2, 1, required_depth(10, 2, 1), seed=63)
        T = build_recurrence(system.F, 2, 1, 1, 10)
        for m in range(10):
            lo, hi = T.row_band(m)
            for c in range(10):
                if c < lo or c > hi:
                    assert T.data[m][c] == 0, (m, c)

    def test_planted_band_violation_detected(self):
        system = build_system(1, 1, required_depth(8, 1, 1), seed=64)
        T = build_recurrence(system.F, 1, 1, 1, 8)
        data = [row[:] for row in T.data]
        lo, _ = T.row_band(5)
        data[5][lo - 1] = rat(1, 9)  # outside the band
        bad = RecurrenceTruncation(T.k, T.q, T.p, T.size, data, T.H)
        assert not validate_band(bad).ok

    def test_planted_trailing_one_violation_detected(self):
        system = build_system(1, 1, required_depth(8, 1, 1), seed=64)
        T = build_recurrence(system.F, 1, 1, 1, 8)
        data = [row[:] for row in T.data]
        data[2][n_plus(2, 1, 1)] = rat(2)
        bad = RecurrenceTruncation(T.k, T.q, T.p, T.size, data, T.H)
        assert not validate_band(bad).ok

    def test_column_h_ratios(self):
        system = build_system(1, 2, required_depth(12, 1, 2), seed=65)
        T = build_recurrence(system.F, 1, 2, 1, 12)
        for n in range(12):
            _, hi = T.col_band(n)
            if hi < 12:
                assert T.data[hi][n] == T.H[hi] / T.H[n], n


class TestDualForm:
    def test_primal_equals_dual(self):
        for q, p in SHAPES:
            D = 10
            system = build_system(q, p, required_depth(D, q, p), seed=66)
            for k in (1, 2):
                T = build_recurrence(system.F, q, p, k, D)
                assert check_dual_form(T, system.F).ok, (q, p, k)
                assert dual_recurrence(system.F, q, p, k, D) == T.data

    def test_planted_mismatch_located(self):
        system = build_system(2, 3, required_depth(8, 2, 3), seed=66)
        T = build_recurrence(system.F, 2, 3, 2, 8)
        data = [row[:] for row in T.data]
        data[5][3] += rat(1, 7)
        bad = RecurrenceTruncation(T.k, T.q, T.p, T.size, data, T.H)
        rep = check_dual_form(bad, system.F)
        assert [v.where for v in rep.violations] == [(2, 5, 3)]
        assert rep.checked == 64


class TestRelations:
    points = [
        (rat(1, 2), rat(1, 3)),
        (rat(-2, 5), rat(3, 7)),
        (rat(0), rat(0)),
        (rat(4), rat(-5, 2)),
    ]

    def test_pointwise_on_random_systems(self):
        for q, p in SHAPES:
            D = 12
            system = build_system(q, p, required_depth(D, q, p), seed=67)
            for k in (1, 2):
                T = build_recurrence(system.F, q, p, k, D)
                rep = check_recurrences(T, system.A, system.B, self.points)
                assert rep.ok, (q, p, k, rep.violations[:1])
                assert rep.checked > 0

    def test_coefficient_space_identity(self):
        for q, p in [(1, 1), (2, 3)]:
            D = 12
            system = build_system(q, p, required_depth(D, q, p), seed=68)
            for k in (1, 2):
                T = build_recurrence(system.F, q, p, k, D)
                rep = check_recurrence_matrix(T, system.A, system.B)
                assert rep.ok, (q, p, k, rep.violations[:1])

    def test_planted_entry_error_detected(self):
        q, p = 1, 2
        D = 10
        system = build_system(q, p, required_depth(D, q, p), seed=69)
        T = build_recurrence(system.F, q, p, 1, D)
        data = [row[:] for row in T.data]
        lo, hi = T.row_band(4)
        data[4][lo] += rat(1, 11)  # inside the band, so only the relations can see it
        bad = RecurrenceTruncation(T.k, T.q, T.p, T.size, data, T.H)
        rep = check_recurrences(bad, system.A, system.B, self.points)
        assert not rep.ok
        rep2 = check_recurrence_matrix(bad, system.A, system.B)
        assert not rep2.ok

    def test_n_max_respects_window(self):
        system = build_system(2, 2, required_depth(9, 2, 2), seed=70)
        T = build_recurrence(system.F, 2, 2, 2, 9)
        n_max = recurrence_n_max(T, len(system.A.cols), len(system.B.rows))
        assert n_max > 0
        assert max(n_plus(n_max - 1, 2, 2), n_plus(n_max - 1, 2, 2)) < T.size
        assert max(n_plus(n_max, 2, 2), n_plus(n_max, 2, 2)) >= T.size
