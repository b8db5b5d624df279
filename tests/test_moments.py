"""Moment truncations, shift operators, and the Hankel symmetry window."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from steppoly import assemble_moments, rat
from steppoly.errors import DepthError
from steppoly.measures import MeasureMatrix, MomentTable
from steppoly.moments import check_hankel, hankel_mismatches, hankel_window, monomial_value
from steppoly.stepline import n_plus, pair_of

from _support import (
    SHAPES,
    apply_shift_to_monomials,
    build_system,
    mixed_mm,
    shift_ones_in_complement,
    shift_operator,
)


def tagged_table(b: int, a: int, max_deg: int) -> MomentTable:
    """Moments that encode (cell, s, t) injectively, so entry placement is visible."""
    moments = {}
    for s in range(max_deg + 1):
        for t in range(max_deg + 1 - s):
            moments[(s, t)] = rat(1000000 * (3 * b + a + 1) + 1000 * s + t)
    return MomentTable(max_deg, moments)


class TestAssembly:
    def test_entry_placement(self):
        for q, p in [(1, 1), (1, 2), (2, 2)]:
            depth = 8
            mm = MeasureMatrix(
                q, p, [[tagged_table(b, a, 12) for a in range(p)] for b in range(q)]
            )
            M = assemble_moments(mm, depth)
            for m in range(depth):
                for n in range(depth):
                    i, j, _ = pair_of(m // q)
                    kk, ll, _ = pair_of(n // p)
                    s, t = (i - j) + (kk - ll), j + ll
                    want = rat(1000000 * (3 * (m % q) + (n % p) + 1) + 1000 * s + t)
                    assert M[m, n] == want, (q, p, m, n)

    def test_assembly_nesting(self):
        rng = random.Random(11)
        mm = mixed_mm(rng, 2, 1)
        big = assemble_moments(mm, 12)
        for d in (1, 5, 12):
            small = assemble_moments(mm, d)
            assert small.data == [row[:d] for row in big.data[:d]]
            assert big.corner(d).data == small.data

    def test_corner_beyond_depth_rejected(self):
        rng = random.Random(12)
        M = assemble_moments(mixed_mm(rng, 1, 1), 4)
        with pytest.raises(DepthError):
            M.corner(5)

    def test_depth_must_be_positive(self):
        rng = random.Random(13)
        with pytest.raises(DepthError):
            assemble_moments(mixed_mm(rng, 1, 1), 0)


class TestShiftOperator:
    @given(st.sampled_from((1, 2, 3)), st.sampled_from((1, 2)))
    def test_single_one_per_row(self, r, k):
        op = shift_operator(r, k, 30)
        dense = op.to_dense()
        for n, row in enumerate(dense):
            assert sum(1 for v in row if v != 0) == 1
            assert row[n_plus(n, r, k)] == 1
        assert op.col_count == n_plus(29, r, k) + 1

    @given(st.sampled_from((1, 2, 3)), st.sampled_from((1, 2)))
    def test_ones_land_on_image_points(self, r, k):
        assert shift_ones_in_complement(r, k, 200)

    @given(
        st.sampled_from((1, 2, 3)),
        st.sampled_from((1, 2)),
        st.integers(-5, 5),
        st.integers(-5, 5),
    )
    def test_multiplication_action_on_monomials(self, r, k, a, b):
        # the defining property: the shift operator realizes multiplication by x_k
        x1, x2 = rat(a, 2), rat(b, 3)
        shifted = apply_shift_to_monomials(r, k, x1, x2, 40)
        factor = x1 if k == 1 else x2
        for n, value in enumerate(shifted):
            assert value == factor * monomial_value(n // r, x1, x2)


class TestHankelSymmetry:
    def test_holds_for_assembled_matrices(self):
        for q, p in SHAPES:
            system = build_system(q, p, 16, seed=21)
            for k in (1, 2):
                assert not hankel_mismatches(system.M, k), (q, p, k)

    def test_holds_for_integral_backends(self):
        rng = random.Random(14)
        M = assemble_moments(mixed_mm(rng, 2, 2), 14)
        assert not hankel_mismatches(M, 1)
        assert not hankel_mismatches(M, 2)

    def test_corruption_detected_and_located(self):
        system = build_system(1, 2, 16, seed=22)
        data = [row[:] for row in system.M.data]
        # corrupt an entry both sides of the window can see: (m, n) = (0, 0)
        target_row = n_plus(0, 1, 1)
        data[target_row][0] += 1
        from steppoly.moments import MomentTruncation

        corrupted = MomentTruncation(16, 1, 2, data)
        bad = hankel_mismatches(corrupted, 1)
        assert bad, "corruption must be detected"
        assert any(b[0] == 0 and b[1] == 0 for b in bad)
        rep = check_hankel(corrupted, 1)
        assert rep.violations[0].where[:3] == (1, bad[0][0], bad[0][1])
        assert len(rep.violations) == len(bad) and rep.checked > len(bad)

    def test_window_shrinks_with_depth(self):
        m_count, n_count = hankel_window(16, 1, 2, 1)
        assert m_count > 0 and n_count > 0
        for m in range(m_count):
            assert n_plus(m, 1, 1) < 16
        assert n_plus(m_count, 1, 1) >= 16

    def test_empty_window_raises(self):
        system = build_system(1, 1, 16, seed=23)
        with pytest.raises(DepthError):
            hankel_mismatches(system.M.corner(1), 1)
        with pytest.raises(DepthError):
            hankel_mismatches(system.M.corner(2), 2)
        rep = check_hankel(system.M.corner(1), 1)
        assert rep.checked == 0 and rep.ok and rep.skipped
