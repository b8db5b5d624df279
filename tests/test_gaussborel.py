"""Triangular factorization: planted L, H, U factors are the ground truth."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from steppoly import factorize, rat
from steppoly.errors import Breakdown, SingularMatrix
from steppoly.linalg import gauss_jordan_inverse, matmul, transpose
from steppoly.rational import QType

from _support import (
    SHAPES,
    bordered_numerators,
    build_system,
    corner,
    corner_factorization,
    identity,
    invert_unitriangular,
    mat_eq,
    reconstruct,
    side_rationals,
    solve,
    stored_inverses,
)

rationals = st.builds(rat, st.integers(-9, 9), st.integers(1, 5))
nonzero = st.builds(rat, st.integers(1, 9), st.integers(1, 5))
signs = st.sampled_from((1, -1))


@st.composite
def planted_factors(draw):
    """Unit-lower L, nonzero diagonal H, unit-upper U of one size."""
    n = draw(st.integers(1, 6))
    L = identity(n)
    U = identity(n)
    for r in range(n):
        for c in range(r):
            L[r][c] = draw(rationals)
            U[c][r] = draw(rationals)
    H = [draw(nonzero) * draw(signs) for _ in range(n)]
    return L, H, U


def all_rational(F):
    """Every entry of every factor is a backend rational, never a raw int."""
    mats = (F.S, F.Sbar, *stored_inverses(F), [F.H])
    return all(type(v) is QType for m in mats for row in m for v in row)


def assemble(L, H, U):
    n = len(H)
    D = [[H[r] if r == c else rat(0) for c in range(n)] for r in range(n)]
    return matmul(matmul(L, D), U)


class TestInvertUnitriangular:
    @given(planted_factors())
    def test_two_sided_inverse(self, factors):
        L, _, _ = factors
        X = invert_unitriangular(L)
        assert mat_eq(matmul(X, L), identity(len(L)))
        assert mat_eq(matmul(L, X), identity(len(L)))

    def test_identity_fixed_point(self):
        assert invert_unitriangular(identity(4)) == identity(4)


class TestFactorize:
    def test_hand_example(self):
        F = factorize([[rat(2), rat(1)], [rat(1), rat(1)]])
        assert F.H == [rat(2), rat(1, 2)]
        assert F.S == [[rat(1), rat(0)], [rat(-1, 2), rat(1)]]
        assert F.Sbar == [[rat(1), rat(0)], [rat(-1, 2), rat(1)]]
        assert mat_eq(reconstruct(F), [[rat(2), rat(1)], [rat(1), rat(1)]])

    def test_breakdown_on_zero_leading_entry(self):
        with pytest.raises(Breakdown) as exc:
            factorize([[rat(0), rat(1)], [rat(1), rat(0)]])
        assert exc.value.index == 0

    def test_breakdown_on_singular_second_minor(self):
        with pytest.raises(Breakdown) as exc:
            factorize([[rat(1), rat(2)], [rat(3), rat(6)]])
        assert exc.value.index == 1

    @given(planted_factors(), st.data())
    def test_breakdown_at_planted_zero_pivot(self, factors, data):
        # the leading minor of size j+1 is H_0 ... H_j, so the first zero H_k is the breakdown
        L, H, U = factors
        k = data.draw(st.integers(0, len(H) - 1))
        H[k] = rat(0)
        with pytest.raises(Breakdown) as exc:
            factorize(assemble(L, H, U))
        assert exc.value.index == k

    @given(planted_factors())
    def test_recovers_planted_factors(self, factors):
        L, H, U = factors
        F = factorize(assemble(L, H, U))
        S_inv, Sbar_inv = stored_inverses(F)
        assert F.H == H
        assert mat_eq(S_inv, L)
        assert mat_eq(Sbar_inv, transpose(U))
        assert mat_eq(F.S, invert_unitriangular(L))
        assert mat_eq(F.Sbar, invert_unitriangular(transpose(U)))
        assert mat_eq(reconstruct(F), assemble(L, H, U))
        assert all_rational(F)

    @given(planted_factors())
    def test_numerators_match_bordered_elimination(self, factors):
        M = assemble(*factors)
        F = factorize(M)
        assert (F.minors, F.S_int, F.Sbar_int) == bordered_numerators(M)

    def test_numerators_match_bordered_elimination_on_random_systems(self):
        for kind in ("table", "mixed"):
            for q, p in SHAPES:
                system = build_system(q, p, 16, seed=35, kind=kind)
                F = system.F
                assert (F.minors, F.S_int, F.Sbar_int) == bordered_numerators(system.M.data), (kind, q, p)

    def test_factor_types_and_stored_inverses(self):
        F = build_system(2, 3, 20, seed=34).F
        assert all_rational(F)
        assert F.minors[0] == 1 and len(F.minors) == F.depth + 1
        # the integers give back the stored factors and their inverses
        assert side_rationals(F.minors, F.S_int)[0] == F.S
        assert side_rationals(F.minors, F.Sbar_int)[0] == F.Sbar
        assert F.Sbar_int.scale == [1] * F.depth
        S_inv, Sbar_inv = stored_inverses(F)
        assert mat_eq(S_inv, invert_unitriangular(F.S))
        assert mat_eq(Sbar_inv, invert_unitriangular(F.Sbar))
        for d in range(F.depth + 1):
            Fc = corner_factorization(F, d)
            assert stored_inverses(Fc) == (corner(S_inv, d), corner(Sbar_inv, d))

    @given(planted_factors())
    def test_triangular_shapes(self, factors):
        F = factorize(assemble(*factors))
        n = F.depth
        for r in range(n):
            assert F.S[r][r] == 1 and F.Sbar[r][r] == 1
            for c in range(r + 1, n):
                assert F.S[r][c] == 0 and F.Sbar[r][c] == 0

    def test_nesting_all_subdepths(self):
        system = build_system(2, 2, 14, seed=31)
        F = system.F
        for d in range(1, 15):
            Fd = factorize(corner(system.M.data, d))
            assert Fd.S == corner(F.S, d)
            assert Fd.Sbar == corner(F.Sbar, d)
            assert Fd.H == F.H[:d]
            Fc = corner_factorization(F, d)
            assert (Fc.S, Fc.Sbar, Fc.H) == (Fd.S, Fd.Sbar, Fd.H)
            assert stored_inverses(Fc) == stored_inverses(Fd)

    def test_reconstruction_on_random_systems(self):
        for q, p in SHAPES:
            system = build_system(q, p, 12, seed=32)
            assert mat_eq(reconstruct(system.F), system.M.data), (q, p)

    def test_transpose_is_factorization_of_transpose(self):
        # M^T = Sbar^-1 H S^-T, so the dual recurrence may read F.transpose().
        # factorize(M^T) scales its rows by the column lcms of M, so its
        # integers differ; the factors they stand for must not.
        for q, p in SHAPES:
            system = build_system(q, p, 12, seed=32)
            F, Ft = system.F.transpose(), factorize(transpose(system.M.data))
            assert (Ft.depth, Ft.S, Ft.Sbar, Ft.H, stored_inverses(Ft)) == (
                F.depth, F.S, F.Sbar, F.H, stored_inverses(F)), (q, p)
            # the two integer sides swap by reference
            assert F.S_int is system.F.Sbar_int and F.Sbar_int is system.F.S_int
            assert F.minors is system.F.minors

    def test_symmetric_moment_matrix_gives_equal_factors(self):
        system = build_system(1, 1, 14, seed=33)
        assert system.F.S == system.F.Sbar


class TestDenseSolvers:
    @given(planted_factors())
    def test_inverse_round_trip(self, factors):
        M = assemble(*factors)
        inv = gauss_jordan_inverse(M)
        assert mat_eq(matmul(inv, M), identity(len(M)))
        assert mat_eq(matmul(M, inv), identity(len(M)))

    def test_pivoting_handles_zero_leading_entry(self):
        # the unpivoted factorization breaks down here; the dense inverse must not
        M = [[rat(0), rat(1)], [rat(1), rat(0)]]
        assert gauss_jordan_inverse(M) == M

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrix):
            gauss_jordan_inverse([[rat(1), rat(2)], [rat(2), rat(4)]])

    @given(planted_factors())
    def test_solve_against_matmul(self, factors):
        M = assemble(*factors)
        n = len(M)
        x = [rat(i - 2, 3) for i in range(n)]
        rhs = [sum(M[r][c] * x[c] for c in range(n)) for r in range(n)]
        assert solve(M, rhs) == x
