"""Triangular factorization: planted L, H, U factors are the ground truth."""

import copy
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import steppoly.gaussborel as gaussborel
from steppoly import assemble_moments, extract_families, factorize, rat
from steppoly.cdkernel import check_abc, kernel_eval
from steppoly.errors import Breakdown
from steppoly.measures import Discrete, MeasureMatrix
from steppoly.moments import MomentTruncation
from steppoly.families import check_biorthogonality, pairing_matrix, validate_degree_structure
from steppoly.recurrence import (RecurrenceTruncation, build_recurrence, check_dual_form, required_depth,
                                 validate_band)

from _support import (
    SHAPES,
    KernelTable,
    SingularMatrix,
    abc_oracle,
    bordered_numerators,
    build_system,
    corner,
    corner_factorization,
    gauss_jordan_inverse,
    identity,
    invert_unitriangular,
    kernel_rationals,
    mat_eq,
    matmul,
    mixed_mm,
    moment_data,
    one_step_eliminate,
    pair,
    pointwise_abc,
    rational_truncation,
    reconstruct,
    side_rationals,
    solve,
    stored_inverses,
    table_mm,
    transpose,
    truncation_corner,
    unpacked_schur_residues,
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
    """Every entry of every factor is a Fraction, never a raw int."""
    mats = (F.S, F.Sbar, *stored_inverses(F), [F.H])
    return all(type(v) is Fraction for m in mats for row in m for v in row)


def assemble(L, H, U):
    n = len(H)
    D = [[H[r] if r == c else rat(0) for c in range(n)] for r in range(n)]
    return matmul(matmul(L, D), U)


def truncation(rows):
    """Square rows as a truncation with 1 x 1 blocks, the form factorize takes."""
    return rational_truncation(len(rows), 1, 1, rows)


class TestInvertUnitriangular:
    @given(planted_factors())
    def test_two_sided_inverse(self, factors):
        L, _, _ = factors
        X = invert_unitriangular(L)
        assert mat_eq(matmul(X, L), identity(len(L)))
        assert mat_eq(matmul(L, X), identity(len(L)))

    def test_identity_fixed_point(self):
        assert invert_unitriangular(identity(4)) == identity(4)


@st.composite
def planted_rows(draw, steps: int | None = None, zero_pivot: int | None = None,
                 border: int = 0):
    """(rows, steps): integer rows L U with L unit lower and U's first steps diagonal
    entries the planted pivots, so the leading minor of size k+1 is U[0][0] ... U[k][k].

    steps is drawn from 0 .. 10 unless given.  There are border .. 3 rows more
    than steps (the kernel's border rows) and border .. 3 columns more (its
    border columns).  One entry L[i][k] with k < steps and i > k + 1 is 0, so
    row i keeps a zero multiplier at step k.
    zero_pivot, when given, is the step whose pivot is 0.  Hypothesis draws the
    shape and the planted positions; the entries come from a drawn seed, which
    keeps a failing example quick to shrink.
    """
    if steps is None:
        steps = draw(st.integers(0, 10))
    R, C = steps + draw(st.integers(border, 3)), steps + draw(st.integers(border, 3))
    rng = random.Random(draw(st.integers(0, 2**32)))
    L = [[rng.randint(-3, 3) for _ in range(i)] + [1] + [0] * (R - 1 - i) for i in range(R)]
    if R >= 3 and steps:
        k = draw(st.integers(0, min(steps, R - 2) - 1))
        L[draw(st.integers(k + 2, R - 1))][k] = 0
    U = [[0] * min(r, C) + [rng.randint(-3, 3) for _ in range(C - r)] for r in range(R)]
    for r in range(steps):
        U[r][r] = rng.choice((-3, -2, -1, 1, 2, 3))
    if zero_pivot is not None:
        U[zero_pivot][zero_pivot] = 0
    rows = [[sum(L[i][j] * U[j][c] for j in range(R)) for c in range(C)] for i in range(R)]
    return rows, steps


class TestEliminate:
    """The grouped steps leave the integers the single-step oracle leaves."""

    @given(planted_rows())
    def test_matches_one_step_oracle(self, planted):
        # every leading minor up to steps is nonzero, so each shorter run is one too
        rows, steps = planted
        for s in range(steps + 1):
            got, want = copy.deepcopy(rows), copy.deepcopy(rows)
            assert gaussborel.eliminate(got, s)[0] == one_step_eliminate(want, s), s
            assert got == want, s

    @given(planted_rows())
    def test_records_each_group_as_the_single_steps_leave_it(self, planted):
        # group k's pivot rows are rows k .. k+2 after k single steps, and c_r
        # is the 3 x 3 determinant on row i and the two pivot rows other than
        # r, columns k .. k+2, over Delta_k^2
        rows, steps = planted
        minors, groups = gaussborel.eliminate(copy.deepcopy(rows), steps)
        assert len(groups) == (steps + 2) // 3
        for g, (pivots, w, mults) in enumerate(groups):
            k = 3 * g
            before = copy.deepcopy(rows)
            one_step_eliminate(before, k)
            assert list(pivots) == [row[k:] for row in before[k:min(k + 3, steps)]], k
            if k + 3 > steps:
                assert (w, mults) == ((), ()), k
                continue
            assert len(mults) == len(rows) - k - 3, k
            block = [row[k:k + 3] for row in before[k:k + 3]]
            for r, cof in enumerate(w):
                s, t = [block[j] for j in range(3) if j != r]
                assert [v * minors[k] for v in cof] == [s[1] * t[2] - s[2] * t[1],
                                                        s[0] * t[2] - s[2] * t[0],
                                                        s[0] * t[1] - s[1] * t[0]], (k, r)
            for row, cs in zip(before[k + 3:], mults):
                for r, c in enumerate(cs):
                    s, t = [block[j] for j in range(3) if j != r]
                    det = (row[k] * (s[1] * t[2] - s[2] * t[1]) - row[k + 1] * (s[0] * t[2] - s[2] * t[0])
                           + row[k + 2] * (s[0] * t[1] - s[1] * t[0]))
                    assert c * minors[k] ** 2 == det, (k, r)

    @pytest.mark.parametrize("residue", [0, 1, 2])
    @given(data=st.data())
    def test_step_counts_by_residue(self, residue, data):
        # full groups of three, then none, one or two steps left over, with at
        # least one border row and one border column past the last step
        steps = 3 * data.draw(st.integers(0, 3)) + residue
        rows, _ = data.draw(planted_rows(steps, border=1))
        assert len(rows) > steps and len(rows[0]) > steps
        want = copy.deepcopy(rows)
        assert gaussborel.eliminate(rows, steps)[0] == one_step_eliminate(want, steps)
        assert rows == want

    def test_zero_multiplier_rows(self):
        # rows 2 and 3 keep a zero multiplier at step 0, and row 3 one at step 1 too
        rows = [[2, 1, 3, 1], [4, 5, 1, 0], [0, 3, 2, 2], [0, 0, 7, 1], [1, 2, 3, 4]]
        want = copy.deepcopy(rows)
        assert gaussborel.eliminate(rows, 3)[0] == one_step_eliminate(want, 3) == [1, 2, 6, 42]
        assert rows == want and rows[2][0] == rows[3][0] == rows[3][1] == 0

    @pytest.mark.parametrize("offset", [0, 1, 2])
    def test_zero_multiplier_at_each_offset(self, offset):
        # rows = L U with L[i][t] = 0 keep the multiplier 0 at step t: here at
        # step k + offset of both groups k = 0, 3, in row k+3, the first row
        # after the pivot rows, and in the last border row
        rng = random.Random(offset)
        R, C, steps = 9, 10, 6
        L = [[rng.randint(-3, 3) for _ in range(i)] + [1] + [0] * (R - 1 - i) for i in range(R)]
        U = [[0] * min(r, C) + [rng.randint(-3, 3) for _ in range(C - r)] for r in range(R)]
        for r in range(steps):
            U[r][r] = rng.choice((-3, -2, -1, 1, 2, 3))
        zeros = [(i, k + offset) for k in (0, 3) for i in (k + 3, R - 1)]
        for i, t in zeros:
            L[i][t] = 0
        rows = [[sum(L[i][j] * U[j][c] for j in range(R)) for c in range(C)] for i in range(R)]
        want = copy.deepcopy(rows)
        assert gaussborel.eliminate(rows, steps)[0] == one_step_eliminate(want, steps)
        assert rows == want and all(rows[i][t] == 0 for i, t in zeros)

    @pytest.mark.parametrize("kind", ["mixed", "table"])
    def test_matches_one_step_oracle_on_extended_truncations(self, kind):
        # compute's extended depth for depth 32 (41 .. 50): minors of 780 to 2,300
        # bits, which the planted rows never reach; a breakdown, as on the mixed
        # 1 x 1 grid of 40 atoms at step 37, must come at the oracle's index
        for q, p in SHAPES:
            E = required_depth(32, q, p)
            rng = random.Random(36)
            mm = mixed_mm(rng, q, p) if kind == "mixed" else table_mm(rng, q, p, E)
            ints = assemble_moments(mm, E).ints
            got, want = [row[:] for row in ints], [row[:] for row in ints]
            try:
                minors = one_step_eliminate(want, E)
            except Breakdown as exc:
                with pytest.raises(Breakdown) as broke:
                    gaussborel.eliminate(got, E)
                assert broke.value.index == exc.index, (q, p)
                continue
            assert gaussborel.eliminate(got, E)[0] == minors, (q, p)
            assert got == want, (q, p)

    @pytest.mark.parametrize("where", [0, 1, 2, "last"])
    @given(data=st.data())
    def test_breaks_down_where_the_oracle_does(self, where, data):
        # where is the zero pivot's offset k mod 3 within its group, or the last step
        if where == "last":
            steps = data.draw(st.integers(2, 10))
            k = steps - 1
        else:
            steps = data.draw(st.integers(where + 1, 10))
            k = 3 * data.draw(st.integers(0, (steps - 1 - where) // 3)) + where
        rows, _ = data.draw(planted_rows(steps, zero_pivot=k))
        with pytest.raises(Breakdown) as want:
            one_step_eliminate(copy.deepcopy(rows), steps)
        with pytest.raises(Breakdown) as got:
            gaussborel.eliminate(rows, steps)
        assert got.value.index == want.value.index == k


class TestFactorize:
    def test_hand_example(self):
        F = factorize(truncation([[rat(2), rat(1)], [rat(1), rat(1)]]))
        assert F.H == [rat(2), rat(1, 2)]
        assert F.S == [[rat(1), rat(0)], [rat(-1, 2), rat(1)]]
        assert F.Sbar == [[rat(1), rat(0)], [rat(-1, 2), rat(1)]]
        assert mat_eq(reconstruct(F), [[rat(2), rat(1)], [rat(1), rat(1)]])

    @pytest.mark.parametrize("ints", [[[1, 0], [0, 1], [1, 1]], [[1, 0], [0]]], ids=["rows", "row-length"])
    def test_rejects_a_non_square_truncation(self, ints):
        with pytest.raises(ValueError) as exc:
            factorize(MomentTruncation(2, 1, 1, [1] * len(ints), ints))
        assert str(exc.value) == "factorize needs a square truncation"

    def test_breakdown_on_zero_leading_entry(self):
        with pytest.raises(Breakdown) as exc:
            factorize(truncation([[rat(0), rat(1)], [rat(1), rat(0)]]))
        assert exc.value.index == 0

    def test_breakdown_on_singular_second_minor(self):
        with pytest.raises(Breakdown) as exc:
            factorize(truncation([[rat(1), rat(2)], [rat(3), rat(6)]]))
        assert exc.value.index == 1

    @given(planted_factors(), st.data())
    def test_breakdown_at_planted_zero_pivot(self, factors, data):
        # the leading minor of size j+1 is H_0 ... H_j, so the first zero H_k is
        # the breakdown, inside the eliminated width or past it
        L, H, U = factors
        k = data.draw(st.integers(0, len(H) - 1))
        H[k] = rat(0)
        M = truncation(assemble(L, H, U))
        for width in (None, *range(len(H))):
            with pytest.raises(Breakdown) as exc:
                factorize(M, width)
            assert exc.value.index == k, width

    @given(planted_factors(), st.data())
    def test_kernel_breaks_down_where_factorize_does(self, factors, data):
        # kernel_eval, check_abc and the pointwise_abc oracle run the same
        # eliminate on bordered rows, so every corner that reaches the planted
        # zero minor raises the same Breakdown.  The families, and pointwise_abc's
        # tables, come from the truncation before the zero is planted; its
        # corners below k are the same.
        L, H, U = factors
        k = data.draw(st.integers(0, len(H) - 1))
        q, p = data.draw(st.sampled_from(SHAPES))
        x, y = (rat(1, 2), rat(-1, 3)), (rat(0), rat(2, 7))
        A, B = extract_families(factorize(rational_truncation(len(H), q, p, assemble(L, H, U))))
        tables = [KernelTable(A, B, x, y, len(H))]
        H[k] = rat(0)
        M = rational_truncation(len(H), q, p, assemble(L, H, U))
        for n in range(len(H)):
            part = truncation_corner(M, n + 1)
            if n < k:
                factorize(part)
                assert kernel_rationals(part, x, y) == abc_oracle(M, n, x, y)
                rep = pointwise_abc(part, n, tables)
                assert rep.ok and rep.checked == 1
                assert check_abc(part, A, B, n).ok
                continue
            for run in (factorize, lambda T: kernel_eval(T, list(map(pair, x)), list(map(pair, y))),
                        lambda T: pointwise_abc(T, n, tables), lambda T: check_abc(T, A, B, n)):
                with pytest.raises(Breakdown) as exc:
                    run(part)
                assert exc.value.index == k

    @given(planted_factors())
    def test_recovers_planted_factors(self, factors):
        L, H, U = factors
        F = factorize(truncation(assemble(L, H, U)))
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
        F = factorize(truncation(M))
        assert (F.minors, F.S_int, F.Sbar_int) == bordered_numerators(M)

    def test_numerators_match_bordered_elimination_on_random_systems(self):
        for kind in ("table", "mixed"):
            for q, p in SHAPES:
                system = build_system(q, p, 16, seed=35, kind=kind)
                F = system.F
                assert (F.minors, F.S_int, F.Sbar_int) == bordered_numerators(moment_data(system.M)), (kind, q, p)

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
        F = factorize(truncation(assemble(*factors)))
        n = F.depth
        for r in range(n):
            assert F.S[r][r] == 1 and F.Sbar[r][r] == 1
            for c in range(r + 1, n):
                assert F.S[r][c] == 0 and F.Sbar[r][c] == 0

    def test_nesting_all_subdepths(self):
        system = build_system(2, 2, 14, seed=31)
        F = system.F
        for d in range(1, 15):
            Fd = factorize(truncation(corner(moment_data(system.M), d)))
            assert Fd.S == corner(F.S, d)
            assert Fd.Sbar == corner(F.Sbar, d)
            assert Fd.H == F.H[:d]
            Fc = corner_factorization(F, d)
            assert (Fc.S, Fc.Sbar, Fc.H) == (Fd.S, Fd.Sbar, Fd.H)
            assert stored_inverses(Fc) == stored_inverses(Fd)

    def test_reconstruction_on_random_systems(self):
        for q, p in SHAPES:
            system = build_system(q, p, 12, seed=32)
            assert mat_eq(reconstruct(system.F), moment_data(system.M)), (q, p)

    def test_transpose_is_factorization_of_transpose(self):
        # M^T = Sbar^-1 H S^-T, so the dual recurrence may read F.transpose().
        # factorize(M^T) scales its rows by the column lcms of M, so its
        # integers differ; the factors they stand for, and the families read
        # off both sides' scales, must not.
        def rationals(fam):
            return fam.r, [{c: Fraction(v, d) for c, v in row.items()} for d, row in fam.rows]

        for kind, (q, p) in itertools.product(("table", "mixed"), SHAPES):
            system = build_system(q, p, 12, seed=32, kind=kind)
            MT = rational_truncation(12, p, q, transpose(moment_data(system.M)))
            F, Ft = system.F.transpose(), factorize(MT)
            assert (Ft.depth, Ft.q, Ft.p, Ft.S, Ft.Sbar, Ft.H, stored_inverses(Ft)) == (
                F.depth, F.q, F.p, F.S, F.Sbar, F.H, stored_inverses(F)), (kind, q, p)
            A, B = extract_families(F)
            assert list(map(rationals, (A, B))) == list(map(rationals, extract_families(Ft))), (kind, q, p)
            assert check_biorthogonality(pairing_matrix(A, B, MT)).ok, (kind, q, p)
            # the two integer sides swap by reference
            assert F.S_int is system.F.Sbar_int and F.Sbar_int is system.F.S_int
            assert F.minors is system.F.minors

    def test_symmetric_moment_matrix_gives_equal_factors(self):
        system = build_system(1, 1, 14, seed=33)
        assert system.F.S == system.F.Sbar


class TestBlockShape:
    """factorize records its truncation's block shape q x p and transpose swaps
    it; the families, T_k and the degree and dual checks take it from there, so
    a call that restates it is a TypeError rather than a silently swapped
    object (the README's q = 1, p = 2 example)."""

    def test_factorization_owns_the_shape(self):
        q, p, D = 1, 2, 12
        system = build_system(q, p, required_depth(D, q, p), seed=81)
        F = system.F
        assert [(G.q, G.p) for G in (F, F.transpose(), factorize(system.M, D))] == [(1, 2), (2, 1), (1, 2)]
        A, B = extract_families(F)
        assert (A.r, B.r) == (2, 1)
        assert [fam.r for fam in extract_families(F.transpose())] == [1, 2]
        assert validate_degree_structure(A, B).ok
        T = build_recurrence(F, 1, D)
        assert (T.q, T.p) == (1, 2) and validate_band(T).ok and check_dual_form(T).ok
        T_dual = build_recurrence(F.transpose(), 1, D)
        assert (T_dual.q, T_dual.p) == (2, 1)
        for old_form in (lambda: extract_families(F, 1, 2), lambda: build_recurrence(F, 1, 2, 1, 12),
                         lambda: validate_degree_structure(A, B, 1, 2), lambda: check_dual_form(T, F),
                         lambda: RecurrenceTruncation(T.k, 1, 2, T.size, T.acc, T.L, F)):
            with pytest.raises(TypeError):
                old_form()


def window(q: int, p: int, depth: int) -> int:
    """The largest window whose T_1 and T_2 a depth-depth truncation holds."""
    return max(w for w in range(1, depth + 1) if required_depth(w, q, p) <= depth)


class TestWindow:
    """factorize(M, width) eliminates M's first width columns, keeps the factors'
    first width rows and certifies the minors past width modulo CERT_PRIME."""

    def test_window_of_the_full_factorization(self):
        for kind in ("table", "mixed"):
            for q, p in SHAPES:
                system = build_system(q, p, 16, seed=35, kind=kind)
                F, W = system.F, window(q, p, 16)
                Fw = factorize(system.M, W)
                assert Fw.depth == 16 and Fw.minors == F.minors[:W + 1] and Fw.H == F.H[:W]
                assert Fw.S == corner(F.S, W) and Fw.Sbar == corner(F.Sbar, W)
                assert Fw.S_int.L_inv == F.S_int.L_inv[:W]
                assert Fw.Sbar_int.L_inv == [col[:W - k] for k, col in enumerate(F.Sbar_int.L_inv[:W])]
                A, B = extract_families(Fw)
                assert A.rows == system.A.rows[:W] and B.rows == system.B.rows[:W]
                for k in (1, 2):
                    assert build_recurrence(Fw, k, W).acc == build_recurrence(F, k, W).acc, (kind, q, p, k)
                # a read past the window raises instead of giving a partial row
                for rows in (Fw.S_int.L, Fw.Sbar_int.L, Fw.Sbar_int.L_inv, A.rows, B.rows):
                    with pytest.raises(IndexError):
                        rows[W]
                assert factorize(system.M, 16).S_int == F.S_int

    def test_certificate_passes_iff_the_prime_divides_no_minor(self, monkeypatch):
        # the tail pivots modulo P are Delta_{j+1} / Delta_j, so the certificate
        # passes exactly when P divides none of Delta_1 .. Delta_E
        seen = set()
        for P in (2, 3, 5, 7, 11, 13, 17, 19, 23, 2**31 - 1):
            monkeypatch.setattr(gaussborel, "CERT_PRIME", P)
            for q, p in SHAPES:
                system = build_system(q, p, 12, seed=36, kind="mixed")
                want = all(d % P for d in system.F.minors[1:])
                for W in (0, 1, 5, 9, 11):
                    panel = [row[:W] for row in system.M.ints]
                    minors, _ = gaussborel.eliminate(panel, W)
                    assert gaussborel._certified(system.M.ints, panel, minors) == want, (P, q, p, W)
                    assert (gaussborel._schur_residues(system.M.ints, panel, minors)
                            == unpacked_schur_residues(system.M.ints, panel, minors, P)), (P, q, p, W)
                seen.add(want)
        assert seen == {True, False}

    @pytest.mark.parametrize("jitter", [0, 3])
    def test_packed_reduction_at_the_slot_bound(self, monkeypatch, jitter):
        # every multiplier and every reduced residue of the first width rows is
        # P - 1 (jitter 0) or within jitter of it, so a slot of the last rows
        # sums width products of about (P - 1)^2, up to its bound; the packed
        # reduction must give the residues the unpacked one gives
        rng = random.Random(43)
        for P in (2, 3, 101, 2**31 - 1):
            monkeypatch.setattr(gaussborel, "CERT_PRIME", P)

            def near():
                return P - 1 - rng.randrange(min(jitter, P - 2) + 1)

            for width, tail in ((1, 1), (5, 4), (32, 18)):
                minors = [1] + [near() + P * rng.randrange(2**40) for _ in range(width)]
                ell = [near() for _ in range(width)]
                # multiplier k reads ell[k] once divided by Delta_{k+1} modulo P
                mults = [e * d % P + P * rng.randrange(2**40) for e, d in zip(ell, minors[1:])]
                reduced, ints = [], []
                for i in range(width + 3):
                    slots = [sum(e * row[j] for e, row in zip(ell[:i], reduced)) for j in range(tail)]
                    if i < width:
                        reduced.append([near() for _ in range(tail)])
                        tails = [x + s for x, s in zip(reduced[-1], slots)]
                    else:
                        tails = [rng.randint(-2**80, 2**80) for _ in range(tail)]
                    ints.append([rng.randint(-2**80, 2**80) for _ in range(width)] + tails)
                panel = [mults[:min(i, width)] + [0] * (width - min(i, width)) for i in range(len(ints))]
                assert max(slots).bit_length() == ((P - 1) ** 2 * width).bit_length() or jitter, (P, width)
                got = gaussborel._schur_residues(ints, panel, minors)
                assert got == unpacked_schur_residues(ints, panel, minors, P), (P, width, jitter)

    @pytest.mark.parametrize("count", range(3, 9))
    def test_breakdown_past_the_window(self, count):
        # count atoms in general position: the moment matrix has rank count, so
        # Delta_{count+1} is the first zero minor of the 9 x 9 truncation, at
        # each offset of a group of three in turn (count = 3 .. 8)
        atoms = [((x, 1), (y, 1), (w, 1)) for x, y, w in (
            (1, 2, 1), (-1, 1, 2), (3, -2, 1), (2, 5, 3), (-2, -3, 1), (4, 3, 2),
            (5, -1, 1), (-3, 4, 3))][:count]
        M = assemble_moments(MeasureMatrix(1, 1, [[Discrete(atoms)]]), 9)
        for width in range(10):
            with pytest.raises(Breakdown) as exc:
                factorize(M, width)
            assert exc.value.index == count, width


class TestFactorRows:
    """factorize back-substitutes each row of both sides' L once, up front,
    into a plain list; no later reader builds a row."""

    def test_rows_are_the_bordered_numerators(self):
        for kind in ("table", "mixed"):
            for q, p in SHAPES:
                data = moment_data(build_system(q, p, 16, seed=35, kind=kind).M)
                _, *want = bordered_numerators(data)
                for width in (None, 9):
                    F = factorize(truncation(data), width)
                    for side, want_side in zip((F.S_int, F.Sbar_int), want):
                        assert type(side.L) is list, (kind, q, p)
                        assert side.L == want_side.L[:width], (kind, q, p, width)

    def test_each_row_built_once_in_factorize(self, monkeypatch):
        built = []

        def counting(minors, inv_cols, n):
            built.append((id(inv_cols), n))
            return factor_row(minors, inv_cols, n)

        def rows_per_side():
            sides: dict = {}
            for side, n in built:
                sides.setdefault(side, []).append(n)
            built.clear()
            return list(sides.values())

        q, p, D = 2, 3, 8
        M = build_system(q, p, required_depth(D, q, p), seed=35).M
        factor_row = gaussborel._factor_row
        monkeypatch.setattr(gaussborel, "_factor_row", counting)
        for width, W in ((None, M.depth), (D, D)):
            F = factorize(M, width)
            assert rows_per_side() == [list(range(W))] * 2, width
            A, B = extract_families(F)
            T = [build_recurrence(F, k, D) for k in (1, 2)]
            Ft = F.transpose()
            assert Ft.S_int.L is F.Sbar_int.L and Ft.Sbar_int.L is F.S_int.L
            assert (len(A), len(B), len(F.S), len(Ft.Sbar)) == (W, W, W, W)
            assert [d for d, _ in B.rows] == F.minors[1:W + 1] and T[0].size == D
            assert built == [], width


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
