"""Recurrence matrices: band shape, dual agreement, and the relations themselves."""

from collections import Counter
from pathlib import Path

from fractions import Fraction

import pytest

from steppoly import assemble_moments, build_recurrence, factorize, rat, required_depth
from steppoly.cli import Workspace, load_config, run_checks
from steppoly.families import Family, check_orthogonality, moment_rows
from steppoly.errors import DepthError
from steppoly.gaussborel import Factorization, IntegerSide
from steppoly.measures import MeasureMatrix
from steppoly.recurrence import (
    RecurrenceTruncation,
    check_dual_form,
    check_recurrence_matrix,
    recurrence_n_max,
    validate_band,
)
from steppoly.stepline import in_complement_J, n_minus_big, n_plus

from _support import (
    SHAPES,
    build_system,
    conjugate,
    invert_unitriangular,
    members,
    planted_entry,
    rational_T,
    recurrence_oracle,
    rect,
    transpose,
    truncation_corner,
)


def lebesgue_T(size: int, k: int):
    leb = rect(-1, 1, -1, 1, {0: rat(1)})
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
                # n_plus(n, r, k) > n, so the extended depth always exceeds D
                assert want > D

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
        shallow = factorize(truncation_corner(system.M, need - 1))
        with pytest.raises(DepthError) as exc:
            build_recurrence(shallow, q, p, 2, D)
        assert str(exc.value).endswith(f"extend to required_depth = {need}")


class TestIntegerRoute:
    def test_matches_rational_sum(self):
        # the integer sum against S Lambda S^-1 in rationals, with S^-1 inverted
        # independently of the elimination's stored numerators
        D = 12
        for kind in ("table", "mixed"):
            for q, p in SHAPES:
                system = build_system(q, p, required_depth(D, q, p), seed=71, kind=kind)
                for F, a, b in ((system.F, q, p), (system.F.transpose(), p, q)):
                    S_inv = invert_unitriangular(F.S)
                    for k in (1, 2):
                        T = build_recurrence(F, a, b, k, D)
                        data = rational_T(T)
                        assert data == recurrence_oracle(F.S, S_inv, a, k, D), (kind, q, p, k)
                        assert all(type(v) is Fraction for row in data for v in row)

    def test_dual_reads_only_the_sbar_integers(self):
        q, p, k, D = 2, 3, 1, 8
        system = build_system(q, p, required_depth(D, q, p), seed=72)
        F = system.F
        T = build_recurrence(F, q, p, k, D)
        scale, L, L_inv = F.Sbar_int
        wrong = [row[:] for row in L_inv]
        wrong[n_plus(1, p, k)][1] += 1
        bad = Factorization(F.depth, F.minors, F.S_int, IntegerSide(scale, L, wrong))
        primal = build_recurrence(bad, q, p, k, D)
        assert rational_T(primal) == rational_T(T)
        assert validate_band(primal).ok
        assert check_dual_form(T, F).ok
        assert not check_dual_form(T, bad).ok


class TestIntegerIdentities:
    """The identities through which the checks read T_k's integers acc and L
    (recurrence module docstring), against the rational T_k and its conjugate."""

    @pytest.mark.parametrize("kind", ["mixed", "table"])
    @pytest.mark.parametrize("D", [8, 16])
    def test_every_shape_and_direction(self, kind, D):
        for q, p in SHAPES:
            F = build_system(q, p, required_depth(D, q, p), seed=73, kind=kind).F
            minors, r, H = F.minors, F.S_int.scale, F.H
            for k in (1, 2):
                T = build_recurrence(F, q, p, k, D)
                acc, L = T.acc, T.L
                assert conjugate(T) == [[rat(acc[m][n], L * minors[n] * minors[m + 1])
                                         for n in range(D)] for m in range(D)], (kind, q, p, k)
                dual = build_recurrence(F.transpose(), p, q, k, D)
                assert dual.L == 1
                assert [[L * v for v in col] for col in zip(*dual.acc)] == acc, (kind, q, p, k)
                boxed, data = 0, rational_T(T)
                for n in range(D):
                    first, last = T.row_band(n)
                    if last < D:
                        assert data[n][last] == 1
                        assert acc[n][last] * r[last] == minors[n] * r[n] * minors[last + 1] * L
                    if in_complement_J(n, p, k):
                        assert data[n][first] == H[n] / H[first]
                        assert acc[n][first] == L * minors[n + 1] * minors[first]
                        boxed += 1
                assert boxed, (kind, q, p, k)


class TestFailureText:
    """report.json's details for faults planted into T_1 of the golden config:
    the first violation of each check that reads T_k's integers, word for word."""

    GOLDEN = Path(__file__).resolve().parent / "golden" / "config.json"
    CASES = [  # (check, m, n, planted value from the clean entry, details)
        ("dual", 4, 3, lambda v: v + rat(1, 11),
         "1 violation(s); first at (1, 4, 3): primal -435643697232509454037/154163879294717292"
         " != dual -39605246557329741419/14014898117701572"),
        ("band", 5, 1, lambda v: rat(1, 9),
         "1 violation(s); first at (1, 5, 1): outside band: 1/9"),
        ("band", 2, 4, lambda v: rat(2),
         "1 violation(s); first at (1, 2, 4): trailing entry 2 != 1"),
        ("band", 2, 0, lambda v: v + rat(1, 5),
         "1 violation(s); first at (1, 2, 0): -2825533/238700 != H ratio -2873273/238700"),
        ("recurrence", 4, 3, lambda v: v + rat(1, 11),
         "2 violation(s); first at (1, 'A', 3, 0): coefficient mismatch"),
        # cd reports a failed relation at (k, n, label, idx) ...
        ("cd", 4, 3, lambda v: v + rat(1, 11),
         "2 violation(s); first at (1, 3, 'A', 0): recurrence relation fails"),
        # ... and an entry that breaks the index identity at (k, n, m, c): no
        # relation reads (5, 1), but the lower-left block at n = 2 holds it
        ("cd", 5, 1, lambda v: rat(1, 9),
         "1 violation(s); first at (1, 2, 5, 1): weight 0 in the recurrences, 1 in the blocks"),
    ]

    def test_first_violation_details(self):
        config = load_config(self.GOLDEN)
        T = Workspace(config).T[1]
        data = rational_T(T)
        for check, m, n, value, details in self.CASES:
            ws = Workspace(config)  # a fresh one: the relations report is cached per workspace
            ws.T[1] = planted_entry(T, m, n, value(data[m][n]))
            assert run_checks(ws, [check]) == [
                {"name": check, "status": "fail", "details": details}], (check, m, n)

    def test_no_h_formed_by_a_failing_check(self, monkeypatch):
        # dual and band write every H ratio of their texts from the minors and
        # the scale, so neither forms the rational H, failing or passing
        ws = Workspace(load_config(self.GOLDEN))
        T, reads = ws.T[1], []
        diagonal = Factorization.diagonal

        def counting(F, rows, *args):
            reads.append(rows)
            return diagonal(F, rows, *args)

        monkeypatch.setattr(Factorization, "diagonal", counting)
        bad = RecurrenceTruncation(T.k, T.q, T.p, T.size, [[3 * a + 1 for a in row] for row in T.acc],
                                   T.L, T.F)
        for check, needle in ((lambda t: check_dual_form(t, ws.F), "dual"),
                              (validate_band, "H ratio")):
            assert check(T).ok and reads == []
            rep = check(bad)
            assert sum(needle in v.detail for v in rep.violations) > 1 and reads == [], needle


class TestLebesgueAnchor:
    def test_hand_computed_row(self):
        # x1 B_3 expands through positions 1 and 6 only, with weight 4/15 at 1
        _, T = lebesgue_T(7, 1)
        assert rational_T(T)[3] == [
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
            assert rational_T(T)[n][n_plus(n, 1, 1)] == 1


def row_relations(T: RecurrenceTruncation) -> Counter:
    """(entry, expected value) of every row relation: zeros, trailing 1s, boxed H-ratios."""
    D, out = T.size, Counter()
    for n in range(D):
        first, last = T.row_band(n)
        out.update(((n, c), 0) for c in range(D) if c < first or c > last)
        if last < D:
            out[(n, last), 1] += 1
        if in_complement_J(n, T.p, T.k):
            out[(n, first), ("H", n, first)] += 1
    return out


def col_relations(T: RecurrenceTruncation) -> Counter:
    """The same for columns: zeros, leading 1s off J_{q;k}, trailing H_last / H_n."""
    D, out = T.size, Counter()
    for n in range(D):
        first, last = T.col_band(n)
        out.update(((r, n), 0) for r in range(D) if r < first or r > last)
        if in_complement_J(n, T.q, T.k) and first < D:
            out[(first, n), 1] += 1
        if last < D:
            out[(last, n), ("H", last, n)] += 1
    return out


class TestBandStructure:
    def test_column_relations_are_row_relations(self):
        # validate_band checks rows only; this is the index map that makes the
        # column relations the same entries with the same expected values
        for q, p in SHAPES:
            for k in (1, 2):
                for D in range(1, 31):
                    T = RecurrenceTruncation(k, q, p, D, [], 1, None)
                    outside_rows = {e for (e, want) in row_relations(T) if want == 0}
                    outside_cols = {e for (e, want) in col_relations(T) if want == 0}
                    assert outside_rows == outside_cols, (q, p, k, D)
                    for n in range(D):
                        last = n_plus(n, p, k)
                        if last < D:
                            assert in_complement_J(last, p, k), (q, p, k, n)
                            assert T.row_band(last)[0] == n, (q, p, k, n)
                        first = n_minus_big(n, q, k)
                        if in_complement_J(n, q, k) and first < D:
                            assert T.row_band(first)[1] == n, (q, p, k, n)
                    assert row_relations(T) == col_relations(T), (q, p, k, D)

    def test_planted_column_errors_reported_once(self):
        D = 12
        for q, p in SHAPES:
            system = build_system(q, p, required_depth(D, q, p), seed=62)
            for k in (1, 2):
                T = build_recurrence(system.F, q, p, k, D)
                entries, data = [], rational_T(T)
                for n in range(D):
                    last = n_plus(n, p, k)
                    if last < D:  # trailing column H-ratio
                        entries.append((last, n, data[last][n] + rat(1, 5)))
                    first = n_minus_big(n, q, k)
                    if in_complement_J(n, q, k) and first < D:  # leading column 1
                        entries.append((first, n, rat(3)))
                    lo, hi = T.row_band(n)
                    outside = [c for c in range(D) if c < lo or c > hi]
                    if outside:
                        entries.append((n, outside[0], rat(1, 9)))
                assert entries
                for m, n, value in entries:
                    rep = validate_band(planted_entry(T, m, n, value))
                    assert [v.where for v in rep.violations] == [(k, m, n)], (q, p, k, m, n)
                    assert rep.checked == validate_band(T).checked

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
        data = rational_T(T)
        for m in range(10):
            lo, hi = T.row_band(m)
            for c in range(10):
                if c < lo or c > hi:
                    assert data[m][c] == 0, (m, c)

    def test_planted_band_violation_detected(self):
        system = build_system(1, 1, required_depth(8, 1, 1), seed=64)
        T = build_recurrence(system.F, 1, 1, 1, 8)
        lo, _ = T.row_band(5)
        bad = planted_entry(T, 5, lo - 1, rat(1, 9))  # outside the band
        assert not validate_band(bad).ok

    def test_planted_trailing_one_violation_detected(self):
        system = build_system(1, 1, required_depth(8, 1, 1), seed=64)
        T = build_recurrence(system.F, 1, 1, 1, 8)
        bad = planted_entry(T, 2, n_plus(2, 1, 1), rat(2))
        assert not validate_band(bad).ok

    def test_transposed_factorization_reads_both_scales(self):
        # F.transpose() carries the row scale r on its Sbar side, so the boxed
        # entry H_n / H_first of dual's T' is read with it: no false violation,
        # and a planted one writes the H ratio of the rational H
        D = 10
        for q, p in SHAPES:
            F = build_system(q, p, required_depth(D, q, p), seed=62, kind="mixed").F
            H = F.H
            for k in (1, 2):
                for T in (build_recurrence(F, q, p, k, D), build_recurrence(F.transpose(), p, q, k, D)):
                    rep = validate_band(T)
                    assert rep.violations == [] and rep.checked, (q, p, k, T.q)
                    n = next(n for n in range(D) if in_complement_J(n, T.p, k))
                    first = T.row_band(n)[0]
                    acc = [row[:] for row in T.acc]
                    acc[n][first] += 1
                    bad = RecurrenceTruncation(T.k, T.q, T.p, T.size, acc, T.L, T.F)
                    [v] = validate_band(bad).violations
                    assert v.where == (k, n, first)
                    assert v.detail.endswith(f" != H ratio {H[n] / H[first]}"), (q, p, k)

    def test_column_h_ratios(self):
        system = build_system(1, 2, required_depth(12, 1, 2), seed=65)
        T = build_recurrence(system.F, 1, 2, 1, 12)
        data, H = rational_T(T), T.F.H
        for n in range(12):
            _, hi = T.col_band(n)
            if hi < 12:
                assert data[hi][n] == H[hi] / H[n], n


class TestBandOnly:
    """build_recurrence(..., band=True), compute's route, sums each row m from
    column n_minus_big(m, p, k) on: the sums it skips are the zeros left of the
    band, so it gives the dense acc, on the full factorization and on the
    width-limited one compute reads."""

    @pytest.mark.parametrize("kind", ["mixed", "table"])
    def test_band_only_matches_dense(self, kind):
        for q, p in SHAPES:
            for D in (2, 7, 12):
                system = build_system(q, p, required_depth(D, q, p), seed=35, kind=kind)
                for F in (system.F, factorize(system.M, D)):
                    for k in (1, 2):
                        dense = build_recurrence(system.F, q, p, k, D)
                        band = build_recurrence(F, q, p, k, D, band=True)
                        assert band.acc == dense.acc, (kind, q, p, D, k)
                        skipped = sum(n_minus_big(m, p, k) for m in range(D))
                        assert skipped or D < 12, (kind, q, p, D, k)


class TestDualForm:
    def test_primal_equals_dual(self):
        for q, p in SHAPES:
            D = 10
            system = build_system(q, p, required_depth(D, q, p), seed=66)
            for k in (1, 2):
                T = build_recurrence(system.F, q, p, k, D)
                assert check_dual_form(T, system.F).ok, (q, p, k)
                dual = build_recurrence(system.F.transpose(), p, q, k, D)
                assert rational_T(dual) == transpose(conjugate(T)), (q, p, k)

    def test_planted_mismatch_located(self):
        system = build_system(2, 3, required_depth(8, 2, 3), seed=66)
        T = build_recurrence(system.F, 2, 3, 2, 8)
        bad = planted_entry(T, 5, 3, rational_T(T)[5][3] + rat(1, 7))
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
        # x_k B_n = sum_i R_k[n][i] B_i and x_k A_n = sum_i R_k[i][n] A_i,
        # evaluated member by member at each point with the tests' BiPoly.eval,
        # apart from the coefficient check and from Family.values
        for q, p in SHAPES:
            D = 12
            system = build_system(q, p, required_depth(D, q, p), seed=67)
            for k in (1, 2):
                T = build_recurrence(system.F, q, p, k, D)
                n_max = recurrence_n_max(T, len(system.A), len(system.B))
                assert n_max > 0, (q, p, k)
                R = conjugate(T)
                relations = (("B", members(system.B), T.row_band, R),
                             ("A", members(system.A), T.col_band, transpose(R)))
                for x1, x2 in self.points:
                    xk = x1 if k == 1 else x2
                    for label, fam, band, coeffs in relations:
                        for n in range(n_max):
                            lo, top = band(n)
                            vals = {i: [c.eval(x1, x2) for c in fam[i]] for i in range(lo, top + 1)}
                            for idx, comp in enumerate(fam[n]):
                                rhs = sum((coeffs[n][i] * vals[i][idx] for i in vals), rat(0))
                                assert xk * comp.eval(x1, x2) == rhs, (q, p, k, label, n, idx, x1, x2)

    def test_coefficient_space_identity(self):
        for seed in (67, 68):
            for q, p in SHAPES:
                D = 12
                system = build_system(q, p, required_depth(D, q, p), seed=seed)
                for k in (1, 2):
                    T = build_recurrence(system.F, q, p, k, D)
                    rep = check_recurrence_matrix(T, system.A, system.B)
                    assert rep.ok, (seed, q, p, k, rep.violations[:1])
                    assert rep.checked > 0, (seed, q, p, k)

    def test_planted_entry_error_detected(self):
        q, p = 1, 2
        D = 10
        system = build_system(q, p, required_depth(D, q, p), seed=69)
        T = build_recurrence(system.F, q, p, 1, D)
        lo, hi = T.row_band(4)
        # inside the band, so only the relations can see it
        bad = planted_entry(T, 4, lo, rational_T(T)[4][lo] + rat(1, 11))
        assert not check_recurrence_matrix(bad, system.A, system.B).ok

    def test_covers_every_relation_below_n_max(self):
        # one relation per member of B_n (q of them) and of A_n (p of them)
        for q, p in SHAPES:
            D = 12
            system = build_system(q, p, required_depth(D, q, p), seed=67)
            for k in (1, 2):
                T = build_recurrence(system.F, q, p, k, D)
                n_max = recurrence_n_max(T, len(system.A), len(system.B))
                assert n_max > 0, (q, p, k)
                rep = check_recurrence_matrix(T, system.A, system.B)
                assert rep.checked == n_max * (q + p), (q, p, k)

    def test_planted_entry_located(self):
        # entry (4, lo) of T_k enters x_k B_4 through row 4 of R_k and
        # x_k A_lo through column lo, and no other relation; D = 14 puts
        # row 4 below recurrence_n_max for every case
        for q, p, k in [(1, 2, 1), (2, 3, 2), (2, 2, 1)]:
            D = 14
            system = build_system(q, p, required_depth(D, q, p), seed=69)
            T = build_recurrence(system.F, q, p, k, D)
            lo, _ = T.row_band(4)
            bad = planted_entry(T, 4, lo, rational_T(T)[4][lo] + rat(1, 11))
            where = {v.where for v in check_recurrence_matrix(bad, system.A, system.B).violations}
            assert any(w[:3] == (k, "B", 4) for w in where), (q, p, k)
            assert all(w[:3] in {(k, "B", 4), (k, "A", lo)} for w in where), (q, p, k, where)

    def test_planted_a_member_located(self):
        # one coefficient added to component idx of A_4, on its integer row: both
        # relations of A_4 and its orthogonality report it there
        q, p, D, n0, idx = 2, 3, 14, 4, 1
        system = build_system(q, p, required_depth(D, q, p), seed=69, kind="mixed")
        rows = list(system.A.rows)
        d, row = rows[n0]
        rows[n0] = (d, {**row, idx: row.get(idx, 0) + d})  # + 1 at monomial position 0
        bad = Family(p, rows)
        for k in (1, 2):
            T = build_recurrence(system.F, q, p, k, D)
            rep = check_recurrence_matrix(T, bad, system.B)
            assert (k, "A", n0, idx) in [v.where for v in rep.violations], k
        rep = check_orthogonality(bad, moment_rows(system.B, system.M, len(system.B)), system.M)
        assert rep.violations and all(v.where[:2] == ("A", n0) for v in rep.violations)

    def test_n_max_respects_window(self):
        system = build_system(2, 2, required_depth(9, 2, 2), seed=70)
        T = build_recurrence(system.F, 2, 2, 2, 9)
        n_max = recurrence_n_max(T, len(system.A), len(system.B))
        assert n_max > 0
        assert max(n_plus(n_max - 1, 2, 2), n_plus(n_max - 1, 2, 2)) < T.size
        assert max(n_plus(n_max, 2, 2), n_plus(n_max, 2, 2)) >= T.size
