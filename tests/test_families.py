"""Extracted polynomial families against independent defining-property oracles."""

import random

import pytest

from steppoly import (
    assemble_moments,
    check_biorthogonality,
    extract_families,
    factorize,
    pairing_matrix,
    rat,
)
from steppoly.cli import seeded_monic_columns
from steppoly.errors import DepthError
from steppoly.families import (
    Family,
    check_orthogonality,
    combine,
    degree_bound,
    mismatches,
    moment_rows,
    monomial_ints,
    pairings,
    validate_degree_structure,
)
from steppoly.gaussborel import _factor_row
from steppoly.measures import MeasureMatrix

from _support import (
    SHAPES,
    BiPoly,
    build_system,
    dual_inner_integrals,
    inner_integrals,
    integrate_pair,
    members,
    moment_data,
    monomial_value,
    pair,
    pair_rationals,
    planted,
    poly,
    rand_discrete,
    rect,
    solve_a_col,
    solve_b_row,
    transpose_measures,
)


def lebesgue_system(depth: int):
    leb = rect(-1, 1, -1, 1, {0: rat(1)})
    mm = MeasureMatrix(1, 1, [[leb]])
    M = assemble_moments(mm, depth)
    F = factorize(M)
    A, B = extract_families(F, 1, 1)
    return mm, M, F, A, B


class TestLebesgueAnchors:
    def test_first_normalizations(self):
        _, _, F, A, B = lebesgue_system(8)
        assert F.H[:7] == [
            rat(4),
            rat(4, 3),
            rat(4, 3),
            rat(16, 45),
            rat(4, 9),
            rat(16, 45),
            rat(16, 175),
        ]
        # positions 1, 3, 6 carry the univariate monic orthogonal polynomials in x1
        assert poly(A, 1, 0).coeffs == {1: rat(1)}
        assert poly(A, 3, 0).coeffs == {3: rat(1), 0: rat(-1, 3)}
        assert poly(A, 6, 0).coeffs == {6: rat(1), 1: rat(-3, 5)}
        assert poly(B, 1, 0).coeffs == {1: rat(3, 4)}

    def test_defining_property_of_anchor(self):
        # independent of the factorization: A_3 kills every lower monomial
        mm, _, _, A, _ = lebesgue_system(8)
        a3 = poly(A, 3, 0)
        for K in range(3):
            lower = BiPoly({K: rat(1)})
            assert integrate_pair(mm, lower, 0, 0, a3) == 0
        assert integrate_pair(mm, BiPoly({3: rat(1)}), 0, 0, a3) != 0


class TestIntegratePair:
    def test_against_atom_sums(self):
        rng = random.Random(41)
        measures = [[rand_discrete(rng, 12) for _ in range(2)] for _ in range(2)]
        mm = MeasureMatrix(2, 2, measures)
        left = BiPoly({0: rat(1, 2), 4: rat(-3)})
        right = BiPoly({2: rat(5, 7), 5: rat(1)})
        for b in range(2):
            for a in range(2):
                want = sum(
                    rat(*w) * left.eval(rat(*x), rat(*y)) * right.eval(rat(*x), rat(*y))
                    for x, y, w in measures[b][a].atoms
                )
                assert integrate_pair(mm, left, b, a, right) == want

    def test_zero_factor_short_circuits(self):
        rng = random.Random(42)
        mm = MeasureMatrix(1, 1, [[rand_discrete(rng, 5)]])
        assert integrate_pair(mm, BiPoly({}), 0, 0, BiPoly({0: rat(1)})) == 0


class TestOrthogonality:
    def test_residuals_vanish_on_random_systems(self):
        for q, p in SHAPES:
            system = build_system(q, p, 12, seed=43)
            rep = check_orthogonality(system.A, moment_rows(system.B, system.M, 12), system.M)
            assert rep.ok, (q, p, rep.violations[:1])
            assert rep.checked > 0

    def test_condition_count(self):
        system = build_system(1, 2, 10, seed=44)
        rep = check_orthogonality(system.A, moment_rows(system.B, system.M, 10), system.M)
        # for each family index n: n lower tests on each side of the pairing
        assert rep.checked == 2 * sum(n for n in range(10))

    def test_planted_perturbation_detected(self):
        system = build_system(2, 1, 10, seed=45)
        bad = planted(system.B, 6, 0, 0, rat(1, 7))
        rep = check_orthogonality(system.A, moment_rows(bad, system.M, 10), system.M)
        assert not rep.ok
        assert all(v.where[0] == "B" and v.where[1] == 6 for v in rep.violations)

    def test_planted_dual_perturbation_detected(self):
        system = build_system(2, 2, 10, seed=46)
        bad = planted(system.A, 5, 1, 1, rat(1, 3))
        rep = check_orthogonality(bad, moment_rows(system.B, system.M, 10), system.M)
        assert not rep.ok


class TestBiorthogonality:
    def test_exact_duality(self):
        for q, p in SHAPES:
            system = build_system(q, p, 10, seed=47)
            rep = check_biorthogonality(pairing_matrix(system.A, system.B, system.M))
            assert rep.ok, (q, p, rep.violations[:1])
            assert rep.checked == 100

    def test_detects_scaling_error(self):
        system = build_system(1, 1, 8, seed=48)
        doubled = Family(1, [(d, {c: 2 * v for c, v in row.items()}) for d, row in system.B.rows])
        rep = check_biorthogonality(pairing_matrix(system.A, doubled, system.M))
        assert not rep.ok


def pair_oracle(mm, left: list, right: list) -> list[list]:
    """Entry (m, n): sum over b, a of integrate_pair of left[m][b] against right[n][a]."""
    return [[sum((integrate_pair(mm, lhs[b], b, a, rhs[a])
                  for b in range(len(lhs)) for a in range(len(rhs))), rat(0))
             for rhs in right] for lhs in left]


def rationals(rows: list[tuple]) -> list[list]:
    return [[rat(v, d) for v in nums] for d, nums in rows]


class TestProductRoute:
    """Each product with the moment truncation equals the term-by-term integrals."""

    def test_products_match_pair_integrals(self):
        for kind in ("table", "mixed"):
            for q, p in SHAPES:
                system = build_system(q, p, 8, seed=52, kind=kind)
                mm, M, A, B, D = system.mm, system.M, system.A, system.B, system.depth
                where = (kind, q, p)
                comps_a, comps_b = members(A), members(B)
                assert pair_rationals(pairing_matrix(A, B, M)) == pair_oracle(mm, comps_b, comps_a), where
                # the full product C_B M, not only the strictly lower part orthogonality reads
                slots_b = [[BiPoly({K: rat(1)}) if b == slot else BiPoly() for b in range(q)]
                           for K, slot in (divmod(col, q) for col in range(D))]
                slots_a = [[BiPoly({K: rat(1)}) if a == slot else BiPoly() for a in range(p)]
                           for K, slot in (divmod(col, p) for col in range(D))]
                assert rationals(moment_rows(B, M, D)) == pair_oracle(mm, comps_b, slots_a), where
                # orthogonality's A side forms entry (n, c) of C_A M^T for every
                # c < n; another system's A leaves them nonzero, each a violation
                foreign = build_system(q, p, D, seed=56, kind=kind).A
                want = pair_oracle(mm, slots_b, members(foreign))
                rep = check_orthogonality(foreign, moment_rows(B, M, D), M)
                got = {(n, K * q + b): v.detail for v in rep.violations
                       for label, n, b, K in [v.where] if label == "A"}
                assert got and got == {(n, c): f"residual {want[c][n]}"
                               for n in range(D) for c in range(n) if want[c][n]}, where
                # projection's inner integrals: B_i against the columns of P, and
                # the dual direction's, A_i against the columns of P^T
                rng = random.Random(53)
                P, P_dual = seeded_monic_columns(rng, p, 1), seeded_monic_columns(rng, q, 1)
                assert pair_rationals(inner_integrals(B, M, P)) == pair_oracle(mm, comps_b, members(P)), where
                dual = pair_rationals(dual_inner_integrals(A, M, P_dual))
                assert dual == [list(r) for r in zip(*pair_oracle(mm, members(P_dual), comps_a))], where
                # and through the truncation of the transposed measures, (C_A M^T) C_P^T
                Mt = assemble_moments(transpose_measures(mm), D)
                assert dual == pair_rationals(pairings(moment_rows(A, Mt, D), P_dual)), where

    def test_products_need_the_depth_they_read(self):
        # a family storing a column past M, or more members than M has rows, is
        # a DepthError for C_B M and for orthogonality's A side, not a short row
        system = build_system(2, 1, 8, seed=52)
        M = assemble_moments(system.mm, 6)
        BM = moment_rows(system.B.head(6), M, 6)
        assert len(BM) == 6 and check_orthogonality(system.A.head(6), BM, M).ok
        for count, cols in ((6, 7), (7, 6)):
            with pytest.raises(DepthError, match="depth 7, got 6"):
                moment_rows(system.B.head(count), M, cols)
        with pytest.raises(DepthError, match="depth 7, got 6"):
            check_orthogonality(system.A.head(7), BM, M)


class TestLazyRows:
    def test_quick_start_readers_on_rows_built_on_read(self):
        # the README's readers eval, values and head on the rows extract_families
        # returns, against each member's components read one by one
        x = (rat(1, 2), rat(-1, 3))
        for q, p in SHAPES:
            M = build_system(q, p, 12, seed=49, kind="mixed").M
            for fam in extract_families(factorize(M), q, p):
                want = [[poly(fam, n, i).eval(*x) for i in range(fam.r)] for n in range(5)]
                assert fam.eval(3, *x) == want[3], (q, p)
                assert fam.values(*x, 5) == want, (q, p)
                head = fam.head(4)
                assert type(fam.rows) is list and len(fam) == 12
                assert len(head) == 4 and head.rows == fam.rows[:4]

    def test_eval_builds_only_its_member(self, monkeypatch):
        # every row of L is built in factorize; extract_families and an eval
        # of member 3 build none, and eval reads row 3 alone
        x = (rat(1, 2), rat(-1, 3))
        built = []

        def counting(minors, inv_cols, n):
            built.append(n)
            return _factor_row(minors, inv_cols, n)

        monkeypatch.setattr("steppoly.gaussborel._factor_row", counting)
        for q, p in SHAPES:
            M = build_system(q, p, 12, seed=49, kind="mixed").M
            F = factorize(M)
            built.clear()
            _, B = extract_families(F, q, p)
            got = B.eval(3, *x)
            assert built == [], (q, p)
            assert got == B.values(*x, 4)[3] == [poly(B, 3, i).eval(*x) for i in range(q)], (q, p)
            B.rows[2] = None
            assert B.eval(3, *x) == got, (q, p)


class TestCombine:
    """combine sums weighted integer rows over one denominator; mismatches compares
    two such sums as rationals, key by key."""

    def test_empty_terms(self):
        assert combine([]) == (1, {})
        assert combine(iter(())) == (1, {})
        assert mismatches(combine([]), (1, {})) == set()
        assert mismatches((7, {}), (3, {})) == set()

    def test_weights_over_the_lcm(self):
        # 2/3 {a: 1, b: 2} + -1/4 {b: 4, c: 5} = {a: 2/3, b: 1/3, c: -5/4}
        den, sums = combine([(2, 3, {"a": 1, "b": 2}), (-1, 4, {"b": 4, "c": 5})])
        assert den == 12
        assert {k: rat(v, den) for k, v in sums.items()} == {
            "a": rat(2, 3), "b": rat(1, 3), "c": rat(-5, 4)}
        assert mismatches((den, sums), (12, {"a": 8, "b": 4, "c": -15})) == set()

    def test_a_key_in_one_map_only(self):
        assert mismatches((2, {"a": 1, "b": 3}), (2, {"a": 1})) == {"b"}
        assert mismatches((2, {"a": 1}), (2, {"a": 1, "b": 3})) == {"b"}
        # a stored zero reads as the missing key it stands for
        assert mismatches((2, {"a": 1, "b": 0}), (4, {"a": 2})) == set()
        assert mismatches(combine([(1, 1, {"a": 1}), (-1, 1, {"a": 1})]), (1, {})) == set()

    def test_equal_rationals_over_different_denominators(self):
        assert mismatches((3, {"a": 1, "b": -2}), (-6, {"a": -2, "b": 4})) == set()
        assert mismatches((3, {"a": 1, "b": -2}), (6, {"a": 2, "b": 4})) == {"b"}
        # the same rational reached through different lcms
        assert mismatches(combine([(1, 2, {"a": 1})]), combine([(1, 6, {"a": 3}), (0, 5, {"a": 9})])) == set()


class TestMonomialTable:
    def test_integers_over_one_denominator_are_the_monomials(self):
        rng = random.Random(54)
        for _ in range(60):
            x = (rat(rng.randint(-9, 9), rng.randint(1, 9)), rat(rng.randint(-9, 9), rng.randint(1, 9)))
            count = rng.randint(0, 30)
            d, ints = monomial_ints(list(map(pair, x)), count)
            assert [rat(v, d) for v in ints] == [monomial_value(K, *x) for K in range(count)], (x, count)
        d, ints = monomial_ints(((2, 1), (-3, 1)), 4)  # integer coordinates
        assert (d, ints) == (1, [1, 2, -3, 4])


class TestPlantedCoefficient:
    """One wrong coefficient is reported at its member, by both checks."""

    q, p, depth = 2, 3, 10
    delta = rat(1, 7)

    def test_b_member(self):
        system = build_system(self.q, self.p, self.depth, seed=54)
        q, p, D, M = self.q, self.p, self.depth, system.M
        data = moment_data(M)
        n0, b0, K0 = 6, 1, 1
        r = K0 * q + b0  # column of the planted coefficient, below n0
        bad = planted(system.B, n0, b0, K0, self.delta)

        rep = check_orthogonality(system.A, moment_rows(bad, M, D), M)
        want = [("B", n0, a, K) for a in range(p) for K in range(D)
                if K * p + a < n0 and data[r][K * p + a] != 0]
        assert want and [v.where for v in rep.violations] == want

        rep = check_biorthogonality(pairing_matrix(system.A, bad, M))
        mono = [BiPoly({K0: rat(1)}) if b == b0 else BiPoly() for b in range(q)]
        hit = pair_oracle(system.mm, [mono], members(system.A))[0]
        want = [(n0, n) for n in range(D) if hit[n] != 0]
        assert (n0, r) in want and [v.where for v in rep.violations] == want

    def test_a_member(self):
        system = build_system(self.q, self.p, self.depth, seed=55)
        q, p, D, M = self.q, self.p, self.depth, system.M
        data = moment_data(M)
        n0, a0, K0 = 7, 2, 1
        c = K0 * p + a0  # column of the planted coefficient, below n0
        bad = planted(system.A, n0, a0, K0, self.delta)

        rep = check_orthogonality(bad, moment_rows(system.B, M, D), M)
        want = [("A", n0, b, K) for b in range(q) for K in range(D)
                if K * q + b < n0 and data[K * q + b][c] != 0]
        assert want and [v.where for v in rep.violations] == want

        rep = check_biorthogonality(pairing_matrix(bad, system.B, M))
        mono = [BiPoly({K0: rat(1)}) if a == a0 else BiPoly() for a in range(p)]
        hit = [row[0] for row in pair_oracle(system.mm, members(system.B), [mono])]
        want = [(m, n0) for m in range(D) if hit[m] != 0]
        assert (c, n0) in want and [v.where for v in rep.violations] == want


class TestDegreeStructure:
    def test_bounds_and_equalities(self):
        for q, p in SHAPES:
            system = build_system(q, p, 14, seed=49)
            rep = validate_degree_structure(system.A, system.B, q, p)
            assert rep.ok, (q, p, rep.violations[:1])

    def test_explicit_equality_rows(self):
        system = build_system(2, 3, 14, seed=50)
        q, p = 2, 3
        for n in range(14):
            for b in range(q):
                bound = degree_bound(n, b, q)
                pol = poly(system.B, n, b)
                assert pol.grlex_pos <= bound
                if n % q == b and bound >= 0:
                    assert pol.grlex_pos == bound
                    assert pol.leading_coeff() != 0
            for a in range(p):
                bound = degree_bound(n, a, p)
                pol = poly(system.A, n, a)
                assert pol.grlex_pos <= bound
                if n % p == a and bound >= 0:
                    assert pol.grlex_pos == bound
                    assert pol.leading_coeff() == 1  # monic on the diagonal

    def test_planted_coefficient_above_its_bound_located(self):
        # one position past the bound, in a component off the diagonal, where no
        # equality is checked: only the bound itself can see it
        system = build_system(2, 3, 14, seed=50)
        bad_B = planted(system.B, 5, 0, 3, rat(1, 5))  # bound (5 - 0) // 2 = 2
        bad_A = planted(system.A, 7, 2, 2, rat(-2, 3))  # bound (7 - 2) // 3 = 1
        rep = validate_degree_structure(bad_A, bad_B, 2, 3)
        assert [(v.where, v.detail) for v in rep.violations] == [
            (("B", 5, 0), "grlex_pos 3 > bound 2"), (("A", 7, 2), "grlex_pos 2 > bound 1")]

    def test_degree_bound_floor(self):
        assert degree_bound(7, 1, 2) == 3
        assert degree_bound(0, 1, 2) == -1
        assert degree_bound(5, 0, 3) == 1


class TestLinearSolveOracle:
    def test_families_match_dense_solves(self):
        for q, p in SHAPES:
            system = build_system(q, p, 12, seed=51)
            for n in range(12):
                want_b = solve_b_row(moment_data(system.M), n, q)
                got_b = [poly(system.B, n, b) for b in range(q)]
                assert [w.coeffs for w in want_b] == [g.coeffs for g in got_b], (q, p, n)
                want_a = solve_a_col(moment_data(system.M), n, p)
                got_a = [poly(system.A, n, a) for a in range(p)]
                assert [w.coeffs for w in want_a] == [g.coeffs for g in got_a], (q, p, n)
