"""Extracted polynomial families against independent defining-property oracles."""

import random

from steppoly import (
    assemble_moments,
    check_biorthogonality,
    extract_families,
    factorize,
    pairing_matrix,
    rat,
)
from steppoly.cli import seeded_monic_matrix
from steppoly.families import (
    Family,
    check_orthogonality,
    degree_bound,
    moment_rows,
    monomial_ints,
    pairings,
    validate_degree_structure,
)
from steppoly.measures import MeasureMatrix, RectDensity

from _support import (
    SHAPES,
    BiPoly,
    build_system,
    integrate_pair,
    members,
    monomial_value,
    planted,
    poly,
    rand_discrete,
    solve_a_col,
    solve_b_row,
)


def lebesgue_system(depth: int):
    leb = RectDensity(-1, 1, -1, 1, {0: rat(1)})
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
                    w * left.eval(x, y) * right.eval(x, y)
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
            rep = check_orthogonality(system.A, system.B, system.M)
            assert rep.ok, (q, p, rep.violations[:1])
            assert rep.checked > 0

    def test_condition_count(self):
        system = build_system(1, 2, 10, seed=44)
        rep = check_orthogonality(system.A, system.B, system.M)
        # for each family index n: n lower tests on each side of the pairing
        assert rep.checked == 2 * sum(n for n in range(10))

    def test_planted_perturbation_detected(self):
        system = build_system(2, 1, 10, seed=45)
        bad = planted(system.B, 6, 0, 0, rat(1, 7))
        rep = check_orthogonality(system.A, bad, system.M)
        assert not rep.ok
        assert all(v.where[0] == "B" and v.where[1] == 6 for v in rep.violations)

    def test_planted_dual_perturbation_detected(self):
        system = build_system(2, 2, 10, seed=46)
        bad = planted(system.A, 5, 1, 1, rat(1, 3))
        rep = check_orthogonality(bad, system.B, system.M)
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
                assert M.transpose().data == assemble_moments(mm.transpose(), D).data, where
                comps_a, comps_b = members(A), members(B)
                assert pairing_matrix(A, B, M) == pair_oracle(mm, comps_b, comps_a), where
                # the full products, not only the strictly lower parts orthogonality reads
                slots_b = [[BiPoly({K: rat(1)}) if b == slot else BiPoly() for b in range(q)]
                           for K, slot in (divmod(col, q) for col in range(D))]
                slots_a = [[BiPoly({K: rat(1)}) if a == slot else BiPoly() for a in range(p)]
                           for K, slot in (divmod(col, p) for col in range(D))]
                want = pair_oracle(mm, comps_b, slots_a)
                assert rationals(moment_rows(B, M, D)) == want, where
                want = [list(row) for row in zip(*pair_oracle(mm, slots_b, comps_a))]
                assert rationals(moment_rows(A, M.transpose(), D)) == want, where
                # projection's inner integrals: B_i against the columns of P
                P = seeded_monic_matrix(random.Random(53), p, 1)
                columns = [[BiPoly(e) for e in col] for col in zip(*P)]
                assert (pairings(B, Family.from_members(p, zip(*P)), M)
                        == pair_oracle(mm, comps_b, columns)), where


class TestMonomialTable:
    def test_integers_over_one_denominator_are_the_monomials(self):
        rng = random.Random(54)
        for _ in range(60):
            x = (rat(rng.randint(-9, 9), rng.randint(1, 9)), rat(rng.randint(-9, 9), rng.randint(1, 9)))
            count = rng.randint(0, 30)
            d, ints = monomial_ints(x, count)
            assert [rat(v, d) for v in ints] == [monomial_value(K, *x) for K in range(count)], (x, count)
        d, ints = monomial_ints((2, -3), 4)  # plain integer coordinates
        assert (d, ints) == (1, [1, 2, -3, 4])


class TestPlantedCoefficient:
    """One wrong coefficient is reported at its member, by both checks."""

    q, p, depth = 2, 3, 10
    delta = rat(1, 7)

    def test_b_member(self):
        system = build_system(self.q, self.p, self.depth, seed=54)
        q, p, D, M = self.q, self.p, self.depth, system.M
        n0, b0, K0 = 6, 1, 1
        r = K0 * q + b0  # column of the planted coefficient, below n0
        bad = planted(system.B, n0, b0, K0, self.delta)

        rep = check_orthogonality(system.A, bad, M)
        want = [("B", n0, a, K) for a in range(p) for K in range(D)
                if K * p + a < n0 and M.data[r][K * p + a] != 0]
        assert want and [v.where for v in rep.violations] == want

        rep = check_biorthogonality(pairing_matrix(system.A, bad, M))
        mono = [BiPoly({K0: rat(1)}) if b == b0 else BiPoly() for b in range(q)]
        hit = pair_oracle(system.mm, [mono], members(system.A))[0]
        want = [(n0, n) for n in range(D) if hit[n] != 0]
        assert (n0, r) in want and [v.where for v in rep.violations] == want

    def test_a_member(self):
        system = build_system(self.q, self.p, self.depth, seed=55)
        q, p, D, M = self.q, self.p, self.depth, system.M
        n0, a0, K0 = 7, 2, 1
        c = K0 * p + a0  # column of the planted coefficient, below n0
        bad = planted(system.A, n0, a0, K0, self.delta)

        rep = check_orthogonality(bad, system.B, M)
        want = [("A", n0, b, K) for b in range(q) for K in range(D)
                if K * q + b < n0 and M.data[K * q + b][c] != 0]
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

    def test_degree_bound_floor(self):
        assert degree_bound(7, 1, 2) == 3
        assert degree_bound(0, 1, 2) == -1
        assert degree_bound(5, 0, 3) == 1


class TestLinearSolveOracle:
    def test_families_match_dense_solves(self):
        for q, p in SHAPES:
            system = build_system(q, p, 12, seed=51)
            for n in range(12):
                want_b = solve_b_row(system.M.data, n, q)
                got_b = [poly(system.B, n, b) for b in range(q)]
                assert [w.coeffs for w in want_b] == [g.coeffs for g in got_b], (q, p, n)
                want_a = solve_a_col(system.M.data, n, p)
                got_a = [poly(system.A, n, a) for a in range(p)]
                assert [w.coeffs for w in want_a] == [g.coeffs for g in got_a], (q, p, n)
