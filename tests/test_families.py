"""Extracted polynomial families against independent defining-property oracles."""

import random

from steppoly import (
    FamilyA,
    FamilyB,
    RectDensity,
    MeasureMatrix,
    assemble_moments,
    check_biorthogonality,
    check_orthogonality,
    extract_families,
    factorize,
    pairing_matrix,
    rat,
    validate_degree_structure,
)
from steppoly.bipoly import BiPoly
from steppoly.families import degree_bound, integrate_pair

from _support import SHAPES, build_system, rand_discrete, solve_a_col, solve_b_row


def lebesgue_system(depth: int):
    leb = RectDensity(-1, 1, -1, 1, BiPoly({0: rat(1)}))
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
        assert A.poly(1, 0).coeffs == {1: rat(1)}
        assert A.poly(3, 0).coeffs == {3: rat(1), 0: rat(-1, 3)}
        assert A.poly(6, 0).coeffs == {6: rat(1), 1: rat(-3, 5)}
        assert B.poly(1, 0).coeffs == {1: rat(3, 4)}

    def test_defining_property_of_anchor(self):
        # independent of the factorization: A_3 kills every lower monomial
        mm, _, _, A, _ = lebesgue_system(8)
        a3 = A.poly(3, 0)
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
            rep = check_orthogonality(system.A, system.B, system.mm)
            assert rep.ok, (q, p, rep.violations[:1])
            assert rep.checked > 0

    def test_condition_count(self):
        system = build_system(1, 2, 10, seed=44)
        rep = check_orthogonality(system.A, system.B, system.mm)
        # for each family index n: n lower tests on each side of the pairing
        assert rep.checked == 2 * sum(n for n in range(10))

    def test_planted_perturbation_detected(self):
        system = build_system(2, 1, 10, seed=45)
        rows = [[poly for poly in row] for row in system.B.rows]
        rows[6][0] = rows[6][0] + BiPoly({0: rat(1, 7)})
        bad = FamilyB(system.q, rows)
        rep = check_orthogonality(system.A, bad, system.mm)
        assert not rep.ok
        assert all(v.where[0] == "B" and v.where[1] == 6 for v in rep.violations)

    def test_planted_dual_perturbation_detected(self):
        system = build_system(2, 2, 10, seed=46)
        cols = [[poly for poly in col] for col in system.A.cols]
        cols[5][1] = cols[5][1] + BiPoly({1: rat(1, 3)})
        bad = FamilyA(system.p, cols)
        rep = check_orthogonality(bad, system.B, system.mm)
        assert not rep.ok


class TestBiorthogonality:
    def test_exact_duality(self):
        for q, p in SHAPES:
            system = build_system(q, p, 10, seed=47)
            rep = check_biorthogonality(pairing_matrix(system.A, system.B, system.mm))
            assert rep.ok, (q, p, rep.violations[:1])
            assert rep.checked == 100

    def test_detects_scaling_error(self):
        system = build_system(1, 1, 8, seed=48)
        rows = [[poly.mul_scalar(rat(2)) for poly in row] for row in system.B.rows]
        rep = check_biorthogonality(pairing_matrix(system.A, FamilyB(1, rows), system.mm))
        assert not rep.ok


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
                poly = system.B.poly(n, b)
                assert poly.grlex_pos <= bound
                if n % q == b and bound >= 0:
                    assert poly.grlex_pos == bound
                    assert poly.leading_coeff() != 0
            for a in range(p):
                bound = degree_bound(n, a, p)
                poly = system.A.poly(n, a)
                assert poly.grlex_pos <= bound
                if n % p == a and bound >= 0:
                    assert poly.grlex_pos == bound
                    assert poly.leading_coeff() == 1  # monic on the diagonal

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
                got_b = system.B.rows[n]
                assert [w.coeffs for w in want_b] == [g.coeffs for g in got_b], (q, p, n)
                want_a = solve_a_col(system.M.data, n, p)
                got_a = system.A.cols[n]
                assert [w.coeffs for w in want_a] == [g.coeffs for g in got_a], (q, p, n)
