"""Sparse bivariate polynomials: evaluation is the oracle for the arithmetic."""

from hypothesis import given
from hypothesis import strategies as st

from steppoly import rat
from steppoly.bipoly import BiPoly, PolyMatrix, monomial_positions_product, shift_monomial
from steppoly.moments import monomial_value
from steppoly.stepline import pair_of, pos_of

rationals = st.builds(rat, st.integers(-40, 40), st.integers(1, 12))
polys = st.builds(
    BiPoly,
    st.dictionaries(st.integers(0, 20), rationals, max_size=6),
)
points = st.tuples(rationals, rationals)


def test_monomial_products_match_exponent_arithmetic():
    for K1 in range(25):
        i1, j1, _ = pair_of(K1)
        for K2 in range(25):
            i2, j2, _ = pair_of(K2)
            assert monomial_positions_product(K1, K2) == pos_of(i1 + i2, j1 + j2)


def test_shift_by_variable_positions():
    # multiplying the monomial at position 4 (x1 x2) by x1 lands at position 7
    assert shift_monomial(4, 1) == 7
    assert shift_monomial(0, 1) == 1
    assert shift_monomial(0, 2) == 2
    for K in range(30):
        i, j, _ = pair_of(K)
        assert shift_monomial(K, 1) == pos_of(i + 1, j)
        assert shift_monomial(K, 2) == pos_of(i + 1, j + 1)


@given(st.integers(0, 40), points)
def test_shift_matches_evaluation(K, pt):
    x1, x2 = pt
    assert monomial_value(shift_monomial(K, 1), x1, x2) == monomial_value(K, x1, x2) * x1
    assert monomial_value(shift_monomial(K, 2), x1, x2) == monomial_value(K, x1, x2) * x2


@given(polys, polys, points)
def test_addition_evaluates_pointwise(f, g, pt):
    assert (f + g).eval(*pt) == f.eval(*pt) + g.eval(*pt)
    assert (f - g).eval(*pt) == f.eval(*pt) - g.eval(*pt)


@given(polys, polys, points)
def test_product_evaluates_pointwise(f, g, pt):
    assert (f * g).eval(*pt) == f.eval(*pt) * g.eval(*pt)


@given(polys, rationals, points)
def test_scalar_multiple_evaluates_pointwise(f, c, pt):
    assert f.mul_scalar(c).eval(*pt) == c * f.eval(*pt)


@given(polys, points)
def test_variable_multiplication(f, pt):
    x1, x2 = pt
    assert f.mul_by_variable(1).eval(x1, x2) == f.eval(x1, x2) * x1
    assert f.mul_by_variable(2).eval(x1, x2) == f.eval(x1, x2) * x2


@given(polys)
def test_no_stored_zeros(f):
    assert all(v != 0 for v in f.coeffs.values())


@given(polys)
def test_json_round_trip(f):
    assert BiPoly.from_json(f.to_json()).coeffs == f.coeffs


def test_zero_polynomial_degrees():
    z = BiPoly({})
    assert z.grlex_pos == -1
    assert z.total_deg == -1
    assert z.deg_x1 == -1
    assert z.deg_x2 == -1
    assert z.is_zero
    assert z.grlex_deg is None
    assert z.leading_coeff() == 0


def test_degree_accessors():
    f = BiPoly({pos_of(3, 1): rat(5), pos_of(2, 2): rat(-1)})
    assert f.grlex_pos == pos_of(3, 1)
    assert f.grlex_deg == (3, 1)
    assert f.leading_coeff() == 5
    assert f.total_deg == 3
    assert f.deg_x1 == 2  # from x1^2 x2
    assert f.deg_x2 == 2  # from x2^2
    assert f.coeff(pos_of(2, 2)) == -1
    assert f.coeff(0) == 0


def test_cancellation_drops_terms():
    f = BiPoly({3: rat(2, 3)})
    assert (f - f).is_zero
    assert (f + f.neg()).is_zero


@given(polys, polys, points)
def test_matrix_eval_pointwise(f, g, pt):
    m = PolyMatrix([[f, g], [g, f]])
    vals = m.eval_at(*pt)
    assert vals[0][0] == f.eval(*pt)
    assert vals[0][1] == g.eval(*pt)
    assert m.grlex_pos_max() == max(f.grlex_pos, g.grlex_pos)


def test_matrix_identity():
    m = PolyMatrix.identity(3)
    vals = m.eval_at(rat(2), rat(3))
    assert vals == [[1 if r == c else 0 for c in range(3)] for r in range(3)]
