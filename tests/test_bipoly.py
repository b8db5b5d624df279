"""Sparse bivariate polynomials: storage, degrees, serialization, matrix indexing."""

from hypothesis import given
from hypothesis import strategies as st

from steppoly import rat
from steppoly.bipoly import BiPoly, PolyMatrix
from steppoly.stepline import pos_of

from _support import deg_x1, deg_x2

rationals = st.builds(rat, st.integers(-40, 40), st.integers(1, 12))
polys = st.builds(
    BiPoly,
    st.dictionaries(st.integers(0, 20), rationals, max_size=6),
)
points = st.tuples(rationals, rationals)


@given(polys)
def test_no_stored_zeros(f):
    assert all(v != 0 for v in f.coeffs.values())


@given(polys)
def test_json_round_trip(f):
    assert BiPoly.from_json(f.to_json()).coeffs == f.coeffs


def test_zero_polynomial_degrees():
    z = BiPoly({})
    assert z.grlex_pos == -1
    assert deg_x1(z) == -1
    assert deg_x2(z) == -1
    assert z.leading_coeff() == 0


def test_degree_accessors():
    f = BiPoly({pos_of(3, 1): rat(5), pos_of(2, 2): rat(-1)})
    assert f.grlex_pos == pos_of(3, 1)
    assert f.leading_coeff() == 5
    assert deg_x1(f) == 2  # from x1^2 x2
    assert deg_x2(f) == 2  # from x2^2
    assert f.coeff(pos_of(2, 2)) == -1
    assert f.coeff(0) == 0


@given(polys, polys, points)
def test_matrix_eval_pointwise(f, g, pt):
    m = PolyMatrix([[f, g], [g, f]])
    assert m[0, 0].eval(*pt) == f.eval(*pt)
    assert m[0, 1].eval(*pt) == g.eval(*pt)
    assert m.grlex_pos_max() == max(f.grlex_pos, g.grlex_pos)
