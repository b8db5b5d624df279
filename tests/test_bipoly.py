"""The tests' sparse bivariate polynomial oracle: storage, degrees, serialization."""

from hypothesis import given
from hypothesis import strategies as st

from steppoly import rat

from _support import BiPoly, deg_x1, deg_x2, pos_of

rationals = st.builds(rat, st.integers(-40, 40), st.integers(1, 12))
polys = st.builds(
    BiPoly,
    st.dictionaries(st.integers(0, 20), rationals, max_size=6),
)


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

