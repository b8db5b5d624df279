"""Index machinery: every map is checked against brute-force enumeration."""

from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steppoly.stepline import floor_f, in_complement_J, n_minus_big, n_plus, pair_of

from _support import monomial_value, pos_of

RS = (1, 2, 3)
KS = (1, 2)


def brute_floor(x: Fraction) -> int:
    i = 0
    while Fraction((i + 1) * (i + 2), 2) <= x:
        i += 1
    return i


def f_minus(x: int, k: int) -> int:
    """The paper's F_k^- for k in {1, 2}: F_1^-(x) = F(x) and F_2^-(x) = F(x - 1) + 1 for x >= 1."""
    if k == 1:
        return floor_f(x)
    if x < 1:
        raise ValueError(f"F_2^- requires x >= 1, got {x}")
    return floor_f(x - 1) + 1


def closed_form_in_image(n: int, r: int, k: int) -> bool:
    """n not in J_{r;k}, by the closed form: n = n_plus(m) for m = n - r F_k^-(n/r)."""
    if n < k * r:
        return False
    m = n - r * f_minus(n // r, k)
    return m >= 0 and n_plus(m, r, k) == n


def closed_form_preimage(n: int, r: int, k: int) -> int:
    """The paper's N^-_{r;k}: walk up to the next image point N >= n, then
    undo n_plus there by the closed form N - r F_k^-(N/r)."""
    while not closed_form_in_image(n, r, k):
        n += 1
    return n - r * f_minus(n // r, k)


def image_set(r: int, k: int, limit: int) -> set:
    out = set()
    m = 0
    while True:
        v = n_plus(m, r, k)
        if v >= limit + 3 * r:
            return {v for v in out if v < limit}
        out.add(v)
        m += 1


def blocks_J1(r: int, limit: int) -> set:
    """Closed-form exception set for k=1: blocks of width r at r*i*(i+3)/2."""
    out = set()
    i = 0
    while r * i * (i + 3) // 2 < limit:
        start = r * i * (i + 3) // 2
        out.update(range(start, start + r))
        i += 1
    return {v for v in out if v < limit}


def blocks_J2(r: int, limit: int) -> set:
    """Closed-form exception set for k=2: [0, 2r) then blocks at r*i*(i+1)/2, i >= 2."""
    out = set(range(0, 2 * r))
    i = 2
    while r * i * (i + 1) // 2 < limit:
        start = r * i * (i + 1) // 2
        out.update(range(start, start + r))
        i += 1
    return {v for v in out if v < limit}


class TestFloor:
    def test_small_values(self):
        assert floor_f(0) == 0
        assert floor_f(3) == 2
        assert floor_f(1) == 1

    @given(st.integers(0, 5000), st.integers(1, 50))
    def test_matches_brute_force(self, num, den):
        # F(x) = F(floor(x)) for a rational x >= 0, the floor the callers pass
        assert floor_f(num // den) == brute_floor(Fraction(num, den))

    @given(st.integers(0, 3000))
    def test_triangular_boundary(self, i):
        t = i * (i + 1) // 2
        assert floor_f(t) == i
        if t > 0:
            assert floor_f(t - 1) == i - 1

    def test_integer_path_against_brute_force(self):
        for m in range(10**4 + 1):
            assert floor_f(m) == brute_floor(Fraction(m)), m

    def test_large_integers(self):
        # around 2^200, at and next to the triangular numbers i(i+1)/2
        for i in (isqrt(2**201) - 1, isqrt(2**201), isqrt(2**201) + 1, 2**100 + 12345):
            t = i * (i + 1) // 2
            assert floor_f(t - 1) == i - 1
            assert floor_f(t) == floor_f(t + 1) == floor_f(t + i) == i
            assert floor_f(t + i + 1) == i + 1
        for m in range(2**200 - 50, 2**200 + 50):
            i = floor_f(m)
            assert i * (i + 1) // 2 <= m < (i + 1) * (i + 2) // 2

    def test_variants(self):
        for x in range(40):
            assert f_minus(x, 1) == floor_f(x)
            if x >= 1:
                assert f_minus(x, 2) == floor_f(x - 1) + 1

    def test_minus2_rejects_small_argument(self):
        with pytest.raises(ValueError):
            f_minus(0, 2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            floor_f(-1)


class TestPositionBijection:
    def test_enumeration_order(self):
        # grlex enumeration of pairs (i, j), j <= i, must hit 0, 1, 2, ...
        expected = 0
        for i in range(60):
            for j in range(i + 1):
                assert pos_of(i, j) == expected
                assert pair_of(expected) == (i, j)
                expected += 1

    @given(st.integers(0, 100000))
    def test_round_trip(self, position):
        i, j = pair_of(position)
        assert 0 <= j <= i
        assert pos_of(i, j) == position

    def test_known_pairs(self):
        assert pos_of(2, 1) == 4
        assert pair_of(7) == (3, 1)

    def test_rejects_bad_pairs(self):
        with pytest.raises(ValueError):
            pos_of(1, 2)
        with pytest.raises(ValueError):
            pair_of(-1)


class TestShiftTargets:
    @pytest.mark.parametrize("r, k, message", [
        (0, 1, "block width r must be positive, got 0"),
        (1, 3, "direction k must be 1 or 2, got 3"),
    ], ids=["width", "direction"])
    def test_rejects_bad_width_or_direction(self, r, k, message):
        with pytest.raises(ValueError) as exc:
            n_plus(0, r, k)
        assert str(exc.value) == message

    def test_recorded_shift_values(self):
        assert n_plus(0, 1, 1) == 1
        assert n_plus(1, 1, 1) == 3
        assert n_plus(2, 1, 1) == 4
        assert n_plus(3, 1, 1) == 6
        assert n_plus(0, 1, 2) == 2
        assert n_plus(1, 1, 2) == 4
        assert n_plus(0, 2, 1) == 2
        assert n_minus_big(3, 1, 1) == 1
        assert n_minus_big(4, 2, 1) == 2
        assert n_minus_big(3, 2, 1) == 1

    @given(st.integers(0, 2000), st.sampled_from(RS), st.sampled_from(KS))
    def test_strictly_increasing(self, n, r, k):
        assert n_plus(n, r, k) < n_plus(n + 1, r, k)

    @given(st.integers(0, 2000), st.sampled_from(RS), st.sampled_from(KS))
    def test_image_membership(self, n, r, k):
        assert in_complement_J(n_plus(n, r, k), r, k)

    @given(st.integers(0, 2000), st.sampled_from(RS), st.sampled_from(KS))
    def test_preimage_inverts(self, n, r, k):
        assert n_minus_big(n_plus(n, r, k), r, k) == n

    def test_shift_multiplies_monomial_by_variable(self):
        # on a family's coefficient row x_k moves column K*r + i to
        # n_plus(K*r + i, r, k): slot i of x_k times the monomial at position K
        for r in RS:
            for k in KS:
                for K in range(60):
                    a, b = pair_of(K)
                    for i in range(r):
                        assert n_plus(K * r + i, r, k) == pos_of(a + 1, b + k - 1) * r + i

    @given(st.integers(0, 40), st.sampled_from(RS), st.sampled_from(KS),
           st.tuples(st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12)),
                     st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))))
    def test_shift_matches_evaluation(self, K, r, k, pt):
        x1, x2 = pt
        shifted = n_plus(K * r, r, k) // r
        assert monomial_value(shifted, x1, x2) == monomial_value(K, x1, x2) * pt[k - 1]

    def test_recorded_memberships(self):
        assert in_complement_J(2, 1, 1) is False
        assert in_complement_J(3, 1, 1) is True
        assert in_complement_J(4, 2, 1) is False

    def test_negative_n_rejected(self):
        for r in RS:
            for k in KS:
                for f in (n_plus, n_minus_big, in_complement_J):
                    with pytest.raises(ValueError, match="negative n"):
                        f(-1, r, k)


class TestPreimage:
    def test_matches_the_closed_form(self):
        for r in range(1, 6):
            for k in KS:
                for n in range(300):
                    assert n_minus_big(n, r, k) == closed_form_preimage(n, r, k), (n, r, k)
                    assert in_complement_J(n, r, k) == closed_form_in_image(n, r, k), (n, r, k)

    def test_galois_connection(self):
        # n_minus_big(c) <= m exactly when c <= n_plus(m): the identity that
        # makes cdkernel's row and column bands one set of pairs
        for r in RS:
            for k in KS:
                for c in range(120):
                    for m in range(120):
                        assert (n_minus_big(c, r, k) <= m) == (c <= n_plus(m, r, k)), (c, m, r, k)


def counted_shifts(limit: int, r: int, k: int) -> int:
    """The n >= 0 with n_plus(n, r, k) < limit, counted one at a time: the
    window loop of the Hankel check and recurrence_n_max of earlier versions."""
    n = 0
    while n < limit and n_plus(n, r, k) < limit:
        n += 1
    return n


class TestShiftCount:
    """n_minus_big(limit, r, k) counts the shifts below limit: the window of the
    Hankel check and recurrence_n_max."""

    def test_matches_the_counting_loop(self):
        for limit in range(61):
            for r in (1, 2, 3, 4):
                for k in KS:
                    assert n_minus_big(limit, r, k) == counted_shifts(limit, r, k), (limit, r, k)

    def test_boundaries(self):
        # n_plus(0, r, k) = k r, so no n counts below limit k r + 1
        assert n_minus_big(0, 1, 1) == 0
        assert n_minus_big(2, 2, 1) == 0 and n_minus_big(3, 2, 1) == 1
        assert n_minus_big(4, 1, 2) == 1


class TestExceptionSets:
    @settings(max_examples=12)
    @given(st.sampled_from(RS), st.sampled_from(KS))
    def test_membership_against_enumeration(self, r, k):
        limit = 1000
        image = image_set(r, k, limit)
        for n in range(limit):
            assert in_complement_J(n, r, k) == (n in image), (n, r, k)

    @settings(max_examples=6)
    @given(st.sampled_from(RS))
    def test_closed_form_blocks(self, r):
        limit = 1000
        everything = set(range(limit))
        assert everything - image_set(r, 1, limit) == blocks_J1(r, limit)
        assert everything - image_set(r, 2, limit) == blocks_J2(r, limit)

    @settings(max_examples=12)
    @given(st.sampled_from(RS), st.sampled_from(KS))
    def test_preimage_steps_to_next_image_point(self, r, k):
        image = sorted(image_set(r, k, 600))
        for n in range(500):
            target = next(v for v in image if v >= n)
            assert n_plus(n_minus_big(n, r, k), r, k) == target
