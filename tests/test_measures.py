"""Moment oracles: symbolic integration and direct sums confirm each backend."""

import random
from fractions import Fraction

import pytest
import sympy

from steppoly import rat
from steppoly.errors import ConfigError
from steppoly.measures import Discrete, MeasureMatrix, MomentTable, RectDensity, measure_from_json
from steppoly.rational import BACKEND, QType, format_rat, parse_rat
from steppoly.stepline import pair_of

from _support import naive_moment, rand_density, rand_discrete


def to_fraction(v) -> Fraction:
    return Fraction(int(v.numerator), int(v.denominator))


def sympy_rect_moment(density: dict, box, s: int, t: int) -> Fraction:
    x, y = sympy.symbols("x y")
    expr = sympy.Integer(0)
    for K, c in density.items():
        i, j, _ = pair_of(K)
        expr += sympy.Rational(to_fraction(c)) * x ** (i - j) * y**j
    val = sympy.integrate(
        expr * x**s * y**t,
        (x, sympy.Rational(to_fraction(box[0])), sympy.Rational(to_fraction(box[1]))),
        (y, sympy.Rational(to_fraction(box[2])), sympy.Rational(to_fraction(box[3]))),
    )
    return Fraction(sympy.nsimplify(val))


class TestRectDensity:
    def test_lebesgue_moments(self):
        leb = RectDensity(-1, 1, -1, 1, {0: rat(1)})
        assert leb.moment(0, 0) == 4
        assert leb.moment(1, 0) == 0
        assert leb.moment(2, 0) == rat(4, 3)
        assert leb.moment(2, 2) == rat(4, 9)
        assert leb.moment(3, 5) == 0

    def test_against_symbolic_integration(self):
        rng = random.Random(3)
        boxes = [(rat(-1), rat(1), rat(-1), rat(1)), (rat(0), rat(1, 2), rat(-2), rat(1, 3))]
        for box in boxes:
            density = rand_density(rng)
            measure = RectDensity(*box, density)
            for s in range(4):
                for t in range(4):
                    got = measure.moment(s, t)
                    want = sympy_rect_moment(density, box, s, t)
                    assert to_fraction(got) == want, (box, s, t)

    def test_rejects_empty_box(self):
        with pytest.raises(ConfigError):
            RectDensity(1, 1, -1, 1, {0: rat(1)})


class TestDiscrete:
    def test_single_atom(self):
        m = Discrete([(rat(1, 2), rat(-1, 3), rat(5))])
        assert m.moment(0, 0) == 5
        assert m.moment(2, 1) == rat(5) * rat(1, 4) * rat(-1, 3)

    def test_weighted_sum(self):
        atoms = [(rat(1), rat(2), rat(3)), (rat(-1, 2), rat(1, 3), rat(-2, 5))]
        m = Discrete(atoms)
        for s in range(4):
            for t in range(4):
                want = sum(w * x**s * y**t for x, y, w in atoms)
                assert m.moment(s, t) == want


# every (s, t) with s + t <= 12, highest total degree first, so that the
# lazily grown power tables are read out of order
QUERIES = sorted(((s, t) for s in range(13) for t in range(13 - s)), key=lambda st: (-sum(st), -st[0]))


class TestMomentOracle:
    """Discrete and RectDensity moments equal a plain Fraction sum, entry by entry."""

    def assert_matches(self, measure):
        for s, t in QUERIES:
            assert to_fraction(measure.moment(s, t)) == naive_moment(measure, s, t), (s, t)

    def test_discrete_edge_atoms(self):
        atoms = [
            (rat(0), rat(0), rat(3)),           # both coordinates zero
            (rat(0), rat(-2, 3), rat(-1, 4)),   # zero x, negative weight
            (rat(5, 6), rat(0), rat(2)),        # zero y
            (rat(-1, 2), rat(3, 7), rat(-5)),
            (rat(-1, 2), rat(3, 7), rat(-5)),   # a repeat
            (rat(9, 4), rat(-7, 5), rat(0)),    # zero weight
        ]
        self.assert_matches(Discrete(atoms))

    def test_discrete_empty(self):
        m = Discrete([])
        self.assert_matches(m)
        assert m.moment(0, 0) == 0

    def test_discrete_random(self):
        rng = random.Random(11)
        for _ in range(3):
            self.assert_matches(rand_discrete(rng, n_atoms=15))

    def test_rect_boxes_on_both_sides_of_zero(self):
        rng = random.Random(12)
        boxes = [
            (rat(-3, 2), rat(1, 3), rat(-2), rat(-1, 5)),   # x across 0, y below it
            (rat(1, 4), rat(2), rat(1, 3), rat(5, 2)),      # both above 0
            (rat(-2), rat(-1, 2), rat(0), rat(3, 4)),       # x below 0, y from 0
            (rat(-5, 3), rat(0), rat(-1, 7), rat(4, 3)),    # x up to 0, y across it
        ]
        for box in boxes:
            self.assert_matches(RectDensity(*box, rand_density(rng)))

    def test_query_order_does_not_matter(self):
        rng = random.Random(13)
        atoms = rand_discrete(rng, n_atoms=10).atoms
        density = rand_density(rng)
        shuffled = random.Random(14).sample(QUERIES, len(QUERIES))
        for order in (QUERIES, QUERIES[::-1], shuffled):
            for m in (Discrete(atoms), RectDensity(rat(-1, 2), rat(3), rat(-2), rat(1, 5), density)):
                got = [m.moment(s, t) for s, t in order]
                assert [to_fraction(v) for v in got] == [naive_moment(m, s, t) for s, t in order]


class TestMomentTable:
    def test_sparse_zero_semantics(self):
        table = MomentTable(3, {(0, 0): rat(1), (2, 1): rat(-1, 7)})
        assert table.moment(0, 0) == 1
        assert table.moment(2, 1) == rat(-1, 7)
        assert table.moment(1, 1) == 0  # absent within bound
        with pytest.raises(ConfigError):
            table.moment(2, 2)  # beyond declared bound

    def test_rejects_out_of_bound_keys(self):
        with pytest.raises(ConfigError):
            MomentTable(2, {(2, 1): rat(1)})
        with pytest.raises(ConfigError):
            MomentTable(-1, {})


class TestJson:
    def test_round_trips(self):
        rng = random.Random(5)
        specimens = [
            Discrete([(rat(1, 3), rat(-2), rat(7, 2))]),
            RectDensity(rat(-1), rat(1), rat(0), rat(2, 3), rand_density(rng)),
            MomentTable(4, {(1, 2): rat(9, 8), (0, 0): rat(-3)}),
        ]
        for m in specimens:
            back = measure_from_json(m.to_json())
            for s in range(3):
                for t in range(3 - s):
                    assert back.moment(s, t) == m.moment(s, t)

    def test_measure_matrix_round_trip(self):
        rng = random.Random(6)
        mm = MeasureMatrix(
            2,
            1,
            [
                [Discrete([(rat(1), rat(1), rat(2))])],
                [RectDensity(-1, 1, -1, 1, rand_density(rng))],
            ],
        )
        back = MeasureMatrix.from_json(mm.to_json())
        assert (back.q, back.p) == (2, 1)
        for I in range(4):
            for K in range(4):
                assert back.moment_block(I, K) == mm.moment_block(I, K)

    def test_bad_specs_rejected(self):
        with pytest.raises(ConfigError):
            measure_from_json({"type": "mystery"})
        with pytest.raises(ConfigError):
            measure_from_json({"atoms": []})
        with pytest.raises(ConfigError):
            MeasureMatrix.from_json({"q": 2, "p": 1, "measures": [[]]})


class TestMeasureMatrix:
    def test_moment_block_exponents(self):
        m = Discrete([(rat(2), rat(3), rat(1))])
        mm = MeasureMatrix(1, 1, [[m]])
        # I = 4 is x1 x2, K = 1 is x1: the product is x1^2 x2
        assert mm.moment_block(4, 1) == [[rat(4) * rat(3)]]
        assert mm.moment_block(0, 0) == [[rat(1)]]

    def test_shape_validation(self):
        with pytest.raises(ConfigError):
            MeasureMatrix(0, 1, [])
        with pytest.raises(ConfigError):
            MeasureMatrix(1, 2, [[Discrete([])]])
        with pytest.raises(ConfigError):
            MeasureMatrix(1, 1, [["nope"]])


class TestRationalParsing:
    def test_round_trip(self):
        for text in ("3", "-3", "5/7", "-12/35", "0"):
            assert format_rat(parse_rat(text)) == text

    def test_normalization(self):
        assert format_rat(parse_rat("4/8")) == "1/2"
        assert format_rat(rat(2, 4)) == "1/2"

    def test_backend_names_the_rational_type(self):
        assert BACKEND in ("gmpy2", "fractions")
        assert (BACKEND == "fractions") == (QType is Fraction)
        assert QType.__module__ == BACKEND
        assert type(rat(1, 2)) is QType

    def test_rejects_garbage(self):
        for text in ("", "1/0", "a", "1.5", "1/ 2", "--3"):
            with pytest.raises(ValueError):
                parse_rat(text)
