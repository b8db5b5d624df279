"""Moment oracles: symbolic integration and direct sums confirm each measure class."""

import json
import random
from fractions import Fraction
from math import gcd

import pytest
import sympy

from steppoly import rat
from steppoly.cli import load_config
from steppoly.errors import ConfigError
from steppoly.measures import Discrete, MeasureMatrix, measure_from_json
from steppoly.rational import QType, parse_ratio, ratio_text
from steppoly.stepline import pair_of

from _support import (config_json, discrete, moment, naive_moment, parse_rat, rand_density,
                      rand_discrete, rect, table)


def to_fraction(v) -> Fraction:
    return Fraction(int(v.numerator), int(v.denominator))


def sympy_rect_moment(density: dict, box, s: int, t: int) -> Fraction:
    x, y = sympy.symbols("x y")
    expr = sympy.Integer(0)
    for K, c in density.items():
        i, j = pair_of(K)
        expr += sympy.Rational(to_fraction(c)) * x ** (i - j) * y**j
    val = sympy.integrate(
        expr * x**s * y**t,
        (x, sympy.Rational(to_fraction(box[0])), sympy.Rational(to_fraction(box[1]))),
        (y, sympy.Rational(to_fraction(box[2])), sympy.Rational(to_fraction(box[3]))),
    )
    return Fraction(sympy.nsimplify(val))


class TestRectDensity:
    def test_lebesgue_moments(self):
        leb = rect(-1, 1, -1, 1, {0: rat(1)})
        assert leb.moment(0, 0) == (4, 1)
        assert leb.moment(1, 0) == (0, 1)
        assert leb.moment(2, 0) == (4, 3)
        assert leb.moment(2, 2) == (4, 9)
        assert leb.moment(3, 5) == (0, 1)

    def test_against_symbolic_integration(self):
        rng = random.Random(3)
        boxes = [(rat(-1), rat(1), rat(-1), rat(1)), (rat(0), rat(1, 2), rat(-2), rat(1, 3))]
        for box in boxes:
            density = rand_density(rng)
            measure = rect(*box, density)
            for s in range(4):
                for t in range(4):
                    want = sympy_rect_moment(density, box, s, t)
                    assert Fraction(*measure.moment(s, t)) == want, (box, s, t)

    def test_rejects_empty_box(self):
        with pytest.raises(ConfigError):
            rect(1, 1, -1, 1, {0: rat(1)})


class TestDiscrete:
    def test_single_atom(self):
        m = discrete([(rat(1, 2), rat(-1, 3), rat(5))])
        assert m.moment(0, 0) == (5, 1)
        assert moment(m, 2, 1) == rat(5) * rat(1, 4) * rat(-1, 3)

    def test_weighted_sum(self):
        atoms = [(rat(1), rat(2), rat(3)), (rat(-1, 2), rat(1, 3), rat(-2, 5))]
        m = discrete(atoms)
        for s in range(4):
            for t in range(4):
                want = sum(w * x**s * y**t for x, y, w in atoms)
                assert moment(m, s, t) == want


# every (s, t) with s + t <= 12, highest total degree first, so that the
# lazily grown power tables are read out of order
QUERIES = sorted(((s, t) for s in range(13) for t in range(13 - s)), key=lambda st: (-sum(st), -st[0]))


class TestMomentOracle:
    """Discrete and RectDensity moments equal a plain Fraction sum, entry by entry."""

    def assert_matches(self, measure):
        for s, t in QUERIES:
            assert Fraction(*measure.moment(s, t)) == naive_moment(measure, s, t), (s, t)

    def test_discrete_edge_atoms(self):
        atoms = [
            (rat(0), rat(0), rat(3)),           # both coordinates zero
            (rat(0), rat(-2, 3), rat(-1, 4)),   # zero x, negative weight
            (rat(5, 6), rat(0), rat(2)),        # zero y
            (rat(-1, 2), rat(3, 7), rat(-5)),
            (rat(-1, 2), rat(3, 7), rat(-5)),   # a repeat
            (rat(9, 4), rat(-7, 5), rat(0)),    # zero weight
        ]
        self.assert_matches(discrete(atoms))

    def test_discrete_empty(self):
        m = discrete([])
        self.assert_matches(m)
        assert m.moment(0, 0) == (0, 1)

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
            self.assert_matches(rect(*box, rand_density(rng)))

    def test_query_order_does_not_matter(self):
        rng = random.Random(13)
        atoms = rand_discrete(rng, n_atoms=10).atoms
        density = rand_density(rng)
        shuffled = random.Random(14).sample(QUERIES, len(QUERIES))
        for order in (QUERIES, QUERIES[::-1], shuffled):
            for m in (Discrete(atoms), rect(rat(-1, 2), rat(3), rat(-2), rat(1, 5), density)):
                got = [Fraction(*m.moment(s, t)) for s, t in order]
                assert got == [naive_moment(m, s, t) for s, t in order]


# every (s, t) with s + t <= 24: the depth-40 kernel queries read up to that degree
DEEP_QUERIES = [(s, t) for s in range(25) for t in range(25 - s)]


class TestIntegerRectOracle:
    """RectDensity sums integers over the scaled bounds' powers, then reduces one
    integer pair per moment."""

    def assert_deep(self, measure):
        for s, t in DEEP_QUERIES:
            num, den = got = measure.moment(s, t)
            assert type(num) is int and type(den) is int, (s, t)
            assert gcd(num, den) == 1 and den > 0, (s, t)
            assert Fraction(*got) == naive_moment(measure, s, t), (s, t)

    def test_deep_exponents(self):
        rng = random.Random(21)
        for box in [(rat(-1), rat(1), rat(-1), rat(1)), (rat(-2, 3), rat(5, 4), rat(1, 6), rat(7, 2))]:
            self.assert_deep(rect(*box, rand_density(rng)))

    def test_axes_with_different_denominators(self):
        rng = random.Random(22)
        boxes = [
            (rat(-1, 3), rat(2, 3), rat(-3, 5), rat(1, 7)),   # x over 3, y over 35
            (rat(1, 2), rat(9, 4), rat(-5), rat(-11, 9)),     # x over 4, y over 9
            (rat(-7), rat(3), rat(2, 11), rat(13, 11)),       # integer x, y over 11
        ]
        for box in boxes:
            self.assert_deep(rect(*box, rand_density(rng)))

    def test_terms_cancel_to_zero(self):
        # 1 - 3 x^2 integrates to 2 - 2 over [-1, 1], so every moment with s = 0 is zero
        m = rect(-1, 1, 0, 2, {0: rat(1), 3: rat(-3)})
        assert m.moment(0, 0) == (0, 1) and m.moment(0, 3) == (0, 1)
        assert moment(m, 2, 0) == rat(2) * (rat(2, 3) - rat(6, 5))
        self.assert_deep(m)

    def test_every_term_odd(self):
        # x and x y over a box symmetric in x: every even-s moment has no live term
        m = rect(-2, 2, rat(-1, 3), rat(5, 7), {1: rat(1, 3), 4: rat(-5, 2)})
        for s, t in DEEP_QUERIES:
            if s % 2 == 0:
                assert m.moment(s, t) == (0, 1), (s, t)
        self.assert_deep(m)

    def test_empty_density(self):
        m = rect(-1, 2, 0, 1, {0: rat(0)})
        assert m.moment(0, 0) == (0, 1) and m.moment(3, 1) == (0, 1)

    def test_load_config_builds_no_table(self, tmp_path):
        cell = {"type": "rect", "box": ["-1/2", "1", "0", "3/2"], "density": {"0": "1", "4": "-2/3"}}
        path = tmp_path / "rect.json"
        path.write_text(json.dumps({"schema_version": 1, "q": 1, "p": 2, "depth": 4,
                                    "measures": [[cell, cell]]}))
        cells = load_config(path).measures.entries[0]
        assert all(m._tables is None for m in cells)
        assert Fraction(*cells[0].moment(2, 1)) == naive_moment(cells[0], 2, 1)
        assert cells[0]._tables is not None and cells[1]._tables is None


class TestMomentTable:
    def test_sparse_zero_semantics(self):
        m = table(3, {(0, 0): rat(1), (2, 1): rat(-1, 7)})
        assert m.moment(0, 0) == (1, 1)
        assert m.moment(2, 1) == (-1, 7)
        assert m.moment(1, 1) == (0, 1)  # absent within bound
        with pytest.raises(ConfigError):
            m.moment(2, 2)  # beyond declared bound

    def test_rejects_out_of_bound_keys(self):
        with pytest.raises(ConfigError):
            table(2, {(2, 1): rat(1)})
        with pytest.raises(ConfigError):
            table(-1, {})


class TestJson:
    def test_round_trips(self):
        rng = random.Random(5)
        specimens = [
            discrete([(rat(1, 3), rat(-2), rat(7, 2))]),
            rect(rat(-1), rat(1), rat(0), rat(2, 3), rand_density(rng)),
            table(4, {(1, 2): rat(9, 8), (0, 0): rat(-3)}),
        ]
        for m in specimens:
            back = measure_from_json(config_json(m))
            assert config_json(back) == config_json(m)
            for s in range(3):
                for t in range(3 - s):
                    assert back.moment(s, t) == m.moment(s, t)

    def test_measure_matrix_round_trip(self):
        rng = random.Random(6)
        mm = MeasureMatrix(
            2,
            1,
            [
                [discrete([(rat(1), rat(1), rat(2))])],
                [rect(-1, 1, -1, 1, rand_density(rng))],
            ],
        )
        back = MeasureMatrix.from_json(config_json(mm))
        assert config_json(back) == config_json(mm)
        assert (back.q, back.p) == (2, 1)
        for s in range(4):
            for t in range(4):
                assert back.moment_block(s, t) == mm.moment_block(s, t)

    @pytest.mark.parametrize("cell, keys", [
        ({"type": "rect", "box": ["0", "1", "0", "1"], "density": {"0": "1", "00": "2"}},
         ("'0'", "'00'")),
        ({"type": "rect", "box": ["0", "1", "0", "1"], "density": {"4": "1", " 4": "2"}},
         ("'4'", "' 4'")),
        ({"type": "table", "max_total_deg": 2, "moments": {"1,0": "1", "01,0": "2"}},
         ("'1,0'", "'01,0'")),
        ({"type": "table", "max_total_deg": 2, "moments": {"1,0": "1", " 1,0": "2"}},
         ("'1,0'", "' 1,0'")),
    ])
    def test_key_named_twice_rejected(self, cell, keys):
        # two spellings of one position or moment: keeping the last would drop a value
        with pytest.raises(ConfigError) as info:
            measure_from_json(cell)
        assert all(key in str(info.value) for key in keys)

    def test_moment_keys(self):
        # \s around a key or its parts includes the separators U+001C-U+001F
        cell = {"type": "table", "max_total_deg": 9,
                "moments": {"0,0": "1", " 1 ,\t2 ": "2", "03,4": "3", "\x1c1,\x1f0": "4"}}
        assert measure_from_json(cell).moments == {(0, 0): (1, 1), (1, 2): (2, 1), (3, 4): (3, 1),
                                                   (1, 0): (4, 1)}
        for key in ("1", "1,2,3", ",1", "1,", "1 2", "+1,2", "1,-2", "\u0663,1"):
            cell = {"type": "table", "max_total_deg": 9, "moments": {key: "1"}}
            with pytest.raises(ConfigError, match="is not two exponents s,t"):
                measure_from_json(cell)

    def test_density_keys(self):
        cell = {"type": "rect", "box": ["0", "1", "0", "1"],
                "density": {"0": "1", " 2\t": "2", "\x1c1": "3", "05\x1f": "4"}}
        assert measure_from_json(cell).density == {0: (1, 1), 2: (2, 1), 1: (3, 1), 5: (4, 1)}

    def test_bad_specs_rejected(self):
        with pytest.raises(ConfigError):
            measure_from_json({"type": "mystery"})
        with pytest.raises(ConfigError):
            measure_from_json({"atoms": []})
        with pytest.raises(ConfigError):
            MeasureMatrix.from_json({"q": 2, "p": 1, "measures": [[]]})


class TestMeasureMatrix:
    def test_moment_block_exponents(self):
        m = discrete([(rat(2), rat(3), rat(1))])
        mm = MeasureMatrix(1, 1, [[m]])
        # exponents (2, 1): the atom's x1^2 x2
        assert mm.moment_block(2, 1) == [[(4 * 3, 1)]]
        assert mm.moment_block(0, 0) == [[(1, 1)]]

    def test_shape_validation(self):
        with pytest.raises(ConfigError):
            MeasureMatrix(0, 1, [])
        with pytest.raises(ConfigError):
            MeasureMatrix(1, 2, [[discrete([])]])
        with pytest.raises(ConfigError):
            MeasureMatrix(1, 1, [["nope"]])


class TestRationalParsing:
    def test_round_trip(self):
        for text in ("3", "-3", "5/7", "-12/35", "0"):
            assert ratio_text(*parse_ratio(text)) == text
            assert str(parse_rat(text)) == text

    def test_normalization(self):
        # one reduced pair, den > 0, whatever the literal's sign and common factor
        for text, want in (("4/8", (1, 2)), ("-4/6", (-2, 3)), ("+3", (3, 1)), ("-0/5", (0, 1)),
                           ("0/7", (0, 1)), ("-12/4", (-3, 1)), ("+10/15", (2, 3))):
            assert parse_ratio(text) == want, text
        assert ratio_text(2, 4) == ratio_text(-2, -4) == "1/2"

    def test_qtype_is_fraction(self):
        # the benchmark's environment stamp names rational.QType; rat takes no float
        assert QType is Fraction
        assert type(rat(1, 2)) is Fraction
        with pytest.raises(TypeError):
            rat(0.5)

    def test_any_size(self):
        # past the interpreter's 4,300-digit limit on int/str conversion
        text = "1" + "0" * 4999 + "1/3"
        assert ratio_text(10**5000 + 1, 3) == text
        assert ratio_text(10**5000, -1) == "-1" + "0" * 5000
        assert parse_ratio(text) == (10**5000 + 1, 3)
        assert parse_ratio("1" * 5000) == ((10**5000 - 1) // 9, 1)
        assert parse_ratio("-3/" + "0" * 5000 + "6") == (-1, 2)
        assert parse_ratio("2" + "0" * 5000 + "/4") == (10**5000 // 2, 1)
        with pytest.raises(ValueError):
            parse_ratio("1/" + "0" * 5000)

    def test_rejects_garbage(self):
        for text in ("", "1/0", "a", "1.5", "1/ 2", "--3", "1_0", "\u0663", "\uff11\uff12", "1/\u0663"):
            with pytest.raises(ValueError):
                parse_ratio(text)

    def test_whitespace_around_a_literal(self):
        # whitespace is allowed around the literal, any that str.isspace names,
        # and nowhere inside it
        for text, want in ((" 1/2 ", (1, 2)), ("\t-3\n", (-3, 1)), ("+4", (4, 1)),
                           ("\u20037/9\u3000", (7, 9)), ("\x1c-0/5\x85", (0, 1))):
            assert parse_ratio(text) == want, text
        for text in ("1 /2", "- 3", "+ 4", " ", "1/2/3", "1/-2"):
            with pytest.raises(ValueError, match="not a rational literal"):
                parse_ratio(text)
        with pytest.raises(ValueError, match="zero denominator"):
            parse_ratio(" 3/00 ")
