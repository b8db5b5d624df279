"""Moment truncations, shift operators, and the Hankel symmetry window."""

import decimal
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from steppoly import assemble_moments, rat
from steppoly.errors import DepthError
from steppoly.measures import Discrete, MeasureMatrix, RectDensity
from steppoly.moments import check_hankel
from steppoly.stepline import n_plus, pair_of

from _support import (
    SHAPES,
    apply_shift_to_monomials,
    build_system,
    max_deg_needed,
    mixed_mm,
    moment_data,
    monomial_value,
    naive_moment,
    rational_truncation,
    shift_ones_in_complement,
    shift_operator,
    table,
    table_mm,
    truncation_corner,
)


def tagged_table(b: int, a: int, max_deg: int):
    """Moments that encode (cell, s, t) injectively, so entry placement is visible."""
    moments = {}
    for s in range(max_deg + 1):
        for t in range(max_deg + 1 - s):
            moments[(s, t)] = rat(1000000 * (3 * b + a + 1) + 1000 * s + t)
    return table(max_deg, moments)


def assert_scaled(M) -> None:
    """Row m of M is ints[m] over scale[m], the lcm of its denominators."""
    data = moment_data(M)
    assert len(M.scale) == len(M.ints) == len(data) == M.depth
    for m, (row, r, nums) in enumerate(zip(data, M.scale, M.ints)):
        assert r == lcm(*(v.denominator for v in row)), m
        assert nums == [v * r for v in row] and all(type(v) is int for v in nums), m
        assert type(r) is int, m


class TestAssembly:
    def test_entry_placement(self):
        for q, p in [(1, 1), (1, 2), (2, 2)]:
            depth = 8
            mm = MeasureMatrix(
                q, p, [[tagged_table(b, a, 12) for a in range(p)] for b in range(q)]
            )
            M = assemble_moments(mm, depth)
            for m in range(depth):
                for n in range(depth):
                    i, j = pair_of(m // q)
                    kk, ll = pair_of(n // p)
                    s, t = (i - j) + (kk - ll), j + ll
                    want = rat(1000000 * (3 * (m % q) + (n % p) + 1) + 1000 * s + t)
                    assert moment_data(M)[m][n] == want, (q, p, m, n)

    def test_assembly_nesting(self):
        rng = random.Random(11)
        mm = mixed_mm(rng, 2, 1)
        big = assemble_moments(mm, 12)
        for d in (1, 5, 12):
            small = assemble_moments(mm, d)
            assert moment_data(small) == [row[:d] for row in moment_data(big)[:d]]
            part = truncation_corner(big, d)
            assert moment_data(part) == moment_data(small)
            assert part.ints == small.ints and part.scale == small.scale

    @pytest.mark.parametrize("kind", ["mixed", "table"])
    def test_rows_scaled_once_when_built(self, kind):
        # the scaling of a truncation and its corners, each row over its own lcm
        for seed in (21, 22):
            for q, p in SHAPES:
                rng = random.Random(seed)
                mm = mixed_mm(rng, q, p) if kind == "mixed" else table_mm(rng, q, p, 14)
                M = assemble_moments(mm, 14)
                for T in (M, truncation_corner(M, 1), truncation_corner(M, rng.randint(2, 13))):
                    assert_scaled(T)

    @pytest.mark.parametrize("kind", ["mixed", "table"])
    def test_each_moment_asked_once(self, kind):
        # the measures cache no moment: one assembly asks each cell for each
        # (s, t) at most once, because assemble_moments caches blocks by (s, t)
        depth = 24
        for q, p in SHAPES:
            rng = random.Random(17)
            mm = mixed_mm(rng, q, p) if kind == "mixed" else table_mm(rng, q, p, depth)
            asked = {}
            for b, row in enumerate(mm.entries):
                for a, cell in enumerate(row):
                    asked[b, a] = calls = []

                    def moment(s, t, calls=calls, orig=cell.moment):
                        calls.append((s, t))
                        return orig(s, t)

                    cell.moment = moment
            assert len({id(cell) for row in mm.entries for cell in row}) == q * p
            assemble_moments(mm, depth)
            for cell, calls in asked.items():
                assert calls and len(set(calls)) == len(calls), (kind, q, p, cell)

    def test_corner_beyond_depth_rejected(self):
        rng = random.Random(12)
        M = assemble_moments(mixed_mm(rng, 1, 1), 4)
        with pytest.raises(DepthError):
            truncation_corner(M, 5)

    def test_depth_must_be_positive(self):
        rng = random.Random(13)
        with pytest.raises(DepthError):
            assemble_moments(mixed_mm(rng, 1, 1), 0)


def text_fraction(text: str) -> Fraction:
    """A config literal as a plain Fraction, each part read by decimal.Decimal,
    which no int/str digit limit binds: a reading independent of parse_ratio."""
    num, _, den = text.strip().partition("/")
    return Fraction(int(decimal.Decimal(num)), int(decimal.Decimal(den or "1")))


@st.composite
def literals(draw) -> str:
    """Config text of a small rational: unreduced by a common factor k, with a
    leading "+" on some positive numerators and "-" on some zeros, and an
    integer written bare or over 1."""
    num, den, k = draw(st.integers(-20, 20)), draw(st.integers(1, 9)), draw(st.integers(1, 3))
    sign = draw(st.sampled_from(["", "+"])) if num > 0 else draw(st.sampled_from(["", "-"])) if num == 0 else ""
    if den * k == 1 and draw(st.booleans()):
        return f"{sign}{num}"
    return f"{sign}{num * k}/{den * k}"


@st.composite
def cells(draw, max_deg: int) -> dict:
    """One config cell of each kind, with negative weights, zero density
    coefficients and absent table moments among the draws."""
    kind = draw(st.sampled_from(["discrete", "rect", "table"]))
    if kind == "discrete":
        atom = st.fixed_dictionaries({"x": literals(), "y": literals(), "w": literals()})
        return {"type": "discrete", "atoms": draw(st.lists(atom, max_size=5))}
    if kind == "rect":
        bound = st.lists(literals(), min_size=2, max_size=2).filter(
            lambda ab: text_fraction(ab[0]) != text_fraction(ab[1]))
        box = [v for ab in (draw(bound), draw(bound)) for v in sorted(ab, key=text_fraction)]
        density = draw(st.dictionaries(st.integers(0, 5).map(str), literals(), max_size=6))
        return {"type": "rect", "box": box, "density": density}
    keys = [f"{s},{t}" for s in range(max_deg + 1) for t in range(max_deg + 1 - s)]
    moments = draw(st.dictionaries(st.sampled_from(keys), literals(), max_size=len(keys)))
    return {"type": "table", "max_total_deg": max_deg, "moments": moments}


@st.composite
def grids(draw) -> dict:
    """A config's q x p grid of cells of every kind, and a depth up to 8."""
    (q, p), depth = draw(st.sampled_from(SHAPES)), draw(st.integers(1, 8))
    max_deg = max_deg_needed(depth, q, p)
    return {"q": q, "p": p, "depth": depth,
            "measures": [[draw(cells(max_deg)) for _ in range(p)] for _ in range(q)]}


# more than the 4,300 digits Python's int() reads from text
HUGE = "-" + "3" * 4400 + "/" + "6" * 10
HUGE_GRID = {"q": 1, "p": 3, "depth": 4, "measures": [[
    {"type": "discrete", "atoms": [{"x": "1/2", "y": "-1", "w": HUGE}, {"x": "4/6", "y": "+3", "w": "1"}]},
    {"type": "rect", "box": ["-1", "1/2", "0", "2"], "density": {"0": "1", "2": HUGE, "4": "-0/5"}},
    {"type": "table", "max_total_deg": 3, "moments": {"0,0": HUGE, "1,0": "4/6", "0,1": "+3"}},
]]}


def oracle_moment(cell: dict, s: int, t: int) -> Fraction:
    """The moment of a config cell in plain Fractions: naive_moment's term-by-term
    sums over measures built from text_fraction's readings, or the table's value."""
    if cell["type"] == "table":
        return text_fraction(cell["moments"].get(f"{s},{t}", "0"))

    def pair(text: str) -> tuple[int, int]:
        v = text_fraction(text)
        return v.numerator, v.denominator

    if cell["type"] == "discrete":
        measure = Discrete([tuple(pair(a[c]) for c in "xyw") for a in cell["atoms"]])
    else:
        measure = RectDensity(*map(pair, cell["box"]),
                              {int(K): pair(c) for K, c in cell["density"].items()})
    return naive_moment(measure, s, t)


def row_scaled(rows: list[list[Fraction]]) -> tuple[list[int], list[list[int]]]:
    """Each row over the lcm of its denominators: (scales, integer rows)."""
    scale = [lcm(*(v.denominator for v in row)) for row in rows]
    return scale, [[int(v * r) for v in row] for row, r in zip(rows, scale)]


class TestIntegersFromText:
    """assemble_moments writes the row-lcm scaling of the exact moments: the
    integers of plain-Fraction moments, read from the config text apart from
    parse_ratio and the measures' integer sums."""

    @settings(max_examples=80, deadline=None)
    @given(grids())
    @example(HUGE_GRID)
    def test_scale_and_ints_match_the_fraction_oracle(self, grid):
        q, p, depth = grid["q"], grid["p"], grid["depth"]
        M = assemble_moments(MeasureMatrix.from_json(grid), depth)
        exps = [(i - j, j) for i, j in map(pair_of, range(depth))]
        want = [[oracle_moment(grid["measures"][m % q][n % p],
                               exps[m // q][0] + exps[n // p][0], exps[m // q][1] + exps[n // p][1])
                 for n in range(depth)] for m in range(depth)]
        assert (M.scale, M.ints) == row_scaled(want)


class TestShiftOperator:
    @given(st.sampled_from((1, 2, 3)), st.sampled_from((1, 2)))
    def test_single_one_per_row(self, r, k):
        op = shift_operator(r, k, 30)
        dense = op.to_dense()
        for n, row in enumerate(dense):
            assert sum(1 for v in row if v != 0) == 1
            assert row[n_plus(n, r, k)] == 1
        assert op.col_count == n_plus(29, r, k) + 1

    @given(st.sampled_from((1, 2, 3)), st.sampled_from((1, 2)))
    def test_ones_land_on_image_points(self, r, k):
        assert shift_ones_in_complement(r, k, 200)

    @given(
        st.sampled_from((1, 2, 3)),
        st.sampled_from((1, 2)),
        st.integers(-5, 5),
        st.integers(-5, 5),
    )
    def test_multiplication_action_on_monomials(self, r, k, a, b):
        # the defining property: the shift operator realizes multiplication by x_k
        x1, x2 = rat(a, 2), rat(b, 3)
        shifted = apply_shift_to_monomials(r, k, x1, x2, 40)
        factor = x1 if k == 1 else x2
        for n, value in enumerate(shifted):
            assert value == factor * monomial_value(n // r, x1, x2)


class TestHankelSymmetry:
    def test_holds_for_assembled_matrices(self):
        for q, p in SHAPES:
            system = build_system(q, p, 16, seed=21)
            for k in (1, 2):
                rep = check_hankel(system.M, k)
                assert rep.ok and rep.checked, (q, p, k)

    def test_holds_for_integral_backends(self):
        rng = random.Random(14)
        M = assemble_moments(mixed_mm(rng, 2, 2), 14)
        assert check_hankel(M, 1).ok
        assert check_hankel(M, 2).ok

    def test_corruption_detected_and_located(self):
        system = build_system(1, 2, 16, seed=22)
        data = moment_data(system.M)
        # corrupt an entry both sides of the window can see: (m, n) = (0, 0)
        target_row = n_plus(0, 1, 1)
        data[target_row][0] += 1
        corrupted = rational_truncation(16, 1, 2, data)
        rep = check_hankel(corrupted, 1)
        rows = [m for m in range(16) if n_plus(m, 1, 1) < 16]
        cols = [n for n in range(16) if n_plus(n, 2, 1) < 16]
        want = [(1, m, n) for m in rows for n in cols
                if data[n_plus(m, 1, 1)][n] != data[m][n_plus(n, 2, 1)]]
        assert (1, 0, 0) in want, "corruption must be detected"
        assert [v.where for v in rep.violations] == want
        assert rep.checked == len(rows) * len(cols) > len(want)
        # each text is str() of the rational entry, as the rational entries once wrote it
        for v in rep.violations:
            _, m, n = v.where
            assert v.detail == f"{data[n_plus(m, 1, 1)][n]} != {data[m][n_plus(n, 2, 1)]}", (m, n)

    def test_window_shrinks_with_depth(self):
        system = build_system(1, 2, 16, seed=21)
        counts = []
        for depth in range(1, 17):
            rep = check_hankel(truncation_corner(system.M, depth), 1)
            rows = sum(n_plus(m, 1, 1) < depth for m in range(depth))
            cols = sum(n_plus(n, 2, 1) < depth for n in range(depth))
            assert rep.ok and rep.checked == rows * cols, depth
            assert bool(rep.skipped) == (rows * cols == 0), depth
            counts.append(rep.checked)
        assert counts == sorted(counts) and counts[0] == 0 < counts[-1]

    def test_empty_window_is_skipped(self):
        # n_plus(0, r, k) = k r, so depth k q leaves no row of the window
        system = build_system(1, 1, 16, seed=23)
        for k in (1, 2):
            rep = check_hankel(truncation_corner(system.M, k), k)
            assert (rep.checked, rep.violations) == (0, []), k
            assert rep.skipped == [f"depth {k} leaves no checkable Hankel window for k={k}"], k
        # q = 1, p = 2 at depth 2: row 0 shifts to 1 < 2, but column 0 shifts to 2,
        # so one row and no column: the window is still empty
        system = build_system(1, 2, 16, seed=23)
        rep = check_hankel(truncation_corner(system.M, 2), 1)
        assert (rep.checked, rep.violations) == (0, [])
        assert rep.skipped == ["depth 2 leaves no checkable Hankel window for k=1"]
