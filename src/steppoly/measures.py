"""Measure specifications and the exact moment oracle.

A measure enters the theory only through its moments m(s, t) = integral of
x^s y^t against it.  Three concrete classes are supported: finite signed atom
lists, polynomial densities on axis-aligned rectangles (integrated exactly by
the power rule), and explicit moment tables with a declared degree bound.
A density is a {monomial position: rational} map, position K standing for
x^(i-j) y^j with (i, j) = pair_of(K).
Anything else can be supplied as a table.

Every rational a measure takes and keeps is an integer pair (num, den) in
lowest terms with den > 0, as rational.parse_ratio reads it from config text,
and every moment is returned as one such pair: no rational is formed.
Discrete moments are read off integer power tables, one per coordinate, as
one integer sum and one gcd per moment; the x table keeps each power row
multiplied by the weights, so a moment multiplies one row by a y row.
RectDensity moments are one integer sum over the density's terms of the
scaled bounds' power tables.  The tables are built on the first moment() call
and grown on demand, so loading a config does no moment work.  No moment is
cached: assemble_moments caches each block by its exponent pair, so it asks a
measure for each (s, t) once.
"""

from __future__ import annotations

import re
from math import gcd, lcm
from operator import mul
from typing import Mapping, Sequence

from .errors import ConfigError
from .rational import over_lcm, parse_ratio
from .stepline import pair_of


def _reduced(num: int, den: int) -> tuple[int, int]:
    g = gcd(num, den)
    return num // g, den // g


class PowerTable:
    """Powers of a list of rationals, scaled to integers by the lcm den of their
    denominators and multiplied by an integer row w (all ones by default):
    row(e)[a] / den**e is w[a] times value a to the e-th power.

    Rows are cached by exponent.  A row whose predecessor is cached takes one
    multiplication per value, any other one pow per value, O(log e)
    multiplications: a far exponent, such as a far density position's, builds
    no row below it."""

    def __init__(self, values, weights=None):
        self.den, self.nums = over_lcm(values)
        self._rows = {0: weights or [1] * len(self.nums)}

    def row(self, e: int) -> list[int]:
        rows = self._rows
        got = rows.get(e)
        if got is None:
            prev = rows.get(e - 1)
            got = rows[e] = (list(map(mul, prev, self.nums)) if prev is not None
                             else [w * pow(v, e) for w, v in zip(rows[0], self.nums)])
        return got


class Discrete:
    """Finite list of weighted atoms (x, y, w); weights may be negative."""

    def __init__(self, atoms: Sequence[tuple]):
        self.atoms = [(x, y, w) for x, y, w in atoms]
        self._scaled = None

    def moment(self, s: int, t: int) -> tuple[int, int]:
        if self._scaled is None:
            w_den, w_nums = over_lcm(w for _, _, w in self.atoms)
            self._scaled = (w_den, PowerTable([x for x, _, _ in self.atoms], w_nums),
                            PowerTable([y for _, y, _ in self.atoms]))
        w_den, wxs, ys = self._scaled
        total = sum(map(mul, wxs.row(s), ys.row(t)))
        return _reduced(total, w_den * wxs.den ** s * ys.den ** t)


# The most bits a density term's moments may need, by RectDensity's estimate
# (2 MB a number).  A depth-3 verify on [0, 2] x [-1, 1] took 22 s at 2^18
# bits and ran past 300 s at 2^20 (Python 3.11, one x86-64 core): by that
# growth, a config this refuses would run for many hours.
MAX_MOMENT_BITS = 2**24


class RectDensity:
    """Polynomial density on a rectangle [x1_lo, x1_hi] x [x2_lo, x2_hi].

    density maps monomial position K to its coefficient; zero coefficients
    are dropped.  The term at K = (i, j) integrates to powers of the scaled
    bounds, at least i - j + 1 of the x1 ones and j + 1 of the x2 ones, so its
    moments need at least about (i - j + 1) bx + (j + 1) by bits, bx and by the
    ceil(log2) of the largest scaled bound or denominator on each axis: 0 for
    bounds of magnitude 1 over 1.  Above MAX_MOMENT_BITS that is a ConfigError.
    """

    def __init__(self, x1_lo, x1_hi, x2_lo, x2_hi, density: Mapping[int, tuple[int, int]]):
        self.x1_lo, self.x1_hi, self.x2_lo, self.x2_hi = x1_lo, x1_hi, x2_lo, x2_hi
        if not all(lo[0] * hi[1] < hi[0] * lo[1] for lo, hi in ((x1_lo, x1_hi), (x2_lo, x2_hi))):
            raise ConfigError("rectangle bounds must satisfy lo < hi in both variables")
        self.density = {int(K): c for K, c in density.items() if c[0]}
        self._axes = PowerTable([x1_lo, x1_hi]), PowerTable([x2_lo, x2_hi])
        bx, by = ((max(t.den, *map(abs, t.nums)) - 1).bit_length() for t in self._axes)
        for K in self.density:
            i, j = pair_of(K)
            if (bits := (i - j + 1) * bx + (j + 1) * by) > MAX_MOMENT_BITS:
                raise ConfigError(f"density position {K} needs moments of about {bits} bits, "
                                  f"above the limit of {MAX_MOMENT_BITS}")
        self._tables = None

    def moment(self, s: int, t: int) -> tuple[int, int]:
        if self._tables is None:
            den, nums = over_lcm(self.density.values())
            pairs = map(pair_of, self.density)
            self._tables = den, [(i - j + 1, j + 1, c) for (i, j), c in zip(pairs, nums)]
        (den, terms), (xs, ys) = self._tables, self._axes
        # the term (c/den) x^(i-j) y^j integrates to (c/den) (hi^a - lo^a)/a (hi^b - lo^b)/b,
        # a = s + i - j + 1 and b = t + j + 1: over the scaled axis rows that is
        # n / (den xs.den^a ys.den^b a b) for an integer n.  Terms with n = 0 are
        # dropped and the rest summed over one common denominator.
        live = []
        for u, v, c in terms:
            a, b = s + u, t + v
            (x_lo, x_hi), (y_lo, y_hi) = xs.row(a), ys.row(b)
            if x_lo != x_hi and y_lo != y_hi:
                live.append((a, b, c * (x_hi - x_lo) * (y_hi - y_lo)))
        A = max((a for a, _, _ in live), default=0)
        B = max((b for _, b, _ in live), default=0)
        L = lcm(*(a * b for a, b, _ in live))
        total = sum(n * xs.den ** (A - a) * ys.den ** (B - b) * (L // (a * b))
                    for a, b, n in live)
        return _reduced(total, den * xs.den ** A * ys.den ** B * L)


class MomentTable:
    """Explicit moments up to a declared total degree; absent keys are zero."""

    def __init__(self, max_total_deg: int, moments: Mapping[tuple[int, int], tuple[int, int]]):
        if max_total_deg < 0:
            raise ConfigError("max_total_deg must be nonnegative")
        self.max_total_deg = deg = int(max_total_deg)
        self.moments = {(int(s), int(t)): v for (s, t), v in moments.items()
                        if s >= 0 and t >= 0 and s + t <= deg}
        if len(self.moments) < len(moments):
            s, t = next((s, t) for s, t in moments if s < 0 or t < 0 or s + t > deg)
            raise ConfigError(f"moment key ({s},{t}) outside declared degree bound")

    def moment(self, s: int, t: int) -> tuple[int, int]:
        if s + t > self.max_total_deg:
            raise ConfigError(
                f"moment ({s},{t}) exceeds declared max_total_deg={self.max_total_deg}"
            )
        return self.moments.get((s, t), (0, 1))


MeasureSpec = (Discrete, RectDensity, MomentTable)


# ASCII digits: no sign, no "_", not \d; int() reads the digits only, because
# \s matches separators (U+001C-U+001F) that int() does not strip
_KEY_NUMBER = re.compile(r"\s*([0-9]+)\s*")
_KEY_PAIR = re.compile(r"\s*([0-9]+)\s*,\s*([0-9]+)\s*")  # two _KEY_NUMBERs around one comma


def _position(key: str) -> int:
    number = _KEY_NUMBER.fullmatch(key)
    if number is None:
        raise ValueError(f"density key {key!r} is not a position in ASCII digits")
    return int(number[1])


def _exponent_pair(key: str) -> tuple[int, int]:
    pair = _KEY_PAIR.fullmatch(key)
    if pair is None:
        raise ValueError(f"moment key {key!r} is not two exponents s,t in ASCII digits")
    return int(pair[1]), int(pair[2])


def _read_keyed(entries: Mapping, read_key, what: str, entry: str) -> dict:
    """{read_key(key): (num, den) value}; two keys that read alike, such as "0" and
    "00", are an error, never one silently dropped."""
    out = {read_key(key): parse_ratio(v) for key, v in entries.items()}
    if len(out) < len(entries):
        first = {}
        for key in entries:
            other = first.setdefault(read_key(key), key)
            if other != key:
                raise ValueError(f"{what} keys {other!r} and {key!r} name the same {entry}")
    return out


def measure_from_json(obj: Mapping) -> object:
    """Build a measure from its JSON config fragment."""
    if not isinstance(obj, Mapping) or "type" not in obj:
        raise ConfigError("measure spec must be an object with a 'type' field")
    kind = obj["type"]
    try:
        if kind == "discrete":
            atoms = [
                (parse_ratio(a["x"]), parse_ratio(a["y"]), parse_ratio(a["w"]))
                for a in obj["atoms"]
            ]
            return Discrete(atoms)
        if kind == "rect":
            box = obj["box"]
            if len(box) != 4:
                raise ConfigError("rect box must have four entries")
            if not isinstance(box, list):  # a string or an object has a len() too
                raise ConfigError(f"rect box must be a list of four rationals, not {box!r}")
            density = _read_keyed(obj["density"], _position, "density", "position")
            return RectDensity(*(parse_ratio(v) for v in box), density)
        if kind == "table":
            moments = _read_keyed(obj["moments"], _exponent_pair, "moment", "moment")
            deg = obj["max_total_deg"]
            if type(deg) is not int:
                raise ValueError(f"max_total_deg {deg!r} is not an integer")
            return MomentTable(deg, moments)
    except (KeyError, ValueError, TypeError, AttributeError, OverflowError) as exc:
        raise ConfigError(f"bad measure spec ({kind}): {exc}") from exc
    raise ConfigError(f"unknown measure type {kind!r}")


class MeasureMatrix:
    """q x p grid of measures driving the mixed orthogonality."""

    def __init__(self, q: int, p: int, entries: Sequence[Sequence]):
        if q < 1 or p < 1:
            raise ConfigError("q and p must be positive")
        if len(entries) != q or any(len(row) != p for row in entries):
            raise ConfigError(f"measure grid shape must be {q} x {p}")
        for row in entries:
            for m in row:
                if not isinstance(m, MeasureSpec):
                    raise ConfigError(f"not a measure spec: {type(m).__name__}")
        self.q = q
        self.p = p
        self.entries = [list(row) for row in entries]

    def moment_block(self, s: int, t: int) -> list[list[tuple[int, int]]]:
        """q x p block of the measures' moments m(s, t), each a pair (num, den)."""
        return [[m.moment(s, t) for m in row] for row in self.entries]

    @staticmethod
    def from_json(obj: Mapping) -> "MeasureMatrix":
        try:
            q, p, grid = obj["q"], obj["p"], obj["measures"]
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"bad measure matrix: {exc}") from exc
        if type(q) is not int or type(p) is not int:
            raise ConfigError(f"bad measure matrix: q = {q!r} and p = {p!r} must be integers")
        if not isinstance(grid, Sequence) or len(grid) != q:
            raise ConfigError(f"measure grid shape must be {q} x {p}")
        rows = []
        for row in grid:
            if not isinstance(row, Sequence) or len(row) != p:
                raise ConfigError(f"measure grid shape must be {q} x {p}")
            rows.append([measure_from_json(m) for m in row])
        return MeasureMatrix(q, p, rows)
