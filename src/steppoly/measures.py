"""Measure specifications and the exact moment oracle.

A measure enters the theory only through its moments m(s, t) = integral of
x^s y^t against it.  Three concrete classes are supported: finite signed atom
lists, polynomial densities on axis-aligned rectangles (integrated exactly by
the power rule), and explicit moment tables with a declared degree bound.
A density is a {monomial position: rational} map, position K standing for
x^(i-j) y^j with (i, j) = pair_of(K).
Anything else can be supplied as a table.

Discrete moments are one integer sum over per-coordinate power tables and
RectDensity moments read one table of power integrals per axis.  The tables
are built on the first moment() call and grown on demand, so loading a config
does no moment work.
"""

from __future__ import annotations

from operator import mul
from typing import Mapping, Sequence

from .errors import ConfigError
from .rational import ZERO, as_rat, common_denominator, format_rat, parse_rat, rat
from .stepline import pair_of


class PowerTable:
    """Powers of a list of rationals, scaled to integers by the lcm den of their
    denominators: row(e)[a] / den**e is value a to the e-th power."""

    def __init__(self, values):
        self.den, nums = common_denominator(values)
        self._rows = [[1] * len(nums), nums]

    def row(self, e: int) -> list[int]:
        rows = self._rows
        while len(rows) <= e:
            rows.append(list(map(mul, rows[-1], rows[1])))
        return rows[e]


class PowerIntegrals:
    """The integral of x^e over [lo, hi], (hi^(e+1) - lo^(e+1)) / (e+1), by e, grown on demand."""

    def __init__(self, lo, hi):
        self.lo, self.hi = lo, hi
        self._table = []

    def __getitem__(self, e: int):
        table = self._table
        while len(table) <= e:
            n = len(table) + 1
            table.append((self.hi ** n - self.lo ** n) / n)
        return table[e]


class Discrete:
    """Finite list of weighted atoms; weights may be negative."""

    def __init__(self, atoms: Sequence[tuple]):
        self.atoms = [(as_rat(x), as_rat(y), as_rat(w)) for x, y, w in atoms]
        self._cache: dict[tuple[int, int], object] = {}
        self._scaled = None

    def moment(self, s: int, t: int):
        key = (s, t)
        if key not in self._cache:
            if self._scaled is None:
                self._scaled = [PowerTable([atom[c] for atom in self.atoms]) for c in range(3)]
            xs, ys, ws = self._scaled
            total = sum(map(mul, ws.row(1), map(mul, xs.row(s), ys.row(t))))
            self._cache[key] = rat(total, ws.den * xs.den ** s * ys.den ** t)
        return self._cache[key]

    def to_json(self) -> dict:
        return {
            "type": "discrete",
            "atoms": [
                {"x": format_rat(x), "y": format_rat(y), "w": format_rat(w)}
                for x, y, w in self.atoms
            ],
        }


class RectDensity:
    """Polynomial density on a rectangle [x1_lo, x1_hi] x [x2_lo, x2_hi].

    density maps monomial position K to its coefficient; it is stored with
    every value made an exact rational and zero coefficients dropped.
    """

    def __init__(self, x1_lo, x1_hi, x2_lo, x2_hi, density: Mapping[int, object]):
        self.x1_lo, self.x1_hi = as_rat(x1_lo), as_rat(x1_hi)
        self.x2_lo, self.x2_hi = as_rat(x2_lo), as_rat(x2_hi)
        if not (self.x1_lo < self.x1_hi and self.x2_lo < self.x2_hi):
            raise ConfigError("rectangle bounds must satisfy lo < hi in both variables")
        self.density = {int(K): v for K, c in density.items() if (v := as_rat(c)) != 0}
        self._cache: dict[tuple[int, int], object] = {}
        self._tables = None

    def moment(self, s: int, t: int):
        key = (s, t)
        if key not in self._cache:
            if self._tables is None:
                self._tables = ([(pair_of(K), c) for K, c in self.density.items()],
                                PowerIntegrals(self.x1_lo, self.x1_hi),
                                PowerIntegrals(self.x2_lo, self.x2_hi))
            terms, ix, iy = self._tables
            total = rat(0)
            for (i, j, _), c in terms:
                total += c * ix[s + i - j] * iy[t + j]
            self._cache[key] = total
        return self._cache[key]

    def to_json(self) -> dict:
        return {
            "type": "rect",
            "box": [
                format_rat(self.x1_lo),
                format_rat(self.x1_hi),
                format_rat(self.x2_lo),
                format_rat(self.x2_hi),
            ],
            "density": {str(K): format_rat(self.density[K]) for K in sorted(self.density)},
        }


class MomentTable:
    """Explicit moments up to a declared total degree; absent keys are zero."""

    def __init__(self, max_total_deg: int, moments: Mapping[tuple[int, int], object]):
        if max_total_deg < 0:
            raise ConfigError("max_total_deg must be nonnegative")
        self.max_total_deg = int(max_total_deg)
        self.moments = {}
        for (s, t), v in moments.items():
            if s < 0 or t < 0 or s + t > self.max_total_deg:
                raise ConfigError(f"moment key ({s},{t}) outside declared degree bound")
            self.moments[(int(s), int(t))] = as_rat(v)

    def moment(self, s: int, t: int):
        if s + t > self.max_total_deg:
            raise ConfigError(
                f"moment ({s},{t}) exceeds declared max_total_deg={self.max_total_deg}"
            )
        return self.moments.get((s, t), ZERO)

    def to_json(self) -> dict:
        keys = sorted(self.moments)
        return {
            "type": "table",
            "max_total_deg": self.max_total_deg,
            "moments": {f"{s},{t}": format_rat(self.moments[(s, t)]) for s, t in keys},
        }


MeasureSpec = (Discrete, RectDensity, MomentTable)


def measure_from_json(obj: Mapping) -> object:
    """Build a measure from its JSON config fragment."""
    if not isinstance(obj, Mapping) or "type" not in obj:
        raise ConfigError("measure spec must be an object with a 'type' field")
    kind = obj["type"]
    try:
        if kind == "discrete":
            atoms = [
                (parse_rat(a["x"]), parse_rat(a["y"]), parse_rat(a["w"]))
                for a in obj["atoms"]
            ]
            return Discrete(atoms)
        if kind == "rect":
            box = obj["box"]
            if len(box) != 4:
                raise ConfigError("rect box must have four entries")
            density = {int(K): parse_rat(v) for K, v in obj["density"].items()}
            if any(K < 0 for K in density):
                raise ValueError(f"negative monomial position in {sorted(density)}")
            return RectDensity(*(parse_rat(v) for v in box), density)
        if kind == "table":
            moments = {}
            for key, v in obj["moments"].items():
                s, t = key.split(",")
                moments[(int(s), int(t))] = parse_rat(v)
            return MomentTable(int(obj["max_total_deg"]), moments)
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

    def entry(self, b_idx: int, a_idx: int):
        return self.entries[b_idx][a_idx]

    def transpose(self) -> "MeasureMatrix":
        """The p x q grid whose entry (a, b) is entry (b, a) of this one."""
        return MeasureMatrix(self.p, self.q, [list(col) for col in zip(*self.entries)])

    def moment_block(self, I: int, K: int) -> list[list]:
        """q x p block of moments with exponents combined from positions I and K."""
        i, j, _ = pair_of(I)
        kk, ll, _ = pair_of(K)
        s = (i - j) + (kk - ll)
        t = j + ll
        return [
            [self.entries[b][a].moment(s, t) for a in range(self.p)]
            for b in range(self.q)
        ]

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "p": self.p,
            "measures": [[m.to_json() for m in row] for row in self.entries],
        }

    @staticmethod
    def from_json(obj: Mapping) -> "MeasureMatrix":
        try:
            q, p = int(obj["q"]), int(obj["p"])
            grid = obj["measures"]
        except (KeyError, ValueError, TypeError, OverflowError) as exc:
            raise ConfigError(f"bad measure matrix: {exc}") from exc
        if not isinstance(grid, Sequence) or len(grid) != q:
            raise ConfigError(f"measure grid shape must be {q} x {p}")
        rows = []
        for row in grid:
            if not isinstance(row, Sequence) or len(row) != p:
                raise ConfigError(f"measure grid shape must be {q} x {p}")
            rows.append([measure_from_json(m) for m in row])
        return MeasureMatrix(q, p, rows)
