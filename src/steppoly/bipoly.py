"""Bivariate polynomials over the graded-lex monomial basis.

A BiPoly stores a sparse map from scalar step-line position K to an exact
rational coefficient; position K stands for the monomial x^(i-j) * y^j with
(i, j) = pair_of(K).  Zero coefficients are never stored, so the zero
polynomial is the empty map and its graded degrees are -1 by convention.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from .rational import ONE, ZERO, as_rat, format_rat, parse_rat, rat
from .stepline import pair_of, pos_of


def monomial_table(x1, x2, count: int) -> list:
    """Values at (x1, x2) of the monomials at positions 0 .. count-1.

    Degree i holds x1^(i-j) x2^j for j = 0 .. i: the previous degree times x1,
    then its last entry times x2.
    """
    a, b = as_rat(x1), as_rat(x2)
    out, row = [], [ONE]
    while len(out) < count:
        out += row
        row = [v * a for v in row] + [row[-1] * b]
    return out[:count]


def shift_monomial(K: int, k: int) -> int:
    """Position of x_k times the monomial at position K."""
    i, j, _ = pair_of(K)
    if k == 1:
        return pos_of(i + 1, j)
    if k == 2:
        return pos_of(i + 1, j + 1)
    raise ValueError(f"variable index k must be 1 or 2, got {k}")


def monomial_positions_product(K1: int, K2: int) -> int:
    """Position of the product of the monomials at positions K1 and K2."""
    i1, j1, _ = pair_of(K1)
    i2, j2, _ = pair_of(K2)
    return pos_of(i1 + i2, j1 + j2)


class BiPoly:
    """Immutable sparse bivariate polynomial with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, object] | None = None):
        clean: dict[int, object] = {}
        if coeffs:
            for K, c in coeffs.items():
                v = as_rat(c)
                if v != 0:
                    clean[int(K)] = v
        self.coeffs = clean

    # ---- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "BiPoly":
        return BiPoly()

    @staticmethod
    def monomial(K: int, coeff=1) -> "BiPoly":
        return BiPoly({K: as_rat(coeff)})

    @staticmethod
    def constant(c) -> "BiPoly":
        return BiPoly({0: as_rat(c)})

    # ---- degree notions ----------------------------------------------

    @property
    def grlex_pos(self) -> int:
        """Largest stored position; -1 for the zero polynomial."""
        return max(self.coeffs) if self.coeffs else -1

    @property
    def grlex_deg(self) -> tuple[int, int] | None:
        """(i, j) of the leading monomial; None for the zero polynomial."""
        if not self.coeffs:
            return None
        i, j, _ = pair_of(self.grlex_pos)
        return (i, j)

    @property
    def total_deg(self) -> int:
        """Maximum exponent sum; -1 for the zero polynomial."""
        if not self.coeffs:
            return -1
        return max(pair_of(K).i for K in self.coeffs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def deg_x1(self) -> int:
        """Degree in the first variable; -1 for the zero polynomial."""
        if not self.coeffs:
            return -1
        return max(pair_of(K).i - pair_of(K).j for K in self.coeffs)

    @property
    def deg_x2(self) -> int:
        """Degree in the second variable; -1 for the zero polynomial."""
        if not self.coeffs:
            return -1
        return max(pair_of(K).j for K in self.coeffs)

    def leading_coeff(self):
        if not self.coeffs:
            return ZERO
        return self.coeffs[self.grlex_pos]

    def coeff(self, K: int):
        return self.coeffs.get(K, ZERO)

    # ---- arithmetic ---------------------------------------------------

    def add(self, other: "BiPoly") -> "BiPoly":
        out = dict(self.coeffs)
        for K, c in other.coeffs.items():
            s = out.get(K, ZERO) + c
            if s == 0:
                out.pop(K, None)
            else:
                out[K] = s
        return BiPoly(out)

    def neg(self) -> "BiPoly":
        return BiPoly({K: -c for K, c in self.coeffs.items()})

    def sub(self, other: "BiPoly") -> "BiPoly":
        return self.add(other.neg())

    def mul_scalar(self, scalar) -> "BiPoly":
        s = as_rat(scalar)
        if s == 0:
            return BiPoly()
        return BiPoly({K: c * s for K, c in self.coeffs.items()})

    def mul_by_variable(self, k: int) -> "BiPoly":
        return BiPoly({shift_monomial(K, k): c for K, c in self.coeffs.items()})

    def mul(self, other: "BiPoly") -> "BiPoly":
        out: dict[int, object] = {}
        for K1, c1 in self.coeffs.items():
            for K2, c2 in other.coeffs.items():
                K = monomial_positions_product(K1, K2)
                s = out.get(K, ZERO) + c1 * c2
                if s == 0:
                    out.pop(K, None)
                else:
                    out[K] = s
        return BiPoly(out)

    def eval(self, x1, x2):
        """Exact value at a rational point."""
        a, b = as_rat(x1), as_rat(x2)
        total = rat(0)
        for K, c in self.coeffs.items():
            i, j, _ = pair_of(K)
            total += c * a ** (i - j) * b ** j
        return total

    # ---- protocol helpers --------------------------------------------

    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self.sub(other)

    def __mul__(self, other):
        if isinstance(other, BiPoly):
            return self.mul(other)
        return self.mul_scalar(other)

    __rmul__ = __mul__

    def __neg__(self):
        return self.neg()

    def __eq__(self, other):
        return isinstance(other, BiPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset((K, str(c)) for K, c in self.coeffs.items()))

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "BiPoly(0)"
        parts = []
        for K in sorted(self.coeffs):
            i, j, _ = pair_of(K)
            parts.append(f"{format_rat(self.coeffs[K])}*x^{i - j}y^{j}")
        return "BiPoly(" + " + ".join(parts) + ")"

    # ---- serialization ------------------------------------------------

    def to_json(self) -> dict[str, str]:
        return {str(K): format_rat(self.coeffs[K]) for K in sorted(self.coeffs)}

    @staticmethod
    def from_json(obj: Mapping[str, str]) -> "BiPoly":
        coeffs = {int(K): parse_rat(v) for K, v in obj.items()}
        if any(K < 0 for K in coeffs):
            raise ValueError(f"negative monomial position in {sorted(coeffs)}")
        return BiPoly(coeffs)


class PolyMatrix:
    """Dense rows x cols grid of BiPoly entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: list[list[BiPoly]]):
        if not entries or not entries[0]:
            raise ValueError("PolyMatrix needs at least one row and column")
        cols = len(entries[0])
        if any(len(row) != cols for row in entries):
            raise ValueError("ragged PolyMatrix rows")
        self.rows = len(entries)
        self.cols = cols
        self.entries = entries

    @staticmethod
    def identity(n: int) -> "PolyMatrix":
        one = BiPoly.constant(1)
        zero = BiPoly.zero()
        return PolyMatrix(
            [[one if r == c else zero for c in range(n)] for r in range(n)]
        )

    def __getitem__(self, rc: tuple[int, int]) -> BiPoly:
        r, c = rc
        return self.entries[r][c]

    def __iter__(self) -> Iterator[list[BiPoly]]:
        return iter(self.entries)

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix([list(col) for col in zip(*self.entries)])

    def eval_at(self, x1, x2) -> list[list[object]]:
        return [[e.eval(x1, x2) for e in row] for row in self.entries]

    def grlex_pos_max(self) -> int:
        return max(e.grlex_pos for row in self.entries for e in row)
