"""Bivariate polynomials over the graded-lex monomial basis.

A BiPoly stores a sparse map from scalar step-line position K to an exact
rational coefficient; position K stands for the monomial x^(i-j) * y^j with
(i, j) = pair_of(K).  Zero coefficients are never stored, so the zero
polynomial is the empty map and its grlex position is -1 by convention.
"""

from __future__ import annotations

from typing import Mapping

from .rational import ZERO, as_rat, format_rat, parse_rat, rat
from .stepline import pair_of


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

    # ---- degree notions ----------------------------------------------

    @property
    def grlex_pos(self) -> int:
        """Largest stored position; -1 for the zero polynomial."""
        return max(self.coeffs) if self.coeffs else -1

    def leading_coeff(self):
        if not self.coeffs:
            return ZERO
        return self.coeffs[self.grlex_pos]

    def coeff(self, K: int):
        return self.coeffs.get(K, ZERO)

    def eval(self, x1, x2):
        """Exact value at a rational point."""
        a, b = as_rat(x1), as_rat(x2)
        total = rat(0)
        for K, c in self.coeffs.items():
            i, j, _ = pair_of(K)
            total += c * a ** (i - j) * b ** j
        return total

    # ---- protocol helpers --------------------------------------------

    def __eq__(self, other):
        return isinstance(other, BiPoly) and self.coeffs == other.coeffs

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

    def __getitem__(self, rc: tuple[int, int]) -> BiPoly:
        r, c = rc
        return self.entries[r][c]

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix([list(col) for col in zip(*self.entries)])

    def grlex_pos_max(self) -> int:
        return max(e.grlex_pos for row in self.entries for e in row)
