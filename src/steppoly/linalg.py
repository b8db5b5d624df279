"""Small exact dense matrix helpers (lists of lists of rationals)."""

from __future__ import annotations

from .errors import SingularMatrix
from .rational import ZERO, as_rat, rat


def transpose(a: list[list]) -> list[list]:
    return [list(col) for col in zip(*a)]


def matmul(a: list[list], b: list[list]) -> list[list]:
    if a and b and len(a[0]) != len(b):
        raise ValueError(f"inner dimensions differ: {len(a[0])} vs {len(b)}")
    bt = transpose(b)
    out = []
    for row in a:
        out.append([sum((x * y for x, y in zip(row, col)), ZERO) for col in bt])
    return out


def gauss_jordan_inverse(a: list[list]) -> list[list]:
    """Exact inverse by Gauss-Jordan elimination with partial pivoting.

    Pivoting is fine here: this routine backs independent oracles (the ABC
    identity and linear-solve cross-checks), not the normalized factorization.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("inverse needs a square matrix")
    work = [[as_rat(x) for x in row] + [rat(1) if i == j else rat(0) for j in range(n)]
            for i, row in enumerate(a)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot_row is None:
            raise SingularMatrix(f"singular at column {col}")
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
        inv = 1 / work[col][col]
        work[col] = [v * inv for v in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                f = work[r][col]
                work[r] = [v - f * w for v, w in zip(work[r], work[col])]
    return [row[n:] for row in work]
