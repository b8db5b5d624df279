"""Scalar truncations of the moment matrix and their Hankel symmetry.

The semi-infinite moment matrix has q x p blocks indexed by step-line
positions; its scalar entry (m, n) is the moment of the measure at grid slot
(m mod q, n mod p) with exponents combined from positions m // q and n // p.
The shift operator Lambda_{[r];k}, which realizes multiplication by x_k on the
monomial vector X_{[r]}, has a single 1 per row, at column n_plus(n, r, k);
the Hankel symmetry Lambda_{[q];k} M = M Lambda^T_{[p];k} is read off that.
"""

from __future__ import annotations

from .errors import DepthError
from .measures import MeasureMatrix
from .rational import over_lcm, ratio_text
from .report import CheckReport, Violation
from .stepline import n_minus_big, n_plus, pair_of


class MomentTruncation:
    """Dense D x D leading corner of the scalar-indexed moment matrix, each row
    scaled to integers: entry (m, n) is ints[m][n] / scale[m], scale[m] the lcm
    of row m's reduced denominators.  Every reader of the moments reads these;
    a reader that eliminates works on its own copy."""

    __slots__ = ("depth", "q", "p", "scale", "ints")

    def __init__(self, depth: int, q: int, p: int, scale: list[int], ints: list[list[int]]):
        self.depth = depth
        self.q = q
        self.p = p
        self.scale = scale
        self.ints = ints


def assemble_moments(mm: MeasureMatrix, depth: int) -> MomentTruncation:
    """Materialize the leading depth x depth scalar moment truncation.

    Block (I, K) depends only on the exponents (s, t) that positions I and K
    combine to, so blocks are cached by (s, t): a Hankel truncation reads each
    block many times and computes it once, through mm.moment_block(s, t).  Each
    row of (num, den) moments is scaled once, by over_lcm.
    """
    if depth < 1:
        raise DepthError(f"depth must be >= 1, got {depth}")
    q, p = mm.q, mm.p

    def exponents(count: int) -> list[tuple[int, int]]:
        return [(i - j, j) for i, j in map(pair_of, range(count))]

    row_exps, col_exps = exponents((depth - 1) // q + 1), exponents((depth - 1) // p + 1)
    blocks: dict[tuple[int, int], list[list]] = {}
    scale, ints = [], []
    for m in range(depth):
        I, b = divmod(m, q)
        s0, t0 = row_exps[I]
        row = []
        for s1, t1 in col_exps:
            blk = blocks.get((s0 + s1, t0 + t1))
            if blk is None:
                blk = blocks[s0 + s1, t0 + t1] = mm.moment_block(s0 + s1, t0 + t1)
            row += blk[b]
        r, nums = over_lcm(row[:depth])
        scale.append(r)
        ints.append(nums)
    return MomentTruncation(depth, q, p, scale, ints)


def check_hankel(M: MomentTruncation, k: int) -> CheckReport:
    """Lambda_{[q];k} M = M Lambda^T_{[p];k} on the determined window; skipped when it is empty.

    Row m of the left product is row n_plus(m, q, k) of M; column n of the
    right product is column n_plus(n, p, k) of M, so the window is exactly the
    set of (m, n) with both shifted indices inside the truncation.  The sides
    are compared cross-multiplied over M's row scales; a mismatch's two entries
    are written with ratio_text.
    """
    m_count, n_count = n_minus_big(M.depth, M.q, k), n_minus_big(M.depth, M.p, k)
    rep = CheckReport(checked=m_count * n_count)
    if not rep.checked:
        rep.skipped.append(f"depth {M.depth} leaves no checkable Hankel window for k={k}")
    scale, ints = M.scale, M.ints
    shifted = [n_plus(n, M.p, k) for n in range(n_count)]
    for m in range(m_count):
        ms = n_plus(m, M.q, k)
        for n, ns in enumerate(shifted):
            if ints[ms][n] * scale[m] != ints[m][ns] * scale[ms]:
                text = f"{ratio_text(ints[ms][n], scale[ms])} != {ratio_text(ints[m][ns], scale[m])}"
                rep.violations.append(Violation((k, m, n), text))
    return rep
