"""Independent correctness oracle: stdlib `fractions` and integers only.

Nothing here imports steppoly.  The moment matrix is rebuilt from the config
JSON, its leading minors come from integer Bareiss elimination, and the
exported factors are checked against those moments, never against steppoly's
own factorization.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import isqrt, lcm
from pathlib import Path


def pair_of(pos: int) -> tuple[int, int]:
    """The (i, j) pair at a graded-lexicographic position, pos = i(i+1)/2 + j."""
    i = (isqrt(8 * pos + 1) - 1) // 2
    return i, pos - i * (i + 1) // 2


def _power_integral(lo: Fraction, hi: Fraction, e: int) -> Fraction:
    return (hi ** (e + 1) - lo ** (e + 1)) / (e + 1)


class Cell:
    """Moments m(s, t) of one measure spec from a config."""

    def __init__(self, spec: dict):
        self.kind = spec["type"]
        if self.kind == "discrete":
            self.atoms = [(Fraction(a["x"]), Fraction(a["y"]), Fraction(a["w"]))
                          for a in spec["atoms"]]
        elif self.kind == "rect":
            self.box = [Fraction(v) for v in spec["box"]]
            self.density = [(pair_of(int(K)), Fraction(v)) for K, v in spec["density"].items()]
        elif self.kind == "table":
            self.max_deg = spec["max_total_deg"]
            self.table = {tuple(int(e) for e in key.split(",")): Fraction(v)
                          for key, v in spec["moments"].items()}
        else:
            raise ValueError(f"unknown measure type {self.kind!r}")
        self.cache: dict[tuple[int, int], Fraction] = {}

    def moment(self, s: int, t: int) -> Fraction:
        key = (s, t)
        if key not in self.cache:
            if self.kind == "discrete":
                val = sum((w * x ** s * y ** t for x, y, w in self.atoms), Fraction(0))
            elif self.kind == "rect":
                x_lo, x_hi, y_lo, y_hi = self.box
                val = sum((c * _power_integral(x_lo, x_hi, s + i - j)
                           * _power_integral(y_lo, y_hi, t + j)
                           for (i, j), c in self.density), Fraction(0))
            else:
                if s + t > self.max_deg:
                    raise ValueError(f"moment ({s},{t}) beyond the table's degree")
                val = self.table.get(key, Fraction(0))
            self.cache[key] = val
        return self.cache[key]


class MomentOracle:
    """The scalar moment matrix of a config, entry (m, n) from grid slot (m mod q, n mod p)."""

    def __init__(self, config: dict):
        self.q, self.p = config["q"], config["p"]
        self.cells = [[Cell(spec) for spec in row] for row in config["measures"]]

    def entry(self, m: int, n: int) -> Fraction:
        I, b = divmod(m, self.q)
        K, a = divmod(n, self.p)
        i, j = pair_of(I)
        k, l = pair_of(K)
        return self.cells[b][a].moment((i - j) + (k - l), j + l)

    def matrix(self, depth: int) -> list[list[Fraction]]:
        return [[self.entry(m, n) for n in range(depth)] for m in range(depth)]


class Bareiss:
    """Fraction-free elimination of the integer-scaled moment matrix.

    `den` clears every denominator, so `den * M` is an integer matrix.  The
    k-th pivot is its leading (k+1) x (k+1) minor, and a zero minor stops the
    elimination with `breakdown` set to that index, as in the program's
    unpivoted factorization.  The eliminated rows and multipliers are kept
    so that `solve` can reuse them for every leading block.
    """

    def __init__(self, M: list[list[Fraction]]):
        n = len(M)
        self.M = M
        self.den = lcm(*(v.denominator for row in M for v in row))
        a = [[int(v * self.den) for v in row] for row in M]
        self.minors = []  # minors[k] = det of the leading (k+1) block of den * M
        self.mult = [[0] * n for _ in range(n)]  # mult[i][k] = a_ik at step k
        self.breakdown = None
        prev = 1
        for k in range(n):
            piv = a[k][k]
            if piv == 0:
                self.breakdown = k
                break
            self.minors.append(piv)
            row_k = a[k]
            for i in range(k + 1, n):
                f = a[i][k]
                self.mult[i][k] = f
                row_i = a[i]
                for j in range(k + 1, n):
                    row_i[j] = (piv * row_i[j] - f * row_k[j]) // prev
                row_i[k] = 0
            prev = piv
        self.upper = a

    def H(self, count: int) -> list[Fraction]:
        """Pivots of M = S^-1 diag(H) Sbar^-T: H_n = minor_n / (minor_(n-1) * den)."""
        out, prev = [], 1
        for d in self.minors[:count]:
            out.append(Fraction(d, prev * self.den))
            prev = d
        return out

    def solve(self, size: int, rhs: list[Fraction]) -> list[Fraction]:
        """x with M[:size, :size] x = rhs, by the stored elimination and back substitution."""
        scale = lcm(*(v.denominator for v in rhs))
        b = [int(v * scale) for v in rhs]
        prev = 1
        for k in range(size - 1):
            piv = self.minors[k]
            for i in range(k + 1, size):
                b[i] = (piv * b[i] - self.mult[i][k] * b[k]) // prev
            prev = piv
        x = [Fraction(0)] * size
        for i in range(size - 1, -1, -1):
            acc = Fraction(b[i])
            row = self.upper[i]
            for j in range(i + 1, size):
                if row[j]:
                    acc -= row[j] * x[j]
            x[i] = acc / row[i]
        return [v * self.den / scale for v in x]

    def kernel(self, q: int, p: int, n: int, x: tuple, y: tuple) -> list[list[Fraction]]:
        """The p x q kernel in inverse-moment form, X_[p](x)^T M^-1 X_[q](y) on n + 1 rows."""
        size = n + 1

        def mono(pos: int, pt: tuple) -> Fraction:
            i, j = pair_of(pos)
            return pt[0] ** (i - j) * pt[1] ** j

        out = [[Fraction(0)] * q for _ in range(p)]
        for b in range(q):
            z = self.solve(size, [mono(m // q, y) if m % q == b else Fraction(0)
                                  for m in range(size)])
            for m in range(size):
                out[m % p][b] += mono(m // p, x) * z[m]
        return out


# ---- checks of one op's outputs ---------------------------------------------
#
# Each returns None when the op's exit code and outputs are right, otherwise a
# one-line reason.

CHECK_NAMES = {"hankel", "degree", "orthogonality", "biorthogonality", "dual", "band",
               "recurrence", "reproduction", "projection", "cd", "abc"}


def _fractions(rows: list) -> list:
    return [[Fraction(v) for v in row] for row in rows]


def _same_files(out: Path, golden: Path) -> str | None:
    want = sorted(f.name for f in golden.iterdir() if f.is_file())
    got = sorted(f.name for f in out.iterdir()) if out.is_dir() else []
    if got != want:
        return f"files {got} differ from golden {want}"
    for name in want:
        if (out / name).read_bytes() != (golden / name).read_bytes():
            return f"{name} differs from the golden copy"
    return None


def check_verify(op, rc: int, golden: Path) -> str | None:
    expect = {"golden": 0, "ok": 0, "breakdown": 2}[op.case.expect]
    if rc != expect:
        return f"exit {rc}, expected {expect}"
    path = op.out / "report.json"
    if op.case.expect == "golden":
        return None if path.read_bytes() == (golden / "report.json").read_bytes() \
            else "report.json differs from the golden copy"
    report = json.loads(path.read_text())
    bareiss = op.case.bareiss
    if op.case.expect == "breakdown":
        if report.get("status") != "breakdown" or report.get("breakdown_index") != bareiss.breakdown:
            return f"report {report.get('status')} at {report.get('breakdown_index')}, " \
                   f"expected breakdown at {bareiss.breakdown}"
        return None
    names = {c["name"] for c in report["checks"]}
    bad = [c["name"] for c in report["checks"] if c["status"] != "pass"]
    if report["status"] != "ok" or names != CHECK_NAMES or bad:
        return f"status {report['status']}, checks not passing: {bad or sorted(CHECK_NAMES - names)}"
    if [Fraction(h) for h in report["H"]] != bareiss.H(op.case.config["depth"]):
        return "H differs from the Bareiss leading minors"
    return None


def check_factors(S: list, Sbar: list, H: list, M: list) -> str | None:
    """S M Sbar^T == diag(H) exactly, with S and Sbar unit lower triangular."""
    D = len(H)
    for name, T in (("S", S), ("Sbar", Sbar)):
        if len(T) != D or any(len(row) != D for row in T):
            return f"{name} is not {D} x {D}"
        for m, row in enumerate(T):
            if row[m] != 1 or any(row[m + 1:]):
                return f"{name} is not unit lower triangular at row {m}"
    # Scale each factor row and M to integers so the products need no gcds.
    s_scale = [lcm(*(v.denominator for v in row[:m + 1])) for m, row in enumerate(S)]
    b_scale = [lcm(*(v.denominator for v in row[:m + 1])) for m, row in enumerate(Sbar)]
    s_int = [[int(v * s_scale[m]) for v in row[:m + 1]] for m, row in enumerate(S)]
    b_int = [[int(v * b_scale[m]) for v in row[:m + 1]] for m, row in enumerate(Sbar)]
    den = lcm(*(v.denominator for row in M for v in row))
    m_int = [[int(v * den) for v in row] for row in M]
    for m in range(D):
        sm = [sum(s_int[m][c] * m_int[c][n] for c in range(m + 1)) for n in range(D)]
        for n in range(D):
            got = sum(sm[d] * b_int[n][d] for d in range(n + 1))
            want = s_scale[m] * b_scale[n] * den * H[m] if m == n else 0
            if got != want:
                return f"S M Sbar^T differs from diag(H) at ({m},{n})"
    return None


def check_compute(op, rc: int, golden: Path) -> str | None:
    expect = 2 if op.case.expect == "breakdown" else 0
    if rc != expect:
        return f"exit {rc}, expected {expect}"
    if op.case.expect == "breakdown":
        return None
    if op.case.expect == "golden":
        return _same_files(op.out, golden / "exports")
    D = op.case.config["depth"]
    bareiss = op.case.bareiss

    def entries(kind: str) -> list:
        return _fractions(json.loads((op.out / f"{kind}.json").read_text())["entries"])

    H = [Fraction(h) for h in json.loads((op.out / "H.json").read_text())["values"]]
    if H != bareiss.H(D):
        return "H differs from the Bareiss leading minors"
    M = [row[:D] for row in bareiss.M[:D]]
    if entries("moments") != M:
        return "moments differ from the moment oracle"
    return check_factors(entries("S"), entries("Sbar"), H, M)


def check_kernel(op, rc: int, stdout: str, golden: Path) -> str | None:
    if rc != 0:
        return f"exit {rc}, expected 0"
    if op.case.expect == "golden":
        return None if stdout == (golden / "kernel.json").read_text() \
            else "kernel output differs from the golden copy"
    n, x, y = op.query
    obj = json.loads(stdout)
    got = _fractions(obj["matrix"])
    config = op.case.config
    want = op.case.bareiss.kernel(config["q"], config["p"], n,
                                 tuple(map(Fraction, x)), tuple(map(Fraction, y)))
    if obj["n"] != n or got != want:
        return f"kernel at n={n} differs from the inverse-moment form"
    return None

