"""Batch front-end: config in, exact artifacts and a verification report out.

Subcommands:
    compute --config c.json [--depth N] [--out DIR] [--render-decimal]
            write H/S/Sbar/T1/T2/families/moments
    verify  --config c.json [--checks a,b] [--seed S] [--out DIR]   run checks, write report.json
    kernel  --config c.json --n N --x "x1,x2" --y "y1,y2" [--out DIR]   print one kernel value
            (a point with a negative first coordinate as --x=-1/2,1/3)

Exit codes: 0 no requested check failed (a check that verified nothing is
skipped, not failed), 1 check failure, 2 factorization breakdown, 3
configuration error.  All emitted files are byte-identical across
reruns with the same config and seed; rationals are serialized as "num/den"
strings and timing never enters any file.  A kernel query reuses, within one
process, the elimination an earlier query on the same config bytes kept.
"""

from __future__ import annotations

import argparse
import decimal
import io
import json
import math
import os
import random
import sys
import time
from collections import OrderedDict
from functools import cache, cached_property
from pathlib import Path
from typing import NamedTuple

from .cdkernel import (check_abc, check_cd_formula, check_projection, check_reproduction,
                       kernel_eval, kernel_replay)
from .errors import Breakdown, ConfigError, DepthError
from .families import (
    Family,
    check_biorthogonality,
    check_orthogonality,
    extract_families,
    moment_rows,
    pairings,
    validate_degree_structure,
)
from .gaussborel import factorize, unit_lower
from .measures import MeasureMatrix
from .moments import assemble_moments, check_hankel
from .rational import _int, over_lcm, parse_ratio, ratio_text
from .recurrence import (
    RecurrenceTruncation,
    build_recurrence,
    check_dual_form,
    check_recurrence_matrix,
    required_depth,
    validate_band,
)
from .report import CheckReport

SCHEMA_VERSION = 1


class RunConfig(NamedTuple):
    measures: MeasureMatrix
    depth: int
    checks: list[str]
    seed: int
    output: str | None

    @staticmethod
    def from_json(obj: dict) -> "RunConfig":
        if not isinstance(obj, dict):
            raise ConfigError("config root must be a JSON object")
        version = obj.get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {version}")
        if type(version) is not int:  # true and 1.0 compare equal to 1
            raise ConfigError(f"bad schema_version: {version!r} is not an integer")
        mm = MeasureMatrix.from_json(obj)
        depth = obj.get("depth", 1)
        if type(depth) is not int:
            raise ConfigError(f"bad depth: {depth!r} is not an integer")
        if depth < 1:
            raise ConfigError(f"depth must be >= 1, got {depth}")
        checks = obj.get("checks", list(CHECK_NAMES))
        if not isinstance(checks, list) or not all(isinstance(c, str) for c in checks):
            raise ConfigError("checks must be a list of names")
        require_checks(checks)
        # eval_points feeds no check, but a malformed value is still a config error
        entries = obj.get("eval_points", [])
        if not isinstance(entries, list):
            raise ConfigError("eval_points must be a list of pairs")
        for entry in entries:
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise ConfigError(f"eval point must be a pair, got {entry!r}")
            try:
                parse_ratio(entry[0]), parse_ratio(entry[1])
            except ValueError as exc:
                raise ConfigError(f"bad eval point {entry!r}: {exc}") from exc
        seed = obj.get("seed", 0)
        if type(seed) is not int:
            raise ConfigError(f"bad seed: {seed!r} is not an integer")
        output = obj.get("output")
        if output is not None and not isinstance(output, str):
            raise ConfigError("output must be a path string")
        return RunConfig(mm, depth, checks, seed, output)


def read_config(path: str | Path) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def load_config(path: str | Path, data: bytes | None = None) -> RunConfig:
    """The RunConfig in the config file at path, or in data, its bytes if they
    were already read, decoded as Path.read_text decodes them: UTF-8, with
    universal newlines."""
    if data is None:
        data = read_config(path)
    try:
        obj = json.loads(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read())
    except RecursionError as exc:
        raise ConfigError(f"config {path} nests deeper than the JSON parser's limit") from exc
    except ValueError as exc:  # a JSONDecodeError, or bytes that are not UTF-8
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return RunConfig.from_json(obj)


def seeded_monic_columns(rng: random.Random, size: int, I: int) -> Family:
    """The columns of a monic size x size matrix polynomial of grlex-degree I with
    random lower part, as a Family: member c is column c, component r entry
    (r, c).  Member by member, each coefficient below position I is num / den,
    num and den drawn in turn, and the diagonal entry has 1 at position I."""
    rows = []
    for c in range(size):
        coeffs = {K * size + r: v for K in range(I) for r in range(size)
                  if (v := (rng.randint(-6, 6), rng.randint(1, 4)))[0]}
        coeffs[I * size + c] = (1, 1)
        d, nums = over_lcm(coeffs.values())
        rows.append((d, dict(zip(coeffs, nums))))
    return Family(size, rows)


def extended_depth(config: RunConfig) -> int:
    """Factorization depth of a run: deep enough for T_1 and T_2 on the depth window."""
    return required_depth(config.depth, config.measures.q, config.measures.p)


class Workspace:
    """Everything computed for one config at one depth.  A width is passed to
    factorize: compute passes its depth, the only rows it reads; verify passes
    none, since degree, dual and the families read every row.  factorize runs
    here, so a breakdown is raised before any check; the families and T_1, T_2
    are built on first read, T_k over its band only when a width is given."""

    def __init__(self, config: RunConfig, width: int | None = None):
        self.config = config
        self.depth = config.depth
        self.extended_depth = extended_depth(config)
        self.M = assemble_moments(config.measures, self.extended_depth)
        self.F = factorize(self.M, width)
        self.width = width

    @cached_property
    def families(self) -> tuple[Family, Family]:
        return extract_families(self.F)

    A = property(lambda self: self.families[0])
    B = property(lambda self: self.families[1])

    @cached_property
    def T(self) -> dict[int, RecurrenceTruncation]:
        band = self.width is not None  # k by keyword: bench/spans.py tags each call by it
        return {k: build_recurrence(self.F, k=k, size=self.depth, band=band) for k in (1, 2)}

    @cached_property
    def products(self) -> list:
        """C_B M over D columns, the one family-times-moments product a run forms."""
        return moment_rows(self.B.head(self.depth), self.M, self.depth)

    @cached_property
    def gram(self) -> list[list]:
        """Pairing matrix of the depth-D families; biorthogonality and reproduction share it."""
        return pairings(self.products, self.A.head(self.depth))

    @cached_property
    def relations(self) -> dict[int, CheckReport]:
        """check_recurrence_matrix per k; the recurrence and cd checks share it."""
        return {k: check_recurrence_matrix(self.T[k], self.A, self.B) for k in (1, 2)}


# Each check maps the workspace to its CheckReports.  The checks are called
# through this module's names, so rebinding a name here reaches them.


def _projection(ws: Workspace) -> list[CheckReport]:
    q, p, D = ws.M.q, ws.M.p, ws.depth
    I, I_dual = min(3, D // p - 1), min(3, D // q - 1)
    if I < 0 or I_dual < 0:
        return [CheckReport(skipped=["depth below projection threshold"])]
    rng = random.Random(ws.config.seed)
    # the dual direction is the same identity with the families' roles swapped, on
    # its own draw P^T; its inner integrals are P^T's own product paired with A, transposed
    P, P_dual = seeded_monic_columns(rng, p, I), seeded_monic_columns(rng, q, I_dual)
    inner = pairings(ws.products, P)
    dual = list(zip(*pairings(moment_rows(P_dual, ws.M, D), ws.A.head(D))))
    return [check_projection(ws.A, inner, D - 1, P), check_projection(ws.B, dual, D - 1, P_dual)]


CHECKS = {
    "hankel": lambda ws: [check_hankel(ws.M, k) for k in (1, 2)],
    "degree": lambda ws: [validate_degree_structure(ws.A, ws.B)],
    "orthogonality": lambda ws: [check_orthogonality(ws.A.head(ws.depth), ws.products, ws.M)],
    "biorthogonality": lambda ws: [check_biorthogonality(ws.gram)],
    "dual": lambda ws: [check_dual_form(ws.T[k]) for k in (1, 2)],
    "band": lambda ws: [validate_band(ws.T[k]) for k in (1, 2)],
    "recurrence": lambda ws: list(ws.relations.values()),
    "reproduction": lambda ws: [check_reproduction(ws.A, ws.B, ws.gram, ws.depth - 1)],
    "projection": _projection,
    "cd": lambda ws: [check_cd_formula(ws.T[k], ws.relations[k]) for k in (1, 2)],
    "abc": lambda ws: [check_abc(ws.M, ws.A, ws.B, n) for n in range(min(ws.depth, 8))],
}

CHECK_NAMES = list(CHECKS)


def require_checks(names: list[str]) -> None:
    """A check list must name at least one check, and only known ones, each once."""
    if not names:
        raise ConfigError(f"no check named; known: {', '.join(CHECK_NAMES)}")
    for i, c in enumerate(names):
        if c not in CHECK_NAMES:
            raise ConfigError(f"unknown check {c!r}; known: {', '.join(CHECK_NAMES)}")
        if c in names[:i]:
            raise ConfigError(f"check {c!r} named more than once")


def run_checks(ws: Workspace, checks: list[str]) -> list[dict]:
    """One report.json entry per named check: fail on any violation, skipped when
    nothing was checked."""
    out = []
    for name in checks:
        reps = CHECKS[name](ws)
        violations = [v for rep in reps for v in rep.violations]
        status, details = "pass", ""
        if violations:
            status, first = "fail", violations[0]
            details = f"{len(violations)} violation(s); first at {first.where}: {first.detail}"
        elif not sum(rep.checked for rep in reps):
            reasons = [reason for rep in reps for reason in rep.skipped]
            status = "skipped"
            details = ("; ".join(dict.fromkeys(reasons))
                       or f"no relation to check at depth {ws.depth}")
        out.append({"name": name, "status": status, "details": details})
    return out


def run(config: RunConfig) -> dict:
    """Assemble, factorize and run the requested checks into the report.json
    object; never writes files itself.  A breakdown reports its index, no H and
    no checks."""
    report = {"schema_version": SCHEMA_VERSION, "kind": "report", "status": "ok",
              "q": config.measures.q, "p": config.measures.p, "depth": config.depth,
              "extended_depth": extended_depth(config), "seed": config.seed, "H": [], "checks": []}
    try:
        ws = Workspace(config)
    except Breakdown as exc:
        report.update(status="breakdown", breakdown_index=exc.index)
    else:
        report["H"] = ws.F.diagonal(ws.depth, ratio_text)
        report["checks"] = run_checks(ws, config.checks)
    report["summary"] = {status: sum(c["status"] == status for c in report["checks"])
                         for status in ("pass", "fail", "skipped")}
    return report


# ---- exports: one ratio_text of the elimination's integers per nonzero entry,
# "0" and "1" for structural zeros and the unit diagonal, laid out by _json_text


def export_entries(ws: Workspace) -> dict[str, list[list[str]]]:
    """The text of each export kind but families: its depth x depth corner, H one row."""
    F, M, D = ws.F, ws.M, ws.depth
    return {"H": [F.diagonal(D, ratio_text)],
            "S": unit_lower(F.minors, F.S_int, D, ratio_text),
            "Sbar": unit_lower(F.minors, F.Sbar_int, D, ratio_text),
            "T1": ws.T[1].entries(ratio_text), "T2": ws.T[2].entries(ratio_text),
            "moments": [[ratio_text(v, s) if v else "0" for v in row[:D]]
                        for row, s in zip(M.ints[:D], M.scale)]}


def _json_text(value, pad: str = "\n") -> str:
    """json.dumps(value, indent=2, sort_keys=True) for the values the exports,
    report.json and kernel.json write: dicts with string keys, lists, ints and
    strings, a list of strings being a row of ratio texts, which need no escape."""
    inner = pad + "  "
    if isinstance(value, (str, int)):
        return json.dumps(value)
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    if isinstance(value, dict):
        items = f",{inner}".join(f'"{key}": {_json_text(value[key], inner)}' for key in sorted(value))
        return f"{{{inner}{items}{pad}}}"
    if isinstance(value[0], str):  # a row of text: one join
        return f'[{inner}"' + f'",{inner}"'.join(value) + f'"{pad}]'
    return f"[{inner}" + f",{inner}".join(_json_text(v, inner) for v in value) + f"{pad}]"


# 12 significant digits, rounded half to even, as f"{x:.12g}" rounds a float
_DECIMAL_12 = decimal.Context(prec=12, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


def _decimal_text(text: str) -> str:
    """The "num" or "num/den" text as f"{float(v):.12g}" writes its value v, with
    num / den, which for ints is float(Fraction(num, den)).  A nonzero v outside
    the normal float range, where that float is infinite, subnormal or zero, is
    rounded from the exact rational into the same shape, trailing zeros
    stripped: 1e+400, -1.25e+799, 1.23456789012e-316, 1e-400."""
    num, _, den = text.partition("/")
    num, den = _int(num), _int(den) if den else 1
    try:
        f = num / den
    except OverflowError:  # an infinite float is treated alike
        f = math.inf
    if sys.float_info.min <= abs(f) <= sys.float_info.max or not num:
        return f"{f:.12g}"
    exact = _DECIMAL_12.divide(decimal.Decimal(num), decimal.Decimal(den))
    return f"{exact.normalize(_DECIMAL_12):g}"


def export_csv(entries: list[list[str]], render_decimal: bool = False) -> str:
    """One CRLF-ended line of comma-joined fields per row, the bytes csv.writer
    writes: a num/den string or a decimal never needs RFC 4180 quoting."""
    if render_decimal:
        entries = [row + [_decimal_text(v) for v in row] for row in entries]
    return "".join(",".join(row) + "\r\n" for row in entries)


def write_exports(ws: Workspace, out_dir: Path, render_decimal: bool = False) -> list[Path]:
    entries, files = export_entries(ws), {}
    for what, rows in entries.items():
        body = ({"values": rows[0]} if what == "H"
                else {"entries": rows, "rows": len(rows), "cols": len(rows[0])})
        files[f"{what}.json"] = _json_text({"schema_version": SCHEMA_VERSION, "kind": what, **body}) + "\n"
        files[f"{what}.csv"] = export_csv(rows, render_decimal)
    fams = {"schema_version": SCHEMA_VERSION, "kind": "families", "q": ws.M.q, "p": ws.M.p}
    # member n of A is row n of Sbar, and A stores no zero coefficient
    A = [[(c, t) for c, t in enumerate(row) if t != "0"] for row in entries["Sbar"]]
    B = [[(c, ratio_text(v, d)) for c, v in row.items()] for d, row in ws.B.rows[:ws.depth]]
    for label, r, rows in (("A", ws.M.p, A), ("B", ws.M.q, B)):
        # one pass per row: column K*r + i is component i at position K
        fams[label] = members = [[{} for _ in range(r)] for _ in rows]
        for comps, row in zip(members, rows):
            for c, t in row:
                comps[c % r][str(c // r)] = t
    files["families.json"] = _json_text(fams) + "\n"
    return write_files(out_dir, files)


def write_files(out_dir: Path, files: dict[str, str]) -> list[Path]:
    """Write each named text under out_dir, made if missing; an OSError is a config error."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (out_dir / name).write_text(text, newline="" if name.endswith(".csv") else None)
    except OSError as exc:
        raise ConfigError(f"cannot write {exc.filename or out_dir}: {exc.strerror or exc}") from exc
    return [out_dir / name for name in files]


# ---- entry points -----------------------------------------------------


def _cmd_compute(args) -> int:
    config = load_config(args.config)
    if args.depth is not None:
        if args.depth < 1:
            raise ConfigError("--depth must be >= 1")
        config = config._replace(depth=args.depth)
    args.depth = config.depth
    t0 = time.perf_counter()
    ws = Workspace(config, config.depth)
    out_dir = Path(args.out or config.output or ".")
    written = write_exports(ws, out_dir, args.render_decimal)
    print(f"wrote {len(written)} files to {out_dir}", file=sys.stderr)
    print(f"elapsed {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    config = load_config(args.config)
    if args.checks is not None:
        names = [c.strip() for c in args.checks.split(",") if c.strip()]
        require_checks(names)
        config = config._replace(checks=names)
    if args.seed is not None:
        config = config._replace(seed=args.seed)
    args.depth = config.depth
    t0 = time.perf_counter()
    report = run(config)
    out_dir = args.out or config.output
    if out_dir:
        write_files(Path(out_dir), {"report.json": _json_text(report) + "\n"})
    if report["status"] == "breakdown":
        _write_stdout(f"factorization breakdown at index {report['breakdown_index']}\n")
    for c in report["checks"]:
        details = f" ({c['details']})" if c["details"] else ""
        _write_stdout(f"{c['name']}: {c['status'].upper()}{details}\n")
    print(f"elapsed {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    if report["status"] == "breakdown":
        return 2
    return 1 if report["summary"]["fail"] else 0


# kernel keeps, per config file's bytes, the parsed config and the Elimination
# of its deepest query so far, for the later main() calls of the same process;
# the least recently used of more than KERNEL_CACHE_SIZE configs is dropped.
KERNEL_CACHE_SIZE = 8
_kernel_cache: OrderedDict = OrderedDict()


def _cmd_kernel(args) -> int:
    data = read_config(args.config)
    config, kept = _kernel_cache.get(data) or (load_config(args.config, data), None)
    n = args.n
    if n < 0:
        raise ConfigError("--n must be >= 0")
    try:
        x = [parse_ratio(v) for v in args.x.split(",")]
        y = [parse_ratio(v) for v in args.y.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad point: {exc}") from exc
    if len(x) != 2 or len(y) != 2:
        raise ConfigError("points need exactly two coordinates")
    args.depth = n + 1
    if kept and n < kept.depth:  # the kept elimination's leading n + 1 block
        den, corner = kernel_replay(kept, n + 1, x, y)
    else:  # eliminated at depth n + 1, as a query on an empty cache is
        den, corner, kept = kernel_eval(assemble_moments(config.measures, n + 1), x, y)
    obj = {
        "schema_version": SCHEMA_VERSION,
        "kind": "kernel",
        "n": n,
        "x": [ratio_text(*v) for v in x],
        "y": [ratio_text(*v) for v in y],
        "matrix": [[ratio_text(v, den) for v in row] for row in corner],
    }
    text = _json_text(obj) + "\n"
    if args.out:
        write_files(Path(args.out), {"kernel.json": text})
    _kernel_cache[data] = config, kept  # once the output is written: a failed query keeps nothing
    _kernel_cache.move_to_end(data)
    if len(_kernel_cache) > KERNEL_CACHE_SIZE:
        _kernel_cache.popitem(last=False)
    _write_stdout(text)
    return 0


def _write_stdout(text: str) -> None:
    """Write text to stdout; a reader that has gone away changes no exit code."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:  # on os.devnull, the interpreter's flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


# Built on the first main() call and reused by every later one: importing the
# module builds nothing.  A handler reads this module's names when it runs, so a
# name rebound after the parser was built still reaches it.
@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steppoly",
        description="Exact bivariate mixed multiple orthogonal polynomials on the step-line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", help="factorize and export matrices and families")
    c.add_argument("--config", required=True)
    c.add_argument("--depth", type=int, default=None)
    c.add_argument("--out", default=None)
    c.add_argument("--render-decimal", action="store_true",
                   help="append decimal columns to CSV exports (JSON unaffected)")
    c.set_defaults(func=_cmd_compute)

    v = sub.add_parser("verify", help="run structural checks and write a report")
    v.add_argument("--config", required=True)
    v.add_argument("--checks", default=None, help="comma-separated subset of checks")
    v.add_argument("--seed", type=int, default=None)
    v.add_argument("--out", default=None)
    v.set_defaults(func=_cmd_verify, depth=None)

    kcmd = sub.add_parser("kernel", help="evaluate one Christoffel-Darboux kernel value")
    kcmd.add_argument("--config", required=True)
    kcmd.add_argument("--n", type=int, required=True)
    kcmd.add_argument("--x", required=True, help='point as "x1,x2" with rational parts')
    kcmd.add_argument("--y", required=True, help='point as "y1,y2" with rational parts')
    kcmd.add_argument("--out", default=None)
    kcmd.set_defaults(func=_cmd_kernel, depth=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; fold into the config-error code
        return 0 if exc.code == 0 else 3
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except Breakdown as exc:
        print(f"factorization breakdown at index {exc.index}", file=sys.stderr)
        return 2
    except DepthError as exc:
        print(f"depth error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:  # each command sets args.depth once its config is read
        what = f"depth {args.depth}" if args.depth else "the config"
        print(f"config error: {what} needs more memory than this process has", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
