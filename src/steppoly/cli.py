"""Batch front-end: config in, exact artifacts and a verification report out.

Subcommands:
    compute --config c.json [--depth N] [--out DIR]   write H/S/Sbar/T1/T2/families/moments
    verify  --config c.json [--checks a,b] [--seed S] run checks, write report.json
    kernel  --config c.json --n N --x "x1,x2" --y "y1,y2"   print one kernel value

Exit codes: 0 no requested check failed (a check that verified nothing is
skipped, not failed), 1 check failure, 2 factorization breakdown, 3
configuration error.  All emitted files are byte-identical across
reruns with the same config and seed; rationals are serialized as "num/den"
strings and timing never enters any file.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
import time
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from .cdkernel import (
    KernelTable,
    cd_blocks,
    check_abc,
    check_cd_formula,
    check_projection,
    check_reproduction,
    kernel_eval,
)
from .errors import Breakdown, ConfigError, DepthError
from .families import (
    check_biorthogonality,
    check_orthogonality,
    extract_families,
    pairing_matrix,
    validate_degree_structure,
)
from .gaussborel import factorize
from .measures import MeasureMatrix
from .moments import assemble_moments, check_hankel
from .rational import format_rat, parse_rat, rat
from .recurrence import (
    build_recurrence,
    check_dual_form,
    check_recurrence_matrix,
    required_depth,
    validate_band,
)
from .report import CheckReport
from .stepline import n_plus

SCHEMA_VERSION = 1

EXPORT_KINDS = ("H", "S", "Sbar", "T1", "T2", "families", "moments")


@dataclass
class RunConfig:
    q: int
    p: int
    measures: MeasureMatrix
    depth: int
    checks: list[str]
    seed: int
    output: str | None

    @staticmethod
    def from_json(obj: dict) -> "RunConfig":
        if not isinstance(obj, dict):
            raise ConfigError("config root must be a JSON object")
        if obj.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {obj.get('schema_version')}")
        mm = MeasureMatrix.from_json(obj)
        try:
            depth = int(obj.get("depth", 1))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad depth: {exc}") from exc
        if depth < 1:
            raise ConfigError(f"depth must be >= 1, got {depth}")
        checks = obj.get("checks", list(CHECK_NAMES))
        if not isinstance(checks, list) or not all(isinstance(c, str) for c in checks):
            raise ConfigError("checks must be a list of names")
        require_known_checks(checks)
        # eval_points feeds no check, but a malformed value is still a config error
        entries = obj.get("eval_points", [])
        if not isinstance(entries, list):
            raise ConfigError("eval_points must be a list of pairs")
        for entry in entries:
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise ConfigError(f"eval point must be a pair, got {entry!r}")
            try:
                parse_rat(entry[0]), parse_rat(entry[1])
            except ValueError as exc:
                raise ConfigError(f"bad eval point {entry!r}: {exc}") from exc
        try:
            seed = int(obj.get("seed", 0))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad seed: {exc}") from exc
        output = obj.get("output")
        if output is not None and not isinstance(output, str):
            raise ConfigError("output must be a path string")
        return RunConfig(mm.q, mm.p, mm, depth, checks, seed, output)


def load_config(path: str | Path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return RunConfig.from_json(obj)


def seeded_point(rng: random.Random) -> tuple:
    """Small random rational pair; denominators <= 16 keep exact arithmetic cheap."""
    def draw():
        return rat(rng.randint(-24, 24), rng.randint(1, 16))

    return (draw(), draw())


def seeded_monic_matrix(rng: random.Random, size: int, I: int) -> list[list[dict]]:
    """Monic size x size matrix polynomial of grlex-degree I with random lower part,
    as a grid of {monomial position: rational} maps, drawn entry by entry in row order."""
    def small():
        return rat(rng.randint(-6, 6), rng.randint(1, 4))

    grid = [[{K: v for K in range(I) if (v := small()) != 0} for _ in range(size)]
            for _ in range(size)]
    for r in range(size):
        grid[r][r][I] = rat(1)
    return grid


@dataclass
class CheckOutcome:
    name: str
    status: str  # pass | fail | skipped
    details: str = ""


@dataclass
class Report:
    status: str  # ok | breakdown
    depth: int
    extended_depth: int
    seed: int
    q: int
    p: int
    H: list[str] = field(default_factory=list)
    checks: list[CheckOutcome] = field(default_factory=list)
    breakdown_index: int | None = None

    @property
    def failed(self) -> int:
        return sum(1 for c in self.checks if c.status == "fail")

    def to_json_obj(self) -> dict:
        obj = {
            "schema_version": SCHEMA_VERSION,
            "kind": "report",
            "status": self.status,
            "q": self.q,
            "p": self.p,
            "depth": self.depth,
            "extended_depth": self.extended_depth,
            "seed": self.seed,
            "H": self.H,
            "checks": [
                {"name": c.name, "status": c.status, "details": c.details}
                for c in self.checks
            ],
            "summary": {
                "pass": sum(1 for c in self.checks if c.status == "pass"),
                "fail": self.failed,
                "skipped": sum(1 for c in self.checks if c.status == "skipped"),
            },
        }
        if self.breakdown_index is not None:
            obj["breakdown_index"] = self.breakdown_index
        return obj


def _dump_json(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def extended_depth(config: RunConfig) -> int:
    """Factorization depth of a run: deep enough for T_1 and T_2 on the depth window."""
    return max(required_depth(config.depth, config.q, config.p), config.depth)


class Workspace:
    """Everything computed for one config at one depth."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.depth = config.depth
        self.extended_depth = extended_depth(config)
        self.M = assemble_moments(config.measures, self.extended_depth)
        self.F = factorize(self.M)
        self.A, self.B = extract_families(self.F, config.q, config.p)
        self.T = {
            k: build_recurrence(self.F, config.q, config.p, k, self.depth)
            for k in (1, 2)
        }

    @cached_property
    def gram(self) -> list[list]:
        """Pairing matrix of the depth-D families; biorthogonality and reproduction share it."""
        return pairing_matrix(self.A.head(self.depth), self.B.head(self.depth), self.M)


def _point_pairs(rng: random.Random, count: int) -> list:
    return [(seeded_point(rng), seeded_point(rng)) for _ in range(count)]


# Each check maps the workspace and its own seeded draw (see run_checks) to its
# CheckReports.  The checks are called through this module's names, so
# rebinding a name here reaches them.


def _projection(ws: Workspace, rng: random.Random) -> list[CheckReport]:
    q, p, D = ws.config.q, ws.config.p, ws.depth
    I, I_dual = min(3, D // p - 1), min(3, D // q - 1)
    if I < 0 or I_dual < 0:
        return [CheckReport("projection", skipped=["depth below projection threshold"])]
    P = seeded_monic_matrix(rng, p, I)
    P_dual = seeded_monic_matrix(rng, q, I_dual)
    # the dual direction is the same identity with the families' roles swapped
    return [check_projection(ws.A, ws.B, ws.M, D - 1, P),
            check_projection(ws.B, ws.A, ws.M.transpose(), D - 1, list(zip(*P_dual)))]


def _cd(ws: Workspace, pairs: list) -> list[CheckReport]:
    q, p = ws.config.q, ws.config.p
    tables = [KernelTable(ws.A, ws.B, x, y, ws.depth) for x, y in pairs]  # for every n and k
    reps = []
    for k in (1, 2):
        n = 0
        while max(n_plus(n, p, k), n_plus(n, q, k)) < ws.T[k].size:
            reps.append(check_cd_formula(cd_blocks(ws.T[k], n, k), tables))
            n += 1
    return reps


def _abc(ws: Workspace, pairs: list) -> list[CheckReport]:
    count = min(ws.depth, 8)
    tables = [KernelTable(ws.A, ws.B, x, y, count) for x, y in pairs]
    return [check_abc(ws.M, n, tables) for n in range(count)]


CHECKS = {
    "hankel": lambda ws, _: [check_hankel(ws.M, k) for k in (1, 2)],
    "degree": lambda ws, _: [validate_degree_structure(ws.A, ws.B, ws.config.q, ws.config.p)],
    "orthogonality": lambda ws, _: [check_orthogonality(ws.A.head(ws.depth), ws.B.head(ws.depth), ws.M)],
    "biorthogonality": lambda ws, _: [check_biorthogonality(ws.gram)],
    "dual": lambda ws, _: [check_dual_form(ws.T[k], ws.F) for k in (1, 2)],
    "band": lambda ws, _: [validate_band(ws.T[k]) for k in (1, 2)],
    "recurrence": lambda ws, _: [check_recurrence_matrix(ws.T[k], ws.A, ws.B) for k in (1, 2)],
    "reproduction": lambda ws, pairs: [
        check_reproduction(ws.A, ws.B, ws.gram, ws.depth - 1, pairs)
    ],
    "projection": _projection,
    "cd": _cd,
    "abc": _abc,
}

CHECK_NAMES = list(CHECKS)


def require_known_checks(names: list[str]) -> None:
    for c in names:
        if c not in CHECK_NAMES:
            raise ConfigError(f"unknown check {c!r}; known: {', '.join(CHECK_NAMES)}")


def _violation_summary(violations: list) -> str:
    first = violations[0]
    return f"{len(violations)} violation(s); first at {first.where}: {first.detail}"


def run_checks(ws: Workspace, checks: list[str]) -> list[CheckOutcome]:
    """One outcome per named check: fail on any violation, skipped when nothing was checked."""
    rng = random.Random(ws.config.seed)
    # drawn in this order whichever checks run, so a seed always gives the same
    # points; projection draws its matrix polynomials from rng when its turn comes
    draws = {
        "cd": _point_pairs(rng, 5),
        "abc": _point_pairs(rng, 10),
        "reproduction": _point_pairs(rng, 3),
        "projection": rng,
    }
    out = []
    for name in checks:
        reps = CHECKS[name](ws, draws.get(name))
        violations = [v for rep in reps for v in rep.violations]
        if violations:
            out.append(CheckOutcome(name, "fail", _violation_summary(violations)))
        elif not sum(rep.checked for rep in reps):
            reasons = [reason for rep in reps for reason in rep.skipped]
            out.append(CheckOutcome(name, "skipped", "; ".join(dict.fromkeys(reasons))
                                    or f"no relation to check at depth {ws.depth}"))
        else:
            out.append(CheckOutcome(name, "pass"))
    return out


def run(config: RunConfig) -> Report:
    """Assemble, factorize, run the requested checks; never writes files itself."""
    try:
        ws = Workspace(config)
    except Breakdown as exc:
        return Report(
            status="breakdown",
            depth=config.depth,
            extended_depth=extended_depth(config),
            seed=config.seed,
            q=config.q,
            p=config.p,
            breakdown_index=exc.index,
        )
    report = Report(
        status="ok",
        depth=ws.depth,
        extended_depth=ws.extended_depth,
        seed=config.seed,
        q=config.q,
        p=config.p,
        H=[format_rat(h) for h in ws.F.H[: ws.depth]],
    )
    report.checks = run_checks(ws, config.checks)
    return report


# ---- exports ----------------------------------------------------------


def _matrix_to_strings(data: list[list]) -> list[list[str]]:
    return [[format_rat(v) for v in row] for row in data]


# The matrix each export kind but families reads; exports show its depth x depth
# corner, and H is one row.
EXPORT_MATRICES = {
    "H": lambda ws: [ws.F.H],
    "S": lambda ws: ws.F.S,
    "Sbar": lambda ws: ws.F.Sbar,
    "T1": lambda ws: ws.T[1].data,
    "T2": lambda ws: ws.T[2].data,
    "moments": lambda ws: ws.M.data,
}


def _export_entries(ws: Workspace, what: str) -> list[list[str]]:
    D = ws.depth
    return _matrix_to_strings([row[:D] for row in EXPORT_MATRICES[what](ws)[:D]])


def export_json(ws: Workspace, what: str, entries: list[list[str]] | None) -> str:
    obj: dict = {"schema_version": SCHEMA_VERSION, "kind": what}
    D = ws.depth
    if what == "H":
        obj["values"] = entries[0]
    elif what == "families":
        obj["q"] = ws.config.q
        obj["p"] = ws.config.p
        for label, fam in (("A", ws.A), ("B", ws.B)):
            # one pass per row: column K*r + i is component i at position K
            obj[label] = members = [[{} for _ in range(fam.r)] for _ in range(D)]
            for comps, (d, row) in zip(members, fam.rows):
                for c, v in row.items():
                    K, i = divmod(c, fam.r)
                    comps[i][str(K)] = format_rat(rat(v, d))
    else:
        obj["entries"] = entries
        obj["rows"] = len(entries)
        obj["cols"] = len(entries[0]) if entries else 0
    return _dump_json(obj)


def export_csv(entries: list[list[str]], render_decimal: bool = False) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)  # RFC 4180 quoting and line endings
    for row in entries:
        if render_decimal:
            dec = [f"{float(parse_rat(v)):.12g}" for v in row]
            writer.writerow(row + dec)
        else:
            writer.writerow(row)
    return buf.getvalue()


def write_exports(ws: Workspace, out_dir: Path, render_decimal: bool = False) -> list[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for what in EXPORT_KINDS:
        entries = None if what == "families" else _export_entries(ws, what)
        path = out_dir / f"{what}.json"
        path.write_text(export_json(ws, what, entries))
        written.append(path)
        if entries is not None:
            path_csv = out_dir / f"{what}.csv"
            path_csv.write_text(export_csv(entries, render_decimal), newline="")
            written.append(path_csv)
    return written


# ---- entry points -----------------------------------------------------


def _cmd_compute(args) -> int:
    config = load_config(args.config)
    if args.depth is not None:
        if args.depth < 1:
            raise ConfigError("--depth must be >= 1")
        config.depth = args.depth
    t0 = time.perf_counter()
    ws = Workspace(config)
    out_dir = Path(args.out or config.output or ".")
    written = write_exports(ws, out_dir, args.render_decimal)
    print(f"wrote {len(written)} files to {out_dir}", file=sys.stderr)
    print(f"elapsed {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    config = load_config(args.config)
    if args.checks:
        names = [c.strip() for c in args.checks.split(",") if c.strip()]
        require_known_checks(names)
        config.checks = names
    if args.seed is not None:
        config.seed = args.seed
    t0 = time.perf_counter()
    report = run(config)
    if report.status == "breakdown":
        print(f"factorization breakdown at index {report.breakdown_index}")
    else:
        for c in report.checks:
            line = f"{c.name}: {c.status.upper()}"
            if c.details:
                line += f" ({c.details})"
            print(line)
    out_dir = args.out or config.output
    if out_dir:
        path = Path(out_dir)
        path.mkdir(parents=True, exist_ok=True)
        (path / "report.json").write_text(_dump_json(report.to_json_obj()))
    print(f"elapsed {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    if report.status == "breakdown":
        return 2
    return 1 if report.failed else 0


def _cmd_kernel(args) -> int:
    config = load_config(args.config)
    n = args.n
    if n < 0:
        raise ConfigError("--n must be >= 0")
    try:
        x = tuple(parse_rat(v) for v in args.x.split(","))
        y = tuple(parse_rat(v) for v in args.y.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad point: {exc}") from exc
    if len(x) != 2 or len(y) != 2:
        raise ConfigError("points need exactly two coordinates")
    F = factorize(assemble_moments(config.measures, n + 1))
    A, B = extract_families(F, config.q, config.p)
    value = kernel_eval(A, B, n, x, y)
    obj = {
        "schema_version": SCHEMA_VERSION,
        "kind": "kernel",
        "n": n,
        "x": [format_rat(v) for v in x],
        "y": [format_rat(v) for v in y],
        "matrix": _matrix_to_strings(value),
    }
    text = _dump_json(obj)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "kernel.json").write_text(text)
    sys.stdout.write(text)
    return 0


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
    v.set_defaults(func=_cmd_verify)

    kcmd = sub.add_parser("kernel", help="evaluate one Christoffel-Darboux kernel value")
    kcmd.add_argument("--config", required=True)
    kcmd.add_argument("--n", type=int, required=True)
    kcmd.add_argument("--x", required=True, help='point as "x1,x2" with rational parts')
    kcmd.add_argument("--y", required=True, help='point as "y1,y2" with rational parts')
    kcmd.add_argument("--out", default=None)
    kcmd.set_defaults(func=_cmd_kernel)
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


if __name__ == "__main__":
    sys.exit(main())
