"""Benchmark of the steppoly CLI: closed-loop ops, an independent oracle, spans.

    python3 bench/run.py --workload verify-d16 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Run from the repository root.  The configs are generated from --seed into a
temporary directory under .bench_run/; a fresh worker process (worker.py)
imports steppoly from src/ and calls steppoly.cli.main once per op, one op
after another.  Afterwards oracle.py checks every op's exit code and output.
With --trace 0 the last line of output is a JSON object with the end-to-end
metrics; with --trace 1 one cycle runs untraced and then traced, and the JSON
holds the per-layer metrics.  Every run also leaves its full record, with the
environment stamp, in .bench_run/.  See bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

import oracle
from spans import COUNTED, COUNTED_METHODS, SPANNED, SPANNED_METHODS
from workloads import WORKLOADS, Builder, Op, cycle_count

ROOT = Path(__file__).resolve().parent.parent
SETUP_RUNS = 4  # fresh setup-only processes after one warm-up, plus the workload process
WORKER_TIMEOUT_S = 150
REFERENCE_S = 0.010  # nominal wall time of worker.reference_s()
TAIL_LADDER = (99.9, 99, 95, 90, 75, 50)  # ends at 50: tail() relies on it


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def git_commit() -> str:
    """The checked-out commit, read from .git without running git; "unknown" outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        sha, _, name = line.partition(" ")
        if name == ref:
            return sha
    return "unknown"


def run_worker(work: Path, tag: str, configs: list[str], ops: list[tuple[Op, bool]]) -> dict:
    plan = {"configs": configs, "spans_path": str(work / f"spans-{tag}.json"),
            "ops": [{"argv": op.argv, "traced": traced} for op, traced in ops]}
    plan_path, result_path = work / f"plan-{tag}.json", work / f"result-{tag}.json"
    plan_path.write_text(json.dumps(plan))
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(Path(__file__).with_name("worker.py")),
                           str(plan_path), str(result_path)],
                          env=env, cwd=ROOT, timeout=WORKER_TIMEOUT_S,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(result_path.read_text())


def speed_factors(result: dict) -> list[float]:
    """Per op, REFERENCE_S over the mean of the calibrations just before and after it."""
    cals = result["calibrations"]
    return [2 * REFERENCE_S / (cals[i] + cals[i + 1]) for i in range(len(result["ops"]))]


def rerun(op: Op, work: Path) -> Op:
    """The same op again, writing into a fresh output directory."""
    if op.out is None:
        return op
    out = work / f"{op.out.name}-again"
    return Op(op.case, [str(out) if a == str(op.out) else a for a in op.argv], out, op.query)


def verdict(op: Op, record: dict, golden: Path, cache: dict) -> str | None:
    """The oracle's reason an op failed, or None; identical outputs are checked once."""
    command = op.argv[0]
    digest = hashlib.sha256(f"{op.argv[1:3]}{op.query}{record['rc']}".encode())
    if op.out is not None and op.out.is_dir():
        for path in sorted(op.out.iterdir()):
            digest.update(path.name.encode() + path.read_bytes())
    digest.update(record["stdout"].encode())
    key = digest.hexdigest()
    if key not in cache:
        try:
            if command == "kernel":
                cache[key] = oracle.check_kernel(op, record["rc"], record["stdout"], golden)
            elif command == "verify":
                cache[key] = oracle.check_verify(op, record["rc"], golden)
            else:
                cache[key] = oracle.check_compute(op, record["rc"], golden)
        except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            cache[key] = f"unreadable output: {type(exc).__name__}: {exc}"
        if cache[key] and record["rc"] == -1:
            cache[key] += f" [{record['stderr']}]"
    return cache[key]


def percentile(ordered: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks; p50 is the median."""
    pos = (len(ordered) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(times: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond): the highest ladder percentile with at
    least 10 samples above it; the median when even it has fewer."""
    ordered = sorted(times)
    for pct in TAIL_LADDER:
        value = percentile(ordered, pct)
        beyond = sum(1 for t in ordered if t > value)
        if beyond >= 10 or pct == 50:
            return pct, value, beyond
    raise AssertionError("unreachable")


# ---- per-layer metrics from spans ---------------------------------------------

STAGES = [
    ("load", ("cli.load_config",)), ("assemble", ("moments.assemble_moments",)),
    ("factorize", ("gaussborel.factorize",)), ("extract", ("families.extract_families",)),
    ("T1", ()), ("T2", ()),
    ("hankel", ("moments.hankel_mismatches",)), ("degree", ("families.validate_degree_structure",)),
    ("orthogonality", ("families.check_orthogonality",)),
    ("biorthogonality", ("families.check_biorthogonality",)),
    ("dual", ("recurrence.check_dual_form",)), ("band", ("recurrence.validate_band",)),
    ("recurrence", ("recurrence.check_recurrences", "recurrence.check_recurrence_matrix")),
    ("reproduction", ("cdkernel.check_reproduction",)),
    ("projection", ("cdkernel.check_projection", "cdkernel.check_projection_dual")),
    ("cd", ("cdkernel.cd_blocks", "cdkernel.check_cd_formula")), ("abc", ("cdkernel.check_abc",)),
    ("kernel", ("cdkernel.kernel_eval",)), ("export", ("cli.write_exports",)),
]
CHECK_STAGES = [name for name, _ in STAGES if name in oracle.CHECK_NAMES]
STAGE_OF = {fn: stage for stage, fns in STAGES for fn in fns}
# Self times in the JSON are limited to functions every workload calls: a
# function a workload never calls would report 0 s on every run.
SELF_S_METRICS = ["cli.main", "cli.load_config", "moments.assemble_moments",
                  "measures.moment_block", "gaussborel.factorize",
                  "gaussborel.invert_unitriangular", "families.extract_families"]
NOT_CALL_METRICS = {"cli.main", "cli.load_config"}  # one call per op by construction
STAT_METRICS = [("gaussborel.depth_max", "rows"), ("gaussborel.H_bits_max", "bits"),
                ("gaussborel.S_bits_max", "bits"), ("families.checked", "count"),
                ("recurrence.checked", "count")]


def layer_names() -> list[str]:
    return ([f"{m}.{a}" for m, a in SPANNED] + [f"{m}.{a}" for m, _, a in SPANNED_METHODS]
            + [f"{m}.{a}" for m, a in COUNTED] + [f"{m}.{a}" for m, _, a in COUNTED_METHODS])


def analyse_spans(dump: dict, ops: list[Op], traced: list[int],
                  factors: list[float]) -> tuple[dict, list]:
    """Per-op calls and self time of every wrapped function, and stage times per op.

    Span times are scaled by their op's speed factor, like the end-to-end times.
    """
    spans = dump["spans"]
    child_s = [0.0] * len(spans)
    for name, tag, start, end, parent, op in spans:
        if parent >= 0:
            child_s[parent] += (end - start) * factors[op]
    calls, self_s = defaultdict(int), defaultdict(float)
    stages = {i: defaultdict(float) for i in traced}
    for idx, (name, tag, start, end, parent, op) in enumerate(spans):
        span_s = (end - start) * factors[op]
        calls[name] += 1
        self_s[name] += span_s - child_s[idx]
        if parent < 0:
            stages[op]["total"] += span_s
            stages[op]["other"] += span_s - child_s[idx]
        elif spans[parent][4] < 0:
            stage = tag or STAGE_OF.get(name, "other")
            stages[op][stage] += span_s
    calls.update(dump["counts"])
    n = len(traced)
    layers = {name: {"calls": calls.get(name, 0) / n, "self_s": self_s.get(name, 0.0) / n}
              for name in layer_names()}
    return layers, [(ops[i].case.label, stages[i]) for i in traced]


def stage_table(rows: list) -> str:
    by_label = defaultdict(list)
    for label, stage in rows:
        by_label[label].append(stage)
    head = ["config", "ops", "total", "load", "assemble", "factorize", "extract", "T1", "T2",
            "checks", "kernel", "export", "other", "slowest checks"]
    lines = [head]
    totals = defaultdict(float)
    for label, stages in by_label.items():
        mean = {k: sum(s.get(k, 0.0) for s in stages) / len(stages)
                for k in set().union(*stages)}
        for k, v in mean.items():
            totals[k] += v * len(stages)
        checks = sorted(((mean.get(c, 0.0), c) for c in CHECK_STAGES), reverse=True)
        slow = ", ".join(f"{c} {v:.2f}s" for v, c in checks[:2] if v > 0)
        lines.append([label, str(len(stages))] + [
            f"{mean.get(k, 0.0):.3f}" for k in ("total", "load", "assemble", "factorize",
                                                  "extract", "T1", "T2")]
            + [f"{sum(v for v, _ in checks):.3f}"]
            + [f"{mean.get(k, 0.0):.3f}" for k in ("kernel", "export", "other")] + [slow])
    widths = [max(len(row[i]) for row in lines) for i in range(len(head))]
    out = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in lines]
    grand = totals["total"] or 1.0
    out.append("")
    out.append("stage            s/op      share")
    n_ops = len(rows)
    for stage in [s for s, _ in STAGES] + ["other"]:
        if totals.get(stage):
            out.append(f"{stage:<15}  {totals[stage] / n_ops:8.4f}  {totals[stage] / grand:6.1%}")
    return "\n".join(out)


# ---- one workload run ---------------------------------------------------------

def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    from steppoly.recurrence import required_depth  # sizes the generated configs

    golden = ROOT / "tests" / "golden"
    spec = WORKLOADS[name]
    base = ROOT / ".bench_run"
    base.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=base) as tmp:
        work = Path(tmp)
        builder = Builder(name, seed, work, golden, required_depth)
        cycles = builder.cycles(1 if trace else cycle_count(seconds, spec.cycle_s))
        ops = [op for cycle in cycles for op in cycle]
        plan = [(op, False) for op in ops]
        if trace:
            plan += [(rerun(op, work), True) for op in ops]
        configs = sorted({str(op.case.path) for op, _ in plan})
        probes = [run_worker(work, f"setup{i}", configs, []) for i in range(SETUP_RUNS + 1)][1:]
        result = run_worker(work, "ops", configs, plan)
        probes.append(result)
        setup = [p["setup_s"] for p in probes]
        setup_norm = [p["setup_s"] * REFERENCE_S / p["calibrations"][0] for p in probes]
        records = result["ops"]
        cache: dict = {}
        reasons = [verdict(op, rec, golden, cache) for (op, _), rec in zip(plan, records)]
        failed = [(op.case.label, r) for (op, _), r in zip(plan, reasons) if r]
        record = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "env": {"backend": result["backend"], "python": platform.python_version(),
                    "nproc": os.cpu_count(), "commit": git_commit(), "seed": seed},
            "attempted": len(plan), "failed": len(failed), "failures": failed[:20],
            "op_s": [[op.case.label, rec["s"]] for (op, _), rec in zip(plan, records)],
            "calibrations": result["calibrations"],
        }
        wall = [rec["s"] for (op, t), rec in zip(plan, records) if not t]
        factors = speed_factors(result)
        if not trace:
            ops_s = [s * f for s, f in zip(wall, factors)]
            pct, tail_s, beyond = tail(ops_s)
            record["metrics"] = {
                "setup_s": {"value": statistics.median(setup_norm), "unit": "s",
                            "samples": len(setup)},
                "op_s_p50": {"value": statistics.median(ops_s), "unit": "s",
                             "samples": len(ops_s)},
                "op_s_tail": {"value": tail_s, "unit": "s", "samples": len(ops_s),
                              "percentile": pct, "beyond": beyond},
                "ops_per_s": {"value": len(ops_s) / sum(ops_s), "unit": "1/s",
                              "samples": len(ops_s)},
                "fail_frac": {"value": len(failed) / len(plan), "unit": "ratio",
                              "samples": len(plan)},
                "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB", "samples": 1},
            }
            record["wall"] = {"setup_s": statistics.median(setup),
                              "op_s_p50": statistics.median(wall),
                              "op_s_tail": percentile(sorted(wall), pct),
                              "ops_per_s": len(wall) / sum(wall),
                              "reference_s_p50": statistics.median(result["calibrations"])}
        else:
            traced_idx = [i for i, (_, t) in enumerate(plan) if t]
            dump = json.loads((work / "spans-ops.json").read_text())
            layers, stage_rows = analyse_spans(dump, [op for op, _ in plan], traced_idx, factors)
            scaled = [rec["s"] * f for rec, f in zip(records, factors)]
            traced_s = sum(scaled[i] for i in traced_idx)
            untraced_s = sum(scaled) - traced_s
            n = len(traced_idx)
            metrics = {}
            for fn, vals in layers.items():
                if fn not in NOT_CALL_METRICS:
                    metrics[f"{fn}.calls"] = {"value": vals["calls"], "unit": "count"}
            for fn in SELF_S_METRICS:
                metrics[f"{fn}.self_s"] = {"value": layers[fn]["self_s"], "unit": "s"}
            for stat, unit in STAT_METRICS:
                value = dump["stats"].get(stat, 0)
                metrics[stat] = {"value": value / n if stat.endswith("checked") else value,
                                 "unit": unit}
            metrics["trace.overhead_frac"] = {"value": traced_s / untraced_s - 1,
                                              "unit": "ratio"}
            record["metrics"] = metrics
            record["layers"] = layers
            record["stage_table"] = stage_table(stage_rows)
            spans_keep = base / f"spans-{name}-s{seed}.json"
            (work / "spans-ops.json").replace(spans_keep)
            record["spans_file"] = str(spans_keep.relative_to(ROOT))
    (base / f"result-{name}-s{seed}-t{int(trace)}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    return record


def print_record(record: dict) -> None:
    env = record["env"]
    print(f"== {record['workload']}  seed {record['seed']}  backend {env['backend']}  "
          f"python {env['python']}  nproc {env['nproc']}  commit {env['commit'][:12]}")
    print(f"ops attempted {record['attempted']}, failed {record['failed']}")
    for label, reason in record["failures"]:
        print(f"  FAIL {label}: {reason}")
    if "stage_table" in record:
        print(record["stage_table"])
        print()
        print(f"{'function':<36} {'calls/op':>12} {'self s/op':>10}")
        for fn, vals in record["layers"].items():
            self_s = f"{vals['self_s']:10.4f}" if vals["self_s"] else f"{'-':>10}"
            print(f"{fn:<36} {vals['calls']:12.2f} {self_s}")
        print()
    for metric, m in record["metrics"].items():
        extra = f"  samples {m['samples']}" if "samples" in m else ""
        if "percentile" in m:
            extra += f"  (p{m['percentile']:g}, {m['beyond']} beyond)"
        print(f"{metric:<40} {m['value']:>14.6g} {m['unit']:<6}{extra}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "steppoly" / "cli.py").is_file():
        return fail(f"no steppoly source under {ROOT / 'src'}; run from a full checkout")
    if not (ROOT / "tests" / "golden" / "config.json").is_file():
        return fail("no golden outputs under tests/golden; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_record(record)
    if args.workload != "all":
        metrics = {k: {"value": m["value"], "unit": m["unit"]}
                   for k, m in record["metrics"].items() if k != "fail_frac"}
        print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                          "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
