"""Compare the end-to-end metrics of two sets of benchmark records.

    python3 bench/compare.py --base old/*.json --head new/*.json

Each file is a record that run.py leaves in .bench_run/.  For every workload
and metric it prints both medians, the change, and whether the head is worse
than the base by more than the bound in BENCHMARK.json.  Records taken with
different rational backends are never compared: exit code 2.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths: list[str]) -> dict:
    by_workload = defaultdict(list)
    for path in paths:
        record = json.loads(Path(path).read_text())
        if record["trace"] == 0:
            by_workload[record["workload"]].append(record)
    return by_workload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, head = load(args.base), load(args.head)
    backends = {r["env"]["backend"] for side in (base, head) for rs in side.values() for r in rs}
    if len(backends) > 1:
        print(f"refusing to compare records from different backends: {sorted(backends)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    worse = 0
    for workload in sorted(set(base) & set(head)):
        print(f"== {workload}: {len(base[workload])} base, {len(head[workload])} head records")
        for metric in spec:
            name = metric["name"]
            b = statistics.median(r["metrics"][name]["value"] for r in base[workload])
            h = statistics.median(r["metrics"][name]["value"] for r in head[workload])
            change = (h - b) / b
            regressed = (change if metric["better"] == "lower" else -change) > metric["bound"]
            worse += regressed
            print(f"  {name:<12} {b:12.6g} -> {h:12.6g} {metric['unit']:<5} {change:+7.1%}"
                  f"  (bound {metric['bound']:.0%}){'  WORSE' if regressed else ''}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
