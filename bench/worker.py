"""The workload process: imports steppoly.cli, loads every config, runs the ops.

    python3 bench/worker.py PLAN.json RESULT.json

run.py writes the plan and starts this process with src/ on PYTHONPATH.  The
ops run in a closed loop, one `steppoly.cli.main(argv)` call after another,
exactly as the command line would run them.  Ops marked "traced" run after
the span wrappers are installed.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from fractions import Fraction


def reference_s() -> float:
    """Wall time of a fixed exact-arithmetic loop: the host's speed right now."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 1200):
        acc += Fraction(i % 97 + 1, i * 3 + 1)
    return time.perf_counter() - start


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path) as fh:
        plan = json.load(fh)
    start = time.perf_counter()
    from steppoly import cli
    for path in plan["configs"]:
        cli.load_config(path)
    setup_s = time.perf_counter() - start
    calibrations = [reference_s()]  # before the first op and after every op

    from steppoly.rational import QType
    tracer = None
    records = []
    for i, op in enumerate(plan["ops"]):
        if op["traced"] and tracer is None:
            from spans import Tracer
            tracer = Tracer()
            tracer.install()
        if tracer is not None:
            tracer.op = i
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            began = time.perf_counter()
            try:
                rc = cli.main(op["argv"])
            except Exception as exc:  # an escaped error fails the op; the run goes on
                rc, err = -1, io.StringIO(f"{type(exc).__name__}: {exc}")
            elapsed = time.perf_counter() - began
        records.append({"rc": rc, "s": elapsed, "stdout": out.getvalue(),
                        "stderr": err.getvalue()[-500:]})
        calibrations.append(reference_s())
    if tracer is not None:
        tracer.dump(plan["spans_path"])
    result = {
        "setup_s": setup_s,
        "ops": records,
        "calibrations": calibrations,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "backend": f"{QType.__module__}.{QType.__qualname__}",
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
