"""Mutation gate: every mutant of src/steppoly listed in mutants.py must be killed.

Run from anywhere, with pytest installed:

    python3 tests/mutation_gate.py [NAME ...]

Each mutant names a file under src/steppoly/, a snippet that must occur there
exactly once, its replacement and the test node ids that must fail.  One
mutant at a time, the runner copies src/ into a fresh temporary directory,
applies the replacement and runs the mutant's node ids under pytest with the
copy first on PYTHONPATH.  A mutant is killed when pytest reports every one of
its node ids failed.  The unmutated copy runs first, on every node id the list
names, and must pass.  Names given on the command line pick mutants out of the
list.  Exit status 0 means the copy passed and every mutant was killed.

The file name has no test_ prefix, so pytest does not collect it; each pytest
run loads it as a plugin (-p mutation_gate), which appends the node id of
every failed test to the file named by MUTATION_GATE_FAILED.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent


def pytest_runtest_logreport(report):
    if report.failed:
        with open(os.environ["MUTATION_GATE_FAILED"], "a") as fh:
            fh.write(report.nodeid + "\n")


def run_tests(src: Path, node_ids: list[str], log: Path) -> tuple[int, set[str]]:
    """pytest's exit status on node_ids with src first on the path, and the ids that failed."""
    log.write_text("")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(TESTS)]),
           "MUTATION_GATE_FAILED": str(log), "PYTHONDONTWRITEBYTECODE": "1"}
    where = subprocess.run([sys.executable, "-c", "import steppoly; print(steppoly.__file__)"],
                           env=env, capture_output=True, text=True).stdout
    if not where.startswith(str(src)):
        raise RuntimeError(f"steppoly imported from {where.strip()!r}, not from {src}")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "mutation_gate",
         *node_ids], cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return proc.returncode, set(log.read_text().split())


def main(names: list[str]) -> int:
    from mutants import MUTANTS

    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutant(s): {', '.join(sorted(unknown))}")
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        log = tmp / "failed.txt"
        src = tmp / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        every_id = list(dict.fromkeys(i for m in chosen for i in m.kills))
        status, failed = run_tests(src, every_id, log)
        if status != 0:
            print(f"unmutated copy: pytest exit {status}; failed: {sorted(failed)}")
            return 1
        print(f"unmutated copy passes {len(every_id)} node ids")
        survivors = 0
        for m in chosen:
            t0 = time.perf_counter()
            path = src / "steppoly" / m.file
            original = path.read_text()
            if original.count(m.find) != 1:
                print(f"{m.name}: snippet occurs {original.count(m.find)} times in {m.file}")
                survivors += 1
                continue
            path.write_text(original.replace(m.find, m.replace))
            try:
                status, failed = run_tests(src, list(m.kills), log)
            finally:
                path.write_text(original)
            alive = [i for i in m.kills if i not in failed]
            verdict = "killed" if status == 1 and not alive else f"SURVIVED (exit {status})"
            print(f"{m.name}: {verdict} in {time.perf_counter() - t0:.1f} s")
            for i in alive:
                print(f"    passed: {i}")
            survivors += verdict != "killed"
    print(f"{len(chosen) - survivors} of {len(chosen)} mutants killed "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.path.insert(0, str(TESTS))
    sys.exit(main(sys.argv[1:]))
