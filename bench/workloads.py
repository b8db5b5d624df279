"""Seeded config generation for the benchmark workloads.

Every config is drawn from a `random.Random` seeded by the workload seed, so
the same seed always yields the same files.  Only the numeric values depend on
the seed; which shapes, depths and cell kinds appear is fixed per workload, so
the mix of work in a run does not change from seed to seed.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from oracle import Bareiss, MomentOracle, pair_of

SHAPES = [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3)]


def table_degree(depth: int, q: int, p: int) -> int:
    """Largest total moment degree a depth x depth truncation reads."""
    return pair_of((depth - 1) // q)[0] + pair_of((depth - 1) // p)[0]


def _rat(num: int, den: int) -> str:
    return str(Fraction(num, den))


def discrete_cell(rng: random.Random, atoms: int = 40) -> dict:
    def coord():
        return _rat(rng.randint(-6, 6), rng.randint(1, 3))

    return {
        "type": "discrete",
        "atoms": [
            {"x": coord(), "y": coord(), "w": _rat(rng.randint(-5, 5) or 1, rng.randint(1, 3))}
            for _ in range(atoms)
        ],
    }


def rect_cell(rng: random.Random) -> dict:
    """Degree <= 2 density with all six terms, positive on the box [-1, 1]^2."""
    density = {"0": "1"}
    for K in range(1, 6):
        density[str(K)] = _rat(rng.choice((-1, 1)), rng.randint(2, 4))
    return {"type": "rect", "box": ["-1", "1", "-1", "1"], "density": density}


def table_cell(rng: random.Random, max_deg: int) -> dict:
    moments = {}
    for s in range(max_deg + 1):
        for t in range(max_deg + 1 - s):
            moments[f"{s},{t}"] = _rat(rng.randint(-30, 30) or 1, rng.randint(1, 12))
    return {"type": "table", "max_total_deg": max_deg, "moments": moments}


def make_config(rng: random.Random, q: int, p: int, depth: int, extended: int, kind: str) -> dict:
    """One config; `kind` is "mixed" (atoms and densities) or "table".

    A mixed grid alternates rect densities and 40-atom discrete cells like a
    checkerboard, starting with a density: a lone 40-atom measure has a
    moment matrix of rank at most 40, too low for the deeper workloads; a table grid holds free random moments deep enough for the
    `extended` factorization depth.
    """
    if kind == "mixed":
        grid = [
            [rect_cell(rng) if (b + a) % 2 == 0 else discrete_cell(rng) for a in range(p)]
            for b in range(q)
        ]
    elif kind == "table":
        deg = table_degree(extended, q, p)
        grid = [[table_cell(rng, deg) for _ in range(p)] for _ in range(q)]
    else:
        raise ValueError(f"unknown grid kind {kind!r}")
    return {"schema_version": 1, "q": q, "p": p, "depth": depth,
            "seed": rng.randint(0, 10**6), "measures": grid}


def singular_config(rng: random.Random, depth: int) -> dict:
    """A single-atom measure: its moment matrix has rank one, so index 1 breaks down."""
    atom = {"x": _rat(rng.randint(1, 6), rng.randint(1, 3)),
            "y": _rat(rng.randint(1, 6), rng.randint(1, 3)), "w": "1"}
    return {"schema_version": 1, "q": 1, "p": 1, "depth": depth, "seed": 0,
            "measures": [[{"type": "discrete", "atoms": [atom]}]]}


# ---- workloads ----------------------------------------------------------------

GOLDEN_KERNEL = ["--n", "4", "--x=1/2,-1/3", "--y=2/7,1/5"]


@dataclass
class Case:
    """One config file the program sees, and what a correct run on it returns."""

    label: str
    path: Path
    config: dict
    expect: str  # "ok", "breakdown" or "golden"
    bareiss: Bareiss | None = None  # the oracle's elimination of its moment matrix


@dataclass
class Op:
    case: Case
    argv: list[str]
    out: Path | None = None
    query: tuple | None = None  # (n, x, y) of a kernel op


def cycle_count(seconds: float, cycle_s: float) -> int:
    """The odd number of cycles nearest to seconds / cycle_s.

    With an odd count of seven-op cycles the median op falls in the middle of
    a group of like ops, not on the edge between two groups.
    """
    return 2 * max(0, round((seconds / cycle_s - 1) / 2)) + 1


@dataclass
class Workload:
    command: str
    depth: int
    cycle_s: float  # one cycle's wall time on the reference host when it runs slow


WORKLOADS = {
    "verify-d16": Workload("verify", 16, 11.6),
    "compute-d32": Workload("compute", 32, 11.7),
    "kernel-stream": Workload("kernel", 40, 9.6),
}


class Builder:
    """Writes the configs of one workload run into `tmp` and lists its ops."""

    def __init__(self, name: str, seed: int, tmp: Path, golden_dir: Path, required_depth):
        self.spec = WORKLOADS[name]
        self.rng = random.Random(f"{name}:{seed}")
        self.tmp = tmp
        self.golden_dir = golden_dir
        self.required_depth = required_depth
        self.files = itertools.count()

    def _write(self, label: str, config: dict, expect: str, bareiss: Bareiss | None) -> Case:
        path = self.tmp / f"config-{next(self.files):03d}.json"
        path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
        return Case(label, path, config, expect, bareiss)

    def random_case(self, index: int, q: int, p: int) -> Case:
        """A config of shape (q, p); redrawn until it factorizes to the depth the op needs."""
        depth = self.spec.depth
        extended = depth if self.spec.command == "kernel" else max(
            self.required_depth(depth, q, p), depth)
        kind = "mixed" if index % 2 == 0 else "table"
        for _ in range(20):
            config = make_config(self.rng, q, p, depth, extended, kind)
            bareiss = Bareiss(MomentOracle(config).matrix(extended))
            if bareiss.breakdown is None:
                return self._write(f"({q},{p}) {kind} D={depth}", config, "ok", bareiss)
        raise RuntimeError(f"no config of shape ({q},{p}) without breakdown after 20 draws")

    def golden_case(self) -> Case:
        config = json.loads((self.golden_dir / "config.json").read_text())
        return self._write(f"golden D={config['depth']}", config, "golden", None)

    def singular_case(self) -> Case:
        config = singular_config(self.rng, self.spec.depth)
        bareiss = Bareiss(MomentOracle(config).matrix(2))
        return self._write(f"singular D={self.spec.depth}", config, "breakdown", bareiss)

    def _point(self) -> tuple[str, str]:
        return tuple(_rat(self.rng.randint(-6, 6), self.rng.randint(1, 7)) for _ in range(2))

    def cycles(self, count: int) -> list[list[Op]]:
        """`count` cycles of ops; each cycle is one pass over every shape, in seeded order.

        A verify or compute cycle has seven ops: one per shape, the golden
        config and the singular one, which must exit 2.  A kernel cycle has
        eight queries per shape, n stratified over 0..depth-1, and the golden
        query; its configs stay the same from cycle to cycle.
        """
        golden = self.golden_case()
        command = self.spec.command
        out: list[list[Op]] = []
        if command == "kernel":
            shaped = [self.random_case(i, q, p) for i, (q, p) in enumerate(SHAPES)]
            for _ in range(count):
                cycle = [Op(golden, ["kernel", "--config", str(golden.path)] + GOLDEN_KERNEL)]
                for case in shaped:
                    for band in range(0, self.spec.depth, 5):
                        n = band + self.rng.randrange(5)
                        x, y = self._point(), self._point()
                        argv = ["kernel", "--config", str(case.path), "--n", str(n),
                                f"--x={x[0]},{x[1]}", f"--y={y[0]},{y[1]}"]
                        cycle.append(Op(case, argv, query=(n, x, y)))
                self.rng.shuffle(cycle)
                out.append(cycle)
            return out
        singular = self.singular_case()
        for k in range(count):
            cases = [self.random_case(i, q, p) for i, (q, p) in enumerate(SHAPES)]
            cases += [golden, singular]
            self.rng.shuffle(cases)
            cycle = []
            for i, case in enumerate(cases):
                o = self.tmp / f"out-{k}-{i}"
                cycle.append(Op(case, [command, "--config", str(case.path), "--out", str(o)], out=o))
            out.append(cycle)
        return out
