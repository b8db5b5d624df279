"""Regenerate the golden CLI outputs in this directory.

Run from the repository root:

    python3 tests/golden/regenerate.py

The config is rebuilt from a fixed seed, then every golden artifact is
produced by the command-line interface itself, so the files pin
down the full serialization surface (schemas, rational formatting, key
order, newlines).  exports-decimal/ holds the same exports written with
--render-decimal, so its CSV files also pin the decimal columns.
exports-huge/ holds the config, the exports and the report of a q = p = 1,
depth-2 table whose moment (1, 0) is 10**5000, more digits than str() writes
an int in, so it pins the exact text of entries of any size.
"""

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))  # for _support
sys.path.insert(0, str(HERE.parents[1] / "src"))  # runs from a checkout, installed or not

from _support import config_json, table_mm  # noqa: E402

from steppoly import required_depth  # noqa: E402
from steppoly.cli import main  # noqa: E402
from steppoly.measures import MeasureMatrix, MomentTable  # noqa: E402

DEPTH = 8
SEED = 5
HUGE = HERE / "exports-huge"


def write_config(mm: MeasureMatrix, depth: int, path: Path) -> Path:
    obj = config_json(mm)
    obj.update({"schema_version": 1, "depth": depth, "seed": SEED})
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    return path


def build_config() -> Path:
    mm = table_mm(random.Random(7), 1, 2, required_depth(DEPTH, 1, 2))
    return write_config(mm, DEPTH, HERE / "config.json")


def build_huge_config() -> Path:
    table = table_mm(random.Random(7), 1, 1, required_depth(2, 1, 1)).entries[0][0]
    moments = dict(table.moments)
    moments[(1, 0)] = (10**5000, 1)
    mm = MeasureMatrix(1, 1, [[MomentTable(table.max_total_deg, moments)]])
    return write_config(mm, 2, HUGE / "config.json")


def run() -> None:
    cfg = build_config()
    rc = main(["compute", "--config", str(cfg), "--out", str(HERE / "exports")])
    assert rc == 0, f"compute failed with {rc}"
    # the decimal columns come from float(), so these pin them on each backend
    rc = main(["compute", "--config", str(cfg), "--out", str(HERE / "exports-decimal"),
               "--render-decimal"])
    assert rc == 0, f"compute --render-decimal failed with {rc}"
    rc = main(["verify", "--config", str(cfg), "--out", str(HERE)])
    assert rc == 0, f"verify failed with {rc}"
    rc = main(
        [
            "kernel",
            "--config",
            str(cfg),
            "--n",
            "4",
            "--x",
            "1/2,-1/3",
            "--y",
            "2/7,1/5",
            "--out",
            str(HERE),
        ]
    )
    assert rc == 0, f"kernel failed with {rc}"
    huge = build_huge_config()
    rc = main(["compute", "--config", str(huge), "--out", str(HUGE)])
    assert rc == 0, f"compute on the huge-entry config failed with {rc}"
    rc = main(["verify", "--config", str(huge), "--out", str(HUGE)])
    assert rc == 0, f"verify on the huge-entry config failed with {rc}"
    print(f"golden files regenerated under {HERE}")


if __name__ == "__main__":
    run()
