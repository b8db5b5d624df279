"""Regenerate the golden CLI outputs in this directory.

Run from the repository root:

    python3 tests/golden/regenerate.py

The config is rebuilt from a fixed seed, then every golden artifact is
produced by the command-line interface itself, so the files pin
down the full serialization surface (schemas, rational formatting, key
order, newlines).  exports-decimal/ holds the same exports written with
--render-decimal, so its CSV files also pin the decimal columns.
"""

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))  # for _support
sys.path.insert(0, str(HERE.parents[1] / "src"))  # runs from a checkout, installed or not

from _support import table_mm  # noqa: E402

from steppoly import required_depth  # noqa: E402
from steppoly.cli import main  # noqa: E402

DEPTH = 8
SEED = 5


def build_config() -> Path:
    mm = table_mm(random.Random(7), 1, 2, required_depth(DEPTH, 1, 2))
    obj = mm.to_json()
    obj.update({"schema_version": 1, "depth": DEPTH, "seed": SEED})
    path = HERE / "config.json"
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    return path


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
    print(f"golden files regenerated under {HERE}")


if __name__ == "__main__":
    run()
