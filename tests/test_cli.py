"""Command-line behavior: exit codes, determinism, and export structure."""

import csv
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import steppoly
from steppoly import build_recurrence, rat, required_depth
from steppoly.cdkernel import kernel_eval
from steppoly.cli import CHECK_NAMES, RunConfig, main
from steppoly.errors import ConfigError, DepthError
from steppoly.measures import measure_from_json
from steppoly.rational import parse_rat
from steppoly.report import CheckReport, Violation

from _support import BiPoly, build_system, poly, table_mm

DEPTH = 6


def good_config(tmp_path, q=1, p=2, depth=DEPTH, seed=3, **extra):
    rng = random.Random(909)
    mm = table_mm(rng, q, p, required_depth(DEPTH, q, p))
    obj = mm.to_json()
    obj.update({"schema_version": 1, "depth": depth, "seed": seed})
    obj.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj))
    return path


def write_config(tmp_path, name, q, p, depth, cell):
    obj = {"schema_version": 1, "q": q, "p": p, "depth": depth,
           "measures": [[cell] * p for _ in range(q)]}
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


def breakdown_config(tmp_path):
    obj = {
        "schema_version": 1,
        "q": 1,
        "p": 1,
        "measures": [[{"type": "table", "max_total_deg": 8,
                       "moments": {"0,0": "1", "1,0": "1", "2,0": "1"}}]],
        "depth": 4,
    }
    path = tmp_path / "breakdown.json"
    path.write_text(json.dumps(obj))
    return path


class TestVerify:
    def test_all_checks_pass(self, tmp_path, capsys):
        cfg = good_config(tmp_path)
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [line.split(":")[0] for line in lines] == CHECK_NAMES
        assert all(line.endswith("PASS") for line in lines)
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["schema_version"] == 1
        assert report["kind"] == "report"
        assert report["status"] == "ok"
        assert report["summary"] == {"pass": len(CHECK_NAMES), "fail": 0, "skipped": 0}

    def test_subset_of_checks(self, tmp_path, capsys):
        cfg = good_config(tmp_path)
        assert main(["verify", "--config", str(cfg), "--checks", "degree,band"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [line.split(":")[0] for line in lines] == ["degree", "band"]

    def test_reports_are_byte_identical(self, tmp_path):
        cfg = good_config(tmp_path)
        for name in ("a", "b"):
            assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        a = (tmp_path / "a" / "report.json").read_bytes()
        b = (tmp_path / "b" / "report.json").read_bytes()
        assert a == b

    def test_seed_changes_points_not_outcomes(self, tmp_path):
        cfg = good_config(tmp_path)
        for seed in ("1", "2"):
            assert main(["verify", "--config", str(cfg), "--seed", seed,
                         "--out", str(tmp_path / seed)]) == 0
        ra = json.loads((tmp_path / "1" / "report.json").read_text())
        rb = json.loads((tmp_path / "2" / "report.json").read_text())
        assert ra["seed"] != rb["seed"]
        assert ra["checks"] == rb["checks"]

    def test_explicit_eval_points_accepted(self, tmp_path):
        cfg = good_config(tmp_path, eval_points=[["1/2", "-1/3"], ["0", "2"]])
        assert main(["verify", "--config", str(cfg)]) == 0

    def test_check_failure_exits_one(self, tmp_path, monkeypatch):
        import steppoly.cli as cli_mod

        cfg = good_config(tmp_path)
        monkeypatch.setattr(
            cli_mod, "check_reproduction",
            lambda *a, **k: CheckReport("reproduction", [Violation("reproduction", (5,), "forced")], 1),
        )
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        statuses = {c["name"]: c["status"] for c in report["checks"]}
        assert statuses["reproduction"] == "fail"
        assert report["summary"]["fail"] == 1
        details = {c["name"]: c["details"] for c in report["checks"]}
        assert details["reproduction"] == "1 violation(s); first at (5,): forced"

    def test_vacuous_checks_are_skipped(self, tmp_path, capsys):
        # at depth 1 with (q, p) = (1, 1) four checks have no relation to verify
        cell = {"type": "rect", "box": ["-1", "1", "-1", "1"], "density": {"0": "1"}}
        cfg = write_config(tmp_path, "depth1.json", 1, 1, 1, cell)
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        outcomes = {c["name"]: c for c in report["checks"]}
        vacuous = {"orthogonality", "band", "recurrence", "cd"}
        for name in vacuous:
            assert outcomes[name]["status"] == "skipped", name
            assert outcomes[name]["details"], name
        for name in set(CHECK_NAMES) - vacuous:
            assert outcomes[name]["status"] == "pass", name
        assert report["summary"] == {"pass": 7, "fail": 0, "skipped": 4}
        assert "cd: SKIPPED (" in capsys.readouterr().out

    def test_breakdown_exits_two(self, tmp_path, capsys):
        cfg = breakdown_config(tmp_path)
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "breakdown at index 1" in capsys.readouterr().out
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["status"] == "breakdown"
        assert report["breakdown_index"] == 1


class TestConfigErrors:
    def test_missing_file(self, tmp_path):
        assert main(["verify", "--config", str(tmp_path / "absent.json")]) == 3

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["verify", "--config", str(path)]) == 3

    def test_unknown_check_in_config(self, tmp_path):
        cfg = good_config(tmp_path, checks=["degree", "nonsense"])
        assert main(["verify", "--config", str(cfg)]) == 3

    def test_unknown_check_flag(self, tmp_path):
        cfg = good_config(tmp_path)
        assert main(["verify", "--config", str(cfg), "--checks", "nope"]) == 3

    def test_bad_depth(self, tmp_path):
        cfg = good_config(tmp_path, depth=0)
        assert main(["verify", "--config", str(cfg)]) == 3

    def test_bad_schema_version(self, tmp_path):
        cfg = good_config(tmp_path, schema_version=99)
        assert main(["verify", "--config", str(cfg)]) == 3

    def test_bad_eval_point(self, tmp_path):
        cfg = good_config(tmp_path, eval_points=[["1/2"]])
        assert main(["verify", "--config", str(cfg)]) == 3

    def test_table_too_shallow_for_depth(self, tmp_path, capsys):
        cell = {"type": "table", "max_total_deg": 2,
                "moments": {"0,0": "1", "1,0": "1/2", "0,1": "1/3", "2,0": "1", "0,2": "2"}}
        cfg = write_config(tmp_path, "shallow.json", 1, 1, 3, cell)
        assert main(["verify", "--config", str(cfg)]) == 3
        assert "moment (3,0) exceeds declared max_total_deg=2" in capsys.readouterr().err
        assert main(["compute", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3

    @pytest.mark.parametrize("extra, message", [
        ({"eval_points": 5}, "eval_points must be a list of pairs"),
        ({"measures": [[{"type": "table", "max_total_deg": 4, "moments": ["0,0"]}]]},
         "bad measure spec (table)"),
        ({"measures": [[{"type": "rect", "box": ["0", "1", "0", "1"], "density": ["1"]}]]},
         "bad measure spec (rect)"),
        ({"measures": [[{"type": "rect", "box": ["0", "1", "0", "1"], "density": {"-1": "1"}}]]},
         "bad measure spec (rect): negative monomial position"),
        ({"depth": float("inf")}, "bad depth"),
        ({"seed": float("inf")}, "bad seed"),
        ({"q": float("inf")}, "bad measure matrix"),
        ({"measures": [[{"type": "table", "max_total_deg": float("inf"), "moments": {}}]]},
         "bad measure spec (table)"),
    ])
    def test_malformed_values_exit_three(self, tmp_path, capsys, extra, message):
        obj = {"schema_version": 1, "q": 1, "p": 1, "depth": 2,
               "measures": [[{"type": "table", "max_total_deg": 4, "moments": {"0,0": "1"}}]]}
        obj.update(extra)
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(obj))
        assert main(["verify", "--config", str(path)]) == 3
        assert f"config error: {message}" in capsys.readouterr().err

    def test_usage_error_folds_to_three(self):
        assert main(["frobnicate"]) == 3
        assert main([]) == 3

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0


class TestCompute:
    def test_exports_written_and_deterministic(self, tmp_path):
        cfg = good_config(tmp_path)
        for name in ("x", "y"):
            assert main(["compute", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        names = sorted(f.name for f in (tmp_path / "x").iterdir())
        assert names == [
            "H.csv", "H.json", "S.csv", "S.json", "Sbar.csv", "Sbar.json",
            "T1.csv", "T1.json", "T2.csv", "T2.json", "families.json",
            "moments.csv", "moments.json",
        ]
        for name in names:
            assert (tmp_path / "x" / name).read_bytes() == (tmp_path / "y" / name).read_bytes()

    def test_export_contents_match_library(self, tmp_path):
        cfg = good_config(tmp_path)
        out = tmp_path / "out"
        assert main(["compute", "--config", str(cfg), "--out", str(out)]) == 0

        h = json.loads((out / "H.json").read_text())
        assert h["schema_version"] == 1 and h["kind"] == "H"
        # rebuild the same system directly: good_config draws from seed 909
        mm_direct = table_mm(random.Random(909), 1, 2, required_depth(DEPTH, 1, 2))
        from steppoly import assemble_moments, extract_families, factorize
        from steppoly.rational import format_rat

        M = assemble_moments(mm_direct, required_depth(DEPTH, 1, 2))
        F = factorize(M)
        assert h["values"] == [format_rat(v) for v in F.H[:DEPTH]]

        t1 = json.loads((out / "T1.json").read_text())
        T = build_recurrence(F, 1, 2, 1, DEPTH)
        assert t1["rows"] == DEPTH and t1["cols"] == DEPTH
        assert [[parse_rat(v) for v in row] for row in t1["entries"]] == T.data

        fams = json.loads((out / "families.json").read_text())
        assert fams["q"] == 1 and fams["p"] == 2
        A, B = extract_families(F, 1, 2)
        for label, fam in (("A", A), ("B", B)):
            for n in range(DEPTH):
                got = [BiPoly.from_json(obj).coeffs for obj in fams[label][n]]
                assert got == [poly(fam, n, i).coeffs for i in range(fam.r)], (label, n)

        with (out / "moments.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == DEPTH and len(rows[0]) == DEPTH
        assert [[parse_rat(v) for v in row] for row in rows] == [
            r[:DEPTH] for r in M.data[:DEPTH]
        ]

    def test_render_decimal_extends_csv_only(self, tmp_path):
        cfg = good_config(tmp_path)
        plain, dec = tmp_path / "plain", tmp_path / "dec"
        assert main(["compute", "--config", str(cfg), "--out", str(plain)]) == 0
        assert main(["compute", "--config", str(cfg), "--out", str(dec), "--render-decimal"]) == 0
        assert (plain / "H.json").read_bytes() == (dec / "H.json").read_bytes()
        with (dec / "H.csv").open() as fh:
            row = next(csv.reader(fh))
        assert len(row) == 2 * DEPTH
        assert abs(float(row[DEPTH]) - float(parse_rat(row[0]))) < 1e-9

    def test_breakdown_exits_two(self, tmp_path, capsys):
        cfg = breakdown_config(tmp_path)
        assert main(["compute", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "factorization breakdown at index 1" in capsys.readouterr().err

    def test_depth_error_exits_three(self, tmp_path, monkeypatch, capsys):
        import steppoly.cli as cli_mod

        def shallow(M):
            raise DepthError("factorization depth 2 < 5 needed", required=5)

        monkeypatch.setattr(cli_mod, "factorize", shallow)
        cfg = good_config(tmp_path)
        assert main(["compute", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert "depth error: factorization depth 2 < 5 needed" in capsys.readouterr().err


class TestKernel:
    def test_value_matches_library(self, tmp_path, capsys):
        cfg = good_config(tmp_path)
        assert main(["kernel", "--config", str(cfg), "--n", "4",
                     "--x", "1/2,-1/3", "--y", "2/7,1/5"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["kind"] == "kernel" and obj["n"] == 4
        system = build_system(1, 2, required_depth(DEPTH, 1, 2), seed=909)
        want = kernel_eval(system.A, system.B, 4,
                           (rat(1, 2), rat(-1, 3)), (rat(2, 7), rat(1, 5)))
        assert [[parse_rat(v) for v in row] for row in obj["matrix"]] == want

    def test_out_file(self, tmp_path, capsys):
        cfg = good_config(tmp_path)
        out = tmp_path / "k"
        assert main(["kernel", "--config", str(cfg), "--n", "2",
                     "--x", "0,0", "--y", "1,1", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert (out / "kernel.json").read_text() == printed

    def test_breakdown_exits_two(self, tmp_path, capsys):
        cfg = breakdown_config(tmp_path)
        assert main(["kernel", "--config", str(cfg), "--n", "1",
                     "--x", "0,0", "--y", "1,1"]) == 2
        captured = capsys.readouterr()
        assert "factorization breakdown at index 1" in captured.err
        assert captured.out == ""

    def test_bad_point_exits_three(self, tmp_path):
        cfg = good_config(tmp_path)
        assert main(["kernel", "--config", str(cfg), "--n", "2",
                     "--x", "1/2", "--y", "0,0"]) == 3
        assert main(["kernel", "--config", str(cfg), "--n", "-1",
                     "--x", "0,0", "--y", "0,0"]) == 3


json_scalars = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(["1", "-3/7", "0", "2/0", " 5 ", "1,0", "0,2", "x", float("inf")])
)
json_values = st.recursive(
    json_scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=8,
)
measure_specs = st.fixed_dictionaries(
    {"type": st.sampled_from(["discrete", "rect", "table"]) | json_values},
    optional={
        "atoms": st.lists(st.fixed_dictionaries({}, optional={
            "x": json_scalars, "y": json_scalars, "w": json_scalars}), max_size=3) | json_values,
        "box": st.lists(json_scalars, min_size=3, max_size=5) | json_values,
        "density": st.dictionaries(json_scalars.map(str), json_scalars, max_size=3) | json_values,
        "moments": st.dictionaries(json_scalars.map(str), json_scalars, max_size=3) | json_values,
        "max_total_deg": st.integers(-2, 6) | json_values,
    },
)
VALID_CELLS = [
    {"type": "table", "max_total_deg": 4, "moments": {"0,0": "1", "1,0": "1/2"}},
    {"type": "rect", "box": ["-1", "1", "0", "2"], "density": {"0": "1", "2": "1/3"}},
    {"type": "discrete", "atoms": [{"x": "1/2", "y": "-1", "w": "3"}]},
]
CONFIG_KEYS = ["schema_version", "q", "p", "measures", "depth", "checks", "eval_points",
               "seed", "output"]


@st.composite
def run_configs(draw):
    """A valid config with one key or one measure cell given an arbitrary value."""
    q, p = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    grid = [[draw(st.sampled_from(VALID_CELLS)) for _ in range(p)] for _ in range(q)]
    obj = {"schema_version": 1, "q": q, "p": p, "measures": grid}
    target = draw(st.sampled_from(CONFIG_KEYS + ["cell"]))
    if target == "cell":
        grid[-1][-1] = draw(measure_specs | json_scalars | json_values)
    else:
        obj[target] = draw(json_scalars | json_values)
    return obj


def parses_or_config_error(parse, obj):
    try:
        parse(obj)
    except ConfigError:
        pass


class TestConfigFuzz:
    """Any JSON value either parses or raises ConfigError, never another exception."""

    @settings(max_examples=300)
    @given(measure_specs | json_values)
    def test_measure_from_json(self, obj):
        parses_or_config_error(measure_from_json, obj)

    @settings(max_examples=300)
    @given(run_configs() | json_values)
    def test_run_config_from_json(self, obj):
        parses_or_config_error(RunConfig.from_json, obj)


def declared_entry_point(name):
    """The `module:function` that pyproject.toml's [project.scripts] gives `name`."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        return tomllib.load(fh).get("project", {}).get("scripts", {}).get(name)


def checkout_env():
    """Child environment that imports the same steppoly as this process."""
    env = dict(os.environ)
    src = str(Path(steppoly.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


# The launcher pip writes for a [project.scripts] entry `module:function`.
CONSOLE_SCRIPT = """\
import re
import sys
from {module} import {function}
if __name__ == "__main__":
    sys.argv[0] = re.sub(r"(-script\\.pyw|\\.exe)?$", "", sys.argv[0])
    sys.exit({function}())
"""


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        entry = declared_entry_point("steppoly")
        assert entry, "pyproject.toml must declare a steppoly console script"
        module, _, function = entry.partition(":")
        exe = tmp_path / "steppoly"
        exe.write_text(CONSOLE_SCRIPT.format(module=module, function=function))
        cfg = good_config(tmp_path)
        proc = subprocess.run(
            [sys.executable, str(exe), "verify", "--config", str(cfg), "--checks", "degree"],
            capture_output=True,
            text=True,
            env=checkout_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "degree: PASS"
        # timing goes to stderr so files and stdout stay reproducible
        assert "elapsed" in proc.stderr

    @pytest.mark.skipif(
        shutil.which("steppoly") is None, reason="steppoly command is not on PATH"
    )
    def test_command_on_path(self, tmp_path):
        cfg = good_config(tmp_path)
        proc = subprocess.run(
            [shutil.which("steppoly"), "verify", "--config", str(cfg), "--checks", "degree"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "degree: PASS"
        assert "elapsed" in proc.stderr

    def test_module_invocation(self, tmp_path):
        cfg = breakdown_config(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "steppoly.cli", "verify", "--config", str(cfg)],
            capture_output=True,
            text=True,
            env=checkout_env(),
        )
        assert proc.returncode == 2
