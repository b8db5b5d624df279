"""Command-line behavior: exit codes, determinism, and export structure."""

import csv
import json
import os
import random
import re
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import steppoly
import steppoly.gaussborel as gaussborel
from steppoly import (assemble_moments, build_recurrence, extract_families, factorize, rat,
                      required_depth)
from steppoly.cli import (CHECK_NAMES, CHECKS, RunConfig, Workspace, _decimal_text,
                          extended_depth, load_config, main)
from steppoly.errors import Breakdown, ConfigError
from steppoly.families import Family
from steppoly.gaussborel import _factor_row, unit_lower
from steppoly.measures import MAX_MOMENT_BITS, measure_from_json
from steppoly.moments import MomentTruncation
from steppoly.rational import over_lcm, ratio_text
from steppoly.recurrence import RecurrenceTruncation, check_recurrence_matrix
from steppoly.report import CheckReport, Violation
from steppoly.stepline import in_complement_J, n_minus_big, n_plus

from _support import (EXPORT_KINDS, SHAPES, BiPoly, build_system, config_json, corner,
                      csv_writer_text, invert_unitriangular, kernel_sum, mixed_mm, moment_data,
                      parse_rat, poly, rational_T, rational_entries, rational_exports,
                      pos_of, stored_inverses, table_mm)

DEPTH = 6
GOLDEN_CONFIG = Path(__file__).resolve().parent / "golden" / "config.json"
HUGE_CONFIG = GOLDEN_CONFIG.parent / "exports-huge" / "config.json"


def good_config(tmp_path, q=1, p=2, depth=DEPTH, seed=3, **extra):
    rng = random.Random(909)
    mm = table_mm(rng, q, p, required_depth(DEPTH, q, p))
    obj = config_json(mm)
    obj.update({"schema_version": 1, "depth": depth, "seed": seed})
    obj.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj))
    return path


def shape_config(tmp_path, shape, kind="table"):
    """The golden config, or a depth-16 table config or depth-12 mixed config of
    the (q, p) shape."""
    if shape == "golden":
        return GOLDEN_CONFIG
    if kind == "table":
        mm, depth = table_mm(random.Random(909), *shape, required_depth(16, *shape)), 16
    else:
        mm, depth = mixed_mm(random.Random(909), *shape), 12
    obj = config_json(mm)
    obj.update({"schema_version": 1, "depth": depth})
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(obj))
    return cfg


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

    def test_projection_skipped_below_its_threshold(self, tmp_path, capsys):
        # at depth 1 no monic matrix polynomial of either size fits: I = 1 // 2 - 1 < 0
        cfg = good_config(tmp_path, q=1, p=2, depth=1)
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--checks", "projection", "--out", str(out)]) == 0
        assert capsys.readouterr().out == "projection: SKIPPED (depth below projection threshold)\n"
        assert json.loads((out / "report.json").read_text())["checks"] == [
            {"name": "projection", "status": "skipped", "details": "depth below projection threshold"}]

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

    @pytest.mark.parametrize("shape", ["golden", (2, 3)])
    def test_seed_reaches_no_output(self, tmp_path, shape):
        # the seed draws projection's monic matrix polynomials only, and the
        # projection identity holds for every one of them: report.json writes
        # the seed and is otherwise the same for every seed
        cfg = GOLDEN_CONFIG if shape == "golden" else good_config(tmp_path, *shape)
        reports = []
        for seed in (0, 1, 7, 12345):
            out = tmp_path / f"seed{seed}"
            assert main(["verify", "--config", str(cfg), "--seed", str(seed), "--out", str(out)]) == 0
            report = json.loads((out / "report.json").read_text())
            assert report.pop("seed") == seed
            reports.append(report)
        assert reports[0]["checks"] and all(report == reports[0] for report in reports[1:])

    def test_explicit_eval_points_accepted(self, tmp_path):
        cfg = good_config(tmp_path, eval_points=[["1/2", "-1/3"], ["0", "2"]])
        assert main(["verify", "--config", str(cfg)]) == 0

    def test_check_failure_exits_one(self, tmp_path, monkeypatch):
        import steppoly.cli as cli_mod

        cfg = good_config(tmp_path)
        monkeypatch.setattr(
            cli_mod, "check_reproduction",
            lambda *a, **k: CheckReport([Violation((5,), "forced")], 1),
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
        vacuous = {"orthogonality": "no relation to check at depth 1",
                   "band": "no relation to check at depth 1",
                   "recurrence": "window too small for any recurrence row",
                   "cd": "no relation to check at depth 1"}
        for name, reason in vacuous.items():
            assert (outcomes[name]["status"], outcomes[name]["details"]) == ("skipped", reason), name
        for name in set(CHECK_NAMES) - vacuous.keys():
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

    def test_whole_reports(self, tmp_path, monkeypatch):
        # report.json as one JSON object, every key and value pinned: the breakdown
        # report of a singular config, and a golden-config run with one check failing
        import steppoly.cli as cli_mod

        assert main(["verify", "--config", str(breakdown_config(tmp_path)),
                     "--out", str(tmp_path / "b")]) == 2
        assert json.loads((tmp_path / "b" / "report.json").read_text()) == {
            "schema_version": 1, "kind": "report", "status": "breakdown", "q": 1, "p": 1,
            "depth": 4, "extended_depth": 8, "seed": 0, "H": [], "checks": [],
            "summary": {"pass": 0, "fail": 0, "skipped": 0}, "breakdown_index": 1,
        }

        monkeypatch.setattr(
            cli_mod, "check_reproduction",
            lambda *a, **k: CheckReport([Violation((5, "x"), "forced"), Violation((6,), "again")], 2),
        )
        assert main(["verify", "--config", str(GOLDEN_CONFIG), "--checks", "degree,reproduction",
                     "--out", str(tmp_path / "f")]) == 1
        want = json.loads((GOLDEN_CONFIG.parent / "report.json").read_text())
        want["checks"] = [
            {"name": "degree", "status": "pass", "details": ""},
            {"name": "reproduction", "status": "fail",
             "details": "2 violation(s); first at (5, 'x'): forced"},
        ]
        want["summary"] = {"pass": 1, "fail": 1, "skipped": 0}
        assert json.loads((tmp_path / "f" / "report.json").read_text()) == want


class TestConfigErrors:
    def test_missing_file(self, tmp_path):
        assert main(["verify", "--config", str(tmp_path / "absent.json")]) == 3

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["verify", "--config", str(path)]) == 3

    def test_config_not_utf8_exits_three(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff")
        assert main(["verify", "--config", str(path)]) == 3
        assert f"config error: config {path} is not valid JSON: 'utf-8' codec can't decode" in (
            capsys.readouterr().err)

    def test_config_nested_too_deep_exits_three(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["verify", "--config", str(path)]) == 3
        assert capsys.readouterr().err == (
            f"config error: config {path} nests deeper than the JSON parser's limit\n")

    def test_config_integer_past_the_digit_limit_exits_three(self, tmp_path):
        # json.loads raises a bare ValueError past int()'s digit limit, where one exists
        path = tmp_path / "big.json"
        path.write_text('{"depth": ' + "1" * 5000 + "}")
        assert main(["verify", "--config", str(path)]) == 3

    @pytest.mark.parametrize("command, depth, flags", [
        ("compute", 4, ["--depth", "1000000"]),
        ("verify", 1000000, ["--checks", "hankel"]),
        ("kernel", 4, ["--n", "999999", "--x", "0,0", "--y", "1,1"]),
    ], ids=["compute", "verify", "kernel"])
    def test_depth_beyond_memory_exits_three(self, tmp_path, command, depth, flags):
        # under a 200 MB address-space limit on the child process alone, a
        # depth-1000000 truncation of a two-atom measure runs out of memory in
        # assemble_moments: a config error that names the depth, no traceback
        resource = pytest.importorskip("resource")
        limit = 200 * 2**20
        atoms = [{"x": "1/2", "y": "1/3", "w": "1"}, {"x": "-1", "y": "2", "w": "3"}]
        cfg = write_config(tmp_path, "atoms.json", 1, 1, depth, {"type": "discrete", "atoms": atoms})
        proc = subprocess.run(
            [sys.executable, "-m", "steppoly.cli", command, "--config", str(cfg), *flags,
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=checkout_env(), timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == "config error: depth 1000000 needs more memory than this process has\n"

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

    def test_compute_depth_zero_exits_three(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["compute", "--config", str(good_config(tmp_path)), "--depth", "0",
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err == "config error: --depth must be >= 1\n"
        assert not out.exists()

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
         "bad measure spec (rect): density key '-1' is not a position in ASCII digits"),
        ({"depth": float("inf")}, "bad depth"),
        ({"seed": float("inf")}, "bad seed"),
        ({"q": float("inf")}, "bad measure matrix"),
        ({"measures": [[{"type": "table", "max_total_deg": float("inf"), "moments": {}}]]},
         "bad measure spec (table)"),
        # a number that is not a JSON integer is rejected, never truncated
        ({"depth": 2.9}, "bad depth"),
        ({"depth": True}, "bad depth"),
        ({"depth": "2"}, "bad depth"),
        ({"seed": 1.5}, "bad seed"),
        ({"q": 1.0}, "bad measure matrix"),
        ({"p": True}, "bad measure matrix"),
        ({"measures": [[{"type": "table", "max_total_deg": 4.9, "moments": {"0,0": "1"}}]]},
         "bad measure spec (table)"),
        # two keys naming one entry: keeping the last would drop a value without a word
        ({"measures": [[{"type": "rect", "box": ["0", "1", "0", "1"],
                         "density": {"0": "1", "00": "2"}}]]},
         "bad measure spec (rect): density keys '0' and '00' name the same position"),
        ({"measures": [[{"type": "table", "max_total_deg": 4,
                         "moments": {"0,0": "1", "1,0": "2", " 1,0": "3"}}]]},
         "bad measure spec (table): moment keys '1,0' and ' 1,0' name the same moment"),
        # a key is ASCII digits with optional surrounding whitespace: int() would
        # read "1_0" as 10, "+2" as 2 and an Arabic-Indic three as 3
        ({"measures": [[{"type": "rect", "box": ["0", "1", "0", "1"], "density": {"1_0": "1"}}]]},
         "bad measure spec (rect): density key '1_0' is not a position in ASCII digits"),
        ({"measures": [[{"type": "rect", "box": ["0", "1", "0", "1"], "density": {"+2": "1"}}]]},
         "bad measure spec (rect): density key '+2' is not a position in ASCII digits"),
        ({"measures": [[{"type": "rect", "box": ["0", "1", "0", "1"], "density": {"\u0663": "1"}}]]},
         "bad measure spec (rect): density key '\u0663' is not a position in ASCII digits"),
        ({"measures": [[{"type": "table", "max_total_deg": 4, "moments": {"1_0,0": "1"}}]]},
         "bad measure spec (table): moment key '1_0,0' is not two exponents s,t in ASCII digits"),
        ({"measures": [[{"type": "table", "max_total_deg": 4, "moments": {"1,+0": "1"}}]]},
         "bad measure spec (table): moment key '1,+0' is not two exponents s,t in ASCII digits"),
        ({"measures": [[{"type": "table", "max_total_deg": 4, "moments": {"\u0661,0": "1"}}]]},
         "bad measure spec (table): moment key '\u0661,0' is not two exponents s,t in ASCII digits"),
        ({"measures": [[{"type": "table", "max_total_deg": 4, "moments": {"1,0,0": "1"}}]]},
         "bad measure spec (table): moment key '1,0,0' is not two exponents s,t in ASCII digits"),
        # a rational literal is ASCII digits too: \d would read these as 3 and 12
        ({"measures": [[{"type": "table", "max_total_deg": 4, "moments": {"0,0": "\u0663"}}]]},
         "bad measure spec (table): not a rational literal: '\u0663'"),
        ({"measures": [[{"type": "table", "max_total_deg": 4, "moments": {"0,0": "\uff11\uff12"}}]]},
         "bad measure spec (table): not a rational literal: '\uff11\uff12'"),
        # a four-character string has four entries too, and true and 1.0 equal 1
        ({"measures": [[{"type": "rect", "box": "0101", "density": {"0": "1"}}]]},
         "rect box must be a list of four rationals, not '0101'"),
        ({"schema_version": True}, "bad schema_version: True is not an integer"),
        ({"schema_version": 1.0}, "bad schema_version: 1.0 is not an integer"),
        ({"eval_points": [["1/0", "1"]]}, "bad eval point ['1/0', '1']: zero denominator: '1/0'"),
    ])
    def test_malformed_values_exit_three(self, tmp_path, capsys, extra, message):
        obj = {"schema_version": 1, "q": 1, "p": 1, "depth": 2,
               "measures": [[{"type": "table", "max_total_deg": 4, "moments": {"0,0": "1"}}]]}
        obj.update(extra)
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(obj))
        assert main(["verify", "--config", str(path)]) == 3
        assert f"config error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, extra", [("", {}), (",", {}), (" ", {}), (None, {"checks": []})])
    def test_empty_check_list_exits_three(self, tmp_path, capsys, flag, extra):
        # a check list that names no check runs nothing; it is an error, never a pass
        cfg = good_config(tmp_path, **extra)
        argv = ["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]
        if flag is not None:
            argv += ["--checks", flag]
        assert main(argv) == 3
        assert "config error: no check named" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag, extra", [("degree,degree", {}),
                                             (None, {"checks": ["degree", "band", "degree"]})])
    def test_repeated_check_exits_three(self, tmp_path, capsys, flag, extra):
        # a check named twice would run twice and count twice in the summary
        cfg = good_config(tmp_path, **extra)
        argv = ["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]
        if flag is not None:
            argv += ["--checks", flag]
        assert main(argv) == 3
        assert "config error: check 'degree' named more than once" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_usage_error_folds_to_three(self):
        assert main(["frobnicate"]) == 3
        assert main([]) == 3

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0


# the uniform density on [-1, 1]^2 plus x^(i-j) y^j at the position 10^20 - 1,
# (i, j) = (14142135623, 3266133123): its moments read powers of the bounds
# with exponents past 10^10
FAR_POSITION = 10**20 - 1
FAR_I, FAR_J = 14142135623, 3266133123
FAR_CELL = {"type": "rect", "box": ["-1", "1", "-1", "1"],
            "density": {"0": "1", str(FAR_POSITION): "1"}}


def run_limited(args: list[str], limit: int) -> subprocess.CompletedProcess:
    """python args in a child process under an address-space limit of limit bytes
    on the child alone, and a 60 s timeout."""
    resource = pytest.importorskip("resource")
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=checkout_env(), timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))


class TestFarDensityPosition:
    """A density term at a far position reads each bound's power with pow, in
    O(log a) multiplications, instead of a table of every power up to a: each
    command exits 0 at once under a 1 GB address-space limit, where growing the
    table ran past any timeout, or out of memory."""

    @pytest.mark.parametrize("flags", [
        ["verify"], ["compute", "--out", "OUT"], ["kernel", "--n", "2", "--x", "0,0", "--y", "1,1"],
    ], ids=["verify", "compute", "kernel"])
    def test_each_command_exits_zero(self, tmp_path, flags):
        cfg = write_config(tmp_path, "far.json", 1, 1, 3, FAR_CELL)
        flags = [str(tmp_path / "out") if f == "OUT" else f for f in flags]
        proc = run_limited(["-m", "steppoly.cli", *flags, "--config", str(cfg)], 2**30)
        assert proc.returncode == 0, proc.stderr

    def test_moments_match_the_closed_form(self, tmp_path):
        # the integral of x^e over [-1, 1] is 0 for odd e and 2/(e + 1) for even e
        assert FAR_I * (FAR_I + 1) // 2 + FAR_J == FAR_POSITION and 0 <= FAR_J <= FAR_I
        cfg = write_config(tmp_path, "far.json", 1, 1, 3, FAR_CELL)
        code = ("import json, sys; from steppoly.cli import load_config; "
                "cell = load_config(sys.argv[1]).measures.entries[0][0]; "
                "print(json.dumps([cell.moment(s, t) for s in range(4) for t in range(4)]))")
        proc = run_limited(["-c", code, str(cfg)], 2**30)
        assert proc.returncode == 0, proc.stderr

        def integral(e: int) -> Fraction:
            return Fraction(0) if e % 2 else Fraction(2, e + 1)

        want = [integral(s) * integral(t) + integral(s + FAR_I - FAR_J) * integral(t + FAR_J)
                for s in range(4) for t in range(4)]
        assert json.loads(proc.stdout) == [[v.numerator, v.denominator] for v in want]
        assert want[1] == Fraction(4, (FAR_I - FAR_J + 1) * (FAR_J + 2))  # (s, t) = (0, 1)


class TestFarDensityBound:
    """A density term whose moments need more than MAX_MOMENT_BITS bits, by
    RectDensity's estimate, is refused when the config is loaded: exit 3 at
    once, naming the position and the estimate, where the moments used to be
    allocated for seconds until the memory ran out."""

    def test_refused_at_once_under_a_memory_limit(self, tmp_path):
        # on [0, 2] x [-1, 1] the term x^(i-j) y^j integrates to powers 2^(i-j+1),
        # so the estimate is i - j + 1 bits, about 1.1e10 at the far position
        cfg = write_config(tmp_path, "far.json", 1, 1, 3, {**FAR_CELL, "box": ["0", "2", "-1", "1"]})
        start = time.perf_counter()
        proc = run_limited(["-m", "steppoly.cli", "verify", "--config", str(cfg)], 2**30)
        assert time.perf_counter() - start < 1
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == (f"config error: density position {FAR_POSITION} needs moments of about "
                               f"{FAR_I - FAR_J + 1} bits, above the limit of {MAX_MOMENT_BITS}\n")

    @pytest.mark.parametrize("box, last, first", [
        (["0", "2", "-1", "1"], (MAX_MOMENT_BITS - 1, 0), (MAX_MOMENT_BITS, 0)),
        (["-1", "1", "0", "2"], (MAX_MOMENT_BITS - 1,) * 2, (MAX_MOMENT_BITS,) * 2),
        (["-1/3", "1/3", "-1", "1"], (MAX_MOMENT_BITS // 2 - 1, 0), (MAX_MOMENT_BITS // 2, 0)),
    ], ids=["x1-bound", "x2-bound", "denominator"])
    def test_estimate_at_the_ceiling(self, box, last, first):
        # the term at (i, j) needs (i - j + 1) bx + (j + 1) by bits, bx = by = 0
        # for bounds of magnitude 1 over 1, 1 for 2 and 2 for thirds: the last
        # pair (i, j) is accepted, the first past the ceiling refused
        def load(i, j):
            return measure_from_json({"type": "rect", "box": box, "density": {str(pos_of(i, j)): "1"}})

        load(*last)
        with pytest.raises(ConfigError, match=rf"position {pos_of(*first)} needs moments of about "
                                              rf"{MAX_MOMENT_BITS + 1 + (box[0] == '-1/3')} bits"):
            load(*first)
        measure_from_json({"type": "rect", "box": ["-1", "1", "-1", "1"], "density": {str(FAR_POSITION): "1"}})


class TestCompute:
    def test_exports_written_and_deterministic(self, tmp_path, capsys):
        cfg = good_config(tmp_path)
        for name in ("x", "y"):
            assert main(["compute", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
            # the last stderr line names the time, stdout stays empty
            out, err = capsys.readouterr()
            assert out == "" and re.fullmatch(r"elapsed \d+\.\d{3}s", err.splitlines()[-1])
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

        M = assemble_moments(mm_direct, required_depth(DEPTH, 1, 2))
        F = factorize(M)
        assert h["values"] == [str(v) for v in F.H[:DEPTH]]

        t1 = json.loads((out / "T1.json").read_text())
        T = build_recurrence(F, 1, DEPTH)
        assert t1["rows"] == DEPTH and t1["cols"] == DEPTH
        assert [[parse_rat(v) for v in row] for row in t1["entries"]] == rational_T(T)

        fams = json.loads((out / "families.json").read_text())
        assert fams["q"] == 1 and fams["p"] == 2
        A, B = extract_families(F)
        for label, fam in (("A", A), ("B", B)):
            for n in range(DEPTH):
                got = [BiPoly.from_json(obj).coeffs for obj in fams[label][n]]
                assert got == [poly(fam, n, i).coeffs for i in range(fam.r)], (label, n)

        with (out / "moments.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == DEPTH and len(rows[0]) == DEPTH
        assert [[parse_rat(v) for v in row] for row in rows] == [
            r[:DEPTH] for r in moment_data(M)[:DEPTH]
        ]

        # S and Sbar against the inverses of the stored L_inv, not the src builder
        for what, inverse in zip(("S", "Sbar"), stored_inverses(F)):
            want = corner(invert_unitriangular(inverse), DEPTH)
            obj = json.loads((out / f"{what}.json").read_text())
            assert obj["schema_version"] == 1 and obj["kind"] == what
            assert obj["rows"] == DEPTH and obj["cols"] == DEPTH
            assert [[parse_rat(v) for v in row] for row in obj["entries"]] == want, what
            with (out / f"{what}.csv").open() as fh:
                assert [[parse_rat(v) for v in row] for row in csv.reader(fh)] == want, what

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
        # a factorization no deeper than the window is too shallow for T_1:
        # build_recurrence's DepthError is a config error, not a traceback
        import steppoly.cli as cli_mod

        monkeypatch.setattr(cli_mod, "extended_depth", lambda config: config.depth)
        cfg = good_config(tmp_path)
        assert main(["compute", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"depth error: factorization depth {DEPTH} < ")
        assert f"extend to required_depth = {required_depth(DEPTH, 1, 2)}" in err
        assert not (tmp_path / "o").exists()


# six atoms in general position: the moment matrix has rank 6, so of the
# (1, 1) truncation's leading minors Delta_7 is the first that vanishes
SIX_ATOMS = [{"x": x, "y": y, "w": w} for x, y, w in (
    ("1", "2", "1"), ("-1", "1/2", "2"), ("3", "-2", "1/3"),
    ("1/2", "5", "3"), ("-2", "-3", "1"), ("4", "1/3", "2"))]


def counted_eliminate(monkeypatch) -> list[int]:
    """The steps argument of each gaussborel.eliminate call from now on, in order."""
    steps, eliminate = [], gaussborel.eliminate

    def counted(rows, n):
        steps.append(n)
        return eliminate(rows, n)

    monkeypatch.setattr(gaussborel, "eliminate", counted)
    return steps


def counted_kernel_eliminate(monkeypatch) -> list[int]:
    """The steps argument of each eliminate call kernel_eval makes from now on, in order."""
    steps, eliminate = [], steppoly.cdkernel.eliminate

    def counted(rows, n):
        steps.append(n)
        return eliminate(rows, n)

    monkeypatch.setattr(steppoly.cdkernel, "eliminate", counted)
    return steps


class TestBreakdownContract:
    """compute decides breakdown up to the extended depth, past the depth
    window it writes: a vanishing minor there exits 2 with factorize's index,
    and whatever route decides it, every export stays the same."""

    def test_breakdown_past_the_window_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "tail.json", 1, 1, 4, {"type": "discrete", "atoms": SIX_ATOMS})
        config = load_config(cfg)
        assert extended_depth(config) == 8
        with pytest.raises(Breakdown) as full:
            factorize(assemble_moments(config.measures, 8))
        assert full.value.index == 6
        assert main(["compute", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "factorization breakdown at index 6\n"
        assert not (tmp_path / "o").exists()
        assert main(["verify", "--config", str(cfg)]) == 2
        assert capsys.readouterr().out == "factorization breakdown at index 6\n"

    @pytest.mark.parametrize("shape", SHAPES)
    def test_false_alarms_leave_every_export(self, tmp_path, monkeypatch, shape):
        # modulo 2 some minor is 0, so a certificate modulo 2 raises an alarm on a
        # config whose minors are all nonzero; the full elimination then runs last
        cfg = shape_config(tmp_path, shape)
        plain, alarmed = tmp_path / "plain", tmp_path / "alarmed"
        assert main(["compute", "--config", str(cfg), "--out", str(plain)]) == 0
        steps = counted_eliminate(monkeypatch)
        monkeypatch.setattr(gaussborel, "CERT_PRIME", 2, raising=False)
        assert main(["compute", "--config", str(cfg), "--out", str(alarmed)]) == 0
        assert steps[-1] == extended_depth(load_config(cfg))
        names = sorted(os.listdir(plain))
        assert len(names) == 13 and sorted(os.listdir(alarmed)) == names
        for name in names:
            assert (alarmed / name).read_bytes() == (plain / name).read_bytes(), name

    def test_generic_configs_take_no_fallback(self, tmp_path, monkeypatch):
        # the panel's elimination and the certificate's, on the rows past the
        # window, are the only ones: no full-depth elimination runs
        steps = counted_eliminate(monkeypatch)
        cases = ["golden"] + [(kind, shape) for shape in SHAPES for kind in ("table", "mixed")]
        for i, case in enumerate(cases, 1):
            cfg = GOLDEN_CONFIG if case == "golden" else shape_config(tmp_path, case[1], case[0])
            config = load_config(cfg)
            depth, extended = config.depth, extended_depth(config)
            steps.clear()
            assert main(["compute", "--config", str(cfg), "--out", str(tmp_path / str(i))]) == 0
            assert depth < extended and steps == [depth, extended - depth], case


class TestKernel:
    def test_value_matches_library(self, tmp_path, capsys):
        cfg = good_config(tmp_path)
        assert main(["kernel", "--config", str(cfg), "--n", "4",
                     "--x", "1/2,-1/3", "--y", "2/7,1/5"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["kind"] == "kernel" and obj["n"] == 4
        system = build_system(1, 2, required_depth(DEPTH, 1, 2), seed=909)
        want = kernel_sum(system.A, system.B, 4,
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

    def test_factorizes_nothing(self, tmp_path, monkeypatch, capsys):
        # kernel reads the inverse-moment form straight off the truncation
        calls = []

        def counting(module, name):
            orig = getattr(module, name)

            def wrapper(*args):
                calls.append(name)
                return orig(*args)

            monkeypatch.setattr(module, name, wrapper)

        for module in (steppoly.cli, steppoly.gaussborel, steppoly.families):
            for name in ("factorize", "extract_families"):
                if hasattr(module, name):
                    counting(module, name)
        cfg = good_config(tmp_path)
        assert main(["kernel", "--config", str(cfg), "--n", "4",
                     "--x", "1/2,-1/3", "--y", "2/7,1/5"]) == 0
        assert calls == []
        assert main(["verify", "--config", str(cfg), "--checks", "hankel"]) == 0
        assert calls == ["factorize"]

    def test_bad_point_exits_three(self, tmp_path):
        cfg = good_config(tmp_path)
        assert main(["kernel", "--config", str(cfg), "--n", "2",
                     "--x", "1/2", "--y", "0,0"]) == 3
        assert main(["kernel", "--config", str(cfg), "--n", "-1",
                     "--x", "0,0", "--y", "0,0"]) == 3

    @pytest.mark.parametrize("point, text", [
        (" 2/4,-0", ["1/2", "0"]), ("+6/3,-3/9", ["2", "-1/3"]),
        ("1" + "0" * 5000 + ",1/3", ["1" + "0" * 5000, "1/3"]), ("-2/4,1/3", ["-1/2", "1/3"]),
    ], ids=["reduced", "signed", "5001-digits", "negative-first"])
    def test_point_text(self, tmp_path, capsys, point, text):
        # each coordinate is written reduced, in the form the config literals
        # take, and the matrix is the one the reduced point gives; a point that
        # starts with "-" is read as an option after a space, a usage error
        # (exit 3), so it is given as --x=POINT
        cfg = good_config(tmp_path)
        argv = ["kernel", "--config", str(cfg), "--n", "2", "--y", "1/5,-2"]
        if point.startswith("-"):
            assert main(argv + ["--x", point]) == 3
            captured = capsys.readouterr()
            assert captured.out == "" and "--x: expected one argument" in captured.err
        assert main(argv + ([f"--x={point}"] if point.startswith("-") else ["--x", point])) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["x"] == text and obj["y"] == ["1/5", "-2"]
        system = build_system(1, 2, required_depth(DEPTH, 1, 2), seed=909)
        want = kernel_sum(system.A, system.B, 2, [parse_rat(v) for v in text], (rat(1, 5), rat(-2)))
        assert [[parse_rat(v) for v in row] for row in obj["matrix"]] == want

    @pytest.mark.parametrize("point", ["1/-2,0", "1/0,0"], ids=["negative-denominator", "zero-denominator"])
    def test_point_text_rejected(self, tmp_path, capsys, point):
        cfg = good_config(tmp_path)
        assert main(["kernel", "--config", str(cfg), "--n", "2", "--x", point, "--y", "0,0"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("config error: bad point: ")


def kernel_argv(cfg, n: int, x: str, y: str) -> list[str]:
    return ["kernel", "--config", str(cfg), "--n", str(n), f"--x={x}", f"--y={y}"]


def cold_output(argv: list[str], capsys) -> tuple[int, str, str]:
    """main(argv)'s exit code, stdout and stderr on an emptied kernel cache; the
    cache is put back as it was."""
    kept = dict(steppoly.cli._kernel_cache)
    steppoly.cli._kernel_cache.clear()
    code = main(argv)
    captured = capsys.readouterr()
    steppoly.cli._kernel_cache.clear()
    steppoly.cli._kernel_cache.update(kept)
    return code, captured.out, captured.err


class TestKernelReuse:
    """A kernel query on config bytes an earlier main() call of the process
    queried as deep reads that call's elimination; a deeper one eliminates
    anew.  Either way it prints what a query on an empty cache prints."""

    # n = 7 and 8 sit on either side of the first query's depth 8; 9 goes deeper
    SEQUENCE = [(7, "1/2,-1/3", "2/7,1/5"), (2, "3,-1", "1/4,2"), (0, "-2/3,5", "7,-1/6"),
                (7, "1,1", "-1,0"), (8, "-5/2,3/4", "1/3,1/9"), (9, "0,2", "-4/5,3"),
                (3, "5/6,-2", "3,3/7")]

    @pytest.mark.parametrize("shape", ["golden"] + SHAPES)
    def test_each_query_matches_an_empty_cache(self, tmp_path, monkeypatch, capsys, shape):
        cfg = shape_config(tmp_path, shape)
        A, B = extract_families(factorize(assemble_moments(load_config(cfg).measures, 10)))
        steps = counted_kernel_eliminate(monkeypatch)
        eliminated = []
        for n, x, y in self.SEQUENCE:
            steps.clear()
            argv = kernel_argv(cfg, n, x, y)
            assert main(argv) == 0
            out = capsys.readouterr().out
            eliminated.append(steps[:])
            assert cold_output(argv, capsys) == (0, out, ""), (n, x, y)
            want = kernel_sum(A, B, n, [parse_rat(v) for v in x.split(",")],
                              [parse_rat(v) for v in y.split(",")])
            assert [[parse_rat(v) for v in row] for row in json.loads(out)["matrix"]] == want
        assert eliminated == [[8], [], [], [], [9], [10], []]

    def test_rewritten_file_is_read_again(self, tmp_path, capsys):
        cfg = good_config(tmp_path)
        argv = kernel_argv(cfg, 3, "1/2,-1/3", "2/7,1/5")
        assert main(argv) == 0
        before = capsys.readouterr().out
        obj = json.loads(cfg.read_text())
        obj["measures"][0][0]["moments"]["0,0"] = "7/3"  # same path, other bytes
        cfg.write_text(json.dumps(obj))
        assert main(argv) == 0
        after = capsys.readouterr().out
        assert after != before
        assert cold_output(argv, capsys) == (0, after, "")

    def test_breakdown_past_the_kept_depth(self, tmp_path, monkeypatch, capsys):
        # Delta_7 of the six atoms' truncation vanishes: n = 3 is kept, n = 7 breaks down
        cfg = write_config(tmp_path, "atoms.json", 1, 1, 4, {"type": "discrete", "atoms": SIX_ATOMS})
        assert main(kernel_argv(cfg, 3, "1/2,1/3", "2,-1")) == 0
        capsys.readouterr()
        deep = kernel_argv(cfg, 7, "1/2,1/3", "2,-1")
        assert main(deep) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "factorization breakdown at index 6\n"
        assert cold_output(deep, capsys) == (2, "", captured.err)
        steps = counted_kernel_eliminate(monkeypatch)
        for n in (3, 2):
            argv = kernel_argv(cfg, n, "-1,4", "1/5,1/2")
            assert main(argv) == 0
            out = capsys.readouterr().out
            assert cold_output(argv, capsys) == (0, out, "")
        assert steps == [4, 3]  # each cold run eliminates, neither kept query does

    def test_unwritten_output_keeps_nothing(self, tmp_path, monkeypatch, capsys):
        cfg = good_config(tmp_path)
        (tmp_path / "taken").write_text("kept")
        argv = kernel_argv(cfg, 3, "1/2,-1/3", "2/7,1/5")
        assert main(argv + ["--out", str(tmp_path / "taken")]) == 3
        assert not steppoly.cli._kernel_cache
        steps = counted_kernel_eliminate(monkeypatch)
        assert main(argv) == 0
        assert steps == [4]

    def test_only_a_first_query_loads_the_config(self, tmp_path, monkeypatch, capsys):
        # bytes the cache does not hold are parsed by load_config; kept ones, deeper or not, are not
        cfg, loaded, load = good_config(tmp_path), [], steppoly.cli.load_config
        monkeypatch.setattr(steppoly.cli, "load_config", lambda *a: loaded.append(a) or load(*a))
        for n in (3, 1, 5, 2):
            assert main(kernel_argv(cfg, n, "1,2", "3,4")) == 0
        assert loaded == [(str(cfg), cfg.read_bytes())]

    def test_least_recently_used_config_dropped(self, tmp_path, monkeypatch, capsys):
        cfgs = []
        for i in range(steppoly.cli.KERNEL_CACHE_SIZE + 1):
            (tmp_path / str(i)).mkdir()
            cfgs.append(good_config(tmp_path / str(i), seed=i))
            assert main(kernel_argv(cfgs[-1], 2, "1,2", "3,4")) == 0
        capsys.readouterr()
        steps, eliminated = counted_kernel_eliminate(monkeypatch), []
        for i in (1, 0, 2, 1):  # 0 was dropped; bringing it back drops 2, read longest ago
            steps.clear()
            assert main(kernel_argv(cfgs[i], 2, "1,2", "3,4")) == 0
            eliminated.append(steps[:])
        assert eliminated == [[], [3], [3], []]


class TestRationalFactors:
    """verify reads only the integers of factorize and kernel factorizes nothing;
    compute forms no rational S or Sbar either: it writes each of them once,
    as text (ratio_text), for the depth x depth corner it exports."""

    @pytest.mark.parametrize("shape", ["golden", (2, 3)])
    def test_only_the_exports_build_them(self, tmp_path, monkeypatch, shape):
        if shape == "golden":
            cfg = Path(__file__).resolve().parent / "golden" / "config.json"
            depth = json.loads(cfg.read_text())["depth"]
        else:
            cfg, depth = good_config(tmp_path, *shape), DEPTH
        built = []

        def counting(minors, side, rows, *args):
            built.append((rows, *args))
            return unit_lower(minors, side, rows, *args)

        monkeypatch.setattr("steppoly.gaussborel.unit_lower", counting)
        monkeypatch.setattr("steppoly.cli.unit_lower", counting)
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "v")]) == 0
        assert main(["kernel", "--config", str(cfg), "--n", "4",
                     "--x", "1/2,-1/3", "--y", "2/7,1/5", "--out", str(tmp_path / "k")]) == 0
        assert built == []
        assert main(["compute", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 0
        assert built == [(depth, ratio_text)] * 2

    @pytest.mark.parametrize("shape", ["golden", (2, 3)])
    def test_compute_reduces_each_nonzero_entry_once(self, tmp_path, monkeypatch, shape):
        # one ratio_text per nonzero entry of every export, the unit diagonals
        # and A (which reuses the Sbar text) excepted, and one for each
        # structural "1" and "0" of S, Sbar, T1 and T2; verify calls one per entry
        # of the report's H, and kernel one per entry of its p x q matrix and
        # one per coordinate of its two points
        cfg = shape_config(tmp_path, shape)
        ws = Workspace(load_config(cfg))
        entries = rational_entries(ws)
        nonzero = sum(t != "0" and not (what in ("S", "Sbar") and m == n)
                      for what, rows in entries.items() for m, row in enumerate(rows)
                      for n, t in enumerate(row))
        nonzero += sum(len(row) for _, row in ws.B.rows[:ws.depth])
        calls = []

        def counting(num, den):
            calls.append((num, den))
            return ratio_text(num, den)

        monkeypatch.setattr("steppoly.cli.ratio_text", counting)
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "v")]) == 0
        assert [ratio_text(*c) for c in calls] == entries["H"][0]
        calls.clear()
        assert main(["kernel", "--config", str(cfg), "--n", "4",
                     "--x", "1/2,-1/3", "--y", "2/7,1/5", "--out", str(tmp_path / "k")]) == 0
        obj = json.loads((tmp_path / "k" / "kernel.json").read_text())
        assert len(calls) == ws.M.p * ws.M.q + 4
        assert [ratio_text(*c) for c in calls] == obj["x"] + obj["y"] + [t for row in obj["matrix"] for t in row]
        calls.clear()
        assert main(["compute", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 0
        assert len(calls) == nonzero + 6 and [c for c in calls if not c[0]] == [(0, 1)] * 4

    @pytest.mark.parametrize("shape", ["golden", (2, 3)])
    def test_no_rational_formed(self, tmp_path, monkeypatch, shape):
        # the config parses to integer pairs, the measures return integer moments,
        # every check compares the elimination's integers, projection's seeded
        # matrix polynomials and the kernel's points stay integer pairs, and every
        # output is written with ratio_text: a passing verify of every check, a
        # compute with and without --render-decimal and a kernel form no Fraction.
        # Fraction.__new__ is counted whoever calls it; reading H and one member's
        # values afterwards shows that the counter sees the Fractions the library
        # edge forms
        cfg = GOLDEN_CONFIG if shape == "golden" else good_config(tmp_path, *shape)
        x = (Fraction(1, 2), Fraction(-1, 3))
        new, formed = Fraction.__new__, []

        def counting(cls, *args, **kwargs):
            formed.append(sys._getframe(1).f_globals["__name__"])
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
        assert main(["verify", "--config", str(cfg), "--checks", ",".join(CHECK_NAMES),
                     "--out", str(tmp_path / "v")]) == 0
        assert formed == []
        for flags in ([], ["--render-decimal"]):
            assert main(["compute", "--config", str(cfg), "--out", str(tmp_path / "c"), *flags]) == 0
        assert formed == []
        assert main(["kernel", "--config", str(cfg), "--n", "4",
                     "--x", "1/2,-1/3", "--y", "2/7,1/5", "--out", str(tmp_path / "k")]) == 0
        assert formed == []
        ws = Workspace(load_config(cfg))
        assert formed == []
        ws.F.H, ws.A.eval(0, *x)
        assert formed == ["steppoly.gaussborel"] * ws.extended_depth + ["steppoly.families"] * ws.M.p


class TestRowsBuiltOnRead:
    """factorize back-substitutes each row of a factor's L that it keeps, once:
    compute keeps the rows of its depth window only, verify every row, and
    kernel factorizes nothing."""

    @pytest.mark.parametrize("shape", ["golden", (2, 3)])
    def test_compute_builds_only_the_window(self, tmp_path, monkeypatch, shape):
        cfg = GOLDEN_CONFIG if shape == "golden" else good_config(tmp_path, *shape)
        config = load_config(cfg)
        depth, extended = config.depth, extended_depth(config)
        assert depth < extended
        built = []

        def counting(minors, inv_cols, n):
            built.append((id(inv_cols), n))
            return _factor_row(minors, inv_cols, n)

        def rows_per_side():
            sides: dict = {}
            for side, n in built:
                sides.setdefault(side, []).append(n)
            built.clear()
            return sorted(sorted(rows) for rows in sides.values())

        monkeypatch.setattr("steppoly.gaussborel._factor_row", counting)
        assert main(["kernel", "--config", str(cfg), "--n", "4",
                     "--x", "1/2,-1/3", "--y", "2/7,1/5", "--out", str(tmp_path / "k")]) == 0
        assert rows_per_side() == []
        assert main(["compute", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 0
        assert rows_per_side() == [list(range(depth))] * 2
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "v")]) == 0
        assert rows_per_side() == [list(range(extended))] * 2


class TestMomentRowsScaledOnce:
    """Each truncation's rows are scaled when it is built, one over_lcm of its
    (num, den) moments per row: verify builds one truncation, M, and scales its
    rows once, whichever checks read them; kernel scales its one truncation
    once, and a later query on the same bytes no deeper builds none."""

    @pytest.mark.parametrize("shape", ["golden", (2, 3)])
    def test_each_row_scaled_once(self, tmp_path, monkeypatch, shape):
        cfg = shape_config(tmp_path, shape)
        extended = extended_depth(load_config(cfg))
        widths = []

        def counting(pairs):
            pairs = list(pairs)
            widths.append(len(pairs))
            return over_lcm(pairs)

        monkeypatch.setattr("steppoly.moments.over_lcm", counting)
        assert main(["verify", "--config", str(cfg), "--checks", ",".join(CHECK_NAMES),
                     "--out", str(tmp_path / "v")]) == 0
        assert widths == [extended] * extended
        widths.clear()
        assert main(["kernel", "--config", str(cfg), "--n", "4",
                     "--x", "1/2,-1/3", "--y", "2/7,1/5", "--out", str(tmp_path / "k")]) == 0
        assert widths == [5] * 5
        widths.clear()
        steps = counted_kernel_eliminate(monkeypatch)
        for n in ("4", "0"):
            assert main(["kernel", "--config", str(cfg), "--n", n, "--x", "3,1/4", "--y", "2,-1"]) == 0
        assert widths == [] and steps == []

    @pytest.mark.parametrize("shape", ["golden", (2, 3)])
    def test_verify_builds_one_truncation(self, tmp_path, monkeypatch, shape):
        # C_A M^T dots A's rows with M's own rows, so no check builds a
        # transposed (or any other) truncation
        cfg, built = shape_config(tmp_path, shape), []
        config, init = load_config(cfg), MomentTruncation.__init__

        def counting(self, depth, q, p, *rest):
            built.append((depth, q, p))
            init(self, depth, q, p, *rest)

        monkeypatch.setattr(MomentTruncation, "__init__", counting)
        assert main(["verify", "--config", str(cfg), "--checks", ",".join(CHECK_NAMES),
                     "--out", str(tmp_path / "v")]) == 0
        assert built == [(extended_depth(config), config.measures.q, config.measures.p)]


class TestRecurrenceReportShared:
    """verify proves each recurrence relation once: the recurrence and cd checks
    read one check_recurrence_matrix report per k, whichever of them run, and
    no check evaluates the families at a point (Family.eval)."""

    @pytest.mark.parametrize("shape", ["golden", (2, 3)])
    def test_relations_once_and_no_point_evaluated(self, tmp_path, monkeypatch, shape):
        cfg = shape_config(tmp_path, shape)
        relations, evaluations = [], []
        evaluate = Family.eval

        def counting_relations(T, A, B):
            relations.append(T.k)
            return check_recurrence_matrix(T, A, B)

        def counting_eval(fam, *args):
            evaluations.append(args)
            return evaluate(fam, *args)

        monkeypatch.setattr("steppoly.cli.check_recurrence_matrix", counting_relations)
        monkeypatch.setattr(Family, "eval", counting_eval)
        assert main(["verify", "--config", str(cfg), "--checks", ",".join(CHECK_NAMES),
                     "--out", str(tmp_path / "v")]) == 0
        assert relations == [1, 2]
        assert evaluations == []
        for name in CHECK_NAMES:
            relations.clear()
            evaluations.clear()
            assert main(["verify", "--config", str(cfg), "--checks", name]) == 0
            assert relations == ([1, 2] if name in ("recurrence", "cd") else []), name
            assert evaluations == [], name


class TestCheckScope:
    """The relations every check verifies, report by report in the order the
    check returns them (k = 1 before k = 2, the direct projection before the
    dual), pinned on the golden config and one table config per shape, each
    count derived from the check's definition: a check narrowed to k = 1, to
    one family, to fewer members or corners, or a projection drawn at a lower
    degree, fails here."""

    @pytest.mark.parametrize("shape", ["golden", *SHAPES])
    def test_names_and_counts(self, tmp_path, monkeypatch, shape):
        ws = Workspace(load_config(shape_config(tmp_path, shape)))
        q, p, D, E = ws.M.q, ws.M.p, ws.depth, ws.extended_depth

        def summary(name):
            return [rep.checked for rep in CHECKS[name](ws)]

        # hankel: every (m, n) whose shifted row n_plus(m, q, k) and column
        # n_plus(n, p, k) both lie inside the extended truncation
        assert summary("hankel") == [
            sum(n_plus(m, q, k) < E for m in range(E)) * sum(n_plus(n, p, k) < E for n in range(E))
            for k in (1, 2)]
        # dual: every entry of the window
        assert summary("dual") == [D * D] * 2
        # band: per row n, the zeros outside [first, last], the trailing 1 when
        # last is inside the window and the boxed H ratio when n avoids J_{p;k}
        assert summary("band") == [sum(
            n_minus_big(n, p, k) + max(D - 1 - n_plus(n, q, k), 0) + (n_plus(n, q, k) < D)
            + in_complement_J(n, p, k) for n in range(D)) for k in (1, 2)]
        # degree: one bound per component of each of the E members of both families
        assert summary("degree") == [E * (p + q)]
        # orthogonality: member n of each family against the n columns before it
        assert summary("orthogonality") == [D * (D - 1)]
        # biorthogonality: every entry of the depth-D Gram matrix
        assert summary("biorthogonality") == [D * D]
        # recurrence: one relation per component of B_n and of A_n, for each n
        # whose shifted indices n_plus(n, q, k) and n_plus(n, p, k) lie inside
        # the window; cd: one CD formula per such n
        n_max = {k: sum(n_plus(n, q, k) < D and n_plus(n, p, k) < D for n in range(D)) for k in (1, 2)}
        assert summary("recurrence") == [n_max[k] * (p + q) for k in (1, 2)]
        assert summary("cd") == [n_max[1], n_max[2]]
        # abc: one identity per corner n below min(D, 8)
        assert summary("abc") == [1] * min(D, 8)
        # reproduction: one identity, on the whole depth-D corner of the Gram matrix
        reached = []

        def spying_reproduction(A, B, gram, n):
            reached.append((len(gram), n))
            return check_reproduction(A, B, gram, n)

        check_reproduction = steppoly.cli.check_reproduction
        monkeypatch.setattr("steppoly.cli.check_reproduction", spying_reproduction)
        assert summary("reproduction") == [1]
        assert reached == [(D, D - 1)]
        drawn = []

        def spying(rng, size, I):
            drawn.append((size, I))
            return seeded_monic_columns(rng, size, I)

        seeded_monic_columns = steppoly.cli.seeded_monic_columns
        monkeypatch.setattr("steppoly.cli.seeded_monic_columns", spying)
        # every config here is deep enough for degree 3 on both sides; each
        # direction checks one relation per pair of components
        assert summary("projection") == [p * p, q * q]
        assert drawn == [(p, 3), (q, 3)]


class TestRecurrenceFormedOnRead:
    """verify reads each T_k through its integers and writes no entry of any T_k
    as text, the transposed one inside the dual check included, when every
    check passes; compute writes each T_1 and T_2 once, as text, for both of
    their exports.  No rational T_k is formed: recurrence imports only
    ratio_text from rational."""

    @pytest.mark.parametrize("shape", ["golden", (2, 3)])
    def test_text_written_for_the_exports_only(self, tmp_path, monkeypatch, shape):
        cfg = shape_config(tmp_path, shape)
        ws = Workspace(load_config(cfg))
        nonzero = sum(a != 0 for k in (1, 2) for row in ws.T[k].acc for a in row)
        texts, written = [], []
        entries = RecurrenceTruncation.entries

        def counting_text(*args):
            texts.append(args)
            return ratio_text(*args)

        def counting_entries(T, ratio):
            def counted(*args):
                written.append(T.k)
                return ratio(*args)

            assert ratio is ratio_text
            return entries(T, counted)

        monkeypatch.setattr("steppoly.recurrence.ratio_text", counting_text)
        monkeypatch.setattr(RecurrenceTruncation, "entries", counting_entries)
        assert main(["verify", "--config", str(cfg), "--checks", ",".join(CHECK_NAMES),
                     "--out", str(tmp_path / "v")]) == 0
        assert texts == [] and written == []
        assert main(["compute", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 0
        # one ratio_text per nonzero entry of T_1 and T_2, the JSON and CSV exports
        # together, and one for each table's "0"
        assert texts == [] and len(written) == nonzero + 2
        assert sorted(set(written)) == [1, 2]


class TestBuiltOnFirstRead:
    """A Workspace factorizes when it is made, so a breakdown comes before any
    check; the families, T_1, T_2 and the moment product C_B M are built on
    their first read and kept.  compute sums T_1 and T_2 over their
    bands only, verify densely."""

    def test_hankel_builds_no_family_and_no_recurrence(self, tmp_path, monkeypatch):
        calls = []
        for name in ("extract_families", "build_recurrence"):
            monkeypatch.setattr(f"steppoly.cli.{name}", lambda *args, _name=name, **kw: calls.append(_name))
        assert main(["verify", "--config", str(GOLDEN_CONFIG), "--checks", "hankel",
                     "--out", str(tmp_path)]) == 0
        assert calls == []
        want = json.loads((GOLDEN_CONFIG.parent / "report.json").read_text())
        want["checks"] = [c for c in want["checks"] if c["name"] == "hankel"]
        want["summary"] = {"fail": 0, "pass": 1, "skipped": 0}
        assert (tmp_path / "report.json").read_text() == json.dumps(want, indent=2, sort_keys=True) + "\n"

    def test_each_part_built_once(self, monkeypatch):
        calls = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            monkeypatch.setattr(f"steppoly.cli.{name}", wrapper)

        counting("extract_families", steppoly.cli.extract_families)
        counting("build_recurrence", steppoly.cli.build_recurrence)
        counting("moment_rows", steppoly.cli.moment_rows)
        ws = Workspace(load_config(GOLDEN_CONFIG))
        assert calls == []
        assert ws.A is ws.A and ws.B is ws.B and ws.T is ws.T
        assert calls == ["extract_families", "build_recurrence", "build_recurrence"]
        assert ws.products is ws.products and ws.gram is ws.gram
        assert calls[3:] == ["moment_rows"]

    @pytest.mark.parametrize("shape", ["golden", (2, 3)])
    def test_verify_forms_each_moment_product_once(self, tmp_path, monkeypatch, shape):
        # orthogonality, the Gram matrix and projection read the one product
        # C_B M the Workspace forms, over B's D members; projection's dual
        # direction forms P^T's own, over its q members; hankel reads no
        # family, so it forms none
        cfg, calls = shape_config(tmp_path, shape), []

        def counting(fam, M, cols, _fn=steppoly.families.moment_rows):
            calls.append((len(fam), fam.r, cols))
            return _fn(fam, M, cols)

        for where in ("steppoly.families", "steppoly.cli"):
            monkeypatch.setattr(f"{where}.moment_rows", counting)
        config = load_config(cfg)
        D, q, out = config.depth, config.measures.q, str(tmp_path / "v")
        assert main(["verify", "--config", str(cfg), "--out", out]) == 0
        assert len(CHECK_NAMES) == 11 and calls == [(D, q, D), (q, q, D)]
        for checks, want in (("orthogonality,biorthogonality,reproduction", [(D, q, D)]),
                             ("projection", [(D, q, D), (q, q, D)]), ("hankel", [])):
            calls.clear()
            assert main(["verify", "--config", str(cfg), "--checks", checks, "--out", out]) == 0
            assert calls == want, checks

    @pytest.mark.parametrize("shape", ["golden", (2, 3)])
    def test_only_compute_sums_over_the_band(self, tmp_path, monkeypatch, shape):
        cfg, routes = shape_config(tmp_path, shape), []

        def spying(*args, band=False, **kwargs):
            routes.append(band)
            return build_recurrence(*args, band=band, **kwargs)

        monkeypatch.setattr("steppoly.cli.build_recurrence", spying)
        assert main(["compute", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 0
        assert routes == [True, True]
        routes.clear()
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "v")]) == 0
        assert routes == [False, False]


class TestCsvBytes:
    """export_csv joins its fields; csv.writer is the oracle for those bytes."""

    @pytest.mark.parametrize("shape", ["golden", (2, 3)])
    def test_matches_csv_writer(self, tmp_path, shape):
        cfg = shape_config(tmp_path, shape)
        ws = Workspace(load_config(cfg))
        kinds = [what for what in EXPORT_KINDS if what != "families"]
        for flags in ([], ["--render-decimal"]):
            out = tmp_path / f"out{len(flags)}"
            assert main(["compute", "--config", str(cfg), "--out", str(out), *flags]) == 0
            for what in kinds:
                want = csv_writer_text(rational_entries(ws)[what], bool(flags))
                assert (out / f"{what}.csv").read_bytes() == want.encode(), (what, flags)

    def test_render_decimal_beyond_float_range(self, tmp_path):
        # one moment is 10^400: a float() of it, or of the entries built from
        # it, overflows or underflows, so those decimals are rounded from the
        # exact rational
        rng = random.Random(3)
        moments = {f"{s},{t}": str(rng.randint(1, 30)) for s in range(7) for t in range(7 - s)}
        moments["1,0"] = str(10 ** 400)
        cfg = write_config(tmp_path, "huge.json", 1, 1, 2,
                           {"type": "table", "max_total_deg": 6, "moments": moments})
        plain, dec = tmp_path / "plain", tmp_path / "dec"
        assert main(["compute", "--config", str(cfg), "--out", str(plain)]) == 0
        assert main(["compute", "--config", str(cfg), "--out", str(dec), "--render-decimal"]) == 0
        names = sorted(os.listdir(plain))
        assert len(names) == 13 and sorted(os.listdir(dec)) == names
        beyond = 0
        for name in names:
            if name.endswith(".json"):
                assert (dec / name).read_bytes() == (plain / name).read_bytes(), name
                continue
            with (plain / name).open() as fh, (dec / name).open() as gh:
                pairs = list(zip(csv.reader(fh), csv.reader(gh), strict=True))
            for exact_row, row in pairs:
                width = len(exact_row)
                assert row[:width] == exact_row, name
                for exact, text in zip(exact_row, row[width:], strict=True):
                    v = Fraction(exact)
                    if sys.float_info.min <= abs(v) <= sys.float_info.max or v == 0:
                        assert text == f"{float(v):.12g}", (name, exact)
                        continue
                    # the shape .12g gives: 12 digits at most, no trailing zeros
                    beyond += 1
                    assert re.fullmatch(r"-?[1-9](\.[0-9]*[1-9])?e[+-][0-9]{3,}", text), text
                    assert len(re.sub(r"\D", "", text.split("e")[0])) <= 12
                    assert abs(Fraction(text) - v) <= abs(v) * Fraction(5, 10 ** 12), (name, text)
        assert beyond > 0
        with (dec / "moments.csv").open() as fh:
            assert next(csv.reader(fh))[2:] == ["8", "1e+400"]
        with (dec / "H.csv").open() as fh:
            assert next(csv.reader(fh))[2:] == ["8", "-1.25e+799"]

    def test_render_decimal_below_float_range(self, tmp_path):
        # float() gives 0 or a subnormal here, so these are rounded from the exact rational
        assert _decimal_text(f"1/{10**400}") == "1e-400"
        assert _decimal_text(f"123456789012345/{10**330}") == "1.23456789012e-316"
        assert _decimal_text(f"-1/{2 * 10**319}") == "-5e-320"
        assert _decimal_text("0") == "0"
        assert _decimal_text(f"3/{10**308}") == f"{3e-308:.12g}"  # the smallest normal floats
        rng = random.Random(4)
        moments = {f"{s},{t}": str(rng.randint(1, 30)) for s in range(7) for t in range(7 - s)}
        moments["1,0"] = f"1/{10**400}"
        cfg = write_config(tmp_path, "tiny.json", 1, 1, 2,
                           {"type": "table", "max_total_deg": 6, "moments": moments})
        dec = tmp_path / "dec"
        assert main(["compute", "--config", str(cfg), "--out", str(dec), "--render-decimal"]) == 0
        with (dec / "moments.csv").open() as fh:
            assert next(csv.reader(fh))[3] == "1e-400"


class TestExportOracle:
    """compute writes every export, JSON and CSV, with and without
    --render-decimal, byte for byte as the route through rationals and
    json.dumps (_support.rational_exports) writes it."""

    CASES = ["golden", "huge"] + [(kind, q, p) for q, p in SHAPES for kind in ("table", "mixed")]

    @pytest.mark.parametrize("case", CASES, ids=lambda c: c if isinstance(c, str) else "-".join(map(str, c)))
    def test_every_file_matches_the_rational_route(self, tmp_path, case):
        if case in ("golden", "huge"):
            cfg = GOLDEN_CONFIG if case == "golden" else HUGE_CONFIG
        else:
            cfg = shape_config(tmp_path, case[1:], case[0])
        ws = Workspace(load_config(cfg))
        for flags in ([], ["--render-decimal"]):
            out = tmp_path / f"out{len(flags)}"
            assert main(["compute", "--config", str(cfg), "--out", str(out), *flags]) == 0
            want = rational_exports(ws, bool(flags))
            assert sorted(os.listdir(out)) == sorted(want) and len(want) == 13
            for name, text in want.items():
                assert (out / name).read_bytes() == text.encode(), (name, flags)


class TestUnwritableOutput:
    """An --out that names a file, or a directory that cannot be made, is a
    config error: exit 3 and one stderr line, no traceback."""

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
    @pytest.mark.parametrize("command", ["compute", "verify", "kernel"])
    def test_exits_three(self, tmp_path, capsys, command, below):
        cfg = good_config(tmp_path)
        taken = tmp_path / "taken"
        taken.write_text("kept")
        out = taken / "sub" if below else taken
        extra = ["--n", "2", "--x", "0,0", "--y", "1,1"] if command == "kernel" else []
        assert main([command, "--config", str(cfg), "--out", str(out), *extra]) == 3
        err = capsys.readouterr().err
        assert re.search(rf"^config error: cannot write {re.escape(str(out))}: \S", err, re.M), err
        assert "Traceback" not in err and taken.read_text() == "kept"


class TestHugeEntries:
    """Entries past the interpreter's 4,300-digit limit on int/str conversion."""

    def test_compute_and_verify(self, tmp_path):
        rng = random.Random(5)
        moments = {f"{s},{t}": str(rng.randint(1, 30)) for s in range(7) for t in range(7 - s)}
        moments["1,0"] = "1" + "0" * 5000
        cfg = write_config(tmp_path, "huge.json", 1, 1, 2,
                           {"type": "table", "max_total_deg": 6, "moments": moments})
        out = tmp_path / "out"
        assert main(["compute", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["status"] == "ok"
        ws = Workspace(load_config(cfg))
        for what in ("moments", "H", "S", "T1"):
            obj = json.loads((out / f"{what}.json").read_text())
            got = [obj["values"]] if what == "H" else obj["entries"]
            assert got == rational_entries(ws)[what], what
        moment = json.loads((out / "moments.json").read_text())["entries"][0][1]
        assert moment == "1" + "0" * 5000 and parse_rat(moment) == 10**5000


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

    @settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.binary())
    def test_config_file_bytes(self, tmp_path, data):
        # any bytes as the config file: a documented exit code, no exception out of main
        path = tmp_path / "config.json"
        path.write_bytes(data)
        assert main(["verify", "--config", str(path), "--checks", "hankel"]) in (0, 1, 2, 3)


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
        assert re.search(r"^elapsed \d+\.\d{3}s$", proc.stderr, re.MULTILINE)

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


def run_into_closed_pipe(args: list[str]) -> subprocess.CompletedProcess:
    """python -m steppoly.cli args in a child process whose stdout is a pipe with
    its read end already closed, so that every write to stdout fails."""
    read, write = os.pipe()
    os.close(read)
    try:
        return subprocess.run([sys.executable, "-m", "steppoly.cli", *args], stdout=write,
                              stderr=subprocess.PIPE, text=True, env=checkout_env(), timeout=60)
    finally:
        os.close(write)


class TestClosedStdout:
    """A reader that has closed stdout changes neither a run's exit code nor the
    files it writes, and no traceback reaches stderr."""

    def test_verify_writes_the_golden_report(self, tmp_path):
        proc = run_into_closed_pipe(["verify", "--config", str(GOLDEN_CONFIG), "--out", str(tmp_path)])
        assert proc.returncode == 0 and re.fullmatch(r"elapsed \d+\.\d{3}s\n", proc.stderr)
        assert (tmp_path / "report.json").read_bytes() == (GOLDEN_CONFIG.parent / "report.json").read_bytes()

    def test_breakdown_keeps_exit_two(self, tmp_path):
        out = tmp_path / "v"
        proc = run_into_closed_pipe(["verify", "--config", str(breakdown_config(tmp_path)), "--out", str(out)])
        assert proc.returncode == 2 and re.fullmatch(r"elapsed \d+\.\d{3}s\n", proc.stderr)
        assert json.loads((out / "report.json").read_text())["breakdown_index"] == 1

    def test_kernel_exits_zero(self):
        proc = run_into_closed_pipe(["kernel", "--config", str(GOLDEN_CONFIG), "--n", "3",
                                     "--x", "1/2,-1/3", "--y", "2/7,1/5"])
        assert (proc.returncode, proc.stderr) == (0, "")


# Counts every ArgumentParser built: after import and load_config, then after
# each of two main() calls.
COUNT_PARSERS = """\
import argparse, io, sys
from contextlib import redirect_stdout
built = []
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    built.append(self)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
from steppoly import cli
cli.load_config(sys.argv[1])
counts = [len(built)]
for argv in (["verify", "--config", sys.argv[1], "--checks", "degree"],
             ["kernel", "--config", sys.argv[1], "--n", "1", "--x", "1,2", "--y", "3,4"]):
    with redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    counts.append(len(built))
print(*counts)
"""


class TestRepeatedMain:
    def test_parser_built_once_and_not_at_import(self):
        proc = subprocess.run([sys.executable, "-c", COUNT_PARSERS, str(GOLDEN_CONFIG)],
                              capture_output=True, text=True, env=checkout_env(), check=True)
        at_import, first, second = map(int, proc.stdout.split())
        assert at_import == 0
        assert first > 0
        assert second == first

    def test_successive_calls_are_independent(self, tmp_path, capsys):
        golden = GOLDEN_CONFIG.parent
        assert main(["frobnicate"]) == 3
        assert main(["verify", "--config", str(GOLDEN_CONFIG), "--checks", "hankel",
                     "--seed", "3"]) == 0
        assert main(["verify", "--config", str(GOLDEN_CONFIG), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "report.json").read_bytes() == (golden / "report.json").read_bytes()
        capsys.readouterr()
        for _ in range(2):
            assert main(["kernel", "--config", str(GOLDEN_CONFIG), "--n", "4",
                         "--x", "1/2,-1/3", "--y", "2/7,1/5"]) == 0
            assert capsys.readouterr().out == (golden / "kernel.json").read_text()
        for _ in range(2):
            assert main(["--help"]) == 0
            assert capsys.readouterr().out.startswith("usage: steppoly")


def test_import_loads_no_code_introspection():
    """Importing the CLI in a fresh interpreter loads none of the standard-library
    modules behind dataclasses' generated code."""
    code = ("import sys; before = set(sys.modules); import steppoly.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=checkout_env(), check=True)
    added = set(proc.stdout.split())
    assert "steppoly.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize"}
