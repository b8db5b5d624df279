"""The README's library quick start runs as written."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_quick_start_runs(monkeypatch, capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.S | re.M)
    assert len(blocks) == 1
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    exec(compile(blocks[0], "README.md", "exec"), {"__name__": "readme_quick_start"})
    assert capsys.readouterr().out.strip()
