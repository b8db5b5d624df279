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


def test_public_surface_is_the_quick_start_imports(monkeypatch):
    block = re.search(r"^from steppoly import \((.*?)\)", (ROOT / "README.md").read_text(),
                      re.S | re.M)
    imported = {name.strip() for name in block.group(1).split(",") if name.strip()}
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import steppoly

    assert set(steppoly.__all__) == imported


def test_layout_lists_every_module():
    block = re.search(r"^src/steppoly/\n(.*?)^```", (ROOT / "README.md").read_text(), re.S | re.M)
    listed = [line.split()[0] for line in block.group(1).splitlines()]
    modules = sorted(path.name for path in (ROOT / "src" / "steppoly").glob("*.py"))
    assert sorted(listed) == [name for name in modules if name != "__init__.py"]
