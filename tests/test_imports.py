"""Every name a steppoly module imports is read in that module, and every public
name src/ defines has a reader."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "steppoly"


def unread_imports(source: str) -> list[str]:
    """The names source imports and never reads; names listed in its __all__
    count as read, and __future__ imports are features, not names."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {elt.value for elt in node.value.elts}
    return sorted(name for name in imported if name not in read)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unread_imports(path.read_text()) == [], path.name


@pytest.mark.parametrize("name", ["recurrence.py", "cdkernel.py"])
def test_only_ratio_text_from_rational(name):
    # the recurrence and kernel checks compare integers and form no rational
    tree = ast.parse((SRC / name).read_text())
    names = {alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "rational" for alias in node.names}
    assert names <= {"ratio_text"}, name


def test_flags_an_unread_import():
    source = ("from __future__ import annotations\n"
              "from math import gcd, lcm\n"
              "import os.path\n"
              "__all__ = ['gcd']\n"
              "print(lcm(2, 3))\n")
    assert unread_imports(source) == ["os"]


def unread_definitions(sources: list[str], texts: list[str]) -> list[str]:
    """The public top-level functions and classes of the sources, and the public
    methods of those classes, that have no reader: no Name, Attribute or
    imported name in any of the sources reads them, and no text holds the name
    as a word.  A method is named Class.method."""
    trees = [ast.parse(source) for source in sources]
    read = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            read |= {alias.name.rpartition(".")[2] for alias in node.names}
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    defined = []
    for top in (node for tree in trees for node in tree.body if isinstance(node, defs)):
        defined.append((top.name, top.name))
        if isinstance(top, ast.ClassDef):
            defined += [(node.name, f"{top.name}.{node.name}") for node in top.body
                        if isinstance(node, defs[:2])]
    text = "\n".join(texts)
    return [label for name, label in defined if not name.startswith("_") and name not in read
            and not re.search(rf"\b{re.escape(name)}\b", text)]


def test_every_public_name_has_a_reader():
    # item 4's done-when: src/ does each job once, so a definition nothing reads goes
    sources = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    texts = [(ROOT / "README.md").read_text()]
    texts += [path.read_text() for path in sorted((ROOT / "bench").glob("*.py"))]
    assert unread_definitions(sources, texts) == []


def test_flags_an_unread_definition():
    source = ("class Shape:\n"
              "    def area(self): return 0\n"
              "    def grow(self): return self.area()\n"
              "    def _hidden(self): return 1\n"
              "def draw(): return Shape()\n"
              "def erase(): return None\n"
              "def documented(): return None\n")
    assert unread_definitions([source], ["call documented() first"]) == ["Shape.grow", "draw", "erase"]


STEPPOLY_MODULE = re.compile(r"\bsteppoly(?:\.\w+)+")
STEPPOLY_PACKAGE = re.compile(r"\bimport\s+steppoly\b(?!\.)")
STEPPOLY_IMPORT = re.compile(r"\bfrom\s+(steppoly[\w.]*)\s+import\s+(.*)")


def foreign_names(text: str) -> list[str]:
    """Each steppoly name the text reaches past the command line: a dotted module
    other than steppoly.cli, the bare package, or a from-import other than
    `from steppoly.cli import main`.  Read as plain text, so a workflow needs
    no YAML parser."""
    found = [m[0] for m in STEPPOLY_MODULE.finditer(text) if m[0] != "steppoly.cli"]
    found += [m[0] for m in STEPPOLY_PACKAGE.finditer(text)]
    found += [f"{module}: {names.strip()}" for module, names in STEPPOLY_IMPORT.findall(text)
              if (module, names.strip()) != ("steppoly.cli", "main")]
    return found


def test_ci_reads_steppoly_only_through_the_cli():
    # a CI step that imports a src/ function breaks, or silently times something
    # else, whenever that function changes; the command line is the stable surface
    assert foreign_names((ROOT / ".github" / "workflows" / "tier1.yml").read_text()) == []


def test_flags_a_name_past_the_cli():
    text = ('python -X importtime -c "import steppoly.cli"\n'
            "from steppoly.cli import main\n"
            "from steppoly import assemble_moments, factorize\n"
            "from steppoly.gaussborel import _certified, eliminate\n"
            "from steppoly.cli import RunConfig, Workspace, write_exports\n"
            "import steppoly.recurrence\n"
            "import steppoly as sp\n")
    assert foreign_names(text) == [
        "steppoly.gaussborel", "steppoly.recurrence", "import steppoly",
        "steppoly: assemble_moments, factorize", "steppoly.gaussborel: _certified, eliminate",
        "steppoly.cli: RunConfig, Workspace, write_exports"]
