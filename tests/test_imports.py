"""Every name a steppoly module imports is read in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "steppoly"


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
