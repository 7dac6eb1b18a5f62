"""Checks on armid's own source text, made with the standard library's ``ast``."""

import ast
from pathlib import Path

import pytest

import armid

MODULES = sorted(Path(armid.__file__).parent.glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    """The names a module's top-level imports bind that nothing else in it reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_top_level_import_is_used(path):
    assert _unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = "import json\nimport math as m\nfrom os import path, sep\nprint(m.pi, sep)\n"
    assert _unused_imports(source) == ["line 1: json", "line 3: path"]
