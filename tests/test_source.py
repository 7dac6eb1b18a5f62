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


def _private_imports(source: str) -> list[str]:
    """The ``_``-prefixed names a module imports from armid's own modules."""
    return [
        f"line {node.lineno}: {alias.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "armid")
        for alias in node.names
        if alias.name.startswith("_")
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_a_private_name_of_another(path):
    assert _private_imports(path.read_text()) == []


def test_the_check_sees_a_private_import():
    source = (
        "from __future__ import annotations\nfrom os import _exit\n"
        "from .signals import _write_csv, trial_to_csv\nfrom armid.model import _REQUIRED\n"
    )
    assert _private_imports(source) == ["line 3: _write_csv", "line 4: _REQUIRED"]


def _mkdir_calls(source: str) -> list[str]:
    """The lines on which ``source`` calls a ``mkdir`` or ``makedirs`` attribute."""
    return [
        f"line {node.lineno}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("mkdir", "makedirs")
    ]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "model.py"], ids=lambda p: p.name
)
def test_only_the_artifact_writers_create_directories(path):
    # model.write_csv and model.write_json create the directory they write into,
    # so a command that fails before its first artifact leaves no --out behind.
    assert _mkdir_calls(path.read_text()) == []


def test_the_check_sees_a_mkdir_call():
    source = "import os\nfrom pathlib import Path\nPath('o').mkdir()\nos.makedirs('p')\n"
    assert _mkdir_calls(source) == ["line 3", "line 4"]


def _exit_code_readers(source: str) -> list[str]:
    """The lines on which a top-level function other than ``main`` reads
    ``EXIT_OK`` or ``EXIT_WARNINGS``."""
    return [
        f"line {node.lineno}: {node.id} in {func.name}"
        for func in ast.parse(source).body
        if isinstance(func, ast.FunctionDef) and func.name != "main"
        for node in ast.walk(func)
        if isinstance(node, ast.Name) and node.id in ("EXIT_OK", "EXIT_WARNINGS")
    ]


def test_only_main_decides_a_success_exit_code():
    # Each command returns the warnings it flagged; main prints them and picks 0 or 2.
    source = (Path(armid.__file__).parent / "cli.py").read_text()
    assert _exit_code_readers(source) == []


def test_the_check_sees_an_exit_code_outside_main():
    source = (
        "EXIT_OK, EXIT_WARNINGS = 0, 2\n"
        "def cmd(flag):\n    return EXIT_WARNINGS if flag else EXIT_OK\n"
        "def main():\n    return EXIT_OK\n"
    )
    assert _exit_code_readers(source) == [
        "line 3: EXIT_WARNINGS in cmd", "line 3: EXIT_OK in cmd"
    ]


def _trajectories_built_to_check(source: str) -> list[str]:
    """The lines on which ``source`` calls ``FourierTrajectory`` outside a ``return``
    statement and outside ``trajectory_from_dict``."""
    tree = ast.parse(source)
    allowed = {
        id(node)
        for scope in ast.walk(tree)
        if isinstance(scope, ast.Return)
        or (isinstance(scope, ast.FunctionDef) and scope.name == "trajectory_from_dict")
        for node in ast.walk(scope)
    }
    lines = sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "FourierTrajectory"
        and id(node) not in allowed
    )
    return [f"line {line}" for line in lines]


def test_excite_builds_a_trajectory_only_to_hand_it_back():
    # The checks of a sampled period live in the function that builds its grid,
    # so no trajectory is built only to run them.
    source = (Path(armid.__file__).parent / "excite.py").read_text()
    assert _trajectories_built_to_check(source) == []


def test_the_check_sees_a_trajectory_built_to_check():
    source = (
        "def design(w):\n    start = FourierTrajectory(w, 1)\n    return FourierTrajectory(w, 2)\n"
        "def trajectory_from_dict(d):\n    traj = FourierTrajectory(**d)\n    return traj\n"
        "DEFAULT = FourierTrajectory(1.0, 1)\n"
    )
    assert _trajectories_built_to_check(source) == ["line 2", "line 7"]
