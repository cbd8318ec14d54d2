"""Source hygiene of the `voicing` package, by an `ast` walk: every import
is used in its module, and every module-level private name is referenced
somewhere in the package."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "voicing"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def bare_names(tree):
    """Every bare name the code reads."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}


def read_names(tree):
    """Every name the code reads: bare names, attribute names and names
    imported from another module."""
    names = bare_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unused_imports(tree):
    """Names an import binds that the module never reads."""
    read = bare_names(tree)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    return sorted(name for name in bound if name not in read)


def private_definitions(tree):
    """Module-level names with one leading underscore that the module defines."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(parse(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_name_is_referenced(path):
    read = set().union(*(read_names(parse(p)) for p in MODULES))
    assert [name for name in private_definitions(parse(path)) if name not in read] == []


def test_walk_flags_leftovers():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "from .analysis import harmonic_amplitudes, interpolate_lines\n"
        "_USED = 1\n"
        "_UNUSED = 2\n"
        "def _helper():\n"
        "    return np.zeros(_USED)\n"
        "def engine():\n"
        "    return _helper(), harmonic_amplitudes\n"
    )
    assert unused_imports(tree) == ["interpolate_lines"]
    assert [name for name in private_definitions(tree) if name not in read_names(tree)] == ["_UNUSED"]
