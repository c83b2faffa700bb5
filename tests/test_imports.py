"""Every name a package module imports is used in it (the package's __init__
uses its imports by listing them in __all__), every name in __all__ is bound on
the package, and every module-level private name is read by package code outside
its own definition. Checked on the parsed source, with no linter needed."""

import ast
from pathlib import Path

import pytest

import mrtucker

MODULES = sorted(Path(mrtucker.__file__).parent.glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):     # names re-exported through __all__
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_import_is_reported():
    src = "from dataclasses import dataclass, field\n\n@dataclass\nclass A:\n    x: int = 0\n"
    assert _unused_imports(src) == ["field (line 1)"]
    assert _unused_imports("import numpy as np\n__all__ = ['np']\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert _unused_imports(path.read_text()) == [], path.name


def test_all_names_are_bound():
    # a name left in __all__ after its function is removed breaks
    # "from mrtucker import *" and nothing else would notice
    assert [name for name in mrtucker.__all__ if not hasattr(mrtucker, name)] == []


def _unread_private_names(sources: dict) -> list[str]:
    """Module-level functions, classes and constants named "_x" (not dunders) that
    no module reads, as a name or an attribute, outside their own definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = [(node.id if isinstance(node, ast.Name) else node.attr, id(node))
             for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)]
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            inside = {id(n) for n in ast.walk(node)}
            unread += [f"{module}: {name}" for name in names
                       if name.startswith("_") and not name.startswith("__")
                       and not any(r == name and i not in inside for r, i in reads)]
    return unread


def test_unread_private_name_is_reported():
    a = ("_LIMIT = 3\n_UNUSED = 4\n\ndef _walk(n):\n    return _walk(n - 1) if n else 0\n\n"
         "def _used():\n    return _LIMIT\n")
    b = "from a import _used\n\ndef f():\n    return _used()\n"
    assert _unread_private_names({"a.py": a, "b.py": b}) == ["a.py: _UNUSED", "a.py: _walk"]
    assert _unread_private_names({"c.py": "import m\n_X = 1\n\ndef f():\n    return m._X\n"}) == []


def test_private_names_are_read_by_package_code():
    # a helper left behind by a deletion, or one only the tests still call
    sources = {path.name: path.read_text() for path in MODULES}
    assert _unread_private_names(sources) == []
