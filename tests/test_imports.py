"""Every name a package module imports is used in it (the package's __init__
uses its imports by listing them in __all__). Checked on the parsed source,
with no linter needed."""

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
